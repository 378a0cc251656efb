"""Locates the interior SNR where constellation-constrained secrecy capacity peaks.

The search works on the decibel axis: a coarse scan brackets every strict
local maximum of the secrecy-capacity curve, each bracket is refined by
golden-section search, and the best refined point wins. The scan also audits
the working assumption that the curve has a single interior peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .capacity import WiretapChannel, cc_secrecy_capacity, db_to_linear
from .constellation import Constellation
from .integrate import HermiteRule, gauss_hermite

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Grid values at or below this are treated as numerically zero: they carry no
# usable secrecy and their sub-roundoff wiggles must not count as peaks.
NEGLIGIBLE = 1e-12

# Refined maxima closer than this (in bits) are a tie; the lower SNR wins.
TIE_TOL = 1e-9

# Most points a start:stop:step grid may have. Finer grids are rejected where
# they enter, not by running out of memory in the middle of a scan.
MAX_GRID_POINTS = 1_000_000

# A grid includes its stop value when stop lands this close (in steps) to a
# step multiple.
GRID_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class SearchOptions:
    """Scan window, grid step, refinement tolerance (all dB), quadrature order."""

    scan_lo_db: float = -30.0
    scan_hi_db: float = 50.0
    scan_step_db: float = 0.5
    tol_db: float = 0.01
    gh_order: int = 32

    def __post_init__(self):
        for name in ("scan_lo_db", "scan_hi_db", "scan_step_db", "tol_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.tol_db <= 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tol_db}")
        # The top grid point must have a linear value.
        db_to_linear(grid_points(self.scan_lo_db, self.scan_hi_db, self.scan_step_db)[-1])


@dataclass(frozen=True)
class MaximumResult:
    """Refined secrecy-capacity maximum for one noise ratio, and how it was found."""

    sigma_sq: float
    snr_max_db: float
    snr_max_linear: float
    c_max: float
    bracket: tuple[float, float]
    grid_local_maxima: int
    iterations: int
    unimodal_ok: bool


def _golden(f: Callable[[float], float], lo: float, hi: float, tol: float):
    """Golden-section search for the maximum of f on [lo, hi].

    Returns (x, f(x), iterations). x is within tol of the argmax when f is
    unimodal on the bracket, or as close as float spacing allows.
    """
    a, b = lo, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    # Once float spacing stops the bracket from shrinking, c and d collide
    # with each other or an end, and a tolerance below that spacing would
    # never be met.
    while (b - a) > tol and a < c < d < b:
        iterations += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x), iterations


def grid_points(start: float, stop: float, step: float) -> np.ndarray:
    """The grid start, start + step, ... up to stop.

    stop is included when it lands on a step multiple (within GRID_EDGE_TOL
    steps). Raises ValueError unless start < stop and step > 0, and for a
    grid of more than MAX_GRID_POINTS points.
    """
    if not (start < stop and step > 0.0):
        raise ValueError(f"grid needs lo < hi and step > 0, got {start}:{stop}:{step}")
    count = (stop - start) / step + GRID_EDGE_TOL
    # Written so that an infinite or NaN count is rejected too.
    if not count < MAX_GRID_POINTS:
        raise ValueError(
            f"grid {start}:{stop}:{step} has more than {MAX_GRID_POINTS} points"
        )
    return start + step * np.arange(math.floor(count) + 1)


def scan_secrecy_grid(
    c: Constellation, sigma_sq: float | np.ndarray, opts: SearchOptions | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Secrecy capacity evaluated on the options' dB grid.

    Returns (grid_db, values) with the grid inclusive of the upper edge when
    it lands on a step multiple. sigma_sq may be a column of noise ratios
    (shape (k, 1)); values then has one row per ratio, and the main channel
    is evaluated once for all of them.
    """
    opts = opts or SearchOptions()
    grid = grid_points(opts.scan_lo_db, opts.scan_hi_db, opts.scan_step_db)
    rule = gauss_hermite(opts.gh_order)
    ch = WiretapChannel(db_to_linear(grid), sigma_sq)
    return grid, cc_secrecy_capacity(c, ch, rule).bits


def find_secrecy_maximum(
    c: Constellation, sigma_sq: float, opts: SearchOptions | None = None
) -> MaximumResult:
    """Locate the interior SNR maximizing secrecy capacity for one noise ratio.

    Scans the dB grid, counts strict interior local maxima above the
    negligibility floor, refines each bracket by golden-section search, and
    returns the best refined point (ties within 1e-9 bits go to the lower
    SNR). unimodal_ok reports whether the scan saw exactly one local maximum.
    This is the one-ratio case of sweep_max_vs_sigma.
    """
    return sweep_max_vs_sigma(c, [sigma_sq], opts)[0]


def _refine(
    c: Constellation, sigma_sq: float, grid: np.ndarray, values: np.ndarray,
    opts: SearchOptions, rule: HermiteRule,
) -> MaximumResult:
    """The refined maximum of one noise ratio's scan, evaluated with the rule."""
    if float(values.max()) <= NEGLIGIBLE:
        raise ValueError(
            "no interior maximum: secrecy capacity is negligible over the scan range"
        )
    peaks = [
        k
        for k in range(1, len(grid) - 1)
        if values[k] > values[k - 1]
        and values[k] > values[k + 1]
        and values[k] > NEGLIGIBLE
    ]
    if not peaks:
        raise ValueError(
            "no interior grid local maximum; widen the scan window so the peak "
            "does not sit on its edge"
        )

    def objective(db: float) -> float:
        ch = WiretapChannel(db_to_linear(db), sigma_sq)
        return cc_secrecy_capacity(c, ch, rule).bits

    best = None
    for k in peaks:
        lo, hi = float(grid[k - 1]), float(grid[k + 1])
        x, fx, iterations = _golden(objective, lo, hi, opts.tol_db)
        if fx < values[k]:
            # Keep the coarse grid point when refinement lands a hair lower.
            x, fx = float(grid[k]), float(values[k])
        if best is None or fx > best[1] + TIE_TOL:
            best = (x, fx, (lo, hi), iterations)
    x, fx, bracket, iterations = best
    return MaximumResult(
        sigma_sq=sigma_sq,
        snr_max_db=x,
        snr_max_linear=db_to_linear(x),
        c_max=fx,
        bracket=bracket,
        grid_local_maxima=len(peaks),
        iterations=iterations,
        unimodal_ok=len(peaks) == 1,
    )


def sweep_max_vs_sigma(
    c: Constellation, sigma_list: Sequence[float], opts: SearchOptions | None = None
) -> list[MaximumResult]:
    """Refined secrecy maximum for each noise ratio in an ascending list.

    One scan covers every ratio, so the main-channel curve is computed once,
    and each ratio's scan is then refined as find_secrecy_maximum describes.
    A ratio's result does not depend on the other ratios in the list.
    """
    sigmas = list(sigma_list)
    if not sigmas:
        raise ValueError("need at least one eavesdropper noise ratio")
    for sigma_sq in sigmas:
        if sigma_sq <= 1.0:
            raise ValueError(
                f"eavesdropper noise ratio must exceed 1 for a positive peak, got {sigma_sq}"
            )
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError("noise ratios must be strictly ascending")
    opts = opts or SearchOptions()
    grid, curves = scan_secrecy_grid(c, np.array(sigmas, dtype=float)[:, None], opts)
    rule = gauss_hermite(opts.gh_order)
    return [_refine(c, s, grid, values, opts, rule) for s, values in zip(sigmas, curves)]
