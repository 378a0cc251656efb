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
from .integrate import gauss_hermite

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Grid values at or below this are treated as numerically zero: they carry no
# usable secrecy and their sub-roundoff wiggles must not count as peaks.
NEGLIGIBLE = 1e-12

# Refined maxima closer than this (in bits) are a tie; the lower SNR wins.
TIE_TOL = 1e-9


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
        if self.scan_lo_db >= self.scan_hi_db:
            raise ValueError("scan window must satisfy lo < hi")
        if self.scan_step_db <= 0.0:
            raise ValueError(f"scan step must be positive, got {self.scan_step_db}")
        if self.tol_db <= 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tol_db}")


@dataclass(frozen=True)
class MaximumResult:
    """Refined secrecy-capacity maximum and how it was found."""

    snr_max_db: float
    snr_max_linear: float
    c_max: float
    bracket: tuple[float, float]
    grid_local_maxima: int
    iterations: int
    unimodal_ok: bool


@dataclass(frozen=True)
class SweepRow:
    """Per-noise-ratio maximum from sweep_max_vs_sigma."""

    sigma_sq: float
    snr_max_db: float
    snr_max_linear: float
    c_max: float
    unimodal_ok: bool


def _golden(f: Callable[[float], float], lo: float, hi: float, tol: float):
    a, b = lo, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while (b - a) > tol:
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


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Golden-section search for the maximum of f on [lo, hi].

    Each iteration shrinks the bracket by the golden ratio; the returned x
    is within tol of the true argmax whenever f is unimodal on the bracket.
    Returns (x, f(x)).
    """
    if not lo < hi:
        raise ValueError(f"invalid bracket: need lo < hi, got [{lo}, {hi}]")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    x, fx, _ = _golden(f, lo, hi, tol)
    return x, fx


def _db_grid(opts: SearchOptions) -> np.ndarray:
    span = opts.scan_hi_db - opts.scan_lo_db
    count = int(math.floor(span / opts.scan_step_db + 1e-9)) + 1
    return opts.scan_lo_db + opts.scan_step_db * np.arange(count)


def scan_secrecy_grid(
    c: Constellation, sigma_sq: float, opts: SearchOptions | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Secrecy capacity evaluated on the options' dB grid.

    Returns (grid_db, values) with the grid inclusive of the upper edge when
    it lands on a step multiple.
    """
    opts = opts or SearchOptions()
    grid = _db_grid(opts)
    rule = gauss_hermite(opts.gh_order)
    values = np.array(
        [
            cc_secrecy_capacity(c, WiretapChannel(db_to_linear(g), sigma_sq), rule).bits
            for g in grid
        ]
    )
    return grid, values


def find_secrecy_maximum(
    c: Constellation, sigma_sq: float, opts: SearchOptions | None = None
) -> MaximumResult:
    """Locate the interior SNR maximizing secrecy capacity for one noise ratio.

    Scans the dB grid, counts strict interior local maxima above the
    negligibility floor, refines each bracket by golden-section search, and
    returns the best refined point (ties within 1e-9 bits go to the lower
    SNR). unimodal_ok reports whether the scan saw exactly one local maximum.
    """
    opts = opts or SearchOptions()
    if sigma_sq <= 1.0:
        raise ValueError(
            f"eavesdropper noise ratio must exceed 1 for a positive peak, got {sigma_sq}"
        )
    grid, values = scan_secrecy_grid(c, sigma_sq, opts)
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

    rule = gauss_hermite(opts.gh_order)

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
) -> list[SweepRow]:
    """Refined secrecy maximum for each noise ratio in an ascending list."""
    sigmas = list(sigma_list)
    if not sigmas:
        raise ValueError("need at least one eavesdropper noise ratio")
    if any(s <= 1.0 for s in sigmas):
        raise ValueError("every noise ratio must exceed 1")
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError("noise ratios must be strictly ascending")
    rows = []
    for sigma_sq in sigmas:
        result = find_secrecy_maximum(c, sigma_sq, opts)
        rows.append(
            SweepRow(
                sigma_sq=sigma_sq,
                snr_max_db=result.snr_max_db,
                snr_max_linear=result.snr_max_linear,
                c_max=result.c_max,
                unimodal_ok=result.unimodal_ok,
            )
        )
    return rows
