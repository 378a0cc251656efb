"""Locates the interior SNR where constellation-constrained secrecy capacity peaks.

The search works on the decibel axis: a coarse scan brackets every strict
local maximum of the secrecy-capacity curve, each bracket is refined by
golden-section search, and the best refined point wins. The scan also audits
the working assumption that the curve has a single interior peak.

Both phases are batched over noise ratios: one secrecy call scans every
ratio's curve, and the brackets of all ratios are refined in lockstep, one
secrecy call per golden-section step, each bracket taking the steps it
would take alone.
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


def _golden_lockstep(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, tol: float
):
    """Golden-section search for the maximum of f on every bracket [lo_i, hi_i] at once.

    f(points, which) returns f's values at the points, an array of their
    shape; points[j] lies in bracket which[j]. The brackets move in lockstep:
    each step asks f for one new point in every bracket still running, so a
    bracket takes exactly the steps it would take searched alone. Returns
    arrays (x, f(x), iterations) with one entry per bracket. x is within tol
    of its bracket's argmax when f is unimodal there, or as close as float
    spacing allows.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    every = np.arange(a.size)
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = np.split(f(np.concatenate([c, d]), np.concatenate([every, every])), 2)
    iterations = np.zeros(a.size, dtype=int)
    while True:
        # Once float spacing stops a bracket from shrinking, c and d collide
        # with each other or an end, and a tolerance below that spacing would
        # never be met.
        live = np.flatnonzero((b - a > tol) & (a < c) & (c < d) & (d < b))
        if not live.size:
            break
        iterations[live] += 1
        left = fc[live] >= fd[live]
        lo_side, hi_side = live[left], live[~left]
        b[lo_side], d[lo_side], fd[lo_side] = d[lo_side], c[lo_side], fc[lo_side]
        c[lo_side] = b[lo_side] - INV_PHI * (b[lo_side] - a[lo_side])
        a[hi_side], c[hi_side], fc[hi_side] = c[hi_side], d[hi_side], fd[hi_side]
        d[hi_side] = a[hi_side] + INV_PHI * (b[hi_side] - a[hi_side])
        values = f(np.where(left, c[live], d[live]), live)
        fc[lo_side], fd[hi_side] = values[left], values[~left]
    x = 0.5 * (a + b)
    return x, f(x, every), iterations


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
    negligibility floor, refines their brackets by golden-section search in
    lockstep, one secrecy call per step, and returns the best refined point
    (ties within 1e-9 bits go to the lower SNR; a grid point above its
    refined value is kept). unimodal_ok reports whether the scan saw exactly
    one local maximum. This is the one-ratio case of sweep_max_vs_sigma.
    """
    return sweep_max_vs_sigma(c, [sigma_sq], opts)[0]


def _grid_peaks(curves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, k) of every strict interior local maximum above NEGLIGIBLE, in row order.

    curves holds one scan per row; owner is a maximum's row and k its grid
    index. Raises ValueError for the first row without such a maximum, saying
    whether the scan is negligible throughout.
    """
    inner = curves[:, 1:-1]
    peak = (inner > curves[:, :-2]) & (inner > curves[:, 2:]) & (inner > NEGLIGIBLE)
    bare = ~peak.any(axis=1)
    if bare.any():
        raise ValueError(
            "no interior maximum: secrecy capacity is negligible over the scan range"
            if float(curves[bare.argmax()].max()) <= NEGLIGIBLE else
            "no interior grid local maximum; widen the scan window so the peak "
            "does not sit on its edge"
        )
    owner, k = np.nonzero(peak)
    return owner, k + 1


def _refine(
    c: Constellation, sigmas: Sequence[float], grid: np.ndarray, curves: np.ndarray,
    opts: SearchOptions, rule: HermiteRule,
) -> list[MaximumResult]:
    """The refined maximum of each noise ratio's scan (one row of curves each).

    Every scan is checked for grid peaks before any is refined, so the first
    ratio without one raises. Then the brackets of all ratios are refined
    together, one secrecy call with the rule per golden-section step.
    """
    owner, ks = _grid_peaks(curves)
    bracket_sigma = np.asarray(sigmas, dtype=float)[owner]

    def objective(points: np.ndarray, which: np.ndarray) -> np.ndarray:
        ch = WiretapChannel(db_to_linear(points), bracket_sigma[which])
        return cc_secrecy_capacity(c, ch, rule).bits

    xs, fxs, steps = _golden_lockstep(objective, grid[ks - 1], grid[ks + 1], opts.tol_db)
    tops = curves[owner, ks]
    best = {}  # ratio -> (x, f(x), bracket, iterations), filled in ratio order
    for j, (r, k) in enumerate(zip(owner.tolist(), ks.tolist())):
        x, fx = float(xs[j]), float(fxs[j])
        if fx < tops[j]:
            # Keep the coarse grid point when refinement lands a hair lower.
            x, fx = float(grid[k]), float(tops[j])
        if r not in best or fx > best[r][1] + TIE_TOL:
            best[r] = (x, fx, (float(grid[k - 1]), float(grid[k + 1])), int(steps[j]))
    return [
        MaximumResult(sigma_sq=sigma_sq, snr_max_db=x, snr_max_linear=db_to_linear(x),
                      c_max=fx, bracket=bracket, grid_local_maxima=count,
                      iterations=iterations, unimodal_ok=count == 1)
        for sigma_sq, count, (x, fx, bracket, iterations)
        in zip(sigmas, np.bincount(owner).tolist(), best.values())
    ]


def sweep_max_vs_sigma(
    c: Constellation, sigma_list: Sequence[float], opts: SearchOptions | None = None
) -> list[MaximumResult]:
    """Refined secrecy maximum for each noise ratio of a list, in list order.

    One scan covers every ratio, so the main-channel curve is computed once,
    and each ratio's scan is then refined as find_secrecy_maximum describes,
    with the brackets of every ratio sharing each step's secrecy call. A
    ratio's result does not depend on the other ratios in the list, except
    that c_max may differ from a search for that ratio alone in the last
    bits (at most 4e-15 bits), because an array call can round a point
    differently.
    """
    sigmas = list(sigma_list)
    if not sigmas:
        raise ValueError("need at least one eavesdropper noise ratio")
    for sigma_sq in sigmas:
        if sigma_sq <= 1.0:
            raise ValueError(
                f"eavesdropper noise ratio must exceed 1 for a positive peak, got {sigma_sq}"
            )
    opts = opts or SearchOptions()
    grid, curves = scan_secrecy_grid(c, np.array(sigmas, dtype=float)[:, None], opts)
    return _refine(c, sigmas, grid, curves, opts, gauss_hermite(opts.gh_order))
