"""Gauss-Hermite rules and seeded Monte Carlo for complex-Gaussian expectations.

gauss_hermite gives the per-axis rule that capacity.cc_output_entropy applies
on its separable tensor grid. mc_expect_complex_gaussian estimates E[f(N)] for
N circularly symmetric complex Gaussian with mean zero from a seekable sample
stream: a reproducible cross-check that also reports a standard error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

MAX_ORDER = 200

# Each complex sample owns one 256-bit Philox counter block (four 64-bit
# words, of which two are used), so advancing the counter by k blocks lands
# exactly on sample k regardless of what was drawn before.
_WORDS_PER_BLOCK = 4
# Monte-Carlo samples are drawn, evaluated and reduced to (count, mean, M2)
# in pieces of _PIECE, which are merged in sample order. The grid is fixed, so
# the result does not depend on how many cores run the pieces.
_PIECE = 1 << 16
# The largest snr, noise variance and snr / variance, and the inverse of the
# smallest noise variance, the library takes. With unit mean energy every
# |x_i - x_j|^2 <= 4M <= 4096, so no squared offset exceeds 4.1e303.
MAX_SCALE = 1e300


@dataclass(frozen=True)
class HermiteRule:
    """Nodes and weights for the weight function exp(-t^2) on the real line."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class MCConfig:
    """Sample count and seed for the Monte-Carlo estimator."""

    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError(
                f"need at least 2 samples to estimate a standard error, got {self.samples}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def _checked(name: str, values, *, zero_ok: bool = False) -> np.ndarray:
    """The values as a float array, checked where they enter the library.

    Raises ValueError naming the first value that is not finite or is above
    MAX_SCALE, or is below zero if zero_ok, else below 1 / MAX_SCALE.
    """
    values = np.asarray(values, dtype=float)
    ok = values >= (0.0 if zero_ok else 1.0 / MAX_SCALE)
    ok &= values <= MAX_SCALE
    if np.count_nonzero(ok) != ok.size:
        bad = float(values[~ok].flat[0])
        what = ("is not finite" if not math.isfinite(bad)
                else f"must be at most {MAX_SCALE:g}" if bad > MAX_SCALE
                else "must be nonnegative" if zero_ok
                else "must be positive" if bad <= 0.0
                else f"must be at least {1.0 / MAX_SCALE:g}")
        raise ValueError(f"{name} {what}, got {bad}")
    return values


def _checked_channel(snr, variance) -> tuple[np.ndarray, np.ndarray]:
    """snr and noise variance as _checked takes them, with snr / variance <= MAX_SCALE.

    The ratio is tested as snr / MAX_SCALE <= variance, which cannot overflow.
    """
    snr = _checked("snr", snr, zero_ok=True)
    variance = _checked("noise variance", variance)
    over = snr / MAX_SCALE > variance
    if np.count_nonzero(over):
        pair = np.broadcast_arrays(snr, variance)
        bad_snr, bad_variance = (float(a[over].flat[0]) for a in pair)
        raise ValueError(
            f"snr / noise variance must be at most {MAX_SCALE:g}, got {bad_snr} / {bad_variance}"
        )
    return snr, variance


def gauss_hermite(n: int) -> HermiteRule:
    """Compute the order-n Gauss-Hermite quadrature rule.

    The rule satisfies sum_k w_k f(t_k) ~= integral of f(t) exp(-t^2) dt and
    is exact for polynomials of degree <= 2n - 1.

    Parameters
    ----------
    n : int
        Number of quadrature points, 1 <= n <= 200.

    Returns
    -------
    HermiteRule
        Ascending symmetric nodes and positive weights summing to sqrt(pi).
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"quadrature order must be in [1, {MAX_ORDER}], got {n}")
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return HermiteRule(n, nodes, weights)


class ComplexGaussianStream:
    """Deterministic, index-addressable stream of CN(0, variance) samples.

    Sample k is a fixed function of (seed, k, variance): it is derived from
    the first two uniform draws (u, v) of Philox counter block k keyed by the
    seed, mapped through the radial transform

        N_k = sqrt(-variance * ln(1 - u)) * exp(i * 2*pi * v)

    so any index range can be regenerated independently of what was fetched
    before, and streams at different variances sharing a seed are coupled by
    a pure scale factor.
    """

    def __init__(self, variance: float, cfg: MCConfig):
        self.variance = float(_checked("noise variance", variance))
        self.cfg = cfg

    def take(self, start: int, count: int) -> np.ndarray:
        """Return samples [start, start + count) as a complex array."""
        if start < 0 or count < 0:
            raise ValueError("sample indices must be nonnegative")
        bit_gen = np.random.Philox(key=self.cfg.seed)
        bit_gen.advance(start)
        u = np.random.Generator(bit_gen).random((count, _WORDS_PER_BLOCK))
        radius = np.sqrt(-self.variance * np.log1p(-u[:, 0]))
        return radius * np.exp(2j * np.pi * u[:, 1])


def _cores() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def mc_expect_complex_gaussian(
    f: Callable, variance: float, cfg: MCConfig
) -> tuple[float, float]:
    """Seeded Monte-Carlo estimate of E[f(N)], N ~ CN(0, variance).

    The samples are drawn, evaluated and summed up as (count, mean, M2) in
    fixed pieces of _PIECE samples, which a thread pool with one worker per
    available core runs at the same time. The pieces are merged in sample
    order by the pairwise update of Chan, Golub & LeVeque, four pieces per
    worker at a time, so a failing piece ends the run without drawing the
    rest of the samples.

    Parameters
    ----------
    f : callable
        Real-valued function of one complex argument, vectorised: a complex
        ndarray of samples in, a float ndarray of the same shape out. It is
        called at the same time from several threads, on disjoint pieces of
        the sample stream, so it must be thread-safe.
    variance : float
        E|N|^2, in [1e-300, 1e300].
    cfg : MCConfig
        Sample count and seed.

    Returns
    -------
    (mean, stderr) : tuple of float
        Sample mean and its standard error. Identical (seed, samples,
        variance, f) reproduce the result bit for bit, whatever the number
        of cores.
    """
    # Imported here, so that runs without Monte-Carlo do not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    stream = ComplexGaussianStream(variance, cfg)

    def piece(start: int) -> tuple[int, float, float]:
        z = stream.take(start, min(_PIECE, cfg.samples - start))
        values = np.asarray(f(z), dtype=float)
        if values.shape != z.shape:
            raise ValueError(
                f"integrand must return an array of shape {z.shape}, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            k = int(np.argwhere(~np.isfinite(values))[0][0])
            raise ValueError(
                f"integrand is not finite at sample {start + k}: got {values[k]}"
            )
        mean_b = float(values.mean())
        # The same sum as np.sum((values - mean_b) ** 2), in one temporary.
        dev = values - mean_b
        dev *= dev
        return values.size, mean_b, float(dev.sum())

    count = 0
    mean = 0.0
    m2 = 0.0
    workers = _cores()
    window = 4 * workers * _PIECE
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for first in range(0, cfg.samples, window):
            last = min(first + window, cfg.samples)
            # map yields in submission order, and cancels the pieces not yet
            # started when one raises.
            for n_b, mean_b, m2_b in pool.map(piece, range(first, last, _PIECE)):
                delta = mean_b - mean
                total = count + n_b
                mean += delta * n_b / total
                m2 += m2_b + delta * delta * count * n_b / total
                count = total
    stderr = math.sqrt(m2 / (count - 1) / count)
    return mean, stderr
