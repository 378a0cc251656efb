"""Gauss-Hermite quadrature and seeded Monte Carlo for complex-Gaussian expectations.

Both paths estimate E[f(N)] for N circularly symmetric complex Gaussian with
mean zero: the quadrature path is deterministic and spectrally accurate for
smooth integrands, the Monte-Carlo path is a reproducible cross-check that
also reports a standard error.
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
# Monte-Carlo samples are merged in chunks of _CHUNK and drawn and evaluated
# in pieces of _PIECE. Both grids are fixed, so the result does not depend on
# how many cores run the pieces.
_CHUNK = 1 << 19
_PIECE = 1 << 16


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
        if self.samples < 1:
            raise ValueError(f"sample count must be positive, got {self.samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


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


def _evaluate(f: Callable, z: np.ndarray) -> np.ndarray:
    """Apply f to a complex array, falling back to a scalar loop if needed."""
    try:
        values = np.asarray(f(z), dtype=float)
        if values.shape == z.shape:
            return values
    except TypeError:
        pass
    return np.array([float(f(v)) for v in z.ravel()]).reshape(z.shape)


def expect_complex_gaussian(f: Callable, variance: float, rule: HermiteRule) -> float:
    """Tensor-product Gauss-Hermite approximation of E[f(N)], N ~ CN(0, variance).

    Writes N = sqrt(variance) * (t_a + i t_b) and applies the rule once per
    real axis:

        E[f(N)] ~= (1/pi) * sum_ab w_a w_b f(sqrt(variance) * (t_a + i t_b))

    The result is exact whenever f is a polynomial of per-axis degree
    <= 2n - 1 in (Re N, Im N).

    Parameters
    ----------
    f : callable
        Real-valued function of one complex argument. May be vectorized
        (complex ndarray in, same-shape float ndarray out) or scalar.
    variance : float
        E|N|^2, must be positive.
    rule : HermiteRule

    Returns
    -------
    float
    """
    if variance <= 0.0:
        raise ValueError(f"noise variance must be positive, got {variance}")
    t = rule.nodes
    z = math.sqrt(variance) * (t[:, None] + 1j * t[None, :])
    values = _evaluate(f, z)
    if not np.all(np.isfinite(values)):
        a, b = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(
            f"integrand is not finite at node {z[a, b]}: got {values[a, b]}"
        )
    w = rule.weights
    return float((w[:, None] * w[None, :] * values).sum() / math.pi)


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
        if variance <= 0.0:
            raise ValueError(f"noise variance must be positive, got {variance}")
        self.variance = float(variance)
        self.cfg = cfg

    def __len__(self) -> int:
        return self.cfg.samples

    def take(self, start: int, count: int) -> np.ndarray:
        """Return samples [start, start + count) as a complex array."""
        if start < 0 or count < 0:
            raise ValueError("sample indices must be nonnegative")
        bit_gen = np.random.Philox(key=self.cfg.seed)
        bit_gen.advance(start)
        u = np.random.Generator(bit_gen).random((count, _WORDS_PER_BLOCK))
        radius = np.sqrt(-self.variance * np.log1p(-u[:, 0]))
        return radius * np.exp(2j * np.pi * u[:, 1])

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("stream slices must be contiguous")
            return self.take(start, max(0, stop - start))
        if not 0 <= index < len(self):
            raise IndexError(f"sample index {index} out of range")
        return complex(self.take(index, 1)[0])


def complex_gaussian_sample_stream(variance: float, cfg: MCConfig) -> ComplexGaussianStream:
    """Open a seekable stream of CN(0, variance) samples for the given config."""
    return ComplexGaussianStream(variance, cfg)


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

    The samples are drawn and evaluated in fixed pieces of _PIECE samples,
    which a thread pool with one worker per available core runs at the same
    time; the per-piece values are merged chunk by chunk in sample order.

    Parameters
    ----------
    f : callable
        Real-valued function of one complex argument, vectorized or scalar.
        It is called at the same time from several threads, on disjoint
        pieces of the sample stream, so it must be thread-safe.
    variance : float
        E|N|^2, must be positive.
    cfg : MCConfig
        Sample count (>= 2, so a standard error exists) and seed.

    Returns
    -------
    (mean, stderr) : tuple of float
        Sample mean and its standard error. Identical (seed, samples,
        variance, f) reproduce the result bit for bit, whatever the number
        of cores.
    """
    # Imported here, so that runs without Monte-Carlo do not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    if cfg.samples < 2:
        raise ValueError("need at least 2 samples to estimate a standard error")
    stream = ComplexGaussianStream(variance, cfg)

    def fill(values: np.ndarray, start: int, off: int) -> None:
        k = min(_PIECE, values.size - off)
        values[off:off + k] = _evaluate(f, stream.take(start + off, k))

    count = 0
    mean = 0.0
    m2 = 0.0
    with ThreadPoolExecutor(max_workers=_cores()) as pool:
        for start in range(0, cfg.samples, _CHUNK):
            values = np.empty(min(_CHUNK, cfg.samples - start))
            pieces = [
                pool.submit(fill, values, start, off)
                for off in range(0, values.size, _PIECE)
            ]
            for piece in pieces:
                piece.result()
            if not np.all(np.isfinite(values)):
                k = int(np.argwhere(~np.isfinite(values))[0][0])
                raise ValueError(
                    f"integrand is not finite at sample {start + k}: got {values[k]}"
                )
            n_b = values.size
            mean_b = float(values.mean())
            # In place, with the same sum as np.sum((values - mean_b) ** 2).
            values -= mean_b
            values *= values
            m2_b = float(values.sum())
            delta = mean_b - mean
            total = count + n_b
            mean += delta * n_b / total
            m2 += m2_b + delta * delta * count * n_b / total
            count = total
    stderr = math.sqrt(m2 / (count - 1) / count)
    return mean, stderr
