"""Gauss-Hermite rules and seeded Monte Carlo for complex-Gaussian expectations.

gauss_hermite gives the per-axis rule that capacity.cc_output_entropy applies
on its separable tensor grid. mc_expect_complex_gaussian estimates E[f(W)] for
W ~ CN(0, 1) from a seekable sample stream, in fixed blocks that one plain
thread per core runs, or the calling thread alone on one core;
capacity.cc_mutual_information_mc, which works in units of the noise scale,
runs it as a reproducible cross-check that also reports a standard error.
The module holds only the rule and the sample stream; the channel values a
caller passes are checked in capacity.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

MAX_ORDER = 200

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014; Vigna's splitmix64.c): output
# i of seed s is mix(s + i * _GAMMA mod 2^64), where mix is the xor-shifts
# and multiplies of _MIX and a last xor-shift, so any output is drawn without
# state or seek. Sample k takes outputs 2k + 1 and 2k + 2, so the stream holds
# _MAX_SAMPLES samples before its outputs repeat.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
        (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_LAST_SHIFT = np.uint64(31)
_FLOAT_SHIFT = np.uint64(11)
_MAX_SAMPLES = 2**63
# Monte-Carlo samples are drawn, evaluated and reduced to (count, mean, M2)
# in blocks of _BLOCK, which are merged in sample order. The grid is fixed, so
# the result does not depend on how many cores run the blocks. A block's
# samples (128 KiB, their uniforms drawn in place), its values and the
# integrand's temporaries stay in a 2 MiB L2 cache.
_BLOCK = 1 << 13


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
        # A float would fail later in range(), and a fractional seed would
        # be truncated to another seed's stream; bool is an int subclass.
        for name, value in (("samples", self.samples), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.samples < 2:
            raise ValueError(
                f"need at least 2 samples to estimate a standard error, got {self.samples}"
            )
        if self.samples >= _MAX_SAMPLES:
            raise ValueError(f"samples must be below 2^63, got {self.samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def _normed_hermite(x: np.ndarray, n: int) -> np.ndarray:
    """The degree-n Hermite polynomial, normed on the weight exp(-t^2), at x.

    The three-term recurrence runs down from degree n, as numpy's
    hermgauss runs it; the plain H_n would overflow for n >= 207.
    """
    if n == 0:
        return np.full(x.shape, 1 / np.sqrt(np.sqrt(np.pi)))
    c0 = 0.0
    c1 = 1.0 / np.sqrt(np.sqrt(np.pi))
    nd = float(n)
    for _ in range(n - 1):
        c0, c1 = -c1 * np.sqrt((nd - 1.0) / nd), c0 + c1 * x * np.sqrt(2.0 / nd)
        nd -= 1.0
    return c0 + c1 * x * np.sqrt(2)


def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-n rule, as numpy.polynomial.hermite.hermgauss(n).

    The same steps as hermgauss, so the same bits, without importing
    numpy.polynomial: the nodes are the eigenvalues of the symmetric
    tridiagonal matrix of the normed recurrence, polished by one Newton
    step; the weights are 1 / p_{n-1}(x)^2, symmetrized and scaled to sum to
    sqrt(pi).
    """
    jacobi = np.zeros((n, n))
    off = np.sqrt(0.5 * np.arange(1, n))
    jacobi.flat[1::n + 1] = off
    jacobi.flat[n::n + 1] = off
    x = np.linalg.eigvalsh(jacobi)
    dy = _normed_hermite(x, n)
    df = _normed_hermite(x, n - 1) * np.sqrt(2 * n)
    x -= dy / df
    fm = _normed_hermite(x, n - 1)
    fm /= np.abs(fm).max()
    w = 1 / (fm * fm)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= np.sqrt(np.pi) / w.sum()
    return x, w


def check_order(n: int) -> None:
    """gauss_hermite's check of an order, run without building its rule."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"quadrature order must be an integer, got {n!r}")
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"quadrature order must be in [1, {MAX_ORDER}], got {n}")


@lru_cache(maxsize=None, typed=True)  # typed: 4.0 must not find 4's rule
def gauss_hermite(n: int) -> HermiteRule:
    """Compute the order-n Gauss-Hermite quadrature rule, once per order.

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
        Calls with the same order share it; it is frozen and its arrays are
        read-only.
    """
    check_order(n)
    nodes, weights = _hermite_rule(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return HermiteRule(n, nodes, weights)


class ComplexGaussianStream:
    """Deterministic, index-addressable stream of CN(0, 1) samples.

    Sample k is a fixed function of (seed, k): its uniforms (u, v) are
    outputs 2k + 1 and 2k + 2 of the SplitMix64 generator seeded with the
    seed, each mapped to [0, 1) as (output >> 11) * 2^-53, and then

        W_k = sqrt(-ln(1 - u)) * exp(i * 2*pi * v)

    so any index range can be regenerated independently of what was fetched
    before, and one draw serves every noise variance and SNR.

    Threads may share a stream: a take keeps nothing between calls.
    """

    def __init__(self, cfg: MCConfig):
        self.cfg = cfg

    def take(self, start: int, count: int) -> np.ndarray:
        """Return samples [start, start + count) as a complex array.

        The 2 * count SplitMix64 outputs, and then their uniforms, are
        drawn in place in the returned array, outputs 2k + 1 and 2k + 2 in
        the real and imaginary parts of sample k, so a take allocates only
        its samples and their radii. mc_expect_complex_gaussian takes one
        block of at most _BLOCK samples at a time.
        """
        if start < 0 or count < 0:
            raise ValueError("sample indices must be nonnegative")
        if start + count > _MAX_SAMPLES:
            raise ValueError("the stream holds only 2^63 samples")
        w = np.empty(count, dtype=complex)
        z = w.view(np.uint64)
        # uint64 arrays and a Python int for the first output wrap mod 2^64,
        # where numpy scalars would warn on overflow.
        first = (int(self.cfg.seed) + (2 * int(start) + 1) * int(_GAMMA)) % 2**64
        np.multiply(np.arange(2 * count, dtype=np.uint64), _GAMMA, out=z)
        z += np.uint64(first)
        for shift, factor in _MIX:
            z ^= z >> shift
            z *= factor
        z ^= z >> _LAST_SHIFT
        z >>= _FLOAT_SHIFT
        # Below 2^53, so exact as a float; the cast writes over its input.
        np.multiply(z, 2.0**-53, out=w.view(float))
        radius = np.negative(w.real)
        np.log1p(radius, out=radius)
        np.negative(radius, out=radius)
        np.sqrt(radius, out=radius)
        # The real arrays are applied part by part: a product of a real and
        # a complex array first casts the real one to complex, in a buffer
        # as large as the result. The results are the same to the bit.
        w.real = w.imag
        w.imag = 0.0
        w *= 2j * np.pi
        np.exp(w, out=w)
        w.real *= radius
        w.imag *= radius
        return w


def _cores() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def mc_expect_complex_gaussian(f: Callable, cfg: MCConfig) -> tuple[float, float]:
    """Seeded Monte-Carlo estimate of E[f(W)], W ~ CN(0, 1).

    The samples are drawn, passed to f and summed up as (count, mean, M2) in
    fixed blocks of _BLOCK samples. They are run a window of 32 blocks per
    available core at a time, by one worker per core: the calling thread if
    there is one core, else one helper thread per core, joined before the
    window is merged. Each worker takes the window's next block until none
    is left or one has failed. A one-core run starts no thread. A block's
    samples live only until f has returned, and its values only until they
    are reduced, in their own array. The blocks are merged in sample order
    by the pairwise update of Chan, Golub & LeVeque, and the first failure
    in sample order is raised, so a failing block ends the run without
    drawing the windows after it.

    Parameters
    ----------
    f : callable
        Vectorised real-valued function: a complex ndarray of samples in, a
        new float ndarray of the same shape out, which the call overwrites.
        It is called at the same time from several threads, on disjoint
        blocks of the sample stream, so it must be thread-safe.
    cfg : MCConfig
        Sample count and seed.

    Returns
    -------
    (mean, stderr) : tuple of float
        Sample mean and its standard error. Identical (seed, samples, f)
        reproduce the result bit for bit, whatever the number of cores.
    """
    stream = ComplexGaussianStream(cfg)

    def block(start: int) -> tuple[int, float, float]:
        values = f(stream.take(start, min(_BLOCK, cfg.samples - start)))
        if not np.all(np.isfinite(values)):
            k = int(np.argwhere(~np.isfinite(values))[0][0])
            raise ValueError(
                f"integrand is not finite at sample {start + k}: got {values[k]}"
            )
        mean_b = float(values.mean())
        # The same sum as np.sum((values - mean_b) ** 2), in the values' place.
        values -= mean_b
        values *= values
        return values.size, mean_b, float(values.sum())

    count = 0
    mean = 0.0
    m2 = 0.0
    workers = _cores()
    window = 32 * workers * _BLOCK
    for first in range(0, cfg.samples, window):
        starts = range(first, min(first + window, cfg.samples), _BLOCK)
        # Each slot gets the block's (count, mean, M2) or the exception it
        # raised. Blocks are taken in order and every block taken is run, so
        # a slot left empty comes after a failed one.
        results: list = [None] * len(starts)
        todo = iter(range(len(starts)))
        lock = threading.Lock()
        failed = False

        def work() -> None:
            nonlocal failed
            while not failed:
                with lock:
                    k = next(todo, None)
                if k is None:
                    return
                try:
                    results[k] = block(starts[k])
                # Kept for the caller, which raises it below, as an executor
                # would; an interrupt also stops the other workers.
                except BaseException as exc:
                    results[k] = exc
                    failed = True

        # One worker runs on the calling thread. More run on helper threads
        # alone: a main thread that ran blocks beside them kept its
        # temporaries in glibc's main arena, which trimmed and faulted them
        # in again on every block (9k to 13k more minor faults per repeated
        # 10^6-sample qam16 call on 2 cores). Whether the arena churns
        # depends on the heap's history: it did with the package loaded from
        # its bytecode cache, and not with it compiled from source.
        n_workers = min(workers, len(starts))
        if n_workers == 1:
            work()
        else:
            helpers = []
            try:
                for _ in range(n_workers):
                    helper = threading.Thread(target=work)
                    helper.start()
                    helpers.append(helper)
            finally:
                for helper in helpers:
                    helper.join()
        for result in results:
            if isinstance(result, BaseException):
                raise result
            n_b, mean_b, m2_b = result
            delta = mean_b - mean
            total = count + n_b
            mean += delta * n_b / total
            m2 += m2_b + delta * delta * count * n_b / total
            count = total
    stderr = math.sqrt(m2 / (count - 1) / count)
    return mean, stderr
