"""Mutual information and secrecy capacity for uniform finite-constellation input.

The channel pair is y = sqrt(snr) * x + n1 and z = sqrt(snr) * x + n2 with
n1 ~ CN(0, 1) and n2 ~ CN(0, sigma_sq), sigma_sq >= 1, after normalizing the
main-channel noise to unit variance. All rates are in bits per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .integrate import (
    HermiteRule,
    MCConfig,
    _checked,
    _checked_channel,
    gauss_hermite,
    mc_expect_complex_gaussian,
)

LN2 = math.log(2.0)

# Mutual information below 0 or above log2(M) by more than this is treated as
# a numerical failure rather than roundoff to clamp away.
CLAMP_LIMIT = 1e-9

# Byte budget for one block of orbits in cc_output_entropy's temporaries. It
# stays under glibc's 128 KiB mmap threshold, above which every call would map
# and fault in fresh pages instead of reusing the heap.
_BLOCK_BYTES = 1 << 16

# Byte budget for the exponent buffer of one block of Monte-Carlo samples
# (M^2 float64 per sample); it bounds the MC path's memory for any M.
_MC_BLOCK_BYTES = 1 << 19


def _first(values: np.ndarray, mask: np.ndarray) -> float | None:
    """The first of the values where the mask is set, as a float, or None.

    np.count_nonzero is the cheapest test of a mask: these checks run on
    every scalar call as well as on grids.
    """
    return float(values[mask].flat[0]) if np.count_nonzero(mask) else None


def _shaped(values):
    """A 0-d result as a float; any other array as it is."""
    values = np.asarray(values)
    return float(values) if values.ndim == 0 else values


@dataclass(frozen=True)
class WiretapChannel:
    """Normalized channel pair: main-channel SNR and eavesdropper noise ratio.

    Either field may be an array; rates of the channel then take the shape
    the two broadcast to (an SNR grid and a column of noise ratios give one
    row per ratio).
    """

    snr: float | np.ndarray
    sigma_sq: float | np.ndarray

    def __post_init__(self):
        _checked("snr", self.snr, zero_ok=True)
        sigma_sq = np.asarray(self.sigma_sq, dtype=float)
        bad = _first(sigma_sq, sigma_sq < 1.0)
        if bad is not None:
            raise ValueError(
                "eavesdropper noise ratio must be at least 1 "
                f"(main channel no noisier than the tap), got {bad}"
            )
        _checked("eavesdropper noise ratio", sigma_sq)


@dataclass(frozen=True)
class MIEstimate:
    """Mutual information in bits per channel use, with method metadata.

    bits and error_bound are floats, or arrays in the shape of the SNR (and
    noise variance) they were computed at.
    """

    bits: float | np.ndarray
    method: str
    error_bound: float | np.ndarray


def db_to_linear(db: float | np.ndarray) -> float | np.ndarray:
    """Convert a decibel power ratio, or an array of them, to linear scale.

    Each value goes through Python's float power, so an array converts to
    the same values as its elements one at a time. A ratio too large for a
    float raises ValueError.
    """
    if np.ndim(db):
        flat = [db_to_linear(value) for value in np.ravel(db).tolist()]
        return np.array(flat).reshape(np.shape(db))
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise ValueError(f"{db} dB is too large: its linear ratio overflows a float") from None


def _shifted_factor(t: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One axis of the separable mixture, scaled to stay finite.

    For offsets u (rows x points) and nodes t, the exponent -(t_a + u_j)^2
    is taken relative to the u = 0 term, giving e = -u_j (2 t_a + u_j) <= t_a^2,
    and each (row, node) is then shifted by half its maximum, which is at
    least the u = 0 term's 0. Returns exp of the shifted exponents, shape
    (rows, nodes, points), and the shifts, shape (rows, nodes).
    """
    e = -u[:, None, :] * (2.0 * t[None, :, None] + u[:, None, :])
    shift = 0.5 * e.max(axis=-1)
    np.subtract(e, shift[..., None], out=e)
    np.exp(e, out=e)
    return e, shift


def _row_sums(t: np.ndarray, w: np.ndarray, wsum: float, offsets: np.ndarray) -> np.ndarray:
    """sum_ab w_a w_b (log mixture_ab + re_shift_a + im_shift_b) per row of offsets.

    Each sum is taken within its row, never across rows, so a row's value
    does not depend on the rows that share its block. The block's
    temporaries are freed on return, before the next block allocates its own.
    """
    re_factor, re_shift = _shifted_factor(t, offsets.real)
    im_factor, im_shift = _shifted_factor(t, offsets.imag)
    mixture = np.matmul(re_factor, im_factor.transpose(0, 2, 1))
    np.log(mixture, out=mixture)
    return ((mixture @ w + wsum * (re_shift + im_shift)) * w).sum(axis=-1)


def cc_output_entropy(
    c: Constellation, snr: float | np.ndarray, variance: float | np.ndarray, rule: HermiteRule
) -> float | np.ndarray:
    """Differential entropy (bits) of the channel output under uniform input.

    For y = sqrt(snr) * x + n with x uniform on the constellation and
    n ~ CN(0, variance):

        h(y) = log2(M * pi * variance)
               - (1/M) * sum_i E_n[ log2 sum_j exp(-|n + sqrt(snr)(x_i - x_j)|^2
                                                   / variance) ]

    with the expectation taken by the tensor Gauss-Hermite rule at the nodes
    n = sqrt(variance) * (t_a + i t_b). On that grid each term of the sum
    factors into a real-axis and an imaginary-axis exponential, so the
    mixture for point i over all n^2 nodes is one (n x M) @ (M x n) product.
    The grid and its weights are invariant under the square's symmetries, so
    only one point per orbit of the constellation (Constellation.orbits) is
    evaluated, weighted by the orbit's size.

    snr in [0, 1e300] and variance in [1e-300, 1e300], with snr / variance
    <= 1e300, may be floats or arrays that broadcast together; the result
    has their broadcast shape, and is a float when both are floats.
    The kernel runs over rows of (channel, orbit) pairs, a block of rows at a
    time, and a channel's value does not depend on the other channels, so an
    array gives the values of one call per element.
    """
    snr, variance = _checked_channel(snr, variance)
    t, w = rule.nodes, rule.weights
    points = c.points
    orbits = c.orbits
    sizes = np.array([len(orbit) for orbit in orbits], dtype=float)
    reps = [orbit[0] for orbit in orbits]
    diffs = points[reps, None] - points[None, :]
    # Offsets in units of the per-axis noise scale sqrt(variance) are a
    # channel's sqrt(snr / variance) times diffs.
    ratio = np.sqrt(snr / variance)
    shape = ratio.shape
    ratio = ratio.ravel()
    # Rows per block: the largest temporary per row is the n x n mixture or
    # an n x M factor, in float64. A block holds whole channels when a
    # channel's orbits fit, else a run of one channel's orbits, so each
    # channel's orbits are grouped the same way whatever its neighbours.
    step = max(1, _BLOCK_BYTES // (8 * t.size * max(t.size, c.size)))
    per_block = max(1, step // len(reps))
    span = min(step, len(reps))
    # totals = sum over orbits of size * sum_ab w_a w_b log S(a, b) in nats,
    # per channel, with log S = -(t_a^2 + t_b^2) + re_shift_a + im_shift_b
    # + log mixture_ab; each part but the first is in _row_sums.
    wsum = float(w.sum())
    totals = np.zeros(ratio.size)
    for lo in range(0, ratio.size, per_block):
        channels = ratio[lo:lo + per_block, None, None]
        for first in range(0, len(reps), span):
            offsets = (channels * diffs[first:first + span]).reshape(-1, c.size)
            per_row = _row_sums(t, w, wsum, offsets).reshape(len(channels), -1)
            totals[lo:lo + per_block] += (per_row * sizes[first:first + span]).sum(axis=-1)
    totals -= 2.0 * c.size * wsum * float(w @ (t * t))
    return _shaped(
        math.log2(c.size) + np.log2(math.pi * variance)
        - totals.reshape(shape) / (math.pi * LN2 * c.size)
    )


def _clamp_bits(raw, upper: float, *, strict: bool):
    """Clamp rates into [0, upper]; reject clamps beyond roundoff if strict.

    Returns (bits, clamp), each a float for a float rate and an array for an
    array of rates. A non-finite rate is rejected in either mode: NaN fails
    both range comparisons and would pass through the clamp unchanged.
    """
    raw = np.asarray(raw, dtype=float)
    bad = _first(raw, ~np.isfinite(raw))
    if bad is not None:
        raise ValueError(f"mutual information is not finite: got {bad!r}")
    bad = _first(raw, (raw < -CLAMP_LIMIT) | (raw > upper + CLAMP_LIMIT))
    if strict and bad is not None:
        raise ValueError(
            f"mutual information {bad!r} outside [0, {upper}] beyond roundoff; "
            "increase the quadrature order"
        )
    bits = np.minimum(np.maximum(raw, 0.0), upper)
    return _shaped(bits), _shaped(np.abs(bits - raw))


def _raw_mi(c: Constellation, snr, variance, rule: HermiteRule) -> np.ndarray:
    """Output entropy minus the conditional entropy log2(pi * e * variance)."""
    h = np.asarray(cc_output_entropy(c, snr, variance, rule))
    return h - np.log2(math.pi * math.e * np.asarray(variance, dtype=float))


def cc_mutual_information(
    c: Constellation,
    snr: float | np.ndarray,
    variance: float | np.ndarray,
    rule: HermiteRule,
    audit: bool = False,
) -> MIEstimate:
    """Mutual information (bits) between the constellation input and the output.

    Computed as cc_output_entropy minus the conditional entropy
    log2(pi * e * variance) and clamped to [0, log2 M]. With audit=True the
    value is recomputed at half the quadrature order and the difference is
    reported as the error bound; otherwise the bound only records any clamp.
    snr and variance may be arrays that broadcast together; the estimate's
    fields then take their broadcast shape.
    """
    raw = _raw_mi(c, snr, variance, rule)
    bits, clamp = _clamp_bits(raw, math.log2(c.size), strict=True)
    gap = 0.0
    if audit:
        half = gauss_hermite(max(1, rule.order // 2))
        gap = np.abs(raw - _raw_mi(c, snr, variance, half))
    bound = _shaped(np.maximum(gap, clamp))
    return MIEstimate(bits, f"gauss_hermite(order={rule.order})", bound)


def cc_mutual_information_mc(
    c: Constellation, snr: float, variance: float, cfg: MCConfig
) -> MIEstimate:
    """Monte-Carlo counterpart of cc_mutual_information (same estimand).

    Averages the per-symbol log-sum-exp terms over one shared seeded noise
    stream; the reported error bound is the standard error of the estimate.
    Sampling noise near the rate limits is clamped without complaint.
    Samples are taken in blocks whose M^2 exponents fit _MC_BLOCK_BYTES (one
    sample at least), so the kernel's buffers do not grow with the sample
    count.
    """
    snr, variance = map(float, _checked_channel(snr, variance))
    m = c.size
    # Exponents are taken relative to the j = i term:
    #   -|n + d_ij|^2 / v = -|n|^2 / v - (2 Re(n conj d_ij) + |d_ij|^2) / v
    # with d_ij = sqrt(snr)(x_i - x_j), so a block's M^2 relative exponents
    # are one [Re n, Im n, 1] @ coef product.
    d = math.sqrt(snr) * (c.points[:, None] - c.points[None, :]).ravel()
    coef = np.stack([-2.0 * d.real, -2.0 * d.imag, -(d.real ** 2 + d.imag ** 2)])
    coef /= variance
    step = max(1, _MC_BLOCK_BYTES // (8 * m * m))
    ones = np.ones(m)

    def pooled(n):
        # The buffers are per call: the MC pieces run this at the same time.
        n = np.asarray(n)
        values = np.empty(n.size)
        rows = np.ones((step, 3))
        expo = np.empty((step, m * m))
        logs = np.empty(step * m)
        for lo in range(0, n.size, step):
            block = n[lo:lo + step]
            b = block.size
            rows[:b, 0] = block.real
            rows[:b, 1] = block.imag
            e = np.matmul(rows[:b], coef, out=expo[:b])
            # No max shift is needed: each relative exponent is at most
            # |n|^2 / v, which for a stream sample is -ln(1 - u) < 37 since
            # u <= 1 - 2^-53, so exp cannot overflow; the j = i term is
            # exactly exp(0) = 1, so every log argument is at least 1.
            np.exp(e, out=e)
            s = np.matmul(e.reshape(b * m, m), ones, out=logs[:b * m])
            np.log(s, out=s)
            np.matmul(s.reshape(b, m), ones, out=values[lo:lo + b])
        values /= m
        values -= (n.real ** 2 + n.imag ** 2) / variance
        values /= LN2
        return values

    mean, stderr = mc_expect_complex_gaussian(pooled, variance, cfg)
    raw = math.log2(m / math.e) - mean
    bits, clamp = _clamp_bits(raw, math.log2(m), strict=False)
    method = f"monte_carlo(samples={cfg.samples}, seed={cfg.seed})"
    return MIEstimate(bits, method, max(stderr, clamp))


def cc_secrecy_capacity(
    c: Constellation, ch: WiretapChannel, rule: HermiteRule, audit: bool = False
) -> MIEstimate:
    """Secrecy capacity (bits) of the constellation over the wiretap pair.

    The difference between the main-channel and eavesdropper mutual
    informations at the channel's SNR, clamped at zero from below. The main
    channel is evaluated at the shape of ch.snr only, so a column of noise
    ratios shares one main-channel curve.
    """
    main = cc_mutual_information(c, ch.snr, 1.0, rule)
    eve = cc_mutual_information(c, ch.snr, ch.sigma_sq, rule)
    raw = np.subtract(main.bits, eve.bits)
    bits = np.maximum(raw, 0.0)
    clamp = bits - raw
    gap = 0.0
    if audit:
        half = gauss_hermite(max(1, rule.order // 2))
        raw_half = np.subtract(
            cc_mutual_information(c, ch.snr, 1.0, half).bits,
            cc_mutual_information(c, ch.snr, ch.sigma_sq, half).bits,
        )
        gap = np.abs(raw - raw_half)
    bound = _shaped(np.maximum(gap, clamp))
    return MIEstimate(_shaped(bits), f"gauss_hermite(order={rule.order})", bound)


def gaussian_channel_capacity(snr: float) -> float:
    """Shannon capacity log2(1 + snr) of the complex-AWGN channel."""
    return math.log2(1.0 + float(_checked("snr", snr, zero_ok=True)))


def gaussian_secrecy_capacity(ch: WiretapChannel) -> float | np.ndarray:
    """Secrecy capacity with a Gaussian codebook at the channel's SNR.

    log2(1 + snr) - log2(1 + snr / sigma_sq); grows to log2(sigma_sq) as the
    SNR increases, and is an upper envelope for any unit-energy constellation.
    A channel with array fields gives an array in their broadcast shape,
    each element computed as for a float channel.
    """
    snr, sigma_sq = np.broadcast_arrays(ch.snr, ch.sigma_sq)
    values = [
        math.log2((1.0 + s) / (1.0 + s / v))
        for s, v in zip(snr.ravel().tolist(), sigma_sq.ravel().tolist())
    ]
    return _shaped(np.reshape(values, snr.shape))
