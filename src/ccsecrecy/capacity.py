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


@dataclass(frozen=True)
class WiretapChannel:
    """Normalized channel pair: main-channel SNR and eavesdropper noise ratio."""

    snr: float
    sigma_sq: float

    def __post_init__(self):
        if not (math.isfinite(self.snr) and self.snr >= 0.0):
            raise ValueError(f"snr must be finite and nonnegative, got {self.snr}")
        if not math.isfinite(self.sigma_sq):
            raise ValueError(f"eavesdropper noise ratio must be finite, got {self.sigma_sq}")
        if self.sigma_sq < 1.0:
            raise ValueError(
                "eavesdropper noise ratio must be at least 1 "
                f"(main channel no noisier than the tap), got {self.sigma_sq}"
            )


@dataclass(frozen=True)
class MIEstimate:
    """Mutual information in bits per channel use, with method metadata."""

    bits: float
    method: str
    error_bound: float


def db_to_linear(db: float) -> float:
    """Convert a decibel power ratio to linear scale."""
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    """Convert a positive linear power ratio to decibels."""
    if x <= 0.0:
        raise ValueError(f"ratio must be positive to express in dB, got {x}")
    return 10.0 * math.log10(x)


def normalize_channel(p0: float, sigma1_sq: float, sigma2_sq: float) -> WiretapChannel:
    """Reduce (transmit power, main noise, tap noise) to the normalized pair.

    Returns WiretapChannel(snr=p0/sigma1_sq, sigma_sq=sigma2_sq/sigma1_sq).
    """
    if sigma1_sq <= 0.0:
        raise ValueError(f"main-channel noise variance must be positive, got {sigma1_sq}")
    if p0 < 0.0:
        raise ValueError(f"transmit power must be nonnegative, got {p0}")
    if sigma2_sq < sigma1_sq:
        raise ValueError(
            "eavesdropper must be at least as noisy as the main channel, got "
            f"sigma2_sq={sigma2_sq} < sigma1_sq={sigma1_sq}"
        )
    return WiretapChannel(p0 / sigma1_sq, sigma2_sq / sigma1_sq)


def conditional_density(y, x: complex, snr: float, variance: float):
    """Channel transition density of y = sqrt(snr) * x + n, n ~ CN(0, variance)."""
    if variance <= 0.0:
        raise ValueError(f"noise variance must be positive, got {variance}")
    if snr < 0.0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
    return np.exp(-np.abs(y - math.sqrt(snr) * x) ** 2 / variance) / (math.pi * variance)


def logsumexp(values) -> float:
    """log(sum(exp(values))) computed without overflow.

    Entries may be -inf (empty mixture components); the input must be
    nonempty and free of +inf and NaN.
    """
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        raise ValueError("logsumexp of an empty sequence")
    peak = float(np.max(a))
    if peak == -math.inf:
        return peak
    return peak + math.log(float(np.sum(np.exp(a - peak))))


def _shifted_factor(t: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One axis of the separable mixture, scaled to stay finite.

    For offsets u (orbits x points) and nodes t, the exponent -(t_a + u_j)^2
    is taken relative to the u = 0 term, giving e = -u_j (2 t_a + u_j) <= t_a^2,
    and each row (orbit, node) is then shifted by half its maximum, which is
    at least the u = 0 term's 0. Returns exp of the shifted exponents,
    shape (orbits, nodes, points), and the shifts, shape (orbits, nodes).
    """
    e = -u[:, None, :] * (2.0 * t[None, :, None] + u[:, None, :])
    shift = 0.5 * e.max(axis=-1)
    np.subtract(e, shift[..., None], out=e)
    np.exp(e, out=e)
    return e, shift


def cc_output_entropy(
    c: Constellation, snr: float, variance: float, rule: HermiteRule
) -> float:
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
    """
    if snr < 0.0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
    if variance <= 0.0:
        raise ValueError(f"noise variance must be positive, got {variance}")
    t, w = rule.nodes, rule.weights
    points = c.points
    orbits = c.orbits
    sizes = np.array([len(orbit) for orbit in orbits], dtype=float)
    reps = [orbit[0] for orbit in orbits]
    # Offsets in units of the per-axis noise scale sqrt(variance).
    offsets = math.sqrt(snr / variance) * (points[reps, None] - points[None, :])
    wsum = float(w.sum())
    # Orbits per block: the largest temporary per orbit is the n x n mixture
    # or an n x M factor, in float64.
    step = max(1, _BLOCK_BYTES // (8 * t.size * max(t.size, c.size)))
    # total = sum over orbits of size * sum_ab w_a w_b log S(a, b) in nats, with
    # log S = -(t_a^2 + t_b^2) + re_shift_a + im_shift_b + log mixture_ab; each
    # part but the last is a one-axis sum against the weights.
    total = 0.0
    for lo in range(0, len(reps), step):
        block = offsets[lo:lo + step]
        re_factor, re_shift = _shifted_factor(t, block.real)
        im_factor, im_shift = _shifted_factor(t, block.imag)
        mixture = np.matmul(re_factor, im_factor.transpose(0, 2, 1))
        np.log(mixture, out=mixture)
        per_orbit = mixture @ w @ w + wsum * (re_shift @ w + im_shift @ w)
        total += float(sizes[lo:lo + step] @ per_orbit)
    total -= 2.0 * c.size * wsum * float(w @ (t * t))
    if not math.isfinite(total):
        raise ValueError(
            f"integrand is not finite at snr={snr!r}, variance={variance!r}: got {total}"
        )
    return (
        math.log2(c.size) + math.log2(math.pi * variance)
        - total / (math.pi * LN2 * c.size)
    )


def _clamp_bits(raw: float, upper: float, *, strict: bool) -> tuple[float, float]:
    """Clamp a rate into [0, upper]; reject clamps beyond roundoff if strict.

    A non-finite rate is rejected in either mode: NaN fails both range
    comparisons and would pass through the clamp unchanged.
    """
    if not math.isfinite(raw):
        raise ValueError(f"mutual information is not finite: got {raw!r}")
    if strict and (raw < -CLAMP_LIMIT or raw > upper + CLAMP_LIMIT):
        raise ValueError(
            f"mutual information {raw!r} outside [0, {upper}] beyond roundoff; "
            "increase the quadrature order"
        )
    bits = min(max(raw, 0.0), upper)
    return bits, abs(bits - raw)


def cc_mutual_information(
    c: Constellation,
    snr: float,
    variance: float,
    rule: HermiteRule,
    audit: bool = False,
) -> MIEstimate:
    """Mutual information (bits) between the constellation input and the output.

    Computed as cc_output_entropy minus the conditional entropy
    log2(pi * e * variance) and clamped to [0, log2 M]. With audit=True the
    value is recomputed at half the quadrature order and the difference is
    reported as the error bound; otherwise the bound only records any clamp.
    """
    raw = cc_output_entropy(c, snr, variance, rule) - math.log2(
        math.pi * math.e * variance
    )
    bits, clamp = _clamp_bits(raw, math.log2(c.size), strict=True)
    gap = 0.0
    if audit:
        half = gauss_hermite(max(1, rule.order // 2))
        raw_half = cc_output_entropy(c, snr, variance, half) - math.log2(
            math.pi * math.e * variance
        )
        gap = abs(raw - raw_half)
    return MIEstimate(bits, f"gauss_hermite(order={rule.order})", max(gap, clamp))


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
    if snr < 0.0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
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
    informations at the channel's SNR, clamped at zero from below.
    """
    main = cc_mutual_information(c, ch.snr, 1.0, rule)
    eve = cc_mutual_information(c, ch.snr, ch.sigma_sq, rule)
    raw = main.bits - eve.bits
    bits = max(raw, 0.0)
    clamp = bits - raw
    gap = 0.0
    if audit:
        half = gauss_hermite(max(1, rule.order // 2))
        raw_half = (
            cc_mutual_information(c, ch.snr, 1.0, half).bits
            - cc_mutual_information(c, ch.snr, ch.sigma_sq, half).bits
        )
        gap = abs(raw - raw_half)
    return MIEstimate(bits, f"gauss_hermite(order={rule.order})", max(gap, clamp))


def gaussian_channel_capacity(snr: float) -> float:
    """Shannon capacity log2(1 + snr) of the complex-AWGN channel."""
    if snr < 0.0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
    return math.log2(1.0 + snr)


def gaussian_secrecy_capacity(ch: WiretapChannel) -> float:
    """Secrecy capacity with a Gaussian codebook at the channel's SNR.

    log2(1 + snr) - log2(1 + snr / sigma_sq); grows to log2(sigma_sq) as the
    SNR increases, and is an upper envelope for any unit-energy constellation.
    """
    return math.log2((1.0 + ch.snr) / (1.0 + ch.snr / ch.sigma_sq))
