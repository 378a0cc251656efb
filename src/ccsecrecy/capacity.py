"""Mutual information and secrecy capacity for uniform finite-constellation input.

The channel pair is y = sqrt(snr) * x + n1 and z = sqrt(snr) * x + n2 with
n1 ~ CN(0, 1) and n2 ~ CN(0, sigma_sq), sigma_sq >= 1, after normalizing the
main-channel noise to unit variance. All rates are in bits per channel use.

The public functions check snr, noise variance and their ratio where they
enter, against the domain MAX_SCALE sets, and name the first bad value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .integrate import (
    HermiteRule,
    MCConfig,
    mc_expect_complex_gaussian,
)

LN2 = math.log(2.0)

# The largest snr, noise variance and snr / variance, and the inverse of the
# smallest noise variance, the library takes. With unit mean energy every
# |x_i - x_j|^2 <= 4M <= 4096, so no squared offset exceeds 4.1e303.
MAX_SCALE = 1e300

# Mutual information below 0 or above log2(M) by more than this is treated as
# a numerical failure rather than roundoff to clamp away.
CLAMP_LIMIT = 1e-9

# Byte budget for one block of rows in cc_output_entropy's temporaries. It
# stays under glibc's 128 KiB mmap threshold, above which every call would map
# and fault in fresh pages instead of reusing the heap.
_BLOCK_BYTES = 1 << 16

# Byte budget for the exponent buffer of one block of Monte-Carlo samples
# (k^2 float64 per sample for a mixture factor of k points); it bounds the MC
# path's memory for any M.
_MC_BLOCK_BYTES = 1 << 19

# Both kernels clamp exponents at _EXP_FLOOR before exp: exp(-700) ~ 1e-304
# is still a normal float, so exp stays off its slow path. Monte-Carlo clamps
# only when an exponent can fall below the floor. For a stream sample
# |w|^2 < 37, so an exponent is at least 37 - (|d_ij| + sqrt(37))^2, with d_ij
# in noise units; none is below the floor while every |d_ij|^2 is at most
# _MC_CLAMP_FREE.
_EXP_FLOOR = -700.0
_MC_CLAMP_FREE = (math.sqrt(37.0 - _EXP_FLOOR) - math.sqrt(37.0)) ** 2


def _first(values: np.ndarray, mask: np.ndarray) -> float | None:
    """The first of the values where the mask is set, as a float, or None.

    np.count_nonzero is the cheapest test of a mask: these checks run on
    every scalar call as well as on grids.
    """
    return float(values[mask].flat[0]) if np.count_nonzero(mask) else None


def _checked(name: str, values, *, zero_ok: bool = False) -> np.ndarray:
    """The values as a float array, checked where they enter the library.

    Raises ValueError naming the first value that is not finite or is above
    MAX_SCALE, or is below zero if zero_ok, else below 1 / MAX_SCALE.
    """
    values = np.asarray(values, dtype=float)
    ok = values >= (0.0 if zero_ok else 1.0 / MAX_SCALE)
    ok &= values <= MAX_SCALE
    bad = _first(values, ~ok)
    if bad is not None:
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

    error_bound depends on the method. For Gauss-Hermite it is the amount
    clamped into [0, log2 M], or at 0 for a secrecy rate: usually 0, and at
    most CLAMP_LIMIT for a mutual information. It is not the quadrature
    error, which can be larger (about 1.6e-6 bits for qam16 at 10 dB and
    order 32; see the README). For Monte-Carlo it is the standard error, or
    the amount clamped if that is larger.
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
    linear = []
    for value in np.ravel(db).tolist():
        try:
            value = float(value)
            linear.append(10.0 ** (value / 10.0))
        except OverflowError:
            raise ValueError(
                f"{value} dB is too large: its linear ratio overflows a float"
            ) from None
    return np.array(linear).reshape(np.shape(db)) if np.ndim(db) else linear[0]


def _shifted_factor(t: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One axis of the separable mixture, scaled to stay finite.

    For offsets u (points x rows) and nodes t, the exponent -(t_a + u_j)^2
    is taken relative to the u = 0 term, giving e = -u_j (2 t_a + u_j) <= t_a^2,
    and each (row, node) is then shifted by half its maximum over the points,
    which is at least the u = 0 term's 0. Returns exp of the shifted
    exponents, shape (points, rows, nodes), and the shifts, shape (rows, nodes).
    Points-major, the maximum is an elementwise max across (rows, nodes) slices.
    """
    e = -u[:, :, None] * (2.0 * t + u[:, :, None])
    shift = 0.5 * e.max(axis=0)
    np.subtract(e, shift, out=e)
    # The clamp keeps exp off its slow path for subnormal and zero results,
    # and cannot change a sum: after the half-max shift the u = 0 factor is
    # at least exp(-t_a^2 / 2), about 1e-11 at order 32 (1e-22 for the
    # product of two), and no factor exceeds exp(t_a^2 / 2), so a term with a
    # clamped factor, exp(-700) ~ 1e-304, is lost in rounding beside it.
    np.maximum(e, _EXP_FLOOR, out=e)
    np.exp(e, out=e)
    return e, shift


def _row_sums(t: np.ndarray, w: np.ndarray, wsum: float, offsets: np.ndarray) -> np.ndarray:
    """sum_ab w_a w_b (log mixture_ab + re_shift_a + im_shift_b) per row of offsets.

    offsets are complex, points x rows; mixture_ab = sum_j re_j(a) im_j(b) is
    one (n x M) @ (M x n) product per row. Each sum is taken within its row,
    never across rows, so a row's value does not depend on the rows that
    share its block. The block's temporaries are freed on return, before the
    next block allocates its own.
    """
    re_factor, re_shift = _shifted_factor(t, offsets.real)
    im_factor, im_shift = _shifted_factor(t, offsets.imag)
    mixture = np.matmul(re_factor.transpose(1, 2, 0), im_factor.transpose(1, 0, 2))
    np.log(mixture, out=mixture)
    return ((mixture @ w + wsum * (re_shift + im_shift)) * w).sum(axis=-1)


def _axis_row_sums(t: np.ndarray, w: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """sum_a w_a (log sum_j factor_j(a) + shift_a) per row of real offsets (points x rows)."""
    factor, shift = _shifted_factor(t, offsets)
    sums = factor.sum(axis=0)
    np.log(sums, out=sums)
    sums += shift
    return sums @ w


def _channel_sums(ratio: np.ndarray, diffs: np.ndarray, sizes: np.ndarray,
                  row_bytes: int, row_sums) -> np.ndarray:
    """sum_r sizes_r * row_sums(ratio_c * diffs[:, r]) per channel c.

    diffs is points x reps, and a row is a (channel, rep) pair. Rows are taken
    in blocks whose temporaries, row_bytes per row, fit _BLOCK_BYTES. A block
    holds whole channels when a channel's reps fit, else a run of one
    channel's reps, so each channel's reps are grouped the same way whatever
    its neighbours.
    """
    step = max(1, _BLOCK_BYTES // row_bytes)
    reps = diffs.shape[1]
    per_block = max(1, step // reps)
    span = min(step, reps)
    totals = np.zeros(ratio.size)
    for lo in range(0, ratio.size, per_block):
        channels = ratio[lo:lo + per_block, None]
        for first in range(0, reps, span):
            offsets = (diffs[:, None, first:first + span] * channels).reshape(len(diffs), -1)
            per_row = row_sums(offsets).reshape(len(channels), -1)
            totals[lo:lo + per_block] += (per_row * sizes[first:first + span]).sum(axis=-1)
    return totals


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

    For a product set A x B (Constellation.axes) the sum over j is itself a
    real-axis sum times an imaginary-axis sum, so the tensor value is a sum
    of 1-D values: per level of each axis, n sums of |levels| terms, each row
    weighted by the other axis's weight sum and by M / |levels|. An axis with
    one level adds log 1 = 0 and is skipped, and when A equals B the axis is
    computed once and counted twice.

    snr in [0, 1e300] and variance in [1e-300, 1e300], with snr / variance
    <= 1e300, may be floats or arrays that broadcast together; the result
    has their broadcast shape, and is a float when both are floats.
    The kernel runs over rows of (channel, orbit) or (channel, level) pairs,
    a block of rows at a time, and each sum is taken within its row, so an
    array's values agree with one call per element to within 4e-15 bits.
    They are not always equal bit for bit: on the default 161-point scan
    grid, bpsk and qam4 differ in the last bits at a few points.
    """
    snr, variance = _checked_channel(snr, variance)
    t, w = rule.nodes, rule.weights
    wsum = float(w.sum())
    # Offsets in units of the per-axis noise scale sqrt(variance) are a
    # channel's sqrt(snr / variance) times the point differences.
    ratio = np.sqrt(snr / variance)
    shape = ratio.shape
    ratio = ratio.ravel()
    # totals = sum over i of sum_ab w_a w_b log S_i(a, b) in nats, per
    # channel, with log S = -(t_a^2 + t_b^2) + the shifted log mixture; all
    # but the first part come from the row sums.
    if c.axes is None:
        points = c.points
        reps = [orbit[0] for orbit in c.orbits]
        sizes = np.array([len(orbit) for orbit in c.orbits], dtype=float)
        # The largest temporary per row is the n x n mixture or an n x M factor.
        row_bytes = 8 * t.size * max(t.size, c.size)
        totals = _channel_sums(
            ratio, points[reps] - points[:, None], sizes, row_bytes,
            lambda offsets: _row_sums(t, w, wsum, offsets),
        )
    else:
        re_levels, im_levels = c.axes
        if np.array_equal(re_levels, im_levels):
            axes = ((re_levels, 2),)
        else:
            axes = ((re_levels, 1), (im_levels, 1))
        totals = np.zeros(ratio.size)
        for levels, count in axes:
            k = levels.size
            if k > 1:
                # A level's row sum counts once per point on it, M / k times,
                # and once per node of the other axis, by that axis's wsum.
                # The largest temporary per row is an n x k factor.
                sizes = np.full(k, count * wsum * (c.size // k))
                totals += _channel_sums(
                    ratio, levels - levels[:, None], sizes, 8 * t.size * k,
                    lambda offsets: _axis_row_sums(t, w, offsets),
                )
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


def cc_mutual_information(
    c: Constellation,
    snr: float | np.ndarray,
    variance: float | np.ndarray,
    rule: HermiteRule,
) -> MIEstimate:
    """Mutual information (bits) between the constellation input and the output.

    Computed as cc_output_entropy minus the conditional entropy
    log2(pi * e * variance) and clamped to [0, log2 M]; the error bound
    records the amount clamped. snr and variance may be arrays that broadcast
    together; the estimate's fields then take their broadcast shape.
    """
    h = np.asarray(cc_output_entropy(c, snr, variance, rule))
    raw = h - np.log2(math.pi * math.e * np.asarray(variance, dtype=float))
    bits, clamp = _clamp_bits(raw, math.log2(c.size), strict=True)
    return MIEstimate(bits, f"gauss_hermite(order={rule.order})", clamp)


def _mc_coefficients(levels: tuple[np.ndarray, ...], rows: slice, ratio: float) -> np.ndarray:
    """Coefficients of one mixture factor's rows i, shape (len(levels) + 1, rows, k).

    levels holds one coordinate array per axis of the factor's k points.
    With offsets d_ij = ratio (x_i - x_j) along each axis, entry (i, j) of
    the rows is -2 d_ij per axis, then -|d_ij|^2.
    """
    offsets = [ratio * np.subtract.outer(x[rows], x) for x in levels]
    return np.stack([-2.0 * d for d in offsets] + [-sum(d ** 2 for d in offsets)])


def _add_mean_log_mixture(out: np.ndarray, coords: list[np.ndarray],
                          levels: tuple[np.ndarray, ...], ratio: float) -> None:
    """Adds mean_i log sum_j exp(e_sij), with e_s = [*coords_s, 1] @ coef, to out[s].

    levels holds the factor's point coordinates, one array per axis, and coef
    = _mc_coefficients(levels, rows, ratio). The coefficients are built a
    block of rows i at a time, on every call, each block within
    _MC_BLOCK_BYTES (one row at least), so that memory does not grow with
    k^2, and each block adds its share of the mean over the k points. Every
    set of up to 147 points, and every axis of up to 181 levels, fits one
    block. Samples are taken in blocks whose exponents fit _MC_BLOCK_BYTES
    (one sample at least), so the buffers, which live for the call, do not
    grow with the sample count.
    """
    k = levels[0].size
    width = len(levels) + 1
    span = max(1, _MC_BLOCK_BYTES // (8 * width * k))
    ones = np.ones(k)
    for first in range(0, k, span):
        coef = _mc_coefficients(levels, slice(first, first + span), ratio)
        r = coef.shape[1]
        clamp = -coef[-1].min() > _MC_CLAMP_FREE
        coef = coef.reshape(width, r * k)
        step = max(1, _MC_BLOCK_BYTES // (8 * r * k))
        b = min(step, out.size)
        rows = np.empty((b, width))
        rows[:, -1] = 1.0
        expo = np.empty((b, r * k))
        logs = np.empty(b * r)
        means = np.empty(b)
        for lo in range(0, out.size, step):
            n = min(step, out.size - lo)
            for col, x in enumerate(coords):
                rows[:n, col] = x[lo:lo + n]
            e = np.matmul(rows[:n], coef, out=expo[:n])
            # No max shift is needed: each exponent is at most |w|^2, which
            # for a stream sample is -ln(1 - u) < 37 since u <= 1 - 2^-53, so
            # exp cannot overflow; the j = i term is exactly exp(0) = 1, so
            # every log argument is at least 1. The clamp keeps exp off its
            # slow path for subnormal and zero results: a clamped term,
            # exp(-700) ~ 1e-304, sits in a sum beside that 1 and cannot
            # change it.
            if clamp:
                np.maximum(e, _EXP_FLOOR, out=e)
            np.exp(e, out=e)
            s = np.matmul(e.reshape(n * r, k), ones, out=logs[:n * r])
            np.log(s, out=s)
            mean = np.matmul(s.reshape(n, r), ones[:r], out=means[:n])
            mean /= k
            out[lo:lo + n] += mean


def cc_mutual_information_mc(
    c: Constellation, snr: float, variance: float, cfg: MCConfig
) -> MIEstimate:
    """Monte-Carlo counterpart of cc_mutual_information (same estimand).

    Averages the per-symbol log-sum-exp terms over one shared seeded noise
    stream; the reported error bound is the standard error of the estimate.
    Sampling noise near the rate limits is clamped without complaint.

    The rate depends on the channel only through snr / variance, so the
    estimator works in units of the noise scale: with n = sqrt(v) w for a
    stream sample w ~ CN(0, 1) and d_ij = sqrt(snr / v)(x_i - x_j), each
    exponent is taken relative to the j = i term,
        -|w + d_ij|^2 = -|w|^2 - (2 Re(w conj d_ij) + |d_ij|^2),
    so the M^2 relative exponents of a sample are [Re w, Im w, 1] @ coef. For
    a product set A x B (Constellation.axes) the sum over j is a real-axis
    sum times an imaginary-axis sum, so the mean over i of its log is the sum
    of two per-axis means, from [Re w, 1] with |A|^2 coefficients and
    [Im w, 1] with |B|^2; an axis with one level adds log 1 = 0 and is
    skipped. A sample so costs |A|^2 + |B|^2 exponentials and |A| + |B|
    logarithms (32 and 8 for qam16) instead of M^2 and M (256 and 16).
    """
    for name, value in (("snr", snr), ("noise variance", variance)):
        if np.ndim(value):
            raise ValueError(f"{name} must be a number, got an array of shape {np.shape(value)}")
    snr, variance = map(float, _checked_channel(snr, variance))
    m = c.size
    ratio = math.sqrt(snr / variance)
    # Each factor: the axes of w that its rows read, and its points' coordinates.
    if c.axes is None:
        factors = [((0, 1), (c.points.real, c.points.imag))]
    else:
        factors = [((axis,), (levels,)) for axis, levels in enumerate(c.axes) if levels.size > 1]

    def pooled(w):
        axes = (w.real, w.imag)
        values = np.zeros(w.size)
        for picks, levels in factors:
            _add_mean_log_mixture(values, [axes[a] for a in picks], levels, ratio)
        norm = np.square(axes[0])
        norm += np.square(axes[1])
        values -= norm
        values /= LN2
        return values

    mean, stderr = mc_expect_complex_gaussian(pooled, cfg)
    raw = math.log2(m / math.e) - mean
    bits, clamp = _clamp_bits(raw, math.log2(m), strict=False)
    method = f"monte_carlo(samples={cfg.samples}, seed={cfg.seed})"
    return MIEstimate(bits, method, max(stderr, clamp))


def cc_secrecy_capacity(
    c: Constellation, ch: WiretapChannel, rule: HermiteRule
) -> MIEstimate:
    """Secrecy capacity (bits) of the constellation over the wiretap pair.

    The difference between the main-channel and eavesdropper mutual
    informations at the channel's SNR, clamped at zero from below; the error
    bound records the amount clamped. The main channel is evaluated at the
    shape of ch.snr only, so a column of noise ratios shares one main-channel
    curve.
    """
    main = cc_mutual_information(c, ch.snr, 1.0, rule)
    eve = cc_mutual_information(c, ch.snr, ch.sigma_sq, rule)
    raw = np.subtract(main.bits, eve.bits)
    bits, clamp = _clamp_bits(raw, math.log2(c.size), strict=False)
    return MIEstimate(bits, f"gauss_hermite(order={rule.order})", clamp)


def gaussian_channel_capacity(snr: float | np.ndarray) -> float | np.ndarray:
    """Shannon capacity log2(1 + snr) of the complex-AWGN channel, each element as a float's."""
    snr = _checked("snr", snr, zero_ok=True)
    return _shaped(np.reshape([math.log2(1.0 + s) for s in snr.ravel().tolist()], snr.shape))


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
