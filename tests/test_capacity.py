import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ccsecrecy import capacity, integrate
from ccsecrecy import (
    MCConfig,
    WiretapChannel,
    cc_mutual_information,
    cc_mutual_information_mc,
    cc_output_entropy,
    cc_secrecy_capacity,
    db_to_linear,
    from_points,
    gauss_hermite,
    gaussian_channel_capacity,
    gaussian_secrecy_capacity,
    make_bpsk,
    make_psk,
    make_qam,
)
from perfbench.workloads import asym_points

# Frozen 10M-sample Monte-Carlo oracle for BPSK at snr=1, variance=1
# (regenerate with tools/gen_fixtures.py; seed 20250819).
ORACLE_BPSK_ENTROPY = 3.8154063593372207
ORACLE_BPSK_MI = 0.7212151889759384
ORACLE_BPSK_STDERR = 3.670e-04

LOG2_PI_E = math.log2(math.pi * math.e)


def _asym16():
    """16 seeded points with no rotation or reflection symmetry."""
    rng = np.random.default_rng(20251017)
    return from_points(rng.standard_normal(16) + 1j * rng.standard_normal(16), "asym16")


def _rect6():
    """The 3 x 2 product {-1.5, 0.25, 2} x {-0.5, 1} i, in shuffled order."""
    grid = np.add.outer([-1.5, 0.25, 2.0], [-0.5j, 1.0j]).ravel()
    return from_points(grid[[4, 1, 5, 0, 3, 2]], "rect6")


KERNEL_CONSTELLATIONS = {
    "bpsk": make_bpsk,
    "qam4": lambda: make_qam(4),
    "psk8": lambda: make_psk(8),
    "qam16": lambda: make_qam(16),
    "qam64": lambda: make_qam(64),
    "asym16": _asym16,
    "rect6": _rect6,
}


def _direct_output_entropy(points, snr, variance, order):
    """h(y) in bits by the direct M * n^2 * M tensor Gauss-Hermite sum."""
    t, w = np.polynomial.hermite.hermgauss(order)
    noise = math.sqrt(variance) * (t[:, None] + 1j * t[None, :])
    weights = np.outer(w, w) / math.pi
    total = 0.0
    for x in points:
        gaps = np.abs(noise[..., None] + math.sqrt(snr) * (x - points)) ** 2
        exponents = -gaps / variance
        peak = exponents.max(axis=-1)
        lse = peak + np.log(np.exp(exponents - peak[..., None]).sum(axis=-1))
        total += float((weights * lse).sum())
    m = points.size
    return math.log2(m * math.pi * variance) - total / (m * math.log(2.0))


def test_wiretap_channel_validation():
    with pytest.raises(ValueError, match="snr"):
        WiretapChannel(-0.1, 2.0)
    with pytest.raises(ValueError, match="noise ratio"):
        WiretapChannel(1.0, 0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^snr is not finite, got {bad}$"):
            WiretapChannel(bad, 2.0)
        with pytest.raises(ValueError, match=f"^eavesdropper noise ratio is not finite, got {bad}$"):
            WiretapChannel(1.0, bad)


@pytest.mark.parametrize("strict", [True, False])
def test_clamp_rejects_nonfinite_rates(strict):
    for raw in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            capacity._clamp_bits(raw, 1.0, strict=strict)


def test_mi_rejects_nan_rate_from_infinite_variance(rule32):
    # h(y) and the conditional entropy would both be +inf, and the raw rate
    # NaN; the output entropy rejects the variance where it enters.
    with pytest.raises(ValueError, match="not finite"):
        cc_mutual_information(make_bpsk(), db_to_linear(5.0), math.inf, rule32)


def test_mi_rejects_a_rate_outside_its_range_beyond_roundoff():
    # The order-1 rule has its one node at n = 0, so at zero SNR the output
    # entropy misses the conditional entropy's log2(e): the rate is -log2(e).
    with pytest.raises(ValueError, match=r"-1\.44\d* outside \[0, 1\.0\] beyond roundoff"):
        cc_mutual_information(make_bpsk(), 0.0, 1.0, gauss_hermite(1))


def test_mc_mi_rejects_negative_snr():
    with pytest.raises(ValueError, match="snr must be nonnegative"):
        cc_mutual_information_mc(make_bpsk(), -0.1, 1.0, MCConfig(100, 1))


# Non-finite inputs are rejected where they enter, before numpy warns about
# an invalid value (the suite turns warnings into errors) or the kernel
# reports a non-finite integrand.
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rates_reject_nonfinite_snr_and_variance(bad, rule32):
    c = make_bpsk()
    cfg = MCConfig(100, 1)
    for snr, variance, name in ((bad, 1.0, "snr"), (1.0, bad, "noise variance")):
        for rate in (lambda: cc_mutual_information(c, snr, variance, rule32),
                     lambda: cc_mutual_information_mc(c, snr, variance, cfg)):
            with pytest.raises(ValueError, match=f"^{name} is not finite, got {bad}$"):
                rate()
    with pytest.raises(ValueError, match=f"^snr is not finite, got {bad}$"):
        gaussian_channel_capacity(bad)


# Finite but extreme inputs are rejected where they enter too: an snr or
# noise variance above 1e300 would overflow pi * variance or the squared
# offsets, one below 1e-300 is subnormal or overflows the offsets, and so
# does an snr / variance above 1e300.
@pytest.mark.parametrize(
    "snr, variance, message",
    [
        (db_to_linear(5.0), 1e308, r"noise variance must be at most 1e\+300, got 1e\+308"),
        (db_to_linear(3080.0), 1.0, r"snr must be at most 1e\+300, got 1e\+308"),
        (1.0, 1e-310, "noise variance must be at least 1e-300, got 1e-310"),
        (1e300, 1e-10, r"snr / noise variance must be at most 1e\+300, got 1e\+300 / 1e-10"),
    ],
    ids=["variance-1e308", "snr-3080dB", "variance-1e-310", "ratio-1e310"],
)
def test_rates_reject_extreme_snr_and_variance(snr, variance, message, rule32):
    c = make_bpsk()
    with pytest.raises(ValueError, match=f"^{message}$"):
        cc_mutual_information(c, snr, variance, rule32)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cc_mutual_information_mc(c, snr, variance, MCConfig(100, 1))


def test_channel_and_gaussian_capacity_reject_extreme_values():
    with pytest.raises(ValueError, match=r"^snr must be at most 1e\+300, got 1e\+301$"):
        WiretapChannel(1e301, 2.0)
    with pytest.raises(
        ValueError, match=r"^eavesdropper noise ratio must be at most 1e\+300, got 1e\+308$"
    ):
        WiretapChannel(1.0, np.array([5.0, 1e308]))
    with pytest.raises(ValueError, match=r"^snr must be at most 1e\+300, got 1e\+301$"):
        gaussian_channel_capacity(1e301)


def test_rates_at_the_extreme_limits_compute(rule32):
    c = make_bpsk()
    cfg = MCConfig(1000, 1)
    snr = db_to_linear(3000.0)
    assert snr == 1e300
    assert cc_mutual_information(c, snr, 1.0, rule32).bits == 1.0
    assert cc_mutual_information_mc(c, snr, 1.0, cfg).bits <= 1.0
    # The largest offsets a constellation can have: qam1024's corners.
    assert cc_mutual_information(make_qam(1024), snr, 1.0, gauss_hermite(4)).bits == 10.0
    for snr, variance in ((1e300, 1e300), (1.0, 1e-300), (1e-290, 1e-300)):
        bits = cc_mutual_information(c, snr, variance, rule32).bits
        assert 0.0 <= bits <= 1.0
        assert 0.0 <= cc_mutual_information_mc(c, snr, variance, cfg).bits <= 1.0
    assert gaussian_secrecy_capacity(WiretapChannel(1e300, 1e300)) >= 0.0


def test_mc_mi_rejects_nonpositive_variance():
    with pytest.raises(ValueError, match="noise variance must be positive, got 0.0"):
        cc_mutual_information_mc(make_bpsk(), 1.0, 0.0, MCConfig(100, 1))


def test_output_entropy_pure_noise(rule32, reference_constellations):
    for c in reference_constellations:
        h = cc_output_entropy(c, 0.0, 1.0, rule32)
        assert abs(h - LOG2_PI_E) <= 1e-6, c.name


def test_output_entropy_tracks_variance(rule32):
    h = cc_output_entropy(make_bpsk(), 0.0, 3.0, rule32)
    assert h == pytest.approx(math.log2(math.pi * math.e * 3.0), abs=1e-9)


def test_output_entropy_separated_mixture(rule32):
    h = cc_output_entropy(make_bpsk(), 1e6, 1.0, rule32)
    assert abs(h - (1.0 + LOG2_PI_E)) <= 1e-3


def test_output_entropy_oracle(rule32):
    h = cc_output_entropy(make_bpsk(), 1.0, 1.0, rule32)
    assert abs(h - ORACLE_BPSK_ENTROPY) <= 4.0 * ORACLE_BPSK_STDERR


def test_mi_matches_entropy_decomposition(rule32):
    c = make_qam(4)
    est = cc_mutual_information(c, 3.0, 2.0, rule32)
    direct = cc_output_entropy(c, 3.0, 2.0, rule32) - math.log2(math.pi * math.e * 2.0)
    assert abs(est.bits - direct) <= 1e-12


def test_mi_zero_snr_clamps_to_zero(rule32):
    est = cc_mutual_information(make_qam(16), 0.0, 1.0, rule32)
    assert 0.0 <= est.bits <= 1e-9
    assert est.error_bound <= 1e-9


def test_mi_saturates_at_log2m(rule32):
    bpsk = cc_mutual_information(make_bpsk(), 1e3, 1.0, rule32)
    assert abs(bpsk.bits - 1.0) <= 1e-3
    qam = cc_mutual_information(make_qam(16), 1e6, 1.0, rule32)
    assert abs(qam.bits - 4.0) <= 1e-2


def test_mi_oracle(rule32):
    est = cc_mutual_information(make_bpsk(), 1.0, 1.0, rule32)
    assert abs(est.bits - ORACLE_BPSK_MI) <= max(1e-4, 4.0 * ORACLE_BPSK_STDERR)


def test_mi_bounds_and_monotonicity(rule32):
    for c in (make_bpsk(), make_qam(16)):
        top = math.log2(c.size)
        values = [
            cc_mutual_information(c, 10.0 ** (db / 10.0), 1.0, rule32).bits
            for db in np.arange(-20.0, 40.5, 1.0)
        ]
        assert all(0.0 <= v <= top + 1e-9 for v in values)
        assert all(b - a >= -1e-8 for a, b in zip(values, values[1:])), c.name


def test_mi_scaling_identity(rule32):
    for c in (make_bpsk(), make_qam(16)):
        for snr in (0.5, 2.0, 10.0, 200.0):
            for sigma_sq in (1.5, 5.0, 20.0):
                direct = cc_mutual_information(c, snr, sigma_sq, rule32).bits
                reduced = cc_mutual_information(c, snr / sigma_sq, 1.0, rule32).bits
                assert abs(direct - reduced) <= 1e-9


def test_mi_method_and_audit_metadata(rule32):
    plain = cc_mutual_information(make_qam(4), 5.0, 1.0, rule32)
    assert plain.method == "gauss_hermite(order=32)"
    assert plain.error_bound == 0.0


def test_mc_mi_agrees_with_quadrature(rule32):
    est = cc_mutual_information_mc(make_bpsk(), 1.0, 1.0, MCConfig(100_000, 7))
    quad = cc_mutual_information(make_bpsk(), 1.0, 1.0, rule32)
    assert est.error_bound > 0.0
    assert abs(est.bits - quad.bits) <= 5.0 * est.error_bound
    assert est.method == "monte_carlo(samples=100000, seed=7)"


def test_mc_mi_is_deterministic():
    cfg = MCConfig(20_000, 3)
    a = cc_mutual_information_mc(make_qam(4), 2.0, 1.0, cfg)
    b = cc_mutual_information_mc(make_qam(4), 2.0, 1.0, cfg)
    assert a == b


@pytest.mark.parametrize("name", ["psk8", "qam16"])
def test_mc_errors_over_many_seeds_are_standard_normal(name):
    # A guard on the sample stream's quality: over 200 seeds the estimate's
    # distance from the order-64 quadrature value, in its own standard
    # errors, spreads as N(0, 1). The spread of 200 such z has a standard
    # deviation of about 0.05; |z| > 4.5 has odds of about 3 in 1000 over
    # all 200 seeds.
    c = KERNEL_CONSTELLATIONS[name]()
    snr = db_to_linear(10)
    quad = cc_mutual_information(c, snr, 1.0, gauss_hermite(64)).bits
    z = np.array([
        (est.bits - quad) / est.error_bound
        for est in (cc_mutual_information_mc(c, snr, 1.0, MCConfig(20_000, seed))
                    for seed in range(200))
    ])
    assert 0.85 <= z.std() <= 1.15, z.std()
    assert np.max(np.abs(z)) <= 4.5, np.max(np.abs(z))


def test_secrecy_zero_cases(rule32):
    assert cc_secrecy_capacity(make_bpsk(), WiretapChannel(0.0, 5.0), rule32).bits <= 1e-9
    assert cc_secrecy_capacity(make_qam(4), WiretapChannel(7.0, 1.0), rule32).bits <= 1e-9


def test_secrecy_is_mi_difference(rule32):
    c = make_psk(8)
    ch = WiretapChannel(5.0, 10.0)
    sc = cc_secrecy_capacity(c, ch, rule32)
    diff = (
        cc_mutual_information(c, ch.snr, 1.0, rule32).bits
        - cc_mutual_information(c, ch.snr, ch.sigma_sq, rule32).bits
    )
    assert abs(sc.bits - max(diff, 0.0)) <= 1e-12
    assert sc.bits > 0.0


def test_secrecy_nonnegative_and_gaussian_dominated(rule32, reference_constellations):
    for c in reference_constellations:
        for db in (-20.0, -5.0, 0.0, 5.0, 15.0, 30.0):
            for sigma_sq in (2.0, 5.0, 20.0):
                ch = WiretapChannel(10.0 ** (db / 10.0), sigma_sq)
                sc = cc_secrecy_capacity(c, ch, rule32).bits
                assert sc >= 0.0
                assert sc <= gaussian_secrecy_capacity(ch) + 1e-6


def test_gaussian_channel_capacity_values():
    assert gaussian_channel_capacity(0.0) == 0.0
    assert gaussian_channel_capacity(1.0) == 1.0
    assert gaussian_channel_capacity(3.0) == 2.0
    with pytest.raises(ValueError, match="snr"):
        gaussian_channel_capacity(-1.0)


def test_gaussian_channel_capacity_of_an_array_equals_its_scalar_calls():
    snr = 10.0 ** (np.arange(-300.0, 301.0, 0.37) / 10.0).reshape(-1, 1)
    caps = gaussian_channel_capacity(snr)
    assert caps.shape == snr.shape
    assert caps.ravel().tolist() == [gaussian_channel_capacity(s) for s in snr.ravel().tolist()]
    assert gaussian_channel_capacity([3.0]).tolist() == [2.0]
    with pytest.raises(ValueError, match="^snr must be nonnegative, got -1.0$"):
        gaussian_channel_capacity(np.array([1.0, -1.0]))


# The Monte-Carlo rate is for one channel; a grid goes to cc_mutual_information.
@pytest.mark.parametrize("name", ["snr", "noise variance"])
def test_mc_rate_rejects_an_array_naming_it(name):
    args = {"snr": 1.0, "noise variance": 1.0, name: np.array([1.0, 2.0])}
    message = rf"^{name} must be a number, got an array of shape \(2,\)$"
    with pytest.raises(ValueError, match=message):
        cc_mutual_information_mc(make_bpsk(), args["snr"], args["noise variance"], MCConfig(100, 1))


def test_gaussian_secrecy_values():
    assert gaussian_secrecy_capacity(WiretapChannel(1.0, 2.0)) == pytest.approx(
        math.log2(2.0) - math.log2(1.5), abs=1e-12
    )
    assert gaussian_secrecy_capacity(WiretapChannel(0.0, 7.0)) == 0.0
    assert gaussian_secrecy_capacity(WiretapChannel(1e6, 4.0)) == pytest.approx(
        2.0, abs=1e-4
    )


def test_gaussian_secrecy_monotone_in_snr():
    values = [
        gaussian_secrecy_capacity(WiretapChannel(snr, 5.0))
        for snr in np.logspace(-3, 6, 40)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_rotation_and_conjugation_invariance(rule32):
    # The tensor quadrature grid is not isotropic, so rotating a constellation
    # moves the result by the rule's own convergence gap; measured worst case
    # near the mid-SNR transition band is ~6e-5 at order 32.
    base = make_psk(8)
    rotated = from_points(base.points * np.exp(0.7j), name="rot")
    for snr in (1.0, 5.0, 30.0):
        a = cc_mutual_information(base, snr, 1.0, rule32).bits
        b = cc_mutual_information(rotated, snr, 1.0, rule32).bits
        assert abs(a - b) <= 2e-4
    conjugated = from_points(np.conj(make_qam(16).points), name="conj")
    for snr in (1.0, 30.0):
        a = cc_mutual_information(make_qam(16), snr, 1.0, rule32).bits
        b = cc_mutual_information(conjugated, snr, 1.0, rule32).bits
        assert abs(a - b) <= 1e-12


def test_psk4_qam4_rotation_pair(rule32):
    # qam4 is psk4 rotated by pi/4; rates agree within the quadrature gap.
    for db in (-5.0, 0.0, 7.5, 15.0, 25.0):
        snr = 10.0 ** (db / 10.0)
        a = cc_mutual_information(make_psk(4), snr, 1.0, rule32).bits
        b = cc_mutual_information(make_qam(4), snr, 1.0, rule32).bits
        assert abs(a - b) <= 2e-4


def test_quadrature_convergence_gap(reference_constellations):
    # The log-sum-exp integrand limits tensor Gauss-Hermite convergence in the
    # transition band: measured 24-vs-48 gap peaks near 2e-4 (16-QAM, 15 dB)
    # and the 32-vs-64 gap near 5e-5. Pin that envelope.
    r24, r32, r48, r64 = (gauss_hermite(n) for n in (24, 32, 48, 64))
    for c in reference_constellations:
        for db in (0.0, 5.0, 10.0, 15.0, 20.0, 30.0):
            snr = 10.0 ** (db / 10.0)
            mi = {
                r.order: cc_mutual_information(c, snr, 1.0, r).bits
                for r in (r24, r32, r48, r64)
            }
            assert abs(mi[24] - mi[48]) <= 5e-4, (c.name, db)
            assert abs(mi[32] - mi[64]) <= 2e-4, (c.name, db)


@pytest.mark.parametrize("name", list(KERNEL_CONSTELLATIONS))
def test_output_entropy_matches_direct_sum(name):
    c = KERNEL_CONSTELLATIONS[name]()
    for order in (8, 16, 32, 64):
        rule = gauss_hermite(order)
        for db in (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0):
            for variance in (1.0, 5.0, 20.0):
                snr = 10.0 ** (db / 10.0)
                got = cc_output_entropy(c, snr, variance, rule)
                want = _direct_output_entropy(c.points, snr, variance, order)
                assert abs(got - want) <= 1e-12, (order, db, variance)


# Order-32 h(y) of two sets that are not products, as float.hex, keyed by
# (name, dB, variance): recorded before the kernel went points-major. The 2-D
# kernel must reproduce them bit for bit.
FROZEN_2D_ENTROPY = {
    ("psk8", -10.0, 1.0): "0x1.9da7c21ff384dp+1",
    ("psk8", -10.0, 20.0): "0x1.db1796d18da68p+2",
    ("psk8", 10.0, 1.0): "0x1.7161e7c1fdebfp+2",
    ("psk8", 10.0, 20.0): "0x1.ffe2b1f9b2972p+2",
    ("psk8", 40.0, 1.0): "0x1.86073a671183dp+2",
    ("psk8", 40.0, 20.0): "0x1.4d50d9596f4fbp+3",
    ("asym16", -10.0, 1.0): "0x1.9a5eaf23830cap+1",
    ("asym16", -10.0, 20.0): "0x1.db00ff38532bap+2",
    ("asym16", 10.0, 1.0): "0x1.76581a2c31a27p+2",
    ("asym16", 10.0, 20.0): "0x1.f991a8220472cp+2",
    ("asym16", 40.0, 1.0): "0x1.c6073a671183dp+2",
    ("asym16", 40.0, 20.0): "0x1.6ce703013f1e0p+3",
}


def test_output_entropy_of_sets_that_are_not_products_is_frozen(rule32):
    for (name, db, variance), want in FROZEN_2D_ENTROPY.items():
        c = KERNEL_CONSTELLATIONS[name]()
        got = cc_output_entropy(c, 10.0 ** (db / 10.0), variance, rule32)
        assert got.hex() == want, (name, db, variance)


@pytest.mark.parametrize(
    "name, sizes",
    [
        ("bpsk", [2]),
        ("qam4", [4]),
        ("psk8", [4, 4]),
        ("qam16", [4, 4, 8]),
        ("qam64", [4] * 4 + [8] * 6),
        ("asym16", [1] * 16),
    ],
)
def test_constellation_orbits(name, sizes):
    c = KERNEL_CONSTELLATIONS[name]()
    orbits = c.orbits
    assert sorted(len(orbit) for orbit in orbits) == sizes
    assert sum(len(orbit) for orbit in orbits) == c.size
    assert sorted(i for orbit in orbits for i in orbit) == list(range(c.size))
    # Members of an orbit share |x|, which every square symmetry preserves.
    for orbit in orbits:
        radii = np.abs(c.points[list(orbit)])
        assert np.ptp(radii) <= 1e-12


@pytest.mark.parametrize(
    "name, sizes",
    [("bpsk", (2, 1)), ("qam4", (2, 2)), ("qam16", (4, 4)), ("qam64", (8, 8)), ("rect6", (3, 2))],
)
def test_constellation_axes_of_product_sets(name, sizes):
    c = KERNEL_CONSTELLATIONS[name]()
    re, im = c.axes
    assert (re.size, im.size) == sizes
    assert np.all(np.diff(re) > 0) and np.all(np.diff(im) > 0)
    product = {(a, b) for a in re.tolist() for b in im.tolist()}
    assert {(x.real, x.imag) for x in c.points.tolist()} == product
    if name == "bpsk":
        assert im.tolist() == [0.0]
    if name == "rect6":
        scale = 1.0 / math.sqrt(np.mean([1.5**2, 0.25**2, 2.0**2]) + np.mean([0.5**2, 1.0]))
        assert np.allclose(re, np.array([-1.5, 0.25, 2.0]) * scale, rtol=0, atol=1e-15)
        assert np.allclose(im, np.array([-0.5, 1.0]) * scale, rtol=0, atol=1e-15)


def _grid_missing_a_point():
    grid = np.add.outer([-1.0, 0.0, 1.0], [-1.0j, 0.0j, 1.0j]).ravel()
    return from_points(np.delete(grid, 5), "grid8")


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_psk(4),
        lambda: make_psk(8),
        lambda: from_points(make_qam(4).points * np.exp(0.25j * math.pi), "qam4_rot45"),
        _grid_missing_a_point,
    ],
    ids=["psk4", "psk8", "qam4_rot45", "grid3x3_less_one"],
)
def test_constellation_axes_of_other_sets(build):
    assert build().axes is None


@pytest.mark.parametrize("name", ["qam16", "rect6", "psk8", "asym16"])
def test_output_entropy_in_one_row_blocks_matches_the_default_blocks(monkeypatch, name):
    # With a 1-byte budget every block is one (channel, orbit) or (channel,
    # level) row, so a channel's rows are summed one block at a time.
    c = KERNEL_CONSTELLATIONS[name]()
    snr = _scan_snr()[::8]
    for order in (8, 32):
        rule = gauss_hermite(order)
        want = cc_output_entropy(c, snr, 5.0, rule)
        monkeypatch.setattr(capacity, "_BLOCK_BYTES", 1)
        got = cc_output_entropy(c, snr, 5.0, rule)
        monkeypatch.undo()
        assert np.max(np.abs(got - want)) <= 4e-15, order


def test_output_entropy_finite_at_max_order_and_high_snr():
    rule = gauss_hermite(200)
    for variance in (1.0, 20.0):
        est = cc_mutual_information(make_qam(64), 1e6, variance, rule)
        assert math.isfinite(est.bits)
        assert abs(est.bits - 6.0) <= 1e-9


def test_output_entropy_rejects_nonfinite_snr(rule32):
    for snr in (math.inf, math.nan):
        with pytest.raises(ValueError, match="not finite"):
            cc_output_entropy(make_qam(16), snr, 1.0, rule32)


def _direct_mc_values(points, snr, variance, n):
    """Per-sample MC integrand in bits: per point i, the complex abs, then a
    log-sum-exp over j shifted by its maximum, averaged over i."""
    acc = np.zeros(n.size)
    for x in points:
        exponents = -np.abs(n[:, None] + math.sqrt(snr) * (x - points)) ** 2 / variance
        peak = exponents.max(axis=-1)
        acc += peak + np.log(np.exp(exponents - peak[:, None]).sum(axis=-1))
    return acc / (points.size * math.log(2.0))


def _mc_with_kernel(monkeypatch, c, snr, variance, cfg):
    """Run cc_mutual_information_mc and also return the integrand it passed
    to mc_expect_complex_gaussian."""
    seen = []
    real = capacity.mc_expect_complex_gaussian

    def spy(f, config):
        seen.append(f)
        return real(f, config)

    monkeypatch.setattr(capacity, "mc_expect_complex_gaussian", spy)
    est = cc_mutual_information_mc(c, snr, variance, cfg)
    return est, seen[0]


@pytest.mark.parametrize("name", list(KERNEL_CONSTELLATIONS))
def test_mc_kernel_matches_direct_sum(monkeypatch, name):
    c = KERNEL_CONSTELLATIONS[name]()
    m = c.size
    cfg = MCConfig(2000, 11)
    for db in (-10.0, 0.0, 10.0, 25.0, 40.0):
        for variance in (1.0, 5.0, 20.0):
            snr = 10.0 ** (db / 10.0)
            est, kernel = _mc_with_kernel(monkeypatch, c, snr, variance, cfg)
            w = integrate.ComplexGaussianStream(cfg).take(0, cfg.samples)
            want = _direct_mc_values(c.points, snr, variance, math.sqrt(variance) * w)
            got = kernel(w)
            assert np.max(np.abs(got - want)) <= 1e-12, (db, variance)
            assert np.max(np.abs(kernel(w[:1]) - want[:1])) <= 1e-12, (db, variance)
            raw = math.log2(m / math.e) - want.mean()
            bits = min(max(raw, 0.0), math.log2(m))
            stderr = want.std(ddof=1) / math.sqrt(want.size)
            assert abs(est.bits - bits) <= 1e-12, (db, variance)
            assert abs(est.error_bound - max(stderr, abs(bits - raw))) <= 1e-12


def test_mc_kernel_finite_at_largest_stream_radius(monkeypatch):
    # The stream's uniforms are k * 2^-53 with k < 2^53, so its largest
    # radius is |w|^2 = -ln(2^-53); at 60 dB the qam64 offsets are about
    # 1e3 times larger.
    c = make_qam(64)
    snr = 1e6
    angles = np.concatenate([np.arange(8) * math.pi / 4, [0.1, 2.0, 4.5]])
    w = math.sqrt(-math.log(2.0 ** -53)) * np.exp(1j * angles)
    for variance in (1.0, 20.0):
        _, kernel = _mc_with_kernel(monkeypatch, c, snr, variance, MCConfig(2, 0))
        got = kernel(w)
        assert np.all(np.isfinite(got))
        want = _direct_mc_values(c.points, snr, variance, math.sqrt(variance) * w)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_mc_memory_is_bounded_by_constellation_size():
    # For a set that is not a product, such as psk256, the kernel holds one
    # block of rows of its (3, M, M) coefficients at a time, and one block of
    # exponents, each within _MC_BLOCK_BYTES, plus the temporaries of
    # building the coefficients; none of it grows with the sample count, and
    # 6 MiB bounds it all. qam256 holds two (2, 16, 16) factors, each with a
    # block of at most _MC_BLOCK_BYTES. A per-point sum over all samples at
    # once would hold (samples, 256) complex arrays, 4 MiB each at 1024 samples.
    for c in (make_qam(256), make_psk(256)):
        tracemalloc.start()
        try:
            est = cc_mutual_information_mc(c, 100.0, 1.0, MCConfig(1024, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < est.bits <= 8.0
        assert peak <= 6 * 2**20, (c.name, peak)


def test_mc_memory_of_a_large_set_that_is_not_a_product():
    # psk1024 takes the M^2 path, and its (3, 1024, 1024) coefficients
    # alone would be 24 MiB; built a block of rows i at a time, they and the
    # exponents each fit _MC_BLOCK_BYTES (about 2.3 MiB traced in all). The
    # set is built first: its validation holds M x M distance matrices.
    c = make_psk(1024)
    tracemalloc.start()
    try:
        est = cc_mutual_information_mc(c, 100.0, 1.0, MCConfig(64, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < est.bits <= 10.0
    assert peak <= 16 * 2**20, peak


@pytest.mark.parametrize("name, budget", [
    ("psk8", 8 * 3 * 8 * 3),
    ("asym16", 8 * 3 * 16 * 5),
    ("rect6", 8 * 2 * 3 * 2),
])
def test_mc_kernel_in_blocks_of_rows_matches_direct_sum(monkeypatch, name, budget):
    # The budget holds the coefficients of 3 of psk8's 8 rows i, 5 of
    # asym16's 16 and 2 of the 3 real levels of rect6, so those factors run
    # in blocks of rows with a short last one (16 = 5 + 5 + 5 + 1). Each
    # block of rows takes 2 to 15 samples at a time, and 301 samples end
    # every factor's last sub-block of samples on one.
    c = KERNEL_CONSTELLATIONS[name]()
    monkeypatch.setattr(capacity, "_MC_BLOCK_BYTES", budget)
    cfg = MCConfig(301, 4)
    for db in (-10.0, 10.0, 40.0):
        snr = 10.0 ** (db / 10.0)
        _, kernel = _mc_with_kernel(monkeypatch, c, snr, 2.0, cfg)
        w = integrate.ComplexGaussianStream(cfg).take(0, cfg.samples)
        want = _direct_mc_values(c.points, snr, 2.0, math.sqrt(2.0) * w)
        assert np.max(np.abs(kernel(w) - want)) <= 1e-12, db


# float.hex of (bits, error_bound) per (name, dB, variance), seed 7, recorded
# from the SplitMix64 stream. qam16 and psk8 take 20,000 samples, psk300
# 2,000 with its coefficients in 5 blocks of rows; at 50 dB the exponent
# clamp runs. The pins at variance 20 were first recorded while the stream
# drew CN(0, variance) samples, so they are compared to 1e-15: the
# noise-unit estimator scales the offsets by sqrt(snr / 20) rather than the
# samples by sqrt(20), which may move the last bits.
FROZEN_MC_PINS = {
    ("qam16", 10, 1.0): ("0x1.946f0b46968d6p+1", "0x1.afce7e36941a3p-9"),
    ("qam16", 10, 20.0): ("0x1.26989d79700c0p-1", "0x1.badba11c0eddap-8"),
    ("qam16", 50, 1.0): ("0x1.fe782e628db3ap+1", "0x1.4a7aadf394009p-7"),
    ("qam16", 50, 20.0): ("0x1.fe782e628db3ap+1", "0x1.4a7aadf394009p-7"),
    ("psk8", 10, 1.0): ("0x1.55d32623fdc10p+1", "0x1.a1d88a9b44525p-8"),
    ("psk8", 10, 20.0): ("0x1.25db7042422b0p-1", "0x1.bc5ade307dc73p-8"),
    ("psk8", 50, 1.0): ("0x1.7e782e628db3ap+1", "0x1.4a7aadf394009p-7"),
    ("psk8", 50, 20.0): ("0x1.7e782e628db3ap+1", "0x1.4a7aadf394009p-7"),
    ("psk300", 10, 1.0): ("0x1.5d7b84a0e3db0p+1", "0x1.ee255e880e894p-7"),
    ("psk300", 10, 20.0): ("0x1.1e79179975600p-1", "0x1.54875db90cea8p-6"),
    ("psk300", 50, 1.0): ("0x1.064754f63f954p+3", "0x1.fbf9485557b9ep-6"),
    ("psk300", 50, 20.0): ("0x1.ced25cb308e7ep+2", "0x1.fd5894465873ep-7"),
}


def test_mc_estimates_are_pinned_to_full_precision():
    sets = {"qam16": (make_qam(16), 20_000), "psk8": (make_psk(8), 20_000),
            "psk300": (make_psk(300), 2_000)}
    for (name, db, variance), (bits, bound) in FROZEN_MC_PINS.items():
        c, samples = sets[name]
        est = cc_mutual_information_mc(c, db_to_linear(db), variance, MCConfig(samples, 7))
        if variance == 1.0:
            assert (est.bits.hex(), est.error_bound.hex()) == (bits, bound), (name, db)
        else:
            assert abs(est.bits - float.fromhex(bits)) <= 1e-15, (name, db)
            assert abs(est.error_bound - float.fromhex(bound)) <= 1e-15, (name, db)


# Sample counts whose last block leaves one sample after the kernel's last
# full sub-block of samples (qam16 axes take 4096 a sub-block, psk8 1024,
# rect6's 3-level axis 7281): matmul evaluates a sub-block of one row by
# other BLAS routines than a sub-block of several. Frozen at seed 7, 10 dB,
# variance 1, from the SplitMix64 stream.
FROZEN_MC_TAIL_PINS = {
    ("qam16", 2**16 + 4097): ("0x1.951ab9e8c9980p+1", "0x1.d3dad9250cb0ap-10"),
    ("psk8", 2**16 + 1025): ("0x1.573edb9d42ed0p+1", "0x1.cf441a691ae3dp-9"),
    ("rect6", 2**16 + 7282): ("0x1.3ae6a66f3c9bep+1", "0x1.15100170655f3p-8"),
}


def test_one_core_mc_runs_on_the_calling_thread(monkeypatch):
    # With one core the caller runs every block itself and starts no thread.
    def no_thread(*args, **kwargs):
        raise AssertionError("a one-core Monte-Carlo call started a thread")

    monkeypatch.setattr(integrate, "_cores", lambda: 1)
    monkeypatch.setattr(integrate.threading, "Thread", no_thread)
    est = cc_mutual_information_mc(make_qam(16), db_to_linear(10), 1.0, MCConfig(20_000, 7))
    assert (est.bits.hex(), est.error_bound.hex()) == FROZEN_MC_PINS["qam16", 10, 1.0]


@pytest.mark.parametrize("name, samples", list(FROZEN_MC_TAIL_PINS))
def test_mc_estimates_with_a_lone_tail_sample_are_pinned(name, samples):
    c = KERNEL_CONSTELLATIONS[name]()
    est = cc_mutual_information_mc(c, db_to_linear(10), 1.0, MCConfig(samples, 7))
    assert (est.bits.hex(), est.error_bound.hex()) == FROZEN_MC_TAIL_PINS[name, samples]


def test_mc_mi_depends_on_snr_over_variance_only():
    # One CN(0, 1) draw serves every variance: the kernel sees only
    # sqrt(snr / variance), and these ratios are all exactly 10.
    cfg = MCConfig(5000, 2024)
    for c in (make_qam(16), make_psk(8)):
        unit = cc_mutual_information_mc(c, 10.0, 1.0, cfg)
        for snr, variance in ((40.0, 4.0), (2.5, 0.25), (200.0, 20.0)):
            assert cc_mutual_information_mc(c, snr, variance, cfg) == unit, (c.name, variance)


@pytest.mark.parametrize("samples", [3, 2**13 + 1, 2**16 + 3, 2**19 + 1, 2**19 + 2**13 + 1, 10**6])
def test_mc_mi_does_not_depend_on_the_core_count(monkeypatch, samples):
    cfg = MCConfig(samples, 5)
    estimates = []
    for cores in (1, 3):
        monkeypatch.setattr(integrate, "_cores", lambda cores=cores: cores)
        estimates.append(cc_mutual_information_mc(make_psk(8), 10.0, 2.0, cfg))
    assert estimates[0] == estimates[1]


def test_mc_memory_holds_one_block_per_worker(monkeypatch):
    # On two cores the workers are two helper threads, started for each
    # window of blocks. Each draws, evaluates and reduces one 2^13-sample
    # block at a time, in samples, uniforms, values and kernel buffers that
    # each take and kernel call allocates and frees; it hands back only
    # three numbers. That measures about 1.5 to 1.8 MiB traced, so 2.25 MiB
    # fails a worker that keeps a 2^16-sample buffer of values, 0.5 MiB
    # (2.5 to 2.8 MiB), or one that draws or evaluates more than a block at
    # once.
    monkeypatch.setattr(integrate, "_cores", lambda: 2)
    for c in (make_bpsk(), make_qam(16)):
        tracemalloc.start()
        try:
            est = cc_mutual_information_mc(c, 1.0, 1.0, MCConfig(2**19, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < est.bits <= math.log2(c.size)
        assert peak <= 2.25 * 2**20, (c.name, peak)


def test_mc_mi_blocks_share_no_buffers_under_thread_switching(monkeypatch):
    # Eight workers on fewer cores, switching threads every microsecond: a
    # kernel buffer shared between blocks would mix their samples.
    cfg = MCConfig(2**19, 8)
    monkeypatch.setattr(integrate, "_cores", lambda: 1)
    want = cc_mutual_information_mc(make_qam(16), 10.0, 1.0, cfg)
    monkeypatch.setattr(integrate, "_cores", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = cc_mutual_information_mc(make_qam(16), 10.0, 1.0, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_mc_calls_at_the_same_time_give_their_lone_results():
    # Two calls from two user threads, switching every microsecond, each give
    # what they give alone: no call keeps scratch that another call can reach.
    cfg = MCConfig(2**18 + 3, 4)
    sets = [make_qam(16), make_psk(8)]
    want = [cc_mutual_information_mc(c, 10.0, 2.0, cfg) for c in sets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda c: cc_mutual_information_mc(c, 10.0, 2.0, cfg), sets))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def _scan_snr():
    """Linear SNRs of the default 0.5 dB scan grid over [-30, 50] dB."""
    return db_to_linear(-30.0 + 0.5 * np.arange(161))


def test_qam4_is_two_bpsk_axes_at_half_the_snr(rule32):
    # qam4 is {+-1} x {+-1} / sqrt(2): each axis is a real bpsk channel at
    # half the SNR, and bpsk at snr / 2 carries the same real-axis rate.
    snr = _scan_snr()
    for variance in (1.0, 5.0, 20.0):
        qam4 = cc_mutual_information(make_qam(4), snr, variance, rule32).bits
        bpsk = cc_mutual_information(make_bpsk(), snr / 2.0, variance, rule32).bits
        assert np.max(np.abs(qam4 - 2.0 * bpsk)) <= 1e-12, variance


ARRAY_CONSTELLATIONS = {
    "bpsk": make_bpsk,
    "qam4": lambda: make_qam(4),
    "psk8": lambda: make_psk(8),
    "qam16": lambda: make_qam(16),
    "qam64": lambda: make_qam(64),
    "asym_points(1)": lambda: from_points(asym_points(1), "asym16"),
}


@pytest.mark.parametrize("name", list(ARRAY_CONSTELLATIONS))
def test_snr_array_matches_scalar_calls(name):
    # The array path evaluates rows of (SNR, orbit) pairs in blocks; each
    # SNR's value must be the one a call for that SNR alone gives.
    c = ARRAY_CONSTELLATIONS[name]()
    snr = _scan_snr()
    for order in (8, 32, 64):
        rule = gauss_hermite(order)
        for variance in (1.0, 5.0, 20.0):
            h = cc_output_entropy(c, snr, variance, rule)
            mi = cc_mutual_information(c, snr, variance, rule)
            assert h.shape == mi.bits.shape == mi.error_bound.shape == snr.shape
            for k, one_snr in enumerate(snr.tolist()):
                assert abs(h[k] - cc_output_entropy(c, one_snr, variance, rule)) <= 4e-15
                one = cc_mutual_information(c, one_snr, variance, rule)
                assert abs(mi.bits[k] - one.bits) <= 4e-15, (order, variance, k)
                assert abs(mi.error_bound[k] - one.error_bound) <= 4e-15


def test_scalar_inputs_give_floats(rule32):
    c = make_qam(16)
    assert type(cc_output_entropy(c, 10.0, 1.0, rule32)) is float
    est = cc_mutual_information(c, 10.0, 5.0, rule32)
    assert type(est.bits) is float and type(est.error_bound) is float
    est = cc_secrecy_capacity(c, WiretapChannel(10.0, 5.0), rule32)
    assert type(est.bits) is float and type(est.error_bound) is float


def test_noise_ratio_column_shares_the_main_curve(monkeypatch, rule32):
    # A column of noise ratios against an SNR row gives one secrecy curve per
    # ratio, each equal to its own call, with the main channel evaluated once.
    c = make_psk(8)
    snr = _scan_snr()[::10]
    sigmas = np.array([[2.0], [5.0], [20.0]])
    variances = []
    real_mi = capacity.cc_mutual_information

    def counted(c, snr, variance, rule):
        variances.append(np.shape(variance))
        return real_mi(c, snr, variance, rule)

    monkeypatch.setattr(capacity, "cc_mutual_information", counted)
    table = cc_secrecy_capacity(c, WiretapChannel(snr, sigmas), rule32)
    assert variances == [(), (3, 1)]
    assert table.bits.shape == (3, snr.size)
    monkeypatch.undo()
    for row, sigma_sq in zip(table.bits, sigmas[:, 0]):
        for k, one_snr in enumerate(snr.tolist()):
            one = cc_secrecy_capacity(c, WiretapChannel(one_snr, sigma_sq), rule32)
            assert abs(row[k] - one.bits) <= 4e-15


def test_array_validation_names_the_bad_value(rule32):
    c = make_bpsk()
    with pytest.raises(ValueError, match="snr must be nonnegative, got -2.0"):
        cc_output_entropy(c, np.array([1.0, -2.0, -3.0]), 1.0, rule32)
    with pytest.raises(ValueError, match="variance must be positive, got 0.0"):
        cc_output_entropy(c, 1.0, np.array([1.0, 0.0]), rule32)
    with pytest.raises(ValueError, match="snr is not finite, got inf"):
        WiretapChannel(np.array([1.0, math.inf]), 2.0)
    with pytest.raises(ValueError, match=r"snr / noise variance must be at most 1e\+300, got 1e\+300 / 1e-10"):
        cc_output_entropy(c, 1e300, np.array([1.0, 1e-10]), rule32)
    with pytest.raises(ValueError, match="at least 1 .* got 0.5"):
        WiretapChannel(1.0, np.array([[2.0], [0.5]]))


def test_db_to_linear_arrays_and_overflow():
    grid = -30.0 + 0.5 * np.arange(161)
    linear = db_to_linear(grid)
    assert linear.shape == grid.shape
    # Element by element the same values as scalar calls (Python's power).
    assert all(a == db_to_linear(float(g)) for a, g in zip(linear, grid))
    assert db_to_linear(np.float64(10.0)) == 10.0
    assert db_to_linear(-4000.0) == 0.0
    for bad in (4000.0, np.float64(3500.0), np.array([0.0, 4000.0])):
        with pytest.raises(ValueError, match="dB is too large"):
            db_to_linear(bad)
    # An array names its first value that overflows.
    with pytest.raises(ValueError, match=r"^3500\.0 dB is too large"):
        db_to_linear([0, 3500, 4000])


def test_gaussian_secrecy_capacity_of_an_array_channel():
    snr = _scan_snr()
    sigmas = np.array([[2.0], [20.0]])
    table = gaussian_secrecy_capacity(WiretapChannel(snr, sigmas))
    assert table.shape == (2, snr.size)
    for row, sigma_sq in zip(table, sigmas[:, 0]):
        assert row.tolist() == [
            gaussian_secrecy_capacity(WiretapChannel(s, float(sigma_sq))) for s in snr.tolist()
        ]
