import math
import sys
import tracemalloc

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


KERNEL_CONSTELLATIONS = {
    "bpsk": make_bpsk,
    "qam4": lambda: make_qam(4),
    "psk8": lambda: make_psk(8),
    "qam16": lambda: make_qam(16),
    "qam64": lambda: make_qam(64),
    "asym16": _asym16,
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
    audited = cc_mutual_information(make_qam(4), 5.0, 1.0, rule32, audit=True)
    assert audited.bits == plain.bits
    assert 0.0 < audited.error_bound < 5e-3


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

    def spy(f, var, config):
        seen.append(f)
        return real(f, var, config)

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
            n = integrate.ComplexGaussianStream(variance, cfg).take(0, cfg.samples)
            want = _direct_mc_values(c.points, snr, variance, n)
            got = kernel(n)
            assert np.max(np.abs(got - want)) <= 1e-12, (db, variance)
            raw = math.log2(m / math.e) - want.mean()
            bits = min(max(raw, 0.0), math.log2(m))
            stderr = want.std(ddof=1) / math.sqrt(want.size)
            assert abs(est.bits - bits) <= 1e-12, (db, variance)
            assert abs(est.error_bound - max(stderr, abs(bits - raw))) <= 1e-12


def test_mc_kernel_finite_at_largest_stream_radius(monkeypatch):
    # The stream's uniforms are k * 2^-53 with k < 2^53, so its largest
    # radius is |n|^2 = -variance * ln(2^-53); at 60 dB the qam64 offsets
    # are about 1e3 times larger.
    c = make_qam(64)
    snr = 1e6
    angles = np.concatenate([np.arange(8) * math.pi / 4, [0.1, 2.0, 4.5]])
    for variance in (1.0, 20.0):
        _, kernel = _mc_with_kernel(monkeypatch, c, snr, variance, MCConfig(2, 0))
        radius = math.sqrt(-variance * math.log(2.0 ** -53))
        n = radius * np.exp(1j * angles)
        got = kernel(n)
        assert np.all(np.isfinite(got))
        want = _direct_mc_values(c.points, snr, variance, n)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_mc_memory_is_bounded_by_constellation_size():
    # The kernel holds a (3, M^2) coefficient matrix, built from an M^2
    # complex difference array, and one block of exponents of at most
    # max(_MC_BLOCK_BYTES, 8 M^2) bytes; none of it grows with the sample
    # count. For qam256 that is 1.5 + 1 MiB plus a 512 KiB block, and the
    # temporaries of building the matrix; 6 MiB bounds it all. A per-point
    # sum over all samples at once would hold (samples, 256) complex arrays,
    # 4 MiB each at 1024 samples.
    c = make_qam(256)
    tracemalloc.start()
    try:
        est = cc_mutual_information_mc(c, 100.0, 1.0, MCConfig(1024, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < est.bits <= 8.0
    assert peak <= 6 * 2**20, peak


@pytest.mark.parametrize("samples", [3, 2**16 + 3, 2**19 + 1, 10**6])
def test_mc_mi_does_not_depend_on_the_core_count(monkeypatch, samples):
    cfg = MCConfig(samples, 5)
    estimates = []
    for cores in (1, 3):
        monkeypatch.setattr(integrate, "_cores", lambda cores=cores: cores)
        estimates.append(cc_mutual_information_mc(make_psk(8), 10.0, 2.0, cfg))
    assert estimates[0] == estimates[1]


def test_mc_memory_holds_one_piece_per_worker(monkeypatch):
    # Each of the two workers holds one 2^16-sample piece of draws and
    # temporaries, about 4.5 MiB, and hands back only three numbers; no
    # buffer spans more than a piece. That measures about 9 to 10.3 MiB
    # traced, so 12 MiB fails any design that also holds a 4 MiB buffer of
    # 2^19 values (13 to 14.4 MiB) or draws them at once (about 36 MiB).
    monkeypatch.setattr(integrate, "_cores", lambda: 2)
    tracemalloc.start()
    try:
        est = cc_mutual_information_mc(make_bpsk(), 1.0, 1.0, MCConfig(2**19, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < est.bits <= 1.0
    assert peak <= 12 * 2**20, peak


def test_mc_mi_pieces_share_no_buffers_under_thread_switching(monkeypatch):
    # Eight workers on fewer cores, switching threads every microsecond: a
    # kernel buffer shared between pieces would mix their samples.
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


def _scan_snr():
    """Linear SNRs of the default 0.5 dB scan grid over [-30, 50] dB."""
    return db_to_linear(-30.0 + 0.5 * np.arange(161))


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
    est = cc_mutual_information(c, 10.0, 5.0, rule32, audit=True)
    assert type(est.bits) is float and type(est.error_bound) is float
    est = cc_secrecy_capacity(c, WiretapChannel(10.0, 5.0), rule32, audit=True)
    assert type(est.bits) is float and type(est.error_bound) is float


def test_noise_ratio_column_shares_the_main_curve(monkeypatch, rule32):
    # A column of noise ratios against an SNR row gives one secrecy curve per
    # ratio, each equal to its own call, with the main channel evaluated once.
    c = make_psk(8)
    snr = _scan_snr()[::10]
    sigmas = np.array([[2.0], [5.0], [20.0]])
    variances = []
    real_mi = capacity.cc_mutual_information

    def counted(c, snr, variance, rule, audit=False):
        variances.append(np.shape(variance))
        return real_mi(c, snr, variance, rule, audit)

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


def test_gaussian_secrecy_capacity_of_an_array_channel():
    snr = _scan_snr()
    sigmas = np.array([[2.0], [20.0]])
    table = gaussian_secrecy_capacity(WiretapChannel(snr, sigmas))
    assert table.shape == (2, snr.size)
    for row, sigma_sq in zip(table, sigmas[:, 0]):
        assert row.tolist() == [
            gaussian_secrecy_capacity(WiretapChannel(s, float(sigma_sq))) for s in snr.tolist()
        ]
