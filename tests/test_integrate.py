import math

import numpy as np
import pytest

from ccsecrecy import integrate
from ccsecrecy import (
    MCConfig,
    complex_gaussian_sample_stream,
    expect_complex_gaussian,
    gauss_hermite,
    mc_expect_complex_gaussian,
)

SQRT_PI = math.sqrt(math.pi)


def double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2)) if k > 0 else 1


def test_one_point_rule():
    rule = gauss_hermite(1)
    assert np.allclose(rule.nodes, [0.0], atol=1e-15)
    assert np.allclose(rule.weights, [SQRT_PI], atol=1e-14)


def test_two_point_rule():
    rule = gauss_hermite(2)
    assert np.allclose(rule.nodes, [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-14)
    assert np.allclose(rule.weights, [SQRT_PI / 2, SQRT_PI / 2], atol=1e-14)


def test_three_point_rule():
    rule = gauss_hermite(3)
    root = math.sqrt(1.5)
    assert np.allclose(rule.nodes, [-root, 0.0, root], atol=1e-14)
    assert np.allclose(
        rule.weights, [SQRT_PI / 6, 2 * SQRT_PI / 3, SQRT_PI / 6], atol=1e-14
    )


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128, 200])
def test_rule_invariants(n):
    rule = gauss_hermite(n)
    assert rule.order == n
    assert abs(rule.weights.sum() - SQRT_PI) <= 1e-12
    assert np.all(rule.weights > 0)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=1e-13)


@pytest.mark.parametrize("bad", [0, -1, 201])
def test_rule_rejects_bad_orders(bad):
    with pytest.raises(ValueError, match="order"):
        gauss_hermite(bad)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_moment_exactness(n):
    # E[Re(N)^(2p)] = (variance/2)^p (2p-1)!! whenever 2p <= 2n-1.
    rule = gauss_hermite(n)
    variance = 3.7
    for p in range(n):
        got = expect_complex_gaussian(lambda z: z.real ** (2 * p), variance, rule)
        want = (variance / 2.0) ** p * double_factorial(2 * p - 1)
        assert abs(got - want) <= 1e-10 * want, f"n={n} p={p}: {got} vs {want}"


def test_expect_constant(rule32):
    got = expect_complex_gaussian(lambda z: np.ones_like(z, dtype=float), 2.5, rule32)
    assert abs(got - 1.0) <= 1e-14


def test_expect_modulus_squared(rule32):
    got = expect_complex_gaussian(lambda z: np.abs(z) ** 2, 4.2, rule32)
    assert abs(got - 4.2) <= 1e-12


def test_expect_real_part_squared(rule32):
    got = expect_complex_gaussian(lambda z: z.real**2, 4.0, rule32)
    assert abs(got - 2.0) <= 1e-12


def test_expect_accepts_scalar_functions(rule32):
    vectorized = expect_complex_gaussian(lambda z: np.abs(z) ** 2, 1.3, rule32)
    scalar = expect_complex_gaussian(lambda z: abs(z) ** 2, 1.3, rule32)
    assert scalar == pytest.approx(vectorized, abs=1e-14)


def test_expect_rejects_nonpositive_variance(rule32):
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="variance"):
            expect_complex_gaussian(lambda z: np.abs(z), bad, rule32)


def test_expect_reports_nonfinite_node(rule32):
    def blows_up(z):
        out = np.ones_like(z, dtype=float)
        out[np.abs(z) < 0.5] = np.inf
        return out

    with pytest.raises(ValueError, match="not finite"):
        expect_complex_gaussian(blows_up, 1.0, rule32)


def test_mc_constant_is_exact():
    mean, stderr = mc_expect_complex_gaussian(
        lambda z: np.ones_like(z, dtype=float), 1.0, MCConfig(10_000, 7)
    )
    assert mean == 1.0
    assert stderr == 0.0


def test_mc_same_seed_is_bit_identical():
    cfg = MCConfig(50_000, 123)
    first = mc_expect_complex_gaussian(lambda z: np.abs(z) ** 2, 1.0, cfg)
    second = mc_expect_complex_gaussian(lambda z: np.abs(z) ** 2, 1.0, cfg)
    assert first == second


def test_mc_seed_changes_estimate():
    a, _ = mc_expect_complex_gaussian(lambda z: np.abs(z) ** 2, 1.0, MCConfig(10_000, 1))
    b, _ = mc_expect_complex_gaussian(lambda z: np.abs(z) ** 2, 1.0, MCConfig(10_000, 2))
    assert a != b


def test_mc_modulus_squared_statistics():
    mean, stderr = mc_expect_complex_gaussian(
        lambda z: np.abs(z) ** 2, 1.0, MCConfig(1_000_000, 404)
    )
    assert stderr > 0.0
    assert abs(mean - 1.0) <= 4.0 * stderr


# Sample counts around the piece (2^16) and chunk (2^19) grids, and the
# 10^6 of the benchmark's Monte-Carlo workload.
PIECE_EDGE_SAMPLES = [3, 2**16 + 3, 2**19 + 1, 10**6]


@pytest.mark.parametrize("samples", PIECE_EDGE_SAMPLES)
def test_mc_result_does_not_depend_on_the_core_count(monkeypatch, samples):
    cfg = MCConfig(samples, 17)
    results = []
    for cores in (1, 3):
        monkeypatch.setattr(integrate, "_cores", lambda cores=cores: cores)
        results.append(
            mc_expect_complex_gaussian(lambda z: np.log1p(np.abs(z) ** 3), 2.0, cfg)
        )
    assert results[0] == results[1]


def test_mc_reports_the_first_nonfinite_sample_across_pieces():
    bad = 2**16 + 5
    cfg = MCConfig(2**17, 3)
    target = complex_gaussian_sample_stream(1.0, cfg).take(bad, 1)[0]

    def f(z):
        return np.where(z == target, np.nan, 0.0)

    with pytest.raises(ValueError, match=f"sample {bad}:"):
        mc_expect_complex_gaussian(f, 1.0, cfg)


def test_mc_worker_exception_reaches_the_caller():
    class Boom(Exception):
        pass

    cfg = MCConfig(2**17, 3)
    second_piece = complex_gaussian_sample_stream(1.0, cfg).take(2**16, 1)[0]

    def f(z):
        if np.any(z == second_piece):
            raise Boom("raised in a worker")
        return np.abs(z)

    with pytest.raises(Boom, match="raised in a worker"):
        mc_expect_complex_gaussian(f, 1.0, cfg)


def test_mc_needs_two_samples():
    with pytest.raises(ValueError, match="2 samples"):
        mc_expect_complex_gaussian(lambda z: np.abs(z), 1.0, MCConfig(1, 0))


@pytest.mark.parametrize("samples,seed", [(0, 0), (-5, 0), (10, -1), (10, 2**64)])
def test_mc_config_validation(samples, seed):
    with pytest.raises(ValueError):
        MCConfig(samples, seed)


def test_stream_repeat_fetch_is_identical():
    stream = complex_gaussian_sample_stream(1.0, MCConfig(100, 7))
    assert np.array_equal(stream.take(0, 3), stream.take(0, 3))


def test_stream_is_seekable_by_index():
    stream = complex_gaussian_sample_stream(2.0, MCConfig(1000, 99))
    block = stream.take(0, 40)
    assert np.array_equal(stream.take(5, 10), block[5:15])
    assert np.array_equal(stream.take(17, 3), block[17:20])
    assert stream[7] == block[7]
    assert np.array_equal(stream[3:9], block[3:9])


def test_stream_variances_share_one_noise_shape():
    cfg = MCConfig(100, 2024)
    unit = complex_gaussian_sample_stream(1.0, cfg).take(0, 50)
    wide = complex_gaussian_sample_stream(5.0, cfg).take(0, 50)
    assert np.allclose(wide, math.sqrt(5.0) * unit, rtol=1e-15, atol=0.0)


def test_stream_moments():
    stream = complex_gaussian_sample_stream(2.0, MCConfig(1_000_000, 11))
    draws = stream.take(0, 1_000_000)
    power = np.abs(draws) ** 2
    power_se = power.std(ddof=1) / math.sqrt(power.size)
    assert abs(power.mean() - 2.0) <= 4.0 * power_se
    for axis in (draws.real, draws.imag):
        se = axis.std(ddof=1) / math.sqrt(axis.size)
        assert abs(axis.mean()) <= 4.0 * se


def test_stream_bounds_and_len():
    stream = complex_gaussian_sample_stream(1.0, MCConfig(10, 0))
    assert len(stream) == 10
    with pytest.raises(IndexError):
        stream[10]
    with pytest.raises(ValueError, match="contiguous"):
        stream[0:10:2]
    with pytest.raises(ValueError, match="nonnegative"):
        stream.take(-1, 5)


def test_stream_rejects_nonpositive_variance():
    with pytest.raises(ValueError, match="variance"):
        complex_gaussian_sample_stream(0.0, MCConfig(10, 0))
