import math
import time

import numpy as np
import pytest

from ccsecrecy import integrate
from ccsecrecy import MCConfig, gauss_hermite, mc_expect_complex_gaussian

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


def tensor_expectation(f, variance, rule):
    """(1/pi) sum_ab w_a w_b f(z_ab) on the full grid z = sqrt(variance)(t_a + i t_b)."""
    t, w = rule.nodes, rule.weights
    z = math.sqrt(variance) * (t[:, None] + 1j * t[None, :])
    return float((w[:, None] * w[None, :] * f(z)).sum() / math.pi)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_moment_exactness(n):
    # E[Re(N)^(2p)] = (variance/2)^p (2p-1)!! whenever 2p <= 2n-1; the
    # separable kernel in capacity relies on the rule being exact there.
    rule = gauss_hermite(n)
    variance = 3.7
    for p in range(n):
        got = tensor_expectation(lambda z: z.real ** (2 * p), variance, rule)
        want = (variance / 2.0) ** p * double_factorial(2 * p - 1)
        assert abs(got - want) <= 1e-10 * want, f"n={n} p={p}: {got} vs {want}"


# Integrands are vectorised: one that returns another shape, a scalar
# included, is an error that names both shapes.
@pytest.mark.parametrize(
    "f, mc_shape",
    [(lambda z: np.abs(z)[None], "(1, 1000)"), (lambda z: 1.0, "()")],
    ids=["extra-axis", "scalar"],
)
def test_integrands_must_keep_the_sample_shape(f, mc_shape):
    with pytest.raises(ValueError) as mc:
        mc_expect_complex_gaussian(f, 1.3, MCConfig(1000, 5))
    assert str(mc.value) == f"integrand must return an array of shape (1000,), got shape {mc_shape}"


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_integrators_reject_nonfinite_variance(bad):
    cfg = MCConfig(100, 1)
    for start in (lambda: mc_expect_complex_gaussian(np.abs, bad, cfg),
                  lambda: integrate.ComplexGaussianStream(bad, cfg)):
        with pytest.raises(ValueError, match=f"^noise variance is not finite, got {bad}$"):
            start()


@pytest.mark.parametrize(
    "bad, message",
    [(1e301, r"must be at most 1e\+300, got 1e\+301"), (1e-310, "must be at least 1e-300, got 1e-310")],
    ids=["huge", "subnormal"],
)
def test_integrators_reject_extreme_variance(bad, message):
    cfg = MCConfig(100, 1)
    for start in (lambda: mc_expect_complex_gaussian(np.abs, bad, cfg),
                  lambda: integrate.ComplexGaussianStream(bad, cfg)):
        with pytest.raises(ValueError, match=f"^noise variance {message}$"):
            start()


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


# Sample counts around the piece grid (2^16) and the four-pieces-per-worker
# windows of the merge (2^19 on two workers), and the 10^6 of the
# benchmark's Monte-Carlo workload.
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
    target = integrate.ComplexGaussianStream(1.0, cfg).take(bad, 1)[0]

    def f(z):
        return np.where(z == target, np.nan, 0.0)

    with pytest.raises(ValueError, match=f"sample {bad}:"):
        mc_expect_complex_gaussian(f, 1.0, cfg)


def test_mc_stops_drawing_after_a_failing_piece(monkeypatch):
    # At most four pieces per worker are submitted ahead of the merge. So on
    # two workers, while a slow first piece fails, the other worker draws at
    # most seven more pieces of the 64, however fast it runs.
    monkeypatch.setattr(integrate, "_cores", lambda: 2)
    cfg = MCConfig(2**22, 3)
    first = integrate.ComplexGaussianStream(1.0, cfg).take(0, 1)[0]
    drawn = []
    real = integrate.ComplexGaussianStream.take

    def take(self, start, count):
        drawn.append(start)
        return real(self, start, count)

    def f(z):
        if z[0] == first:
            time.sleep(0.5)
            return np.full(z.shape, np.nan)
        return np.abs(z)

    monkeypatch.setattr(integrate.ComplexGaussianStream, "take", take)
    with pytest.raises(ValueError, match="sample 0:"):
        mc_expect_complex_gaussian(f, 1.0, cfg)
    assert len(drawn) <= 8, sorted(drawn)


def test_mc_worker_exception_reaches_the_caller():
    class Boom(Exception):
        pass

    cfg = MCConfig(2**17, 3)
    second_piece = integrate.ComplexGaussianStream(1.0, cfg).take(2**16, 1)[0]

    def f(z):
        if np.any(z == second_piece):
            raise Boom("raised in a worker")
        return np.abs(z)

    with pytest.raises(Boom, match="raised in a worker"):
        mc_expect_complex_gaussian(f, 1.0, cfg)


# A standard error needs two samples; MCConfig is where that is checked.
@pytest.mark.parametrize("samples,seed", [(1, 0), (0, 0), (-5, 0), (10, -1), (10, 2**64)])
def test_mc_config_validation(samples, seed):
    with pytest.raises(ValueError, match="2 samples" if samples < 2 else "seed"):
        MCConfig(samples, seed)


def test_stream_repeat_fetch_is_identical():
    stream = integrate.ComplexGaussianStream(1.0, MCConfig(100, 7))
    assert np.array_equal(stream.take(0, 3), stream.take(0, 3))


def test_stream_is_seekable_by_index():
    stream = integrate.ComplexGaussianStream(2.0, MCConfig(1000, 99))
    block = stream.take(0, 40)
    assert np.array_equal(stream.take(5, 10), block[5:15])
    assert np.array_equal(stream.take(17, 3), block[17:20])


def test_stream_variances_share_one_noise_shape():
    cfg = MCConfig(100, 2024)
    unit = integrate.ComplexGaussianStream(1.0, cfg).take(0, 50)
    wide = integrate.ComplexGaussianStream(5.0, cfg).take(0, 50)
    assert np.allclose(wide, math.sqrt(5.0) * unit, rtol=1e-15, atol=0.0)


def test_stream_moments():
    stream = integrate.ComplexGaussianStream(2.0, MCConfig(1_000_000, 11))
    draws = stream.take(0, 1_000_000)
    power = np.abs(draws) ** 2
    power_se = power.std(ddof=1) / math.sqrt(power.size)
    assert abs(power.mean() - 2.0) <= 4.0 * power_se
    for axis in (draws.real, draws.imag):
        se = axis.std(ddof=1) / math.sqrt(axis.size)
        assert abs(axis.mean()) <= 4.0 * se


def test_stream_bounds_and_len():
    stream = integrate.ComplexGaussianStream(1.0, MCConfig(10, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        stream.take(-1, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        stream.take(0, -1)


def test_stream_rejects_nonpositive_variance():
    with pytest.raises(ValueError, match="variance"):
        integrate.ComplexGaussianStream(0.0, MCConfig(10, 0))
