import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ccsecrecy import integrate
from ccsecrecy import MCConfig, gauss_hermite
from ccsecrecy.integrate import mc_expect_complex_gaussian

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


# A bool would build a rule of order 1 and a float would fail inside the
# rule's construction; both are refused by name.
@pytest.mark.parametrize("bad", [True, 32.0])
def test_rule_rejects_an_order_that_is_not_an_integer(bad):
    with pytest.raises(TypeError, match=f"^quadrature order must be an integer, got {bad!r}$"):
        gauss_hermite(bad)


def test_each_rule_is_built_once_and_errors_are_not_cached():
    assert gauss_hermite(7) is gauss_hermite(7)
    assert not gauss_hermite(7).nodes.flags.writeable
    for _ in range(2):
        with pytest.raises(ValueError, match="order"):
            gauss_hermite(0)
    # A float order is still refused after the int of the same value is cached.
    with pytest.raises(TypeError, match="integer"):
        gauss_hermite(7.0)


def test_hermite_rule_gives_numpys_hermgauss_bit_for_bit():
    # gauss_hermite builds its rule without numpy.polynomial, by hermgauss's
    # own steps; every order it accepts must match, sign bits included.
    from numpy.polynomial.hermite import hermgauss

    for n in range(1, integrate.MAX_ORDER + 1):
        for ours, numpys in zip(integrate._hermite_rule(n), hermgauss(n)):
            assert ours.dtype == numpys.dtype and ours.shape == numpys.shape, n
            assert np.array_equal(ours.view(np.uint64), numpys.view(np.uint64)), n
    rule = gauss_hermite(32)
    assert np.array_equal(rule.nodes, hermgauss(32)[0])
    assert np.array_equal(rule.weights, hermgauss(32)[1])


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


def test_mc_constant_is_exact():
    mean, stderr = mc_expect_complex_gaussian(
        lambda z: np.ones_like(z, dtype=float), MCConfig(10_000, 7)
    )
    assert mean == 1.0
    assert stderr == 0.0


def test_mc_same_seed_is_bit_identical():
    cfg = MCConfig(50_000, 123)
    first = mc_expect_complex_gaussian(lambda z: np.abs(z) ** 2, cfg)
    second = mc_expect_complex_gaussian(lambda z: np.abs(z) ** 2, cfg)
    assert first == second


def test_mc_seed_changes_estimate():
    a, _ = mc_expect_complex_gaussian(lambda z: np.abs(z) ** 2, MCConfig(10_000, 1))
    b, _ = mc_expect_complex_gaussian(lambda z: np.abs(z) ** 2, MCConfig(10_000, 2))
    assert a != b


def test_mc_modulus_squared_statistics():
    mean, stderr = mc_expect_complex_gaussian(lambda z: np.abs(z) ** 2, MCConfig(1_000_000, 404))
    assert stderr > 0.0
    assert abs(mean - 1.0) <= 4.0 * stderr


# Sample counts around the block grid (2^13) and the 32-blocks-per-worker
# windows of the merge (2^19 on two workers), and the 10^6 of the
# benchmark's Monte-Carlo workload.
BLOCK_EDGE_SAMPLES = [3, 2**13 + 1, 2**16 + 3, 2**19 + 1, 2**19 + 2**13 + 1, 10**6]


@pytest.mark.parametrize("samples", BLOCK_EDGE_SAMPLES)
def test_mc_result_does_not_depend_on_the_core_count(monkeypatch, samples):
    cfg = MCConfig(samples, 17)
    results = []
    for cores in (1, 3):
        monkeypatch.setattr(integrate, "_cores", lambda cores=cores: cores)
        results.append(
            mc_expect_complex_gaussian(lambda z: np.log1p(np.abs(z) ** 3), cfg)
        )
    assert results[0] == results[1]


def test_mc_reports_the_first_nonfinite_sample_across_blocks():
    bad = 2**16 + 5
    cfg = MCConfig(2**17, 3)
    target = integrate.ComplexGaussianStream(cfg).take(bad, 1)[0]

    def f(z):
        return np.where(z == target, np.nan, 0.0)

    with pytest.raises(ValueError, match=f"sample {bad}:"):
        mc_expect_complex_gaussian(f, cfg)


def test_mc_stops_drawing_after_a_failing_block(monkeypatch):
    # On two cores two helper threads take blocks from a window of 2^19
    # samples, and no block of the next window is drawn before the window is
    # merged. So while a slow first block fails, the other helper draws only
    # blocks of the first window, however fast it runs: at most 8 of the 64
    # ranges of 2^16 samples.
    monkeypatch.setattr(integrate, "_cores", lambda: 2)
    cfg = MCConfig(2**22, 3)
    first = integrate.ComplexGaussianStream(cfg).take(0, 1)[0]
    drawn = set()
    real = integrate.ComplexGaussianStream.take

    def take(self, start, count):
        drawn.add(start // 2**16)
        return real(self, start, count)

    def f(z):
        if z[0] == first:
            time.sleep(0.5)
            return np.full(z.shape, np.nan)
        return np.abs(z)

    monkeypatch.setattr(integrate.ComplexGaussianStream, "take", take)
    with pytest.raises(ValueError, match="sample 0:"):
        mc_expect_complex_gaussian(f, cfg)
    assert len(drawn) <= 8, sorted(drawn)


def test_mc_joins_its_helper_threads_when_a_block_raises(monkeypatch):
    # Two helpers take blocks, and each block takes a while: the call may
    # raise the first block's error only once both helpers are done.
    class Boom(Exception):
        pass

    cfg = MCConfig(2**17, 3)
    first = integrate.ComplexGaussianStream(cfg).take(0, 1)[0]

    def f(z):
        if z[0] == first:
            time.sleep(0.1)
            raise Boom("raised in the first block")
        time.sleep(0.02)
        return np.abs(z)

    monkeypatch.setattr(integrate, "_cores", lambda: 2)
    before = threading.active_count()
    with pytest.raises(Boom):
        mc_expect_complex_gaussian(f, cfg)
    assert threading.active_count() == before


def test_mc_runs_one_helper_thread_per_core_beside_a_waiting_caller(monkeypatch):
    # On three cores a window of three blocks has three workers, each held at
    # the barrier with one block: three helper threads, not the calling
    # thread, whose temporaries would churn glibc's main arena.
    monkeypatch.setattr(integrate, "_cores", lambda: 3)
    barrier = threading.Barrier(3, timeout=10)
    threads = []

    def f(z):
        barrier.wait()
        threads.append(threading.get_ident())
        return np.abs(z)

    mc_expect_complex_gaussian(f, MCConfig(3 * integrate._BLOCK, 5))
    assert len(set(threads)) == 3
    assert threading.get_ident() not in threads


def test_mc_worker_exception_reaches_the_caller():
    class Boom(Exception):
        pass

    cfg = MCConfig(2**17, 3)
    second_piece = integrate.ComplexGaussianStream(cfg).take(2**16, 1)[0]

    def f(z):
        if np.any(z == second_piece):
            raise Boom("raised in a worker")
        return np.abs(z)

    with pytest.raises(Boom, match="raised in a worker"):
        mc_expect_complex_gaussian(f, cfg)


# A standard error needs two samples; MCConfig is where that is checked.
@pytest.mark.parametrize("samples,seed", [(1, 0), (0, 0), (-5, 0), (10, -1), (10, 2**64)])
def test_mc_config_validation(samples, seed):
    with pytest.raises(ValueError, match="2 samples" if samples < 2 else "seed"):
        MCConfig(samples, seed)


# A float count used to fail later in range(), and a fractional seed drew the
# stream of its integer part while the method string reported the fraction.
@pytest.mark.parametrize("samples,seed,bad", [
    (1e6, 0, "samples must be an integer, got 1000000.0"),
    (1000.0, 0, "samples must be an integer, got 1000.0"),
    (1000, 1.5, "seed must be an integer, got 1.5"),
    (1000, True, "seed must be an integer, got True"),
])
def test_mc_config_takes_only_integers(samples, seed, bad):
    with pytest.raises(ValueError, match=bad):
        MCConfig(samples, seed)
    assert MCConfig(np.int64(1000), np.uint64(2**63)).seed == 2**63


def test_samples_stay_in_the_stream():
    # Sample k reads SplitMix64 output 2k + 2; from k = 2^63 on, the outputs
    # of earlier samples come round again.
    assert MCConfig(2**63 - 1, 0).samples == 2**63 - 1
    with pytest.raises(ValueError, match="below 2\\^63"):
        MCConfig(2**63, 0)
    stream = integrate.ComplexGaussianStream(MCConfig(10, 0))
    assert stream.take(2**63 - 1, 1).shape == (1,)
    with pytest.raises(ValueError, match="only 2\\^63 samples"):
        stream.take(2**63 - 1, 2)


def test_stream_repeat_fetch_is_identical():
    stream = integrate.ComplexGaussianStream(MCConfig(100, 7))
    assert np.array_equal(stream.take(0, 3), stream.take(0, 3))


def test_stream_is_seekable_by_index():
    stream = integrate.ComplexGaussianStream(MCConfig(1000, 99))
    block = stream.take(0, 40)
    assert np.array_equal(stream.take(5, 10), block[5:15])
    assert np.array_equal(stream.take(17, 3), block[17:20])


def _splitmix64(seed: int, n: int) -> list[int]:
    """The first n outputs of splitmix64.c's next() seeded with seed."""
    outputs = []
    for _ in range(n):
        seed = (seed + 0x9E3779B97F4A7C15) % 2**64
        z = seed
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        outputs.append(z ^ (z >> 31))
    return outputs


def _formula_samples(outputs: list[int]) -> np.ndarray:
    """The class docstring's samples from consecutive pairs of outputs."""
    u = np.array([(out >> 11) * 2.0**-53 for out in outputs]).reshape(-1, 2)
    return np.sqrt(-np.log1p(-u[:, 0])) * np.exp(2j * np.pi * u[:, 1])


def test_reference_generator_outputs_are_pinned():
    # The outputs of splitmix64.c compiled with gcc.
    assert [f"{out:016x}" for out in _splitmix64(0, 3)] == [
        "e220a8397b1dcdaf", "6e789e6aa1b965f4", "06c45d188009454f"]
    assert [f"{out:016x}" for out in _splitmix64(1234567, 3)] == [
        "599ed017fb08fc85", "2c73f08458540fa5", "883ebce5a3f27c77"]
    stream = integrate.ComplexGaussianStream(MCConfig(10, 0))
    assert np.array_equal(stream.take(0, 1), _formula_samples(_splitmix64(0, 2)))


def test_stream_takes_in_any_run_give_the_formula_samples(monkeypatch):
    # Takes of any start and length, in any order, give the samples of the
    # class docstring. take draws a take's uniforms in one call; a take that
    # read _BLOCK again would split each of these takes into 7s.
    monkeypatch.setattr(integrate, "_BLOCK", 7)
    want = _formula_samples(_splitmix64(5, 2 * 63))[3:]
    stream = integrate.ComplexGaussianStream(MCConfig(10, 5))
    got = [stream.take(3, 20), stream.take(23, 1),
           stream.take(24, 39), stream.take(10, 5)]
    assert np.array_equal(np.concatenate(got[:3]), want)
    assert np.array_equal(got[3], want[7:12])


def test_stream_can_be_shared_between_threads(monkeypatch):
    # Four threads take from one stream, switching every microsecond; each
    # take gives what a lone take of the same range gives. take reads no
    # _BLOCK; a take that did would draw each 50-sample take in ten blocks
    # for the threads to interleave.
    monkeypatch.setattr(integrate, "_BLOCK", 5)
    stream = integrate.ComplexGaussianStream(MCConfig(10, 3))
    starts = [97 * k for k in range(64)]
    want = [stream.take(start, 50) for start in starts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda start: stream.take(start, 50), starts))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_stream_moments():
    stream = integrate.ComplexGaussianStream(MCConfig(1_000_000, 11))
    draws = stream.take(0, 1_000_000)
    power = np.abs(draws) ** 2
    power_se = power.std(ddof=1) / math.sqrt(power.size)
    assert abs(power.mean() - 1.0) <= 4.0 * power_se
    for axis in (draws.real, draws.imag):
        se = axis.std(ddof=1) / math.sqrt(axis.size)
        assert abs(axis.mean()) <= 4.0 * se


def test_streams_of_neighbouring_seeds_are_uncorrelated():
    n = 100_000
    a, b = (integrate.ComplexGaussianStream(MCConfig(n, seed)).take(0, n).real
            for seed in (0, 1))
    assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / math.sqrt(n)


def test_stream_bounds_and_len():
    stream = integrate.ComplexGaussianStream(MCConfig(10, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        stream.take(-1, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        stream.take(0, -1)
