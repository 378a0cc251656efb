import math
from dataclasses import replace

import numpy as np
import pytest

from ccsecrecy import optimize
from ccsecrecy import (
    MIEstimate,
    MaximumResult,
    SearchOptions,
    WiretapChannel,
    cc_secrecy_capacity,
    db_to_linear,
    find_secrecy_maximum,
    from_points,
    gauss_hermite,
    make_bpsk,
    make_psk,
    make_qam,
    scan_secrecy_grid,
    sweep_max_vs_sigma,
)

# Narrow window around the low-SNR peaks used by the unit tests; keeps each
# search to a few dozen secrecy evaluations.
FAST = SearchOptions(scan_lo_db=-10.0, scan_hi_db=15.0, scan_step_db=0.5, tol_db=0.01)


def _golden_one(f, lo, hi, tol):
    """The lockstep search on the single bracket [lo, hi], for f of one point."""
    (x,), (fx,), (iterations,) = optimize._golden_lockstep(
        lambda points, which: np.array([f(float(t)) for t in points]), [lo], [hi], tol
    )
    return x, fx, iterations


def test_golden_quadratic():
    x, fx, iterations = _golden_one(lambda t: -((t - 2.0) ** 2), 0.0, 5.0, 1e-6)
    assert abs(x - 2.0) <= 1e-6
    assert abs(fx) <= 1e-12
    assert iterations > 0


def test_golden_kinked_peak():
    x, fx, _ = _golden_one(lambda t: 1.0 - abs(t - 2.0), -1.0, 7.0, 1e-4)
    assert abs(x - 2.0) <= 1e-4
    assert fx == pytest.approx(1.0, abs=1e-4)


def test_golden_constant_function():
    x, fx, _ = _golden_one(lambda t: 3.5, 0.0, 1.0, 1e-3)
    assert 0.0 <= x <= 1.0
    assert fx == 3.5


def test_lockstep_brackets_take_the_steps_they_take_alone():
    # Brackets of different widths stop at different steps; each must end
    # exactly where the search of that bracket alone ends.
    lo, hi, centre = [0.0, 1.9, -1e3], [5.0, 2.3, 1e3], np.array([2.0, 2.2, -3.0])
    calls = []

    def f(points, which):
        calls.append(points.size)
        return -((points - centre[which]) ** 2)

    x, fx, iterations = optimize._golden_lockstep(f, lo, hi, 1e-6)
    assert len(set(iterations.tolist())) == 3
    # Each step asks only the brackets still running for a point.
    assert len(calls) == 2 + iterations.max()
    assert (calls[0], calls[-1], sum(calls[1:-1])) == (6, 3, iterations.sum())
    for i in range(3):
        alone = optimize._golden_lockstep(
            lambda points, which: f(points, np.full(which.shape, i)), [lo[i]], [hi[i]], 1e-6
        )
        assert (alone[0][0], alone[1][0], alone[2][0]) == (x[i], fx[i], iterations[i])


class _TooManyCalls(Exception):
    """Raised by a capped objective, so a search that never ends fails."""


@pytest.mark.parametrize("tol", [1e-300, 5e-324])
def test_golden_ends_when_float_spacing_stops_the_bracket(tol):
    # The bracket cannot shrink below the float spacing near 2, so the search
    # must end on that spacing when the tolerance is finer.
    calls = []

    def f(t):
        calls.append(t)
        if len(calls) > 10_000:
            raise _TooManyCalls
        return -((t - 2.0) ** 2)

    x, fx, iterations = _golden_one(f, 0.0, 5.0, tol)
    assert abs(x - 2.0) <= 1e-7
    assert iterations < 200


def test_tiny_tolerance_refines_as_far_as_floats_allow(monkeypatch):
    calls = []
    real = optimize.cc_secrecy_capacity

    def capped(*args, **kwargs):
        calls.append(None)
        if len(calls) > 1000:
            raise _TooManyCalls
        return real(*args, **kwargs)

    monkeypatch.setattr(optimize, "cc_secrecy_capacity", capped)
    fine = find_secrecy_maximum(make_bpsk(), 5.0, SearchOptions(tol_db=1e-12))
    tiny = find_secrecy_maximum(make_bpsk(), 5.0, SearchOptions(tol_db=1e-300))
    assert abs(tiny.snr_max_db - fine.snr_max_db) <= 1e-9
    assert abs(tiny.c_max - fine.c_max) <= 1e-12
    assert fine.iterations < tiny.iterations < 200


def test_refine_keeps_a_grid_point_above_the_refined_peak():
    # bpsk at sigma_sq = 5 stays below 0.52 bits over [-5, 5] dB, so the
    # golden section lands below the coarse 0.9 and the grid point is kept.
    grid = np.array([-5.0, 0.0, 5.0])
    values = np.array([0.1, 0.9, 0.1])
    (best,) = optimize._refine(make_bpsk(), [5.0], grid, values[None], FAST,
                               gauss_hermite(FAST.gh_order))
    assert (best.snr_max_db, best.c_max, best.bracket) == (0.0, 0.9, (-5.0, 5.0))
    assert best.iterations > 0


def test_search_options_validation():
    with pytest.raises(ValueError, match="lo < hi"):
        SearchOptions(scan_lo_db=5.0, scan_hi_db=5.0)
    with pytest.raises(ValueError, match="step"):
        SearchOptions(scan_step_db=-0.5)
    with pytest.raises(ValueError, match="tolerance"):
        SearchOptions(tol_db=0.0)
    for field in ("scan_lo_db", "scan_hi_db", "scan_step_db", "tol_db"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SearchOptions(**{field: bad})


def test_scan_grid_default_window():
    grid, values = scan_secrecy_grid(make_bpsk(), 5.0)
    assert len(grid) == 161
    assert grid[0] == -30.0 and grid[-1] == 50.0
    assert np.all(np.isfinite(values)) and np.all(values >= 0.0)


def test_scan_grid_partial_step():
    opts = SearchOptions(scan_lo_db=0.0, scan_hi_db=1.2, scan_step_db=0.5)
    grid, _ = scan_secrecy_grid(make_bpsk(), 5.0, opts)
    assert list(grid) == [0.0, 0.5, 1.0]


def test_find_maximum_bpsk():
    result = find_secrecy_maximum(make_bpsk(), 5.0, FAST)
    lo, hi = result.bracket
    assert FAST.scan_lo_db < lo < result.snr_max_db < hi < FAST.scan_hi_db
    assert result.c_max > 0.0
    assert result.snr_max_linear == pytest.approx(db_to_linear(result.snr_max_db))
    assert result.unimodal_ok and result.grid_local_maxima == 1
    assert result.iterations > 0
    assert result.sigma_sq == 5.0

    # Local-peak property: stepping two tolerances either way cannot improve.
    rule = gauss_hermite(FAST.gh_order)

    def secrecy(db):
        return cc_secrecy_capacity(make_bpsk(), WiretapChannel(db_to_linear(db), 5.0), rule).bits

    for db in (result.snr_max_db - 2 * FAST.tol_db, result.snr_max_db + 2 * FAST.tol_db):
        assert secrecy(db) <= result.c_max + 1e-9


def test_find_maximum_beats_scan_endpoints():
    result = find_secrecy_maximum(make_bpsk(), 5.0, FAST)
    grid, values = scan_secrecy_grid(make_bpsk(), 5.0, FAST)
    assert result.c_max >= values[0] and result.c_max >= values[-1]
    assert result.c_max >= values.max()


def test_find_maximum_is_deterministic():
    a = find_secrecy_maximum(make_bpsk(), 5.0, FAST)
    b = find_secrecy_maximum(make_bpsk(), 5.0, FAST)
    assert isinstance(a, MaximumResult)
    assert a == b


def test_find_maximum_rejects_degenerate_sigma():
    with pytest.raises(ValueError, match="exceed 1"):
        find_secrecy_maximum(make_bpsk(), 1.0, FAST)
    with pytest.raises(ValueError, match="exceed 1"):
        find_secrecy_maximum(make_bpsk(), 0.9, FAST)


def test_find_maximum_negligible_secrecy():
    opts = SearchOptions(scan_lo_db=-10.0, scan_hi_db=10.0, scan_step_db=1.0)
    with pytest.raises(ValueError, match="negligible"):
        find_secrecy_maximum(make_bpsk(), 1.0 + 1e-13, opts)


def test_find_maximum_peak_outside_window():
    # BPSK at sigma_sq=5 peaks near 1.9 dB; a window starting at 2 dB sees a
    # strictly decreasing curve and must ask for a wider scan.
    opts = SearchOptions(scan_lo_db=2.0, scan_hi_db=10.0, scan_step_db=0.5)
    with pytest.raises(ValueError, match="widen the scan window"):
        find_secrecy_maximum(make_bpsk(), 5.0, opts)


def test_find_maximum_qam4_relates_to_bpsk():
    # 4-QAM is two BPSK channels in quadrature: twice the peak secrecy at
    # twice the power (+3.01 dB).
    b = find_secrecy_maximum(make_bpsk(), 5.0, FAST)
    q = find_secrecy_maximum(make_qam(4), 5.0, FAST)
    assert q.c_max == pytest.approx(2.0 * b.c_max, abs=2e-4)
    assert q.snr_max_db == pytest.approx(b.snr_max_db + 10.0 * math.log10(2.0), abs=0.05)


def test_qam4_peaks_are_bpsk_peaks_at_twice_the_power():
    # I_qam4(snr) = 2 I_bpsk(snr / 2) exactly, so at every noise ratio qam4's
    # secrecy peak is bpsk's, 10 log10 2 dB higher, with twice its c_max.
    opts = SearchOptions()
    sigmas = [5.0, 10.0, 20.0]
    bpsk = sweep_max_vs_sigma(make_bpsk(), sigmas, opts)
    qam4 = sweep_max_vs_sigma(make_qam(4), sigmas, opts)
    for b, q in zip(bpsk, qam4):
        assert b.unimodal_ok and q.unimodal_ok
        assert abs(q.snr_max_db - b.snr_max_db - 10.0 * math.log10(2.0)) <= opts.tol_db, b.sigma_sq
        assert abs(q.c_max - 2.0 * b.c_max) <= 1e-6, b.sigma_sq


def test_sweep_rows():
    rows = sweep_max_vs_sigma(make_bpsk(), [2.0, 5.0, 20.0], FAST)
    assert [r.sigma_sq for r in rows] == [2.0, 5.0, 20.0]
    c_max = [r.c_max for r in rows]
    assert c_max[0] < c_max[1] < c_max[2]
    assert all(r.unimodal_ok for r in rows)
    assert all(r.snr_max_linear == pytest.approx(db_to_linear(r.snr_max_db)) for r in rows)


def test_sweep_validation():
    with pytest.raises(ValueError, match="at least one"):
        sweep_max_vs_sigma(make_bpsk(), [], FAST)
    with pytest.raises(ValueError, match="exceed 1"):
        sweep_max_vs_sigma(make_bpsk(), [0.5, 2.0], FAST)


def test_sweep_takes_the_ratios_in_any_order():
    # A shuffled list with repeats gives each ratio, in list order, the result
    # of the sorted list, up to the last bits of c_max that an array call may
    # round differently (bpsk's c_max at 2 moves by 1 ulp here).
    shuffled = [20.0, 2.0, 5.0, 20.0, 2.0]
    for c in (make_bpsk(), make_qam(16), make_psk(8)):
        ordered = {r.sigma_sq: r for r in sweep_max_vs_sigma(c, [2.0, 5.0, 20.0], FAST)}
        got = sweep_max_vs_sigma(c, shuffled, FAST)
        assert [r.sigma_sq for r in got] == shuffled
        for r in got:
            want = ordered[r.sigma_sq]
            assert replace(r, c_max=want.c_max) == want
            assert abs(r.c_max - want.c_max) <= 4e-15


def test_search_options_bound_the_grid():
    # 8e13 points used to end in a numpy MemoryError inside the scan.
    with pytest.raises(ValueError, match="more than 1000000 points"):
        SearchOptions(scan_step_db=1e-12)
    with pytest.raises(ValueError, match="more than 1000000 points"):
        SearchOptions(scan_lo_db=-1e308, scan_hi_db=1e308)
    SearchOptions(scan_lo_db=0.0, scan_hi_db=1.0, scan_step_db=1.0 / (optimize.MAX_GRID_POINTS - 1))
    with pytest.raises(ValueError, match="4000.0 dB is too large"):
        SearchOptions(scan_hi_db=4000.0, scan_step_db=10.0)


def test_grid_points():
    assert optimize.grid_points(0.0, 1.2, 0.5).tolist() == [0.0, 0.5, 1.0]
    assert optimize.grid_points(-30.0, 50.0, 0.5).size == 161
    with pytest.raises(ValueError, match="more than"):
        optimize.grid_points(0.0, 1.0, 1e-7)
    # An empty or reversed window and a step that is not positive are
    # rejected rather than giving an empty grid or dividing by zero.
    for start, stop, step in ((5.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.0, 1.0, -1.0),
                              (0.0, 1.0, 0.0)):
        with pytest.raises(ValueError, match=r"lo < hi and step > 0"):
            optimize.grid_points(start, stop, step)


def test_scan_with_a_column_of_noise_ratios_matches_single_scans():
    sigmas = np.array([[2.0], [5.0], [20.0]])
    grid, table = scan_secrecy_grid(make_qam(4), sigmas, FAST)
    assert table.shape == (3, grid.size)
    for row, sigma_sq in zip(table, sigmas[:, 0]):
        single_grid, values = scan_secrecy_grid(make_qam(4), float(sigma_sq), FAST)
        assert np.array_equal(grid, single_grid)
        assert np.max(np.abs(row - values)) <= 4e-15


def _asym16():
    """16 seeded points with no rotation or reflection symmetry."""
    rng = np.random.default_rng(20251017)
    return from_points(rng.standard_normal(16) + 1j * rng.standard_normal(16), "asym16")


def test_sweep_rows_match_single_searches(reference_constellations):
    # sweep_max_vs_sigma scans every ratio at once, shares the main curve and
    # refines all the brackets in lockstep; each row must still be
    # find_secrecy_maximum's answer for its ratio. Only c_max may differ, in
    # the last bits, because an array call can round a point differently.
    sigmas = [5, 10, 15, 20]
    for c in reference_constellations + [make_qam(64), _asym16()]:
        rows = sweep_max_vs_sigma(c, sigmas)
        for row, sigma_sq in zip(rows, sigmas):
            single = find_secrecy_maximum(c, sigma_sq)
            where = (c.name, sigma_sq)
            assert row.sigma_sq == sigma_sq
            assert row.snr_max_db == single.snr_max_db, where
            assert row.snr_max_linear == db_to_linear(row.snr_max_db)
            assert row.bracket == single.bracket, where
            assert row.iterations == single.iterations, where
            assert row.grid_local_maxima == single.grid_local_maxima, where
            assert abs(row.c_max - single.c_max) <= 4e-15, where
            assert row.unimodal_ok == single.unimodal_ok


def _two_plateaus(calls):
    """A fake cc_secrecy_capacity: two flat-topped peaks, at 2.1 and 8.1 dB.

    Both tops are log2(sigma_sq) / 10 high and 0.5 dB wide, so a 0.5 dB scan
    sees one strict grid maximum in each, and their refined values tie.
    """

    def fake(c, ch, rule):
        db = 10.0 * np.log10(np.asarray(ch.snr, dtype=float))
        top = np.log2(np.asarray(ch.sigma_sq, dtype=float)) / 10.0
        bump = np.maximum(0.75 - np.abs(db - 2.1), 0.75 - np.abs(db - 8.1)) * top / 0.5
        calls.append(np.broadcast_shapes(np.shape(ch.snr), np.shape(ch.sigma_sq)))
        return MIEstimate(np.minimum(bump, top), "fake", 0.0)

    return fake


def test_lockstep_refines_every_bracket_and_keeps_the_lower_snr_on_a_tie(monkeypatch):
    calls = []
    monkeypatch.setattr(optimize, "cc_secrecy_capacity", _two_plateaus(calls))
    rows = sweep_max_vs_sigma(make_bpsk(), [5.0, 10.0], FAST)
    # One scan of both ratios, then one call for the first two points of each
    # of the 2 x 2 brackets, one per step with a point in each, and one for
    # the midpoints.
    assert calls[0] == (2, 51)
    assert calls[1:] == [(8,)] + [(4,)] * (len(calls) - 2)
    for row in rows:
        assert row.grid_local_maxima == 2 and not row.unimodal_ok
        assert row.c_max == math.log2(row.sigma_sq) / 10.0
        assert row.bracket == (1.5, 2.5)
        assert abs(row.snr_max_db - 2.1) <= 0.25
        assert row.iterations == len(calls) - 3


def _tents(*tents):
    """A curve on the dB axis: the highest of tents (apex dB, height bits), 1 bit/dB steep."""
    return lambda db: np.max(
        [np.maximum(height - np.abs(db - apex), 0.0) for apex, height in tents] + [0.0 * db],
        axis=0,
    )


def _rising(db):
    """A curve that rises over the whole scan, so its only maximum is on the edge."""
    return 1.0 + db / 100.0


def _stand_in(curves, calls):
    """A fake cc_secrecy_capacity: curves maps each noise ratio to its curve on the dB axis."""

    def fake(c, ch, rule):
        db, sigma_sq = np.broadcast_arrays(
            10.0 * np.log10(np.asarray(ch.snr, dtype=float)), np.asarray(ch.sigma_sq, float)
        )
        bits = np.zeros(db.shape)
        for ratio, curve in curves.items():
            bits = np.where(sigma_sq == ratio, curve(db), bits)
        calls.append(db.shape)
        return MIEstimate(bits, "fake", 0.0)

    return fake


def test_each_ratio_keeps_its_own_brackets(monkeypatch):
    # The scans show 2, 1 and 2 grid maxima. All five brackets are refined
    # in one lockstep; each ratio reports its own count, best bracket and peak.
    curves = {
        5.0: _tents((2.1, 0.75), (8.1, 1.0)),
        10.0: _tents((5.1, 0.5)),
        20.0: _tents((2.1, 1.0), (8.1, 0.75)),
    }
    calls = []
    monkeypatch.setattr(optimize, "cc_secrecy_capacity", _stand_in(curves, calls))
    rows = sweep_max_vs_sigma(make_bpsk(), list(curves), FAST)
    assert calls[:2] == [(3, 51), (10,)]
    want = [(2, (7.5, 8.5), 8.1, 1.0), (1, (4.5, 5.5), 5.1, 0.5), (2, (1.5, 2.5), 2.1, 1.0)]
    for row, sigma_sq, (count, bracket, apex, height) in zip(rows, curves, want):
        assert row.sigma_sq == sigma_sq
        assert (row.grid_local_maxima, row.unimodal_ok) == (count, count == 1)
        assert row.bracket == bracket
        assert abs(row.snr_max_db - apex) <= FAST.tol_db
        assert abs(row.c_max - height) <= FAST.tol_db
        assert row.iterations > 0


@pytest.mark.parametrize(
    "later, message",
    [((_tents(), _rising), "negligible"), ((_rising, _tents()), "no interior grid local maximum")],
    ids=["negligible-first", "edge-first"],
)
def test_the_first_ratio_without_a_grid_peak_names_the_error(later, message, monkeypatch):
    # Ratio 5 has a peak; of the two later ratios, one scan is 0 throughout
    # and one rises to the window's edge. The earlier one's error is raised,
    # before any bracket is refined.
    curves = {5.0: _tents((2.1, 1.0)), 10.0: later[0], 20.0: later[1]}
    calls = []
    monkeypatch.setattr(optimize, "cc_secrecy_capacity", _stand_in(curves, calls))
    with pytest.raises(ValueError, match=message):
        sweep_max_vs_sigma(make_bpsk(), list(curves), FAST)
    assert calls == [(3, 51)]


def test_peak_search_makes_one_secrecy_call_per_golden_step(monkeypatch):
    # Default options, 4 ratios with one bracket each: the scan, the first
    # two points of every bracket, 10 golden-section steps of 1 dB down to
    # 0.01 dB, and the midpoints: 13 calls, where one search per ratio made
    # 1 + 4 * 13 = 53.
    calls = []
    real = optimize.cc_secrecy_capacity

    def spy(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimize, "cc_secrecy_capacity", spy)
    rows = sweep_max_vs_sigma(make_bpsk(), [5.0, 10.0, 15.0, 20.0])
    assert [row.iterations for row in rows] == [10] * 4
    assert len(calls) == 1 + 12
