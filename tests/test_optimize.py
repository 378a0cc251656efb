import math

import numpy as np
import pytest

from ccsecrecy import (
    MaximumResult,
    SearchOptions,
    WiretapChannel,
    cc_secrecy_capacity,
    db_to_linear,
    find_secrecy_maximum,
    gauss_hermite,
    golden_section_max,
    make_bpsk,
    make_qam,
    scan_secrecy_grid,
    sweep_max_vs_sigma,
)

# Narrow window around the low-SNR peaks used by the unit tests; keeps each
# search to a few dozen secrecy evaluations.
FAST = SearchOptions(scan_lo_db=-10.0, scan_hi_db=15.0, scan_step_db=0.5, tol_db=0.01)


def test_golden_quadratic():
    x, fx = golden_section_max(lambda t: -((t - 2.0) ** 2), 0.0, 5.0, 1e-6)
    assert abs(x - 2.0) <= 1e-6
    assert abs(fx) <= 1e-12


def test_golden_kinked_peak():
    x, fx = golden_section_max(lambda t: 1.0 - abs(t - 2.0), -1.0, 7.0, 1e-4)
    assert abs(x - 2.0) <= 1e-4
    assert fx == pytest.approx(1.0, abs=1e-4)


def test_golden_constant_function():
    x, fx = golden_section_max(lambda t: 3.5, 0.0, 1.0, 1e-3)
    assert 0.0 <= x <= 1.0
    assert fx == 3.5


def test_golden_validation():
    with pytest.raises(ValueError, match="bracket"):
        golden_section_max(lambda t: t, 1.0, 1.0, 1e-3)
    with pytest.raises(ValueError, match="bracket"):
        golden_section_max(lambda t: t, 2.0, 1.0, 1e-3)
    with pytest.raises(ValueError, match="tolerance"):
        golden_section_max(lambda t: t, 0.0, 1.0, 0.0)


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
    with pytest.raises(ValueError, match="ascending"):
        sweep_max_vs_sigma(make_bpsk(), [5.0, 2.0], FAST)
    with pytest.raises(ValueError, match="ascending"):
        sweep_max_vs_sigma(make_bpsk(), [2.0, 2.0], FAST)
