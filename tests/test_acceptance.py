"""End-to-end acceptance suite.

Each test pins one numbered criterion of the toolkit's numerical contract and
prints a single PASS/FAIL line (run pytest -v to see one line per criterion).
Oracle constants come from tools/gen_fixtures.py: an independent 10M-sample
Monte-Carlo run and 0.05 dB dense-grid scans, frozen here as fixtures.
"""

import importlib.util
import math
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from ccsecrecy import (
    MCConfig,
    SearchOptions,
    WiretapChannel,
    cc_mutual_information,
    cc_mutual_information_mc,
    cc_secrecy_capacity,
    db_to_linear,
    find_secrecy_maximum,
    from_points,
    gauss_hermite,
    gaussian_secrecy_capacity,
    make_bpsk,
    make_psk,
    make_qam,
    scan_secrecy_grid,
    sweep_max_vs_sigma,
)
from ccsecrecy.cli import run_cli

REFERENCE = (
    ("bpsk", make_bpsk()),
    ("qam4", make_qam(4)),
    ("psk8", make_psk(8)),
    ("qam16", make_qam(16)),
)
SIGMAS = (5.0, 10.0, 15.0, 20.0)

# Frozen oracle fixtures (tools/gen_fixtures.py, seed 20250819):
#   10M-sample Monte-Carlo MI for BPSK at snr=1, variance 1
MC_ORACLE_BPSK_MI = 0.7212151889759384
MC_ORACLE_BPSK_STDERR = 3.670e-04
#   0.05 dB dense-grid secrecy peaks at sigma_sq = 5: (snr_max_db, c_max)
DENSE_PEAK = {
    "bpsk": (1.85, 0.5098278375296807),
    "qam4": (4.85, 1.0196487417166562),
}
#   the same scan of the two-scale set hq16(0.2) at order 200 (order 128
#   agrees within 1e-7 bits): both local maxima (snr_db, bits), low SNR first
TWO_SCALE_MAXIMA = {
    2.0: ((4.15, 0.5064741619554836), (17.35, 0.471528788640005)),
    5.0: ((6.15, 1.1184974852100673), (18.9, 1.0235119287891346)),
}

MC_SEED = 11


@contextmanager
def criterion(label: str, budget_s: float, extra_s: float = 0.0):
    """Time one criterion, print its PASS/FAIL line, enforce the budget."""
    t0 = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.monotonic() - t0 + extra_s
        print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f} s)")
    assert elapsed <= budget_s, f"{label}: {elapsed:.2f} s exceeded {budget_s} s budget"


@pytest.fixture(scope="session")
def scan_grids():
    """Coarse 0.5 dB secrecy grids for all 16 (constellation, sigma_sq) pairs."""
    t0 = time.monotonic()
    grids = {
        (name, s): scan_secrecy_grid(c, s)
        for name, c in REFERENCE
        for s in SIGMAS
    }
    return grids, time.monotonic() - t0


@pytest.fixture(scope="session")
def refined_maxima():
    """Refined secrecy maxima (default options) for the same 16 pairs."""
    t0 = time.monotonic()
    maxima = {
        (name, s): find_secrecy_maximum(c, s)
        for name, c in REFERENCE
        for s in SIGMAS
    }
    return maxima, time.monotonic() - t0


def double_factorial(k: int) -> float:
    out = 1.0
    while k > 1:
        out *= k
        k -= 2
    return out


def test_criterion_01_quadrature_moment_exactness():
    with criterion("criterion 1 (quadrature exactness)", 1.0):
        variance = 2.0
        for n in (2, 4, 8, 16, 32):
            rule = gauss_hermite(n)
            t, w = rule.nodes, rule.weights
            # The tensor rule on the full n x n grid z = sqrt(variance)(t_a + i t_b).
            z = math.sqrt(variance) * (t[:, None] + 1j * t[None, :])
            weights = w[:, None] * w[None, :] / math.pi
            for p in range(n):
                got = float((weights * np.real(z) ** (2 * p)).sum())
                want = (variance / 2.0) ** p * double_factorial(2 * p - 1)
                assert abs(got - want) / want < 1e-10, (n, p)


def test_criterion_02_zero_and_saturation_endpoints(scan_grids):
    grids, build_s = scan_grids
    rule = gauss_hermite(32)
    with criterion("criterion 2 (zero/saturation endpoints)", 30.0, extra_s=build_s):
        for name, c in REFERENCE:
            for s in SIGMAS:
                at_zero = cc_secrecy_capacity(c, WiretapChannel(0.0, s), rule).bits
                assert abs(at_zero) < 1e-9, (name, s)
                grid, values = grids[(name, s)]
                assert grid[-1] == 50.0
                assert values[-1] < 0.05, (name, s)
                # High-SNR tail heads down (flat-at-zero allowed within roundoff).
                assert values[-3] >= values[-2] - 1e-12, (name, s)
                assert values[-2] >= values[-1] - 1e-12, (name, s)


def test_criterion_03_interior_global_maximum(scan_grids, refined_maxima):
    grids, _ = scan_grids
    maxima, build_s = refined_maxima
    opts = SearchOptions()
    rule = gauss_hermite(opts.gh_order)
    half = gauss_hermite(opts.gh_order // 2)
    with criterion("criterion 3 (interior maximum)", 300.0, extra_s=build_s):
        for name, c in REFERENCE:
            for s in SIGMAS:
                result = maxima[(name, s)]
                lo, hi = result.bracket
                assert opts.scan_lo_db <= lo < result.snr_max_db < hi <= opts.scan_hi_db
                # The margin is ten times the peak's change from order 32 to
                # order 16: a scale for the quadrature's resolution, not a bound.
                ch = WiretapChannel(result.snr_max_linear, s)
                gap = abs(
                    cc_secrecy_capacity(c, ch, rule).bits - cc_secrecy_capacity(c, ch, half).bits
                )
                _, values = grids[(name, s)]
                margin = 10.0 * gap
                assert result.c_max - values[0] >= margin, (name, s)
                assert result.c_max - values[-1] >= margin, (name, s)


def test_criterion_04_unimodality_audit(refined_maxima):
    maxima, _ = refined_maxima
    with criterion("criterion 4 (unimodality audit)", 300.0):
        multimodal = [
            (key, result.grid_local_maxima)
            for key, result in maxima.items()
            if not result.unimodal_ok
        ]
        if multimodal:
            # Single-peak shape is a conjecture, not a theorem: surface the
            # counterexample loudly but do not fail the build over it.
            warnings.warn(
                f"coarse scan saw multiple local maxima: {multimodal}",
                stacklevel=1,
            )
        else:
            assert all(r.grid_local_maxima == 1 for r in maxima.values())


def test_criterion_05_noise_scaling_identity():
    with criterion("criterion 5 (scaling identity)", 60.0):
        rule = gauss_hermite(32)
        for _, c in REFERENCE:
            for snr in (0.25, 1.0, 4.0, 20.0, 100.0):
                for s in (1.25, 2.0, 5.0, 10.0, 20.0):
                    direct = cc_mutual_information(c, snr, s, rule).bits
                    reduced = cc_mutual_information(c, snr / s, 1.0, rule).bits
                    assert abs(direct - reduced) < 1e-9, (c.name, snr, s)


def test_criterion_06_gaussian_dominance(scan_grids):
    grids, _ = scan_grids
    with criterion("criterion 6 (Gaussian input dominates)", 300.0):
        for (name, s), (grid, values) in grids.items():
            for db, cc in zip(grid, values):
                gc = gaussian_secrecy_capacity(WiretapChannel(db_to_linear(db), s))
                assert cc <= gc + 1e-6, (name, s, db)


def test_criterion_07_gaussian_baseline_limit():
    with criterion("criterion 7 (Gaussian baseline limit)", 1.0):
        for s in (2.0, 4.0, 5.0, 20.0):
            limit = gaussian_secrecy_capacity(WiretapChannel(1e6, s))
            assert abs(limit - math.log2(s)) <= 1e-4, s
        for s in (2.0, 5.0, 20.0):
            values = [
                gaussian_secrecy_capacity(WiretapChannel(snr, s))
                for snr in np.logspace(-3, 7, 80)
            ]
            assert all(b >= a for a, b in zip(values, values[1:])), s


def test_criterion_08_monte_carlo_agreement():
    with criterion("criterion 8 (quadrature vs Monte-Carlo)", 120.0):
        rule = gauss_hermite(32)
        cfg = MCConfig(10**6, MC_SEED)
        for name, c in REFERENCE:
            for snr in (1.0, 10.0, 100.0):
                quad = cc_mutual_information(c, snr, 1.0, rule).bits
                mc = cc_mutual_information_mc(c, snr, 1.0, cfg)
                assert mc.error_bound > 0.0
                assert abs(quad - mc.bits) <= 4.0 * mc.error_bound, (name, snr)


def test_criterion_09_peak_matches_dense_grid_oracle(refined_maxima):
    maxima, _ = refined_maxima
    with criterion("criterion 9 (peak vs dense-grid oracle)", 120.0):
        for name in ("bpsk", "qam4"):
            oracle_db, oracle_bits = DENSE_PEAK[name]
            result = maxima[(name, 5.0)]
            assert abs(result.snr_max_db - oracle_db) <= 0.05, name
            assert abs(result.c_max - oracle_bits) <= 1e-4, name
        # Cross-check the independent Monte-Carlo oracle while we are here:
        # order-32 quadrature MI for BPSK at snr=1 sits within 4 standard
        # errors of the frozen 10M-sample estimate.
        quad = cc_mutual_information(make_bpsk(), 1.0, 1.0, gauss_hermite(32)).bits
        assert abs(quad - MC_ORACLE_BPSK_MI) <= 4.0 * MC_ORACLE_BPSK_STDERR


def test_fixture_tool_still_gives_the_dense_peaks(monkeypatch):
    # tools/gen_fixtures.py regenerates DENSE_PEAK through the library API;
    # loading it here keeps it in step with that API. Its 10^7-sample main()
    # is not run. The module puts "src" on sys.path when loaded.
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_fixtures.py"
    spec = importlib.util.spec_from_file_location("gen_fixtures", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for name, c in REFERENCE[:2]:
        db, bits = tool.dense_grid_peak(c, 5.0)
        want_db, want_bits = DENSE_PEAK[name]
        assert abs(db - want_db) <= 1e-12, name
        assert bits == want_bits, name
    for sigma_sq, want in TWO_SCALE_MAXIMA.items():
        got = tool.two_scale_maxima(sigma_sq)
        assert len(got) == len(want), sigma_sq
        for (db, bits), (want_db, want_bits) in zip(got, want):
            assert abs(db - want_db) <= 1e-12, sigma_sq
            assert bits == want_bits, sigma_sq


def test_two_scale_set_breaks_the_single_peak_conjecture():
    # hq16(0.2), DVB-T's hierarchical 16-QAM with alpha = 4: its secrecy
    # curve has a maximum per resolution level. The search flags that the
    # scan saw two and reports the higher one, at the dense-grid tolerances.
    qpsk = make_qam(4).points.tolist()
    c = from_points([q + 0.2 * p for q in qpsk for p in qpsk], name="hq16")
    sigmas = list(TWO_SCALE_MAXIMA)
    for row in sweep_max_vs_sigma(c, sigmas):
        assert row.grid_local_maxima == 2 and row.unimodal_ok is False, row
        want_db, want_bits = max(TWO_SCALE_MAXIMA[row.sigma_sq], key=lambda m: m[1])
        assert abs(row.snr_max_db - want_db) <= 0.05, row
        assert abs(row.c_max - want_bits) <= 1e-4, row
    # The default 0.5 dB scan has both maxima, each at the grid point nearest its dense one.
    opts = SearchOptions()
    grid, curves = scan_secrecy_grid(c, np.array(sigmas)[:, None], opts)
    for sigma_sq, values in zip(sigmas, curves):
        inner = values[1:-1]
        ks = 1 + np.flatnonzero((inner > values[:-2]) & (inner > values[2:]))
        assert len(ks) == 2, sigma_sq
        for k, (want_db, want_bits) in zip(ks, TWO_SCALE_MAXIMA[sigma_sq]):
            assert abs(grid[k] - want_db) <= opts.scan_step_db / 2, sigma_sq
            assert values[k] <= want_bits + 1e-4, sigma_sq


def test_criterion_10_peak_trends_with_eavesdropper_noise():
    with criterion("criterion 10 (peak trends vs noise ratio)", 600.0):
        for name, c in REFERENCE:
            rows = sweep_max_vs_sigma(c, SIGMAS)
            c_max = [r.c_max for r in rows]
            assert all(b > a for a, b in zip(c_max, c_max[1:])), name
            snr_db = [r.snr_max_db for r in rows]
            assert all(b >= a - 0.1 for a, b in zip(snr_db, snr_db[1:])), name
        strong = find_secrecy_maximum(make_bpsk(), 1000.0)
        assert strong.c_max >= 0.95


def test_criterion_11_cli_reproducibility(tmp_path):
    with criterion("criterion 11 (CLI reproducibility)", 120.0):
        args = ["sweep", "--constellation", "qam16", "--snr-db=-10:40:0.5",
                "--sigma2", "5,10,15,20"]
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert run_cli(args + ["--out", str(first)]) == 0
        assert run_cli(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().split("\n")
        assert lines[0] == "constellation,snr_db,sigma_sq,mi_main,mi_eve,cc_sc,gc_sc,gaussian_cap"
        assert lines[-1] == ""
        assert len(lines) == 1 + 404 + 1  # header + data rows + trailing newline
