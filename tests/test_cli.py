import argparse
import csv
import gc
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ccsecrecy import MCConfig, cc_mutual_information, cc_mutual_information_mc, gauss_hermite
from ccsecrecy import capacity, cli, integrate, optimize
from ccsecrecy.cli import (
    PEAK_COLUMNS,
    POINT_COLUMNS,
    RATE_COLUMNS,
    UsageError,
    emit_csv,
    emit_json,
    parse_constellation_selector,
    run_cli,
    _parse_grid,
)


CSV_HEADER = ",".join(RATE_COLUMNS)
MAX_CSV_HEADER = ",".join(PEAK_COLUMNS)
POINTS_CSV_HEADER = ",".join(POINT_COLUMNS)


def _read_rows(path):
    header, *rows = path.read_text().strip().split("\n")
    return header, [line.split(",") for line in rows]


def test_selector_builtins():
    assert parse_constellation_selector("bpsk").size == 2
    assert parse_constellation_selector("psk8").size == 8
    assert parse_constellation_selector("qam4").size == 4
    assert parse_constellation_selector("qam16").name == "qam16"


def test_selector_file(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps([[1.0, 0.0], [-0.5, 0.866], [-0.5, -0.866]]))
    c = parse_constellation_selector(f"file:{path}")
    assert c.size == 3 and c.name == "tri"
    assert abs((abs(c.points) ** 2).mean() - 1.0) <= 1e-12


def test_selector_errors(tmp_path):
    with pytest.raises(UsageError, match="unknown constellation"):
        parse_constellation_selector("hexagon")
    with pytest.raises(UsageError, match="psk<M>"):
        parse_constellation_selector("pskX")
    # qam7 parses but the factory rejects it; that is a domain error, not usage.
    with pytest.raises(ValueError, match="perfect square"):
        parse_constellation_selector("qam7")
    with pytest.raises(ValueError, match="cannot read"):
        parse_constellation_selector(f"file:{tmp_path / 'missing.json'}")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="bad constellation file"):
        parse_constellation_selector(f"file:{bad}")
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"points": [1, 2]}))
    with pytest.raises(ValueError, match="re, im"):
        parse_constellation_selector(f"file:{shape}")
    # A file that is not UTF-8, and an integer too large for a float, name the file.
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff[[1, 0], [-1, 0]]")
    huge = tmp_path / "huge.json"
    huge.write_text(f"[[1{'0' * 400}, 0], [-1, 0]]")
    for path in (latin, huge):
        with pytest.raises(ValueError, match=f"^bad constellation file {re.escape(str(path))}: "):
            parse_constellation_selector(f"file:{path}")


@pytest.mark.parametrize("selector", ["qam²", "psk²", "qam١٦"])
def test_selector_digits_must_be_ascii(selector):
    # str.isdigit accepts all three; int() cannot read the superscripts and
    # reads the Arabic-Indic digits as 16. A size is written in ASCII digits.
    with pytest.raises(UsageError, match="<M>"):
        parse_constellation_selector(selector)
    assert run_cli(["constellation", "--constellation", selector]) == 1


def test_qam0_is_a_domain_error(capsys):
    assert run_cli(["constellation", "--constellation", "qam0"]) == 2
    assert "at least 4" in capsys.readouterr().err


# Each is rejected before its points or their M x M distances are built;
# psk10000000000000 used to end in a numpy allocation error.
@pytest.mark.parametrize("selector", ["psk1025", "qam4096", "psk10000000000000", "file"])
def test_constellations_above_the_size_cap_are_domain_errors(selector, tmp_path, capsys):
    if selector == "file":
        path = tmp_path / "big.json"
        path.write_text(json.dumps([[math.cos(k), math.sin(k)] for k in range(1025)]))
        selector = f"file:{path}"
    assert run_cli(["constellation", "--constellation", selector]) == 2
    assert "at most 1024 points" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_selector_file_at_extreme_scales(scale, tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps([[scale, 0.0], [-scale, 0.0]]))
    assert run_cli(["constellation", "--constellation", f"file:{path}"]) == 0
    assert run_cli(["constellation", "--constellation", "bpsk"]) == 0
    pair, bpsk = capsys.readouterr().out.split(POINTS_CSV_HEADER)[1:]
    assert pair == bpsk


def test_selector_file_rejects_booleans(tmp_path):
    path = tmp_path / "bools.json"
    path.write_text("[[true, 0], [false, 1], [0, -1]]")
    with pytest.raises(ValueError, match="re, im"):
        parse_constellation_selector(f"file:{path}")
    assert run_cli(["constellation", "--constellation", f"file:{path}"]) == 2


def test_selector_file_rejects_nonfinite_points(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text("[[1, 0], [NaN, 0], [0, -1]]")
    with pytest.raises(ValueError, match="finite"):
        parse_constellation_selector(f"file:{path}")
    assert run_cli(
        ["sweep", "--constellation", f"file:{path}", "--snr-db", "5", "--sigma2", "4"]
    ) == 2


def test_grid_parsing():
    assert _parse_grid("5", "--snr-db") == (5.0,)
    grid = _parse_grid("-10:40:0.5", "--snr-db")
    assert len(grid) == 101
    assert grid[0] == -10.0 and grid[-1] == pytest.approx(40.0)
    assert _parse_grid("0:1.2:0.5", "--snr-db") == (0.0, 0.5, 1.0)


def test_grid_parsing_errors():
    for text in ("abc", "1,x", "1:2", "1:2:3:4", "a:b:c", "5:1:1", "0:1:0"):
        with pytest.raises(UsageError):
            _parse_grid(text, "--snr-db")
    with pytest.raises(UsageError, match="^--snr-db: expected a comma list of numbers, got 'abc'$"):
        _parse_grid("abc", "--snr-db")


def test_sigma_list_parsing():
    assert _parse_grid("5,10,15", "--sigma2") == (5.0, 10.0, 15.0)
    assert _parse_grid("4", "--sigma2") == (4.0,)
    assert _parse_grid("2:4:1", "--sigma2") == (2.0, 3.0, 4.0)
    with pytest.raises(UsageError, match="comma list"):
        _parse_grid("a,b", "--sigma2")


# --snr-db and --sigma2 share one list grammar: a comma list and the
# start:stop:step grid of the same values write the same bytes.
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mc", [[], ["--mc-samples", "1000", "--seed", "3"]], ids=["gh", "mc"])
def test_snr_db_comma_list_writes_the_grid_bytes(fmt, mc, tmp_path):
    outputs = []
    for snr_db in ("0,10,20", "0:20:10"):
        out = tmp_path / f"{len(outputs)}.{fmt}"
        args = ["sweep", "--constellation", "qam4", "--snr-db", snr_db, "--sigma2", "1,5",
                "--format", fmt, "--out", str(out)]
        assert run_cli(args + mc) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) > 6


def test_emit_csv_shapes():
    empty = io.StringIO()
    emit_csv(RATE_COLUMNS, [], empty)
    assert empty.getvalue() == CSV_HEADER + "\n"
    one = io.StringIO()
    emit_csv(
        RATE_COLUMNS,
        [dict(zip(RATE_COLUMNS, ("bpsk", 1.0, 2.0, 0.5, 0.25, 0.25, 0.3, 1.0)))],
        one,
    )
    lines = one.getvalue().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "bpsk,1,2,0.5,0.25,0.25,0.3,1"
    assert lines[2] == ""


def test_csv_quotes_a_file_name_with_a_comma_or_quote(tmp_path):
    # The file stem is the constellation field; unquoted, its comma split
    # each row into one field more than the header.
    path = tmp_path / 'a,b"c.json'
    path.write_text(json.dumps([[1, 0], [0, 1], [-1, 0], [0, -1]]))
    out = tmp_path / "rates.csv"
    assert run_cli(["sweep", "--constellation", f"file:{path}", "--snr-db", "0",
                    "--sigma2", "5", "--out", str(out)]) == 0
    with open(out, newline="") as f:
        header, *rows = csv.reader(f)
    assert header == list(RATE_COLUMNS)
    assert len(rows) == 1 and len(rows[0]) == len(header)
    assert rows[0][0] == 'a,b"c'


def test_emit_json_empty():
    target = io.StringIO()
    emit_json([], target, {"tool": "ccsecrecy"})
    payload = json.loads(target.getvalue())
    assert payload == {"meta": {"tool": "ccsecrecy"}, "rows": []}


def test_secrecy_smoke(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = run_cli(
        ["sweep", "--constellation", "bpsk", "--snr-db", "5",
         "--sigma2", "4", "--out", str(out)]
    )
    assert code == 0
    header, rows = _read_rows(out)
    assert header == CSV_HEADER
    assert len(rows) == 1
    row = dict(zip(header.split(","), rows[0]))
    assert row["constellation"] == "bpsk"
    assert float(row["snr_db"]) == 5.0 and float(row["sigma_sq"]) == 4.0
    # Data goes to the file; the note goes to stderr only.
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wrote 1 rows" in captured.err


def test_secrecy_row_matches_library(tmp_path):
    out = tmp_path / "row.csv"
    assert run_cli(
        ["sweep", "--constellation", "qam4", "--snr-db", "3",
         "--sigma2", "5", "--out", str(out)]
    ) == 0
    header, rows = _read_rows(out)
    row = dict(zip(header.split(","), rows[0]))
    rule = gauss_hermite(32)
    snr = 10.0 ** (3.0 / 10.0)
    from ccsecrecy import make_qam

    mi_main = cc_mutual_information(make_qam(4), snr, 1.0, rule).bits
    mi_eve = cc_mutual_information(make_qam(4), snr, 5.0, rule).bits
    assert float(row["mi_main"]) == pytest.approx(mi_main, rel=1e-8)
    assert float(row["mi_eve"]) == pytest.approx(mi_eve, rel=1e-8)
    assert float(row["cc_sc"]) == pytest.approx(max(0.0, mi_main - mi_eve), abs=5e-9)


def test_sweep_rows_consistent(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        ["sweep", "--constellation", "bpsk", "--snr-db=-5:5:2.5",
         "--sigma2", "2,5", "--gh-order", "16", "--out", str(out)]
    ) == 0
    header, rows = _read_rows(out)
    assert len(rows) == 5 * 2
    for cells in rows:
        row = dict(zip(header.split(","), cells))
        mi_main, mi_eve = float(row["mi_main"]), float(row["mi_eve"])
        assert float(row["cc_sc"]) == pytest.approx(max(0.0, mi_main - mi_eve), abs=5e-9)
        assert float(row["gc_sc"]) >= float(row["cc_sc"]) - 1e-6
        snr = 10.0 ** (float(row["snr_db"]) / 10.0)
        assert float(row["gaussian_cap"]) == pytest.approx(math.log2(1.0 + snr), rel=1e-8)


def test_sweep_reruns_byte_identical(tmp_path):
    args = ["sweep", "--constellation", "qam4", "--snr-db=-10:10:2",
            "--sigma2", "2,5", "--gh-order", "16"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_json_meta(tmp_path):
    out = tmp_path / "sweep.json"
    assert run_cli(
        ["sweep", "--constellation", "bpsk", "--snr-db", "0:4:2",
         "--sigma2", "3", "--format", "json", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    meta = payload["meta"]
    assert meta["tool"] == "ccsecrecy"
    assert meta["command"] == "sweep"
    assert meta["constellation"] == "bpsk"
    assert meta["method"] == "gauss_hermite"
    assert meta["gh_order"] == 32 and meta["mc_samples"] is None
    assert len(payload["rows"]) == 3
    assert set(payload["rows"][0]) == set(CSV_HEADER.split(","))


def test_mi_defaults_to_transparent_eavesdropper(tmp_path):
    out = tmp_path / "mi.csv"
    assert run_cli(
        ["mi", "--constellation", "qam4", "--snr-db", "0:10:5", "--out", str(out)]
    ) == 0
    header, rows = _read_rows(out)
    assert len(rows) == 3
    for cells in rows:
        row = dict(zip(header.split(","), cells))
        assert row["sigma_sq"] == "1"
        assert row["mi_eve"] == row["mi_main"]
        assert row["cc_sc"] == "0"


def test_mc_mode_deterministic_and_tagged(tmp_path):
    args = ["mi", "--constellation", "bpsk", "--snr-db", "0", "--mc-samples",
            "20000", "--seed", "9", "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    meta = payload["meta"]
    assert meta["method"] == "monte_carlo"
    assert meta["mc_samples"] == 20000 and meta["seed"] == 9
    assert meta["gh_order"] is None
    est = cc_mutual_information_mc(
        parse_constellation_selector("bpsk"), 1.0, 1.0, MCConfig(20000, 9)
    )
    assert payload["rows"][0]["mi_main"] == est.bits


def test_maximize_json(tmp_path):
    out = tmp_path / "max.json"
    code = run_cli(
        ["maximize", "--constellation", "bpsk", "--sigma2", "5",
         "--scan-db=-10:15:0.5", "--out", str(out), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    row = payload["rows"][0]
    assert row["constellation"] == "bpsk" and row["sigma_sq"] == 5.0
    assert row["unimodal_ok"] is True
    assert 0.0 < row["c_max"] < 1.0
    assert payload["meta"]["scan_db"] == [-10.0, 15.0, 0.5]


def test_maximize_csv_header(tmp_path):
    out = tmp_path / "max.csv"
    assert run_cli(
        ["maximize", "--constellation", "bpsk", "--sigma2", "5",
         "--scan-db=-10:15:0.5", "--out", str(out)]
    ) == 0
    header, rows = _read_rows(out)
    assert header == MAX_CSV_HEADER
    assert len(rows) == 1
    assert rows[0][0] == "bpsk" and rows[0][-1] == "true"


def test_maximize_rejects_sigma_list():
    assert run_cli(
        ["maximize", "--constellation", "bpsk", "--sigma2", "5,10"]
    ) == 1


@pytest.mark.parametrize("sigmas", ["10,5", "5,5", "20,5,10,5"])
def test_max_sweep_rows_follow_the_sigma_list_order(sigmas, capsys):
    # max-sweep takes a --sigma2 list in any order, repeats included: each
    # value's row stands where the value stands, byte for byte its own
    # maximize row.
    def rows(command, sigma2):
        assert run_cli([command, "--constellation", "bpsk", "--sigma2", sigma2]) == 0
        return capsys.readouterr().out.splitlines()[1:]

    values = sigmas.split(",")
    alone = {s: rows("maximize", s) for s in set(values)}
    assert rows("max-sweep", sigmas) == [row for s in values for row in alone[s]]


def test_max_sweep_csv(tmp_path):
    out = tmp_path / "peaks.csv"
    assert run_cli(
        ["max-sweep", "--constellation", "bpsk", "--sigma2", "2,5,20",
         "--scan-db=-10:15:0.5", "--out", str(out)]
    ) == 0
    header, rows = _read_rows(out)
    assert header == MAX_CSV_HEADER
    assert len(rows) == 3
    c_max = [float(r[4]) for r in rows]
    assert c_max[0] < c_max[1] < c_max[2]


def test_constellation_csv(capsys):
    assert run_cli(["constellation", "--constellation", "qam4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == POINTS_CSV_HEADER
    assert len(lines) == 5


def test_constellation_json(tmp_path):
    out = tmp_path / "pts.json"
    assert run_cli(
        ["constellation", "--constellation", "psk8", "--format", "json",
         "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["size"] == 8
    assert payload["meta"]["avg_energy"] == pytest.approx(1.0, abs=1e-12)
    assert payload["meta"]["min_distance"] == pytest.approx(2 * math.sin(math.pi / 8))
    assert len(payload["rows"]) == 8


def test_exit_codes(tmp_path):
    assert run_cli(["--help"]) == 0
    assert run_cli(["bogus"]) == 1
    assert run_cli([]) == 1
    assert run_cli(["sweep", "--constellation", "bpsk", "--snr-db", "5"]) == 1
    assert run_cli(
        ["sweep", "--constellation", "nope", "--snr-db", "5", "--sigma2", "4"]
    ) == 1
    # Eavesdropper less noisy than the intended receiver: domain error.
    assert run_cli(
        ["sweep", "--constellation", "bpsk", "--snr-db", "5", "--sigma2", "0.5"]
    ) == 2
    assert run_cli(
        ["sweep", "--constellation", "qam7", "--snr-db", "5", "--sigma2", "4"]
    ) == 2
    missing = tmp_path / "no_such_dir" / "out.csv"
    assert run_cli(
        ["sweep", "--constellation", "bpsk", "--snr-db", "5",
         "--sigma2", "4", "--out", str(missing)]
    ) == 2


def test_surface_cross_product(tmp_path):
    out = tmp_path / "surface.csv"
    assert run_cli(
        ["sweep", "--constellation", "bpsk", "--snr-db", "0:10:5",
         "--sigma2", "2:4:1", "--gh-order", "16", "--out", str(out)]
    ) == 0
    _, rows = _read_rows(out)
    assert len(rows) == 3 * 3


def _rejected(args, tmp_path, capsys) -> str:
    """The stderr of args run with an --out file; the run must exit 1 and write nothing."""
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--out", str(out)]) == 1
    assert not out.exists()
    return capsys.readouterr().err


# The library checks the range of each numeric flag (integrate.check_order,
# MCConfig, SearchOptions) and the CLI names the flag; a value that is not a
# number of the flag's type is argparse's error, which names the flag too.
def _flag_error(flag: str, value: str) -> str:
    kind = float if flag == "--tol-db" else int
    try:
        kind(value)
    except ValueError:
        return f"argument {flag}: invalid {kind.__name__} value: {value!r}"
    return f"usage error: {flag}: "


@pytest.mark.parametrize("order", ["0", "-3", "201", "x"])
def test_gh_order_out_of_range_is_usage_error(order, tmp_path, capsys):
    for args in (
        ["sweep", "--constellation", "bpsk", "--snr-db", "5", "--sigma2", "4"],
        # A Monte-Carlo run does not use the order, but checks it.
        ["mi", "--constellation", "bpsk", "--snr-db", "0", "--mc-samples", "100"],
        ["maximize", "--constellation", "bpsk", "--sigma2", "4"],
    ):
        err = _rejected(args + [f"--gh-order={order}"], tmp_path, capsys)
        assert _flag_error("--gh-order", order) in err


@pytest.mark.parametrize("command", ["maximize", "max-sweep"])
@pytest.mark.parametrize("flag", [["--mc-samples", "1000"], ["--seed", "3"]])
def test_peak_commands_reject_monte_carlo_flags(command, flag):
    assert run_cli([command, "--constellation", "bpsk", "--sigma2", "4", *flag]) == 1


@pytest.mark.parametrize(
    "flag",
    [
        ["--mc-samples", "0"],
        ["--mc-samples", "1"],
        ["--mc-samples", "-5"],
        ["--mc-samples", "many"],
        ["--mc-samples", str(2**63)],
        ["--seed", "-1"],
        ["--seed", str(2**64)],
    ],
    ids=["samples-0", "samples-1", "samples-negative", "samples-nonint",
         "samples-2^63", "seed-negative", "seed-2^64"],
)
def test_monte_carlo_flags_out_of_range_are_usage_errors(flag, tmp_path, capsys):
    args = ["mi", "--constellation", "bpsk", "--snr-db", "0", "--mc-samples", "100", *flag]
    assert _flag_error(*flag) in _rejected(args, tmp_path, capsys)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_is_checked_on_a_quadrature_run(seed, tmp_path, capsys):
    # A quadrature run does not use the seed, but checks it.
    args = ["mi", "--constellation", "bpsk", "--snr-db", "0", "--seed", seed]
    assert "usage error: --seed: " in _rejected(args, tmp_path, capsys)


def test_an_unusable_out_is_reported_before_an_out_of_range_flag(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "out.csv"
    args = ["mi", "--constellation", "bpsk", "--snr-db", "0", "--gh-order", "0"]
    assert run_cli(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --out: ")


def test_monte_carlo_rate_run_builds_no_quadrature_rule(monkeypatch, tmp_path):
    # The MC path checks --gh-order without building its rule, which would
    # raise the MC run's peak memory; the quadrature run is the control.
    def no_rule(n):
        raise _Stop

    gauss_hermite.cache_clear()
    monkeypatch.setattr(integrate, "_hermite_rule", no_rule)
    args = ["sweep", "--constellation", "qam16", "--snr-db", "0,10", "--sigma2", "5",
            "--out", str(tmp_path / "out.csv")]
    assert run_cli(args + ["--mc-samples", "100"]) == 0
    with pytest.raises(_Stop):
        run_cli(args)


def test_monte_carlo_flag_range_edges_are_accepted(tmp_path):
    out = tmp_path / "mi.json"
    assert run_cli(
        ["mi", "--constellation", "bpsk", "--snr-db", "0", "--mc-samples", "2",
         "--seed", str(2**64 - 1), "--format", "json", "--out", str(out)]
    ) == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["method"] == "monte_carlo"
    assert meta["mc_samples"] == 2 and meta["seed"] == 2**64 - 1


# Non-finite values of every numeric flag are usage errors (exit 1) and write
# nothing; without the check they ran to a NaN row, an unrefined peak, or a
# failure deep in the grid or quadrature code.
@pytest.mark.parametrize(
    "args",
    [
        ["mi", "--constellation", "bpsk", "--snr-db=-inf"],
        ["mi", "--constellation", "bpsk", "--snr-db", "inf", "--mc-samples", "100"],
        ["mi", "--constellation", "bpsk", "--snr-db=0:inf:1"],
        ["sweep", "--constellation", "bpsk", "--snr-db", "5", "--sigma2", "inf"],
        ["sweep", "--constellation", "bpsk", "--snr-db", "5", "--sigma2", "5,nan"],
        ["maximize", "--constellation", "bpsk", "--sigma2", "5", "--scan-db=-30:nan:0.5"],
        ["maximize", "--constellation", "bpsk", "--sigma2", "5", "--tol-db", "nan"],
        ["max-sweep", "--constellation", "bpsk", "--sigma2", "5", "--tol-db", "inf"],
    ],
    ids=["snr-db", "snr-db-mc", "snr-db-range", "sigma2", "sigma2-list", "scan-db",
         "tol-db-nan", "tol-db-inf"],
)
def test_nonfinite_numbers_are_usage_errors(args, tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["maximize", "max-sweep"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "x"])
def test_tol_db_must_be_a_positive_number(command, tol, tmp_path, capsys):
    args = [command, "--constellation", "bpsk", "--sigma2", "5", f"--tol-db={tol}"]
    assert _flag_error("--tol-db", tol) in _rejected(args, tmp_path, capsys)


@pytest.mark.parametrize("command", ["mi", "sweep"])
def test_empty_sigma2_is_a_usage_error(command, tmp_path):
    # An empty list names no noise ratio, even where --sigma2 has a default.
    out = tmp_path / "out.csv"
    args = [command, "--constellation", "bpsk", "--snr-db", "5", "--sigma2=", "--out", str(out)]
    assert run_cli(args) == 1
    assert not out.exists()


# CLI bytes of Monte-Carlo runs from the SplitMix64 stream; the estimate must
# not depend on how the blocks are scheduled.
FROZEN_MC_MI = (
    "constellation,snr_db,sigma_sq,mi_main,mi_eve,cc_sc,gc_sc,gaussian_cap\n"
    "qam16,10,1,3.1643511,3.1643511,0,0,3.45943162\n"
)

FROZEN_MC_SWEEP = (
    "constellation,snr_db,sigma_sq,mi_main,mi_eve,cc_sc,gc_sc,gaussian_cap\n"
    "qam16,0,5,0.99028888,0.263856767,0.726432113,0.736965594,1\n"
    "qam16,0,20,0.99028888,0.0714382031,0.918850677,0.929610672,1\n"
    "qam16,10,5,3.16439712,1.54353093,1.62086619,1.87446912,3.45943162\n"
    "qam16,10,20,3.16439712,0.584020359,2.58037676,2.87446912,3.45943162\n"
    "qam16,20,5,4,3.73940907,0.260590929,2.26589406,6.65821148\n"
    "qam16,20,20,4,2.43912626,1.56087374,4.07324898,6.65821148\n"
)


@pytest.mark.parametrize(
    "args, want",
    [
        (["mi", "--constellation", "qam16", "--snr-db", "10",
          "--mc-samples", "1000000", "--seed", "1"], FROZEN_MC_MI),
        (["sweep", "--constellation", "qam16", "--snr-db", "0:20:10", "--sigma2", "5,20",
          "--mc-samples", "1100003", "--seed", "9"], FROZEN_MC_SWEEP),
    ],
    ids=["mi-qam16", "sweep-qam16"],
)
def test_monte_carlo_csv_bytes_are_frozen(args, want, tmp_path):
    out = tmp_path / "mc.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()


# CLI bytes of the reference peak searches, recorded before the scan was
# batched over the SNR grid and the noise ratios.
FROZEN_MAX_SWEEP = {
    "bpsk": (
        "constellation,sigma_sq,snr_max_db,snr_max_linear,c_max,unimodal_ok\n"
        "bpsk,5,1.85972009,1.53451808,0.509829224,true\n"
        "bpsk,10,2.95994003,1.97694234,0.671152661,true\n"
        "bpsk,15,3.53695435,2.25785181,0.74544954,true\n"
        "bpsk,20,3.92047317,2.46630803,0.789639875,true\n"
    ),
    "qam4": (
        "constellation,sigma_sq,snr_max_db,snr_max_linear,c_max,unimodal_ok\n"
        "qam4,5,4.8728757,3.07105483,1.01965857,true\n"
        "qam4,10,5.96807065,3.95191017,1.34230536,true\n"
        "qam4,15,6.54508497,4.51344856,1.4908991,true\n"
        "qam4,20,6.92860379,4.9301528,1.57927975,true\n"
    ),
    "psk8": (
        "constellation,sigma_sq,snr_max_db,snr_max_linear,c_max,unimodal_ok\n"
        "psk8,5,7.73858048,5.94097942,1.24170098,true\n"
        "psk8,10,9.196008,8.30999573,1.70777776,true\n"
        "psk8,15,9.94989003,9.88528063,1.94705915,true\n"
        "psk8,20,10.4467844,11.0835387,2.0993493,true\n"
    ),
    "qam16": (
        "constellation,sigma_sq,snr_max_db,snr_max_linear,c_max,unimodal_ok\n"
        "qam16,5,10.814042,12.0615799,1.63185416,true\n"
        "qam16,10,11.7122692,14.8329292,2.23870191,true\n"
        "qam16,15,12.2335555,16.7245926,2.55226969,true\n"
        "qam16,20,12.6058381,18.2214866,2.75355768,true\n"
    ),
}


@pytest.mark.parametrize("name", list(FROZEN_MAX_SWEEP))
def test_max_sweep_csv_bytes_are_frozen(name, tmp_path):
    out = tmp_path / "max.csv"
    args = ["max-sweep", "--constellation", name, "--sigma2", "5,10,15,20"]
    assert run_cli(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == FROZEN_MAX_SWEEP[name].encode()


class _Stop(Exception):
    """Raised by a patched capacity entry point; run_cli does not catch it."""


# perfbench/hook.py times set-up up to the first call of one of these, looked
# up as module globals, and binds cc_mutual_information's arguments by name.
BENCHMARK_ENTRY_POINTS = (
    (cli, "cc_mutual_information"),
    (cli, "cc_mutual_information_mc"),
    (optimize, "cc_secrecy_capacity"),
)


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--constellation", "qam16", "--snr-db=-10:40:0.5", "--sigma2", "5,20"],
        ["sweep", "--constellation", "qam16", "--snr-db", "0:20:10", "--sigma2", "5,20",
         "--mc-samples", "100", "--seed", "3"],
        ["maximize", "--constellation", "bpsk", "--sigma2", "5"],
        ["max-sweep", "--constellation", "qam4", "--sigma2", "5,10,15,20"],
        ["mi", "--constellation", "qam16", "--snr-db", "10"],
        ["mi", "--constellation", "qam16", "--snr-db", "10", "--mc-samples", "100"],
    ],
    ids=["sweep-gh", "sweep-mc", "maximize", "max-sweep", "mi-gh", "mi-mc"],
)
def test_first_capacity_work_goes_through_a_benchmark_entry_point(args, monkeypatch, tmp_path):
    kernel = []

    def stop(*args, **kwargs):
        raise _Stop

    for owner, name in BENCHMARK_ENTRY_POINTS:
        monkeypatch.setattr(owner, name, stop)
    monkeypatch.setattr(capacity, "cc_output_entropy", lambda *a, **k: kernel.append(a))
    monkeypatch.setattr(capacity, "mc_expect_complex_gaussian", lambda *a, **k: kernel.append(a))
    with pytest.raises(_Stop):
        run_cli(args + ["--out", str(tmp_path / "out")])
    assert kernel == []
    names = inspect.signature(capacity.cc_mutual_information).parameters
    assert {"c", "snr", "variance", "rule"} <= set(names)


def _count_rate_calls(monkeypatch) -> dict:
    """Count the CLI's rate and peak-search calls of each kind, passing them on."""
    calls = {}
    for name in ("cc_mutual_information", "cc_mutual_information_mc", "sweep_max_vs_sigma"):
        real = getattr(cli, name)

        def spy(*a, name=name, real=real, **k):
            calls[name] = calls.get(name, 0) + 1
            return real(*a, **k)

        monkeypatch.setattr(cli, name, spy)
    return calls


# One (variance x SNR) table serves every rate row: quadrature fills it in one
# call, Monte-Carlo in one call per distinct variance and SNR, so a repeated
# --sigma2 value or a ratio of 1 costs nothing more.
@pytest.mark.parametrize(
    "args, want_calls, want_rows",
    [
        (["mi", "--constellation", "qam4", "--snr-db", "0:20:10"],
         {"cc_mutual_information": 1}, 3),
        (["sweep", "--constellation", "qam4", "--snr-db", "0:20:10", "--sigma2", "1,5,5,20"],
         {"cc_mutual_information": 1}, 12),
        (["sweep", "--constellation", "bpsk", "--snr-db", "0:5:5", "--sigma2", "1,5,5",
          "--mc-samples", "1000"], {"cc_mutual_information_mc": 4}, 6),
    ],
    ids=["mi-gh", "sweep-gh", "sweep-mc"],
)
def test_rate_commands_compute_each_distinct_channel_once(
    args, want_calls, want_rows, monkeypatch, tmp_path
):
    calls = _count_rate_calls(monkeypatch)
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert calls == want_calls
    _, rows = _read_rows(out)
    assert len(rows) == want_rows


# A --sigma2 list may hold 1, repeat a value and descend: each value's rows
# stand where the value stands and equal the rows of a run with it alone.
@pytest.mark.parametrize("mc", [[], ["--mc-samples", "1000", "--seed", "3"]], ids=["gh", "mc"])
def test_sigma2_rows_follow_the_list_order(mc, monkeypatch, tmp_path):
    variances = []
    real = cli.cc_mutual_information

    def spy(c, snr, variance, rule):
        variances.append(np.ravel(variance).tolist())
        return real(c, snr, variance, rule)

    monkeypatch.setattr(cli, "cc_mutual_information", spy)

    def rows(sigma2):
        out = tmp_path / "out.csv"
        args = ["sweep", "--constellation", "qam4", "--snr-db", "0:20:10", "--sigma2", sigma2]
        assert run_cli(args + mc + ["--out", str(out)]) == 0
        return _read_rows(out)[1]

    sigmas = ["20", "1", "5", "20"]
    table = rows(",".join(sigmas))
    if not mc:
        assert variances == [[1.0, 20.0, 5.0]]
    assert [row[2] for row in table] == sigmas * 3
    for j, sigma_sq in enumerate(sigmas):
        assert table[j::4] == rows(sigma_sq)
    for row in table[1::4]:
        assert row[4] == row[3] and row[5] == "0"


def test_a_long_sigma2_list_assembles_in_linear_time(tmp_path):
    # Each noise ratio's curve is found by key. A search of the variance list
    # per ratio is quadratic: about 65 s for these 10^5 ratios on a 2-core x86
    # box, where this run takes about 1.3 s.
    out = tmp_path / "many.csv"
    start = time.perf_counter()
    args = ["sweep", "--constellation", "bpsk", "--snr-db", "0", "--sigma2", "1:100000:1"]
    assert run_cli(args + ["--out", str(out)]) == 0
    assert time.perf_counter() - start < 10.0
    lines = out.read_text().splitlines()
    assert len(lines) == 100_001
    assert lines[-1].split(",")[2] == "100000"


@pytest.mark.parametrize("mc", [[], ["--mc-samples", "1000"]], ids=["gh", "mc"])
def test_sigma2_below_one_is_rejected_before_any_rate(mc, monkeypatch, capsys):
    calls = _count_rate_calls(monkeypatch)
    args = ["sweep", "--constellation", "bpsk", "--snr-db", "0:20:10", "--sigma2", "5,0.5"]
    assert run_cli(args + mc) == 2
    assert capsys.readouterr().err == (
        "error: eavesdropper noise ratio must be at least 1 "
        "(main channel no noisier than the tap), got 0.5\n"
    )
    assert calls == {}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "args",
    [
        ["mi", "--constellation", "bpsk", "--snr-db", "0:10:5"],
        ["sweep", "--constellation", "bpsk", "--snr-db", "0:10:5", "--sigma2", "2,5"],
        ["maximize", "--constellation", "bpsk", "--sigma2", "5", "--scan-db=-10:15:0.5"],
        ["max-sweep", "--constellation", "bpsk", "--sigma2", "2,5", "--scan-db=-10:15:0.5"],
        ["constellation", "--constellation", "psk8"],
    ],
    ids=["mi", "sweep", "maximize", "max-sweep", "constellation"],
)
def test_every_command_writes_through_a_benchmark_emitter(args, fmt, monkeypatch, tmp_path):
    # perfbench/hook.py wraps emit_csv and emit_json as module globals and
    # counts the rows it binds by the parameter name "rows".
    seen = []
    for name in ("emit_csv", "emit_json"):
        real = getattr(cli, name)
        assert "rows" in inspect.signature(real).parameters

        def spy(*a, real=real, **k):
            seen.append(len(inspect.signature(real).bind(*a, **k).arguments["rows"]))
            return real(*a, **k)

        monkeypatch.setattr(cli, name, spy)
    out = tmp_path / "out"
    assert run_cli(args + ["--format", fmt, "--out", str(out)]) == 0
    assert len(seen) == 1 and seen[0] > 0


def test_public_surface():
    import ccsecrecy

    assert sorted(ccsecrecy.__all__) == sorted([
        "__version__", "Constellation", "HermiteRule", "MCConfig", "MIEstimate",
        "MaximumResult", "SearchOptions", "WiretapChannel", "average_energy",
        "cc_mutual_information", "cc_mutual_information_mc", "cc_output_entropy",
        "cc_secrecy_capacity", "db_to_linear",
        "find_secrecy_maximum", "from_points", "gauss_hermite", "gaussian_channel_capacity",
        "gaussian_secrecy_capacity", "make_bpsk", "make_psk", "make_qam",
        "min_distance", "scan_secrecy_grid",
        "sweep_max_vs_sigma",
    ])
    # The rate functions take no test-only options.
    for fn, params in ((ccsecrecy.cc_mutual_information, ["c", "snr", "variance", "rule"]),
                       (ccsecrecy.cc_secrecy_capacity, ["c", "ch", "rule"])):
        assert list(inspect.signature(fn).parameters) == params
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands) == ["mi", "sweep", "maximize", "max-sweep", "constellation"]


# Grids above the point cap, tables of more cells than it and dB values whose
# linear ratio overflows a float are usage errors that name the flag; they
# used to end in a numpy MemoryError traceback or "(34, 'Numerical result out
# of range')", and a table of 2 * 10^6 rows was built and written.
@pytest.mark.parametrize(
    "args, flag",
    [
        (["maximize", "--constellation", "bpsk", "--sigma2", "5", "--scan-db=-30:50:1e-12"],
         "--scan-db"),
        (["max-sweep", "--constellation", "bpsk", "--sigma2", "5", "--scan-db=-1e308:1e308:1"],
         "--scan-db"),
        (["mi", "--constellation", "bpsk", "--snr-db=0:10:1e-6"], "--snr-db"),
        (["sweep", "--constellation", "bpsk", "--snr-db", "5", "--sigma2", "2:3:1e-7"],
         "--sigma2"),
        (["mi", "--constellation", "bpsk", "--snr-db", "4000"], "--snr-db"),
        (["mi", "--constellation", "bpsk", "--snr-db", "0:4000:1000",
          "--mc-samples", "100"], "--snr-db"),
        (["maximize", "--constellation", "bpsk", "--sigma2", "5", "--scan-db=-30:4000:1"],
         "--scan-db"),
        (["maximize", "--constellation", "bpsk", "--sigma2", "5", "--scan-db=50:-30:0.5"],
         "--scan-db"),
        (["sweep", "--constellation", "qam16", "--snr-db=0:999.999:0.001", "--sigma2", "1,2"],
         "--snr-db and --sigma2"),
    ],
    ids=["scan-points", "scan-span", "snr-points", "sigma2-points", "snr-overflow",
         "snr-range-overflow", "scan-overflow", "scan-reversed", "table-cells"],
)
def test_oversized_grids_and_overflowing_db_are_usage_errors(args, flag, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--out", str(out)]) == 1
    assert not out.exists()
    assert f"usage error: {flag}:" in capsys.readouterr().err


# The table cap is checked before any dB value is converted: converting a
# 10^6-point --snr-db grid one value at a time took 1.7 s before the error.
def test_table_cap_comes_before_any_db_conversion(monkeypatch, tmp_path, capsys):
    conversions = []
    real = cli.db_to_linear
    monkeypatch.setattr(cli, "db_to_linear", lambda db: conversions.append(db) or real(db))
    out = tmp_path / "out.csv"
    args = ["sweep", "--constellation", "qam16", "--snr-db=0:999.999:0.001", "--sigma2", "1,2"]
    assert run_cli(args + ["--out", str(out)]) == 1
    assert conversions == []
    assert not out.exists()
    assert capsys.readouterr().err == (
        "usage error: --snr-db and --sigma2: 1000000 points x 2 noise ratios make "
        "2000000 table cells, more than 1000000\n"
    )


def _deny_write(monkeypatch, *paths):
    """Make os.access refuse write access to the given paths.

    Root may write anywhere, so a chmod alone would not show the check.
    """
    real = os.access
    denied = {Path(p) for p in paths}

    def access(path, mode, **kwargs):
        if mode & os.W_OK and Path(path) in denied:
            return False
        return real(path, mode, **kwargs)

    monkeypatch.setattr(os, "access", access)


# An --out that cannot be written is reported before any work, naming the
# flag, so that a long run is not thrown away in the final open.
@pytest.mark.parametrize(
    "where", ["missing-directory", "a-directory", "read-only-directory", "read-only-file"])
def test_unusable_out_is_an_error_before_any_estimate(where, monkeypatch, tmp_path, capsys):
    out = {"missing-directory": tmp_path / "no_such_dir" / "mi.csv",
           "a-directory": tmp_path,
           "read-only-directory": tmp_path / "mi.csv",
           "read-only-file": tmp_path / "old.csv"}[where]
    if where == "read-only-directory":
        _deny_write(monkeypatch, tmp_path)
    if where == "read-only-file":
        out.write_text("kept\n")
        _deny_write(monkeypatch, out)
    calls = []

    def spy(*args):
        calls.append(args)
        return cc_mutual_information_mc(*args)

    monkeypatch.setattr(cli, "cc_mutual_information_mc", spy)
    args = ["mi", "--constellation", "qam16", "--snr-db", "10", "--mc-samples", "1000000",
            "--out", str(out)]
    assert run_cli(args) == 2
    assert calls == []
    assert not (tmp_path / "no_such_dir").exists()
    assert not (tmp_path / "mi.csv").exists()
    if where == "read-only-file":
        assert out.read_text() == "kept\n"
    assert capsys.readouterr().err.startswith("error: --out: ")


# Opening an existing file for writing needs write access to the file, not
# to its directory: /dev is not writable by a normal user, yet /dev/null is.
# An empty --out means stdout.
@pytest.mark.parametrize("where", ["dev-null", "file-in-read-only-directory", "empty"])
def test_writable_out_is_accepted(where, monkeypatch, tmp_path, capsys):
    if where == "dev-null":
        if not Path("/dev/null").exists():
            pytest.skip("needs /dev/null")
        out = "/dev/null"
        _deny_write(monkeypatch, "/dev")
    elif where == "file-in-read-only-directory":
        out = tmp_path / "mi.csv"
        out.write_text("old\n")
        tmp_path.chmod(0o555)
        _deny_write(monkeypatch, tmp_path)
    else:
        out = ""
    args = ["mi", "--constellation", "bpsk", "--snr-db", "5", "--out", str(out)]
    try:
        assert run_cli(args) == 0
    finally:
        tmp_path.chmod(0o700)
    captured = capsys.readouterr()
    assert f"wrote 1 rows to {out or 'stdout'}" in captured.err
    if where == "file-in-read-only-directory":
        assert len(_read_rows(out)[1]) == 1
    if where == "empty":
        assert captured.out.startswith("constellation,")


# Opening a symlink whose target does not exist creates the target, so the
# check looks at the target's directory, not the link's.
def test_dangling_out_symlink_is_checked_at_its_target(monkeypatch, tmp_path, capsys):
    calls = _count_rate_calls(monkeypatch)
    args = ["mi", "--constellation", "qam16", "--snr-db", "10", "--out"]
    broken = tmp_path / "broken.csv"
    broken.symlink_to(tmp_path / "no_such_dir" / "mi.csv")
    assert run_cli(args + [str(broken)]) == 2
    assert calls == {}
    assert capsys.readouterr().err.startswith("error: --out: ")
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "new.csv")
    assert run_cli(args + [str(link)]) == 0
    assert link.is_symlink()
    assert len(_read_rows(tmp_path / "new.csv")[1]) == 1


# Finite but extreme values are domain errors raised where they enter. Both
# used to overflow in the quadrature: a --sigma2 of 1e308 exited 2 with
# "mutual information is not finite: got nan" after numpy overflow warnings,
# and 3080 dB printed a row after them.
@pytest.mark.parametrize(
    "args, message",
    [
        (["sweep", "--constellation", "bpsk", "--snr-db", "5", "--sigma2", "1e308"],
         "eavesdropper noise ratio must be at most 1e+300, got 1e+308"),
        (["mi", "--constellation", "bpsk", "--snr-db", "3080"],
         "snr must be at most 1e+300, got 1e+308"),
        (["mi", "--constellation", "bpsk", "--snr-db", "3080", "--mc-samples", "1000"],
         "snr must be at most 1e+300, got 1e+308"),
    ],
    ids=["sigma2-1e308", "snr-3080dB", "snr-3080dB-mc"],
)
def test_extreme_snr_and_sigma2_are_domain_errors(args, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("mc", [[], ["--mc-samples", "1000"]], ids=["gh", "mc"])
def test_snr_of_3000_db_computes(mc, tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli(["mi", "--constellation", "bpsk", "--snr-db", "3000", "--out", str(out)] + mc) == 0
    _, rows = _read_rows(out)
    assert len(rows) == 1 and rows[0][1] == "3000"


def test_grid_at_the_point_cap_is_accepted():
    grid = _parse_grid(f"0:1:{1.0 / (optimize.MAX_GRID_POINTS - 1)!r}", "--snr-db")
    assert len(grid) == optimize.MAX_GRID_POINTS


# Each grid's own cap does not bound the table two grids make together: a
# rate table has a row per SNR and noise ratio, a peak scan a cell per scan
# point and noise ratio. With the cap at 8, 4 x 2 runs and 3 x 3 does not.
@pytest.mark.parametrize(
    "command, flag, at_cap, rows, over",
    [
        (["sweep", "--constellation", "qam4"], "--snr-db",
         ["--snr-db", "0:3:1", "--sigma2", "1,2"], 8,
         ["--snr-db", "0:2:1", "--sigma2", "1,2,3"]),
        (["max-sweep", "--constellation", "qam16"], "--scan-db",
         ["--scan-db", "0:30:10", "--sigma2", "5,10"], 2,
         ["--scan-db", "0:20:10", "--sigma2", "5,10,15"]),
    ],
    ids=["sweep", "max-sweep"],
)
def test_tables_over_the_cap_are_usage_errors_before_any_rate(
    command, flag, at_cap, rows, over, monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 8)
    calls = _count_rate_calls(monkeypatch)
    out = tmp_path / "out.csv"
    assert run_cli(command + at_cap + ["--out", str(out)]) == 0
    assert len(_read_rows(out)[1]) == rows
    assert sum(calls.values()) == 1
    out.unlink()
    calls.clear()
    capsys.readouterr()
    assert run_cli(command + over + ["--out", str(out)]) == 1
    assert calls == {}
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"usage error: {flag} and --sigma2: ")


# CLI bytes recorded before the rate and peak commands shared one emitter.
# JSON is pinned as the exact text json.dumps(..., indent=2) gives for these
# values; float reprs round-trip, so equal text means equal bytes. The bpsk
# c_max and the qam4 10 dB mi_eve and cc_sc were re-recorded, exactly, when
# product sets took the per-axis quadrature sum (last-bit changes, below 1e-15).
FROZEN_JSON = {
    "maximize-bpsk": (
        ["maximize", "--constellation", "bpsk", "--sigma2", "5", "--scan-db=-10:15:0.5",
         "--format", "json"],
        {"meta": {"tool": "ccsecrecy", "version": "0.1.0", "command": "maximize",
                  "constellation": "bpsk", "method": "gauss_hermite", "gh_order": 32,
                  "scan_db": [-10.0, 15.0, 0.5], "tol_db": 0.01},
         "rows": [{"constellation": "bpsk", "sigma_sq": 5.0,
                   "snr_max_db": 1.8597200856351472, "snr_max_linear": 1.5345180758333892,
                   "c_max": 0.5098292242052951, "bracket": [1.5, 2.5],
                   "grid_local_maxima": 1, "iterations": 10, "unimodal_ok": True}]},
    ),
    "constellation-psk8": (
        ["constellation", "--constellation", "psk8", "--format", "json"],
        {"meta": {"tool": "ccsecrecy", "version": "0.1.0", "command": "constellation",
                  "constellation": "psk8", "name": "psk8", "size": 8, "avg_energy": 1.0,
                  "min_distance": 0.7653668647301795},
         "rows": [{"index": 0, "re": 1.0, "im": 0.0},
                  {"index": 1, "re": 0.7071067811865476, "im": 0.7071067811865475},
                  {"index": 2, "re": 6.123233995736766e-17, "im": 1.0},
                  {"index": 3, "re": -0.7071067811865475, "im": 0.7071067811865476},
                  {"index": 4, "re": -1.0, "im": 1.2246467991473532e-16},
                  {"index": 5, "re": -0.7071067811865477, "im": -0.7071067811865475},
                  {"index": 6, "re": -1.8369701987210297e-16, "im": -1.0},
                  {"index": 7, "re": 0.7071067811865474, "im": -0.7071067811865477}]},
    ),
    "sweep-qam4": (
        ["sweep", "--constellation", "qam4", "--snr-db", "0:10:5", "--sigma2", "5",
         "--format", "json"],
        {"meta": {"tool": "ccsecrecy", "version": "0.1.0", "command": "sweep",
                  "constellation": "qam4", "method": "gauss_hermite", "gh_order": 32,
                  "mc_samples": None, "seed": None},
         "rows": [{"constellation": "qam4", "snr_db": 0.0, "sigma_sq": 5.0,
                   "mi_main": 0.9718883554901714, "mi_eve": 0.2628321647056948,
                   "cc_sc": 0.7090561907844766, "gc_sc": 0.7369655941662062,
                   "gaussian_cap": 1.0},
                  {"constellation": "qam4", "snr_db": 5.0, "sigma_sq": 5.0,
                   "mi_main": 1.7183693061020389, "mi_eve": 0.6990276732334832,
                   "cc_sc": 1.0193416328685556, "gc_sc": 1.350329515204619,
                   "gaussian_cap": 2.057373208606795},
                  {"constellation": "qam4", "snr_db": 10.0, "sigma_sq": 5.0,
                   "mi_main": 1.9935439168632678, "mi_eve": 1.442904240460086,
                   "cc_sc": 0.5506396764031818, "gc_sc": 1.874469117916141,
                   "gaussian_cap": 3.4594316186372973}]},
    ),
}


@pytest.mark.parametrize("name", list(FROZEN_JSON))
def test_json_bytes_are_frozen(name, tmp_path):
    args, payload = FROZEN_JSON[name]
    out = tmp_path / "out.json"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


QAM16_SQUARE_LEVELS = ("-0.94868329805051377", "-0.31622776601683794",
                       "0.31622776601683794", "0.94868329805051377")

FROZEN_CSV = {
    "constellation-qam16": (
        ["constellation", "--constellation", "qam16"],
        "index,re,im\n" + "".join(
            f"{4 * i + j},{re},{im}\n"
            for i, re in enumerate(QAM16_SQUARE_LEVELS)
            for j, im in enumerate(QAM16_SQUARE_LEVELS)
        ),
    ),
    "mi-psk8": (
        ["mi", "--constellation", "psk8", "--snr-db", "0:20:10"],
        "constellation,snr_db,sigma_sq,mi_main,mi_eve,cc_sc,gc_sc,gaussian_cap\n"
        "psk8,0,1,0.980891051,0.980891051,0,0,1\n"
        "psk8,10,1,2.6774095,2.6774095,0,0,3.45943162\n"
        "psk8,20,1,2.99999973,2.99999973,0,0,6.65821148\n",
    ),
}


@pytest.mark.parametrize("name", list(FROZEN_CSV))
def test_csv_bytes_are_frozen(name, tmp_path):
    args, want = FROZEN_CSV[name]
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()


# max-sweep JSON rows recorded when they held only the CSV columns; the first
# c_max re-recorded with FROZEN_JSON's.
FROZEN_MAX_SWEEP_JSON = {
    "meta": {"tool": "ccsecrecy", "version": "0.1.0", "command": "max-sweep",
             "constellation": "bpsk", "method": "gauss_hermite", "gh_order": 32,
             "scan_db": [-30.0, 50.0, 0.5], "tol_db": 0.01},
    "rows": [{"constellation": "bpsk", "sigma_sq": 5.0, "snr_max_db": 1.8597200856351472,
              "snr_max_linear": 1.5345180758333892, "c_max": 0.5098292242052951,
              "unimodal_ok": True},
             {"constellation": "bpsk", "sigma_sq": 10.0, "snr_max_db": 2.9599400268659046,
              "snr_max_linear": 1.976942339685164, "c_max": 0.6711526613001899,
              "unimodal_ok": True}],
}


def test_max_sweep_json_keeps_its_values_and_adds_the_search_keys(tmp_path):
    out = tmp_path / "peaks.json"
    assert run_cli(["max-sweep", "--constellation", "bpsk", "--sigma2", "5,10",
                    "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"] == FROZEN_MAX_SWEEP_JSON["meta"]
    assert len(payload["rows"]) == len(FROZEN_MAX_SWEEP_JSON["rows"])
    for row, old in zip(payload["rows"], FROZEN_MAX_SWEEP_JSON["rows"]):
        assert {k: row[k] for k in old} == old
        assert set(row) - set(old) == {"bracket", "grid_local_maxima", "iterations"}


def test_max_sweep_builds_the_quadrature_rule_once(monkeypatch, tmp_path):
    # The scan and the refinement both ask for the order-32 rule.
    calls = []
    real = integrate._hermite_rule

    def spy(n):
        calls.append(n)
        return real(n)

    gauss_hermite.cache_clear()
    monkeypatch.setattr(integrate, "_hermite_rule", spy)
    args = ["max-sweep", "--constellation", "bpsk", "--sigma2", "5,10,15,20"]
    assert run_cli(args + ["--out", str(tmp_path / "max.csv")]) == 0
    assert calls == [32]


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_module(args, cwd):
    """Run `python -m ccsecrecy.cli ARGS` in a child process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "ccsecrecy.cli", *args], cwd=cwd, env=env,
                          capture_output=True, timeout=120)


def test_module_entry_point_writes_the_in_process_bytes(tmp_path, capsys):
    args = ["sweep", "--constellation", "qam4", "--snr-db", "0:10:5", "--sigma2", "5"]
    assert run_cli(args) == 0
    want = capsys.readouterr().out.encode()
    assert run_cli(args + ["--out", str(tmp_path / "in_process.csv")]) == 0
    assert (tmp_path / "in_process.csv").read_bytes() == want

    child = _run_module(args, tmp_path)
    assert (child.returncode, child.stdout) == (0, want)
    child = _run_module(args + ["--out", "child.csv"], tmp_path)
    assert (child.returncode, child.stdout) == (0, b"")
    assert (tmp_path / "child.csv").read_bytes() == want


@pytest.mark.parametrize(
    "selector, code, prefix", [("nope", 1, b"usage error:"), ("qam0", 2, b"error:")]
)
def test_module_entry_point_exit_codes(selector, code, prefix, tmp_path):
    child = _run_module(["mi", "--constellation", selector, "--snr-db", "0"], tmp_path)
    assert child.returncode == code
    assert child.stdout == b""
    assert child.stderr.startswith(prefix)


def test_quadrature_commands_do_not_import_numpy_polynomial(tmp_path):
    # The Gauss-Hermite rule is built without numpy.polynomial, whose import
    # costs a child 3 to 6 ms and about 0.8 MB of peak RSS. Nor does any
    # command import numpy.random, which costs a child 14 to 19 ms and about
    # 5.6 MB.
    code = (
        "import sys\n"
        "from ccsecrecy.cli import run_cli\n"
        "codes = [run_cli(['sweep', '--constellation', 'qam4', '--snr-db', '0:10:5',\n"
        "                  '--sigma2', '5', '--out', 'rates.csv']),\n"
        "         run_cli(['max-sweep', '--constellation', 'bpsk', '--sigma2', '5',\n"
        "                  '--out', 'peaks.csv'])]\n"
        "print(codes, 'numpy.polynomial' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                           capture_output=True, timeout=120)
    assert child.stdout == b"[0, 0] False False\n", child.stderr


def test_monte_carlo_commands_do_not_import_concurrent_futures(tmp_path):
    # The Monte-Carlo blocks run on plain threads; an executor would import
    # logging, queue, heapq, traceback and string, about 0.5 MB per child.
    # The SplitMix64 stream needs no numpy.random, about 5.6 MB per child.
    code = (
        "import sys\n"
        "from ccsecrecy.cli import run_cli\n"
        "code = run_cli(['mi', '--constellation', 'qam16', '--snr-db', '10',\n"
        "                '--mc-samples', '200000', '--out', 'mi.csv'])\n"
        "print(code, 'concurrent.futures' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                           capture_output=True, timeout=120)
    assert child.stdout == b"0 False False\n", child.stderr


def test_only_the_console_entry_point_freezes_the_collector(monkeypatch, tmp_path):
    frozen = gc.get_freeze_count()
    assert run_cli(["constellation", "--constellation", "qam4",
                    "--out", str(tmp_path / "points.csv")]) == 0
    assert gc.get_freeze_count() == frozen
    monkeypatch.setattr(sys, "argv", ["ccsecrecy", "constellation", "--constellation", "qam0"])
    try:
        with pytest.raises(SystemExit) as exit_request:
            cli.main()
        assert exit_request.value.code == 2
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
