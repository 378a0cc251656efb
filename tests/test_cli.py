import io
import json
import math

import pytest

from ccsecrecy import MCConfig, cc_mutual_information, cc_mutual_information_mc, gauss_hermite
from ccsecrecy.cli import (
    CSV_HEADER,
    MAX_CSV_HEADER,
    POINTS_CSV_HEADER,
    CurveRecord,
    UsageError,
    emit_csv,
    emit_json,
    parse_constellation_selector,
    run_cli,
    _parse_grid,
    _parse_sigma_list,
)


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
    for text in ("abc", "1:2", "1:2:3:4", "a:b:c", "5:1:1", "0:1:0"):
        with pytest.raises(UsageError):
            _parse_grid(text, "--snr-db")


def test_sigma_list_parsing():
    assert _parse_sigma_list("5,10,15") == (5.0, 10.0, 15.0)
    assert _parse_sigma_list("4") == (4.0,)
    assert _parse_sigma_list("2:4:1") == (2.0, 3.0, 4.0)
    with pytest.raises(UsageError, match="comma list"):
        _parse_sigma_list("a,b")


def test_emit_csv_shapes():
    empty = io.StringIO()
    emit_csv([], empty)
    assert empty.getvalue() == CSV_HEADER + "\n"
    one = io.StringIO()
    emit_csv(
        [CurveRecord("bpsk", 1.0, 2.0, 0.5, 0.25, 0.25, 0.3, 1.0)],
        one,
    )
    lines = one.getvalue().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "bpsk,1,2,0.5,0.25,0.25,0.3,1"
    assert lines[2] == ""


def test_emit_json_empty():
    target = io.StringIO()
    emit_json([], target, {"tool": "ccsecrecy"})
    payload = json.loads(target.getvalue())
    assert payload == {"meta": {"tool": "ccsecrecy"}, "rows": []}


def test_secrecy_smoke(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = run_cli(
        ["secrecy", "--constellation", "bpsk", "--snr-db", "5",
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
        ["secrecy", "--constellation", "qam4", "--snr-db", "3",
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
    assert run_cli(["secrecy", "--constellation", "bpsk", "--snr-db", "5"]) == 1
    assert run_cli(
        ["secrecy", "--constellation", "nope", "--snr-db", "5", "--sigma2", "4"]
    ) == 1
    # Eavesdropper less noisy than the intended receiver: domain error.
    assert run_cli(
        ["secrecy", "--constellation", "bpsk", "--snr-db", "5", "--sigma2", "0.5"]
    ) == 2
    assert run_cli(
        ["secrecy", "--constellation", "qam7", "--snr-db", "5", "--sigma2", "4"]
    ) == 2
    missing = tmp_path / "no_such_dir" / "out.csv"
    assert run_cli(
        ["secrecy", "--constellation", "bpsk", "--snr-db", "5",
         "--sigma2", "4", "--out", str(missing)]
    ) == 2


def test_surface_cross_product(tmp_path):
    out = tmp_path / "surface.csv"
    assert run_cli(
        ["surface", "--constellation", "bpsk", "--snr-db", "0:10:5",
         "--sigma2", "2:4:1", "--gh-order", "16", "--out", str(out)]
    ) == 0
    _, rows = _read_rows(out)
    assert len(rows) == 3 * 3


@pytest.mark.parametrize("order", ["0", "-3", "201", "x"])
def test_gh_order_out_of_range_is_usage_error(order):
    for args in (
        ["sweep", "--constellation", "bpsk", "--snr-db", "5", "--sigma2", "4"],
        ["maximize", "--constellation", "bpsk", "--sigma2", "4"],
    ):
        assert run_cli(args + [f"--gh-order={order}"]) == 1


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
        ["--seed", "-1"],
        ["--seed", str(2**64)],
    ],
    ids=["samples-0", "samples-1", "samples-negative", "samples-nonint",
         "seed-negative", "seed-2^64"],
)
def test_monte_carlo_flags_out_of_range_are_usage_errors(flag, tmp_path):
    out = tmp_path / "mi.csv"
    args = ["mi", "--constellation", "bpsk", "--snr-db", "0", "--out", str(out)]
    assert run_cli(args + ["--mc-samples", "100"] + flag) == 1
    assert not out.exists()


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


# CLI bytes of Monte-Carlo runs, recorded before the samples were spread over
# cores; the estimate must not depend on how the pieces are scheduled.
FROZEN_MC_MI = (
    "constellation,snr_db,sigma_sq,mi_main,mi_eve,cc_sc,gc_sc,gaussian_cap\n"
    "qam16,10,1,3.16350672,3.16350672,0,0,3.45943162\n"
)

FROZEN_MC_SWEEP = (
    "constellation,snr_db,sigma_sq,mi_main,mi_eve,cc_sc,gc_sc,gaussian_cap\n"
    "qam16,0,5,0.989030903,0.26176298,0.727267923,0.736965594,1\n"
    "qam16,0,20,0.989030903,0.0690329613,0.919997942,0.929610672,1\n"
    "qam16,10,5,3.16352721,1.54260257,1.62092464,1.87446912,3.45943162\n"
    "qam16,10,20,3.16352721,0.58236273,2.58116448,2.87446912,3.45943162\n"
    "qam16,20,5,3.99853771,3.73734328,0.26119443,2.26589406,6.65821148\n"
    "qam16,20,20,3.99853771,2.43846316,1.56007455,4.07324898,6.65821148\n"
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
