"""Fast self-test of the benchmark (about 25 s):

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from workloads import CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
from ccsecrecy.cli import run_cli  # noqa: E402

MAX_SWEEP_CSV = {
    "bpsk": """bpsk,5,1.85972009,1.53451808,0.509829224,true
bpsk,10,2.95994003,1.97694234,0.671152661,true
bpsk,15,3.53695435,2.25785181,0.74544954,true
bpsk,20,3.92047317,2.46630803,0.789639875,true""",
    "qam4": """qam4,5,4.8728757,3.07105483,1.01965857,true
qam4,10,5.96807065,3.95191017,1.34230536,true
qam4,15,6.54508497,4.51344856,1.4908991,true
qam4,20,6.92860379,4.9301528,1.57927975,true""",
    "psk8": """psk8,5,7.73858048,5.94097942,1.24170098,true
psk8,10,9.196008,8.30999573,1.70777776,true
psk8,15,9.94989003,9.88528063,1.94705915,true
psk8,20,10.4467844,11.0835387,2.0993493,true""",
    "qam16": """qam16,5,10.814042,12.0615799,1.63185416,true
qam16,10,11.7122692,14.8329292,2.23870191,true
qam16,15,12.2335555,16.7245926,2.55226969,true
qam16,20,12.6058381,18.2214866,2.75355768,true""",
}
MC_CSV = (workloads.SWEEP_HEADER + "\n"
          "qam16,10,1,3.16357998,3.16357998,0,0,3.45943162\n").encode()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _cli_output(workload: workloads.Workload, tmp_path: Path) -> list[bytes]:
    outputs = []
    for k, args in enumerate(workload.commands):
        out = tmp_path / f"out{k}"
        assert run_cli([*args, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    return outputs


def _max_sweep_outputs(replace=None) -> list[bytes]:
    outputs = []
    for name in workloads.MAX_SWEEP_CONSTELLATIONS:
        text = MAX_SWEEP_CSV[name]
        if replace and replace[0] == name:
            text = text.replace(replace[1], replace[2])
        outputs.append(f"{workloads.MAX_HEADER}\n{text}\n".encode())
    return outputs


def test_spec_matches_the_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed(trace, section):
    proc = _bench("--workload", "sweep_asym16_json", "--seed", "3",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in [*want.items(), ("ops_failed_frac", "frac")]:
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in lines), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _bench("--workload", "sweep_qam16", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sweep_qam16_check(tmp_path):
    workload = workloads.build("sweep_qam16", 1, tmp_path)
    outputs = _cli_output(workload, tmp_path)
    workload.check(outputs)
    text = outputs[0].decode()
    # cc_sc above gc_sc on the first data row.
    good = "qam16,-10,5,0.137495789,0.0285691357,0.108926653,0.108934372,"
    assert good in text
    with pytest.raises(CheckFailed, match="cc_sc"):
        workload.check([text.replace(good, good.replace("0.108926653", "0.108999999")).encode()])
    # A frozen spot row drifting by 1e-6 bits, consistently within the row.
    row = "qam16,20,20,3.99995196,2.43882628,1.56112568,"
    assert row in text
    drifted = "qam16,20,20,3.99995296,2.43882628,1.56112668,"
    with pytest.raises(CheckFailed, match="frozen"):
        workload.check([text.replace(row, drifted).encode()])
    with pytest.raises(CheckFailed, match="rows"):
        workload.check([text.rsplit("\n", 2)[0].encode() + b"\n"])


def test_sweep_asym16_json_check(tmp_path):
    workload = workloads.build("sweep_asym16_json", 5, tmp_path)
    outputs = _cli_output(workload, tmp_path)
    workload.check(outputs)
    payload = json.loads(outputs[0])
    row = next(r for r in payload["rows"] if r["snr_db"] == 17.5)
    row["mi_main"] += 1e-6
    row["cc_sc"] += 1e-6
    with pytest.raises(CheckFailed, match="reference"):
        workload.check([json.dumps(payload).encode()])
    row["cc_sc"] = row["gc_sc"] + 1e-3
    with pytest.raises(CheckFailed, match="cc_sc"):
        workload.check([json.dumps(payload).encode()])


def test_asym_points_are_seeded_and_asymmetric():
    a, b = workloads.asym_points(7), workloads.asym_points(7)
    assert np.array_equal(a, b) and not np.array_equal(a, workloads.asym_points(8))
    assert abs(np.mean(np.abs(a) ** 2) - 1.0) < 1e-12
    assert np.all(np.abs(np.conj(a)[:, None] - a[None, :]).min(axis=1) > 1e-3)


def test_max_sweep_check(tmp_path):
    workload = workloads.build("max_sweep_ref", 1, tmp_path)
    workload.check(_max_sweep_outputs())
    for replace, match in (
        (("psk8", "1.94705915", "1.70777776"), "rise strictly"),
        (("qam16", "2.55226969,true", "2.55226969,false"), "unimodal"),
        (("bpsk", "1.85972009,1.53451808", "1.95972009,1.5702616"), "dense grid"),
        (("qam4", "1.01965857", "1.01985857"), "dense grid"),
    ):
        with pytest.raises(CheckFailed, match=match):
            workload.check(_max_sweep_outputs(replace))


def test_mc_qam16_check(tmp_path):
    workload = workloads.build("mc_qam16", 1, tmp_path)
    workload.check([MC_CSV])
    off = f"{workloads.QAM16_10DB_GH_BITS + 5 * workloads.QAM16_10DB_MC_STDERR:.9g}"
    with pytest.raises(CheckFailed, match="standard errors"):
        workload.check([MC_CSV.replace(b"3.16357998,3.16357998", f"{off},{off}".encode())])


def test_layer_metrics_self_time_and_counts():
    # cli.run [0, 10] > optimize.find_max [1, 9] > optimize.scan [1, 5] >
    # capacity.secrecy [2, 3]; one refine eval capacity.secrecy [6, 7].
    spans = [
        ["cli.run", 0.0, 10.0, -1, None],
        ["optimize.find_max", 1.0, 9.0, 0, None],
        ["optimize.scan", 1.0, 5.0, 1, None],
        ["capacity.secrecy", 2.0, 3.0, 2, None],
        ["capacity.secrecy", 6.0, 7.0, 1, None],
    ]
    m = run.layer_metrics([spans])
    assert m["cli.self_s"] == 2.0
    assert m["optimize.self_s"] == (8.0 - 4.0 - 1.0) + (4.0 - 1.0)
    assert m["capacity.self_s"] == 2.0
    assert m["optimize.scan.evals"] == 1 and m["optimize.refine.evals"] == 1
    assert m["optimize.refine.time_s"] == 4.0 and m["optimize.evals_per_peak"] == 2


def test_child_peak_rss_excludes_the_parent(tmp_path):
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    child = run.run_child([sys.executable, "-c", "pass"], dict(os.environ),
                          tmp_path / "stderr")
    assert child.code == 0 and child.wall_s > 0.0
    assert 1.0 < child.peak_rss_mb < 100.0
    del ballast
