"""End-to-end and per-layer benchmark of the ccsecrecy command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the CLI runs from ``src/`` with
PYTHONPATH set, so nothing needs installing. The load is a closed loop: one
client (this script) runs one CLI child process at a time and starts the
next only when the previous one has exited.

With --trace 0 it first times SETUP_PROBES set-ups (spawn to the first call
into the capacity layer), then repeats the workload until --seconds would be
exceeded, and reports the median wall time, set-up time and peak memory per
workload run. With --trace 1 it alternates untraced and traced workload runs
and reports per-layer numbers from the traced ones. Every output is checked;
the last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HOOK = Path(BENCH_DIR.name, "hook.py")  # relative to ROOT, like every child argument
SPAWN = BENCH_DIR / "spawn.py"
SETUP_PROBES = 11
LAYERS = ("cli", "optimize", "capacity", "integrate", "constellation")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "capacity.mi.calls": "count",
    "capacity.mi.unique_frac": "frac",
    "capacity.mi.time_s": "s",
    "capacity.kernel_terms": "count",
    "capacity.mc.stderr_bits": "bits",
    "integrate.gh.nodes": "count",
    "integrate.gauss_hermite.calls": "count",
    "integrate.gauss_hermite.time_s": "s",
    "integrate.mc.time_s": "s",
    "integrate.mc.chunks": "count",
    "integrate.philox.samples": "count",
    "integrate.philox.time_s": "s",
    "optimize.scan.evals": "count",
    "optimize.scan.time_s": "s",
    "optimize.refine.evals": "count",
    "optimize.refine.time_s": "s",
    "optimize.evals_per_peak": "count",
    "constellation.build.time_s": "s",
    "cli.run.time_s": "s",
    "cli.emit.time_s": "s",
    "cli.rows": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "process.minor_faults": "count",
    "process.sys_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    start: float
    wall_s: float
    peak_rss_mb: float
    minor_faults: int
    sys_s: float
    code: int
    stderr: str


@dataclass
class Rep:
    """One workload run: every command of the workload, in order."""

    traced: bool
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    minor_faults: int = 0
    sys_s: float = 0.0
    elapsed_s: float = 0.0
    outputs: list[bytes] = field(default_factory=list)
    traces: list[list] = field(default_factory=list)
    error: str | None = None


def run_child(argv: list[str], env: dict, err_path: Path) -> Child:
    """Run one child to completion through spawn.py: its wall time from spawn
    to reap, its own peak RSS, and the perf_counter() value at its spawn."""
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-S", str(SPAWN), *argv], env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, start_new_session=True)
        try:
            out, _ = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    stderr = err_path.read_text(errors="replace")
    if proc.returncode != 0:
        return Child(0.0, 0.0, 0.0, 0, 0.0, proc.returncode, stderr)
    r = json.loads(out)
    # ru_maxrss is in KiB on Linux.
    return Child(r["start"], r["wall_s"], r["maxrss_kib"] / 1024.0, r["minflt"], r["sys_s"],
                 r["code"], stderr)


class Bench:
    def __init__(self, workload: workloads.Workload, work_dir: Path):
        self.workload = workload
        self.work = work_dir
        # A fixed environment, for the same reason as the relative paths.
        self.env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": "src"}
        self.reference: list[bytes] | None = None

    def _out(self, k: int) -> Path:
        return self.work / f"out{k}"

    def setup_probe(self, args: list[str]) -> float | None:
        """Seconds from spawning the CLI to its first capacity call, or None on failure."""
        stamp = self.work / "probe_stamp"
        stamp.unlink(missing_ok=True)
        argv = [sys.executable, str(HOOK), "probe", str(stamp), "--",
                *args, "--out", str(self._out(0))]
        child = run_child(argv, self.env, self.work / "stderr")
        if child.code != 0 or not stamp.is_file():
            print(f"setup probe failed (exit {child.code}): {child.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        return float(stamp.read_text()) - child.start

    def rep(self, traced: bool) -> Rep:
        rep = Rep(traced)
        start = time.perf_counter()
        for k, args in enumerate(self.workload.commands):
            out = self._out(k)
            out.unlink(missing_ok=True)
            trace_path = self.work / f"trace{k}.json"
            cli = [*args, "--out", str(out)]
            if traced:
                argv = [sys.executable, str(HOOK), "trace", str(trace_path), "--", *cli]
            else:
                argv = [sys.executable, "-m", "ccsecrecy.cli", *cli]
            child = run_child(argv, self.env, self.work / "stderr")
            rep.wall_s += child.wall_s
            rep.peak_rss_mb = max(rep.peak_rss_mb, child.peak_rss_mb)
            rep.minor_faults += child.minor_faults
            rep.sys_s += child.sys_s
            if child.code != 0 or not out.is_file():
                rep.error = f"command {k + 1} exited {child.code}: {child.stderr[-2000:]}"
                break
            rep.outputs.append(out.read_bytes())
            if traced:
                rep.traces.append(json.loads(trace_path.read_text()))
        if rep.error is None:
            rep.error = self._check(rep.outputs)
        rep.elapsed_s = time.perf_counter() - start
        if rep.error:
            print(f"{self.workload.name}: run failed: {rep.error}", file=sys.stderr)
        return rep

    def _check(self, outputs: list[bytes]) -> str | None:
        if self.reference is None:
            try:
                self.workload.check(outputs)
            except workloads.CheckFailed as exc:
                return f"output check failed: {exc}"
            self.reference = outputs
        elif outputs != self.reference:
            return "output differs from the first run of the same inputs"
        return None


def median_and_tail(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(values)
    text = f"median of n={n} ({' '.join(f'{v:.3f}' for v in values)})"
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        beyond = n * (1.0 - p / 100.0)
        if beyond >= 10:
            rank = min(n - 1, int(n * p / 100.0))
            return f"{text}, p{p:g}={ordered[rank]:.6g} ({int(beyond)} beyond it)"
    return f"{text}, no percentile has 10 samples beyond it"


def _ancestors(spans: list[list], index: int) -> set[str]:
    names = set()
    parent = spans[index][3]
    while parent >= 0:
        names.add(spans[parent][0])
        parent = spans[parent][3]
    return names


def layer_metrics(traces: list[list]) -> dict[str, float]:
    """Per-layer counts and times from the spans of one traced workload run."""
    time_in = defaultdict(float)
    count = defaultdict(int)
    self_s = defaultdict(float)
    keys = set()
    totals = defaultdict(float)
    stderrs = []
    for spans in traces:
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            duration = end - start
            time_in[name] += duration
            count[name] += 1
            self_s[name.split(".")[0]] += duration - covered[i]
            attrs = attrs or {}
            for key in ("kernel_terms", "nodes", "samples", "rows"):
                totals[f"{name}.{key}"] += attrs.get(key, 0)
            if name == "capacity.mi":
                keys.add(attrs["key"])
                if "stderr" in attrs:
                    stderrs.append(attrs["stderr"])
            elif name in ("capacity.secrecy", "optimize.scan"):
                above = _ancestors(spans, i)
                if name == "optimize.scan" and "optimize.find_max" in above:
                    totals["refine_minus"] += duration
                elif name == "capacity.secrecy" and "optimize.scan" in above:
                    totals["scan_evals"] += 1
                elif name == "capacity.secrecy" and "optimize.find_max" in above:
                    totals["refine_evals"] += 1
            elif name == "integrate.philox" and "integrate.mc" in _ancestors(spans, i):
                totals["mc_chunks"] += 1
    calls = count["capacity.mi"]
    scans, peaks = count["optimize.scan"], count["optimize.find_max"]
    metrics = {
        "capacity.mi.calls": calls,
        "capacity.mi.unique_frac": len(keys) / calls if calls else 0.0,
        "capacity.mi.time_s": time_in["capacity.mi"],
        "capacity.kernel_terms": totals["capacity.mi.kernel_terms"],
        "capacity.mc.stderr_bits": statistics.median(stderrs) if stderrs else 0.0,
        "integrate.gh.nodes": totals["integrate.gh.nodes"],
        "integrate.gauss_hermite.calls": count["integrate.gauss_hermite"],
        "integrate.gauss_hermite.time_s": time_in["integrate.gauss_hermite"],
        "integrate.mc.time_s": time_in["integrate.mc"],
        "integrate.mc.chunks": totals["mc_chunks"],
        "integrate.philox.samples": totals["integrate.philox.samples"],
        "integrate.philox.time_s": time_in["integrate.philox"],
        "optimize.scan.evals": totals["scan_evals"] / scans if scans else 0.0,
        "optimize.scan.time_s": time_in["optimize.scan"],
        "optimize.refine.evals": totals["refine_evals"] / peaks if peaks else 0.0,
        "optimize.refine.time_s": time_in["optimize.find_max"] - totals["refine_minus"],
        "optimize.evals_per_peak":
            (totals["scan_evals"] + totals["refine_evals"]) / peaks if peaks else 0.0,
        "constellation.build.time_s": time_in["constellation.build"],
        "cli.run.time_s": time_in["cli.run"],
        "cli.emit.time_s": time_in["cli.emit"],
        "cli.rows": totals["cli.emit.rows"],
    }
    metrics.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    return metrics


def measure(bench: Bench, seconds: float, trace: bool) -> list[Rep]:
    """Workload runs until the next one would overrun the window (at least one of
    each kind; traced runs alternate with untraced ones when tracing)."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(bench.rep(traced=trace and len(reps) % 2 == 1))
        elapsed = time.perf_counter() - start
        if (not trace or len(reps) >= 2) and elapsed + reps[-1].elapsed_s > seconds:
            return reps


def report(name: str, value: float, unit: str, note: str = "") -> dict:
    print(f"{name:32s} {value:14.6g} {unit:6s} {note}")
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not (SRC / "ccsecrecy" / "cli.py").is_file():
        print(f"no ccsecrecy sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2

    # Children get the same relative paths in any checkout: the CLI's speed
    # depends on its heap layout, which shifts with the bytes of its arguments.
    os.chdir(ROOT)
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR.name))
    try:
        bench = Bench(workloads.build(ns.workload, ns.seed, work), work)
        print(f"workload {ns.workload} (seed {ns.seed}): {workloads.WHY[ns.workload]}")
        print("closed loop: 1 client, 1 CLI process at a time; "
              f"{len(bench.workload.commands)} CLI run(s) per workload run")
        commands = bench.workload.commands
        setups = [] if ns.trace else [
            bench.setup_probe(commands[k % len(commands)]) for k in range(SETUP_PROBES)
        ]
        reps = measure(bench, ns.seconds, bool(ns.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r.error is not None for r in reps) + sum(s is None for s in setups)
    attempted = len(reps) + len(setups)
    metrics = {}
    plain = [r for r in reps if not r.traced]
    if ns.trace:
        traced = [r for r in reps if r.traced]
        per_rep = [layer_metrics(r.traces) for r in traced if r.error is None]
        plain_wall = statistics.median(r.wall_s for r in plain)
        traced_wall = statistics.median(r.wall_s for r in traced)
        values = {
            name: statistics.median(m[name] for m in per_rep) if per_rep else 0.0
            for name in PER_LAYER_UNITS if name.split(".")[0] in LAYERS
        }
        values["process.minor_faults"] = statistics.median(r.minor_faults for r in plain)
        values["process.sys_s"] = statistics.median(r.sys_s for r in plain)
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = plain_wall
        values["trace.overhead_s"] = traced_wall - plain_wall
        print(f"per-layer medians over {len(per_rep)} traced workload run(s); "
              f"{len(plain)} untraced run(s) for the overhead")
        for name, unit in PER_LAYER_UNITS.items():
            metrics[name] = report(name, values[name], unit)
    else:
        walls = [r.wall_s for r in plain]
        good_setups = [s for s in setups if s is not None]
        rss = [r.peak_rss_mb for r in plain]
        values = {
            "wall_s": (statistics.median(walls), median_and_tail(walls)),
            "setup_s": (statistics.median(good_setups) if good_setups else 0.0,
                        f"median of n={len(good_setups)} spawn-to-first-capacity-call probes"),
            "peak_rss_mb": (statistics.median(rss),
                            f"median of per-run child peaks, n={len(rss)}"),
        }
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = report(name, values[name][0], unit, values[name][1])
    report("ops_failed_frac", failed / attempted, "frac",
           f"{failed} of {attempted} operations failed (workload runs and set-up probes)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
