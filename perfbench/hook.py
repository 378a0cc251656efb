"""Run the ccsecrecy CLI in this process with probes around its layer calls.

    python perfbench/hook.py probe OUT -- CLI_ARGS...
    python perfbench/hook.py trace OUT -- CLI_ARGS...

``probe`` writes the time.perf_counter() value of the first call into the
capacity layer to OUT and exits at once, so the parent can time set-up from
spawn to that call (perf_counter is CLOCK_MONOTONIC, shared by processes on
Linux). ``trace`` runs the CLI to completion and writes every span (name,
start, end, parent, attributes) to OUT as JSON.

Each function is wrapped under the module name its caller looks it up by, so
the spans sit at the boundaries between the five modules.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time

import ccsecrecy.capacity
import ccsecrecy.cli
import ccsecrecy.integrate
import ccsecrecy.optimize

CAPACITY_ENTRY_POINTS = (
    (ccsecrecy.cli, "cc_mutual_information"),
    (ccsecrecy.cli, "cc_mutual_information_mc"),
    (ccsecrecy.optimize, "cc_secrecy_capacity"),
)


@functools.cache
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _args(fn, args, kwargs) -> dict:
    return _signature(fn).bind(*args, **kwargs).arguments


def _mi_attrs(fn, args, kwargs, result) -> dict:
    a = _args(fn, args, kwargs)
    points = a["c"].points
    m = points.size
    digest = hashlib.blake2b(points.tobytes(), digest_size=8).hexdigest()
    if "cfg" in a:
        cfg = a["cfg"]
        return {
            "key": f"{digest}|{a['snr']!r}|{a['variance']!r}|mc{cfg.samples}:{cfg.seed}",
            "kernel_terms": cfg.samples * m * m,
            "stderr": result.error_bound,
        }
    order = a["rule"].order
    return {
        "key": f"{digest}|{a['snr']!r}|{a['variance']!r}|gh{order}",
        "kernel_terms": m * m * order * order,
    }


def _gh_attrs(fn, args, kwargs, result) -> dict:
    return {"nodes": _args(fn, args, kwargs)["rule"].order ** 2}


def _philox_attrs(fn, args, kwargs, result) -> dict:
    return {"samples": _args(fn, args, kwargs)["count"]}


def _emit_attrs(fn, args, kwargs, result) -> dict:
    a = _args(fn, args, kwargs)
    return {"rows": len(a["records"] if "records" in a else a["rows"])}


# (owner, attribute, span name, attribute extractor)
TRACE_POINTS = (
    (ccsecrecy.cli, "make_bpsk", "constellation.build", None),
    (ccsecrecy.cli, "make_psk", "constellation.build", None),
    (ccsecrecy.cli, "make_qam", "constellation.build", None),
    (ccsecrecy.cli, "from_points", "constellation.build", None),
    (ccsecrecy.cli, "gauss_hermite", "integrate.gauss_hermite", None),
    (ccsecrecy.optimize, "gauss_hermite", "integrate.gauss_hermite", None),
    (ccsecrecy.capacity, "gauss_hermite", "integrate.gauss_hermite", None),
    (ccsecrecy.cli, "cc_mutual_information", "capacity.mi", _mi_attrs),
    (ccsecrecy.capacity, "cc_mutual_information", "capacity.mi", _mi_attrs),
    (ccsecrecy.cli, "cc_mutual_information_mc", "capacity.mi", _mi_attrs),
    (ccsecrecy.optimize, "cc_secrecy_capacity", "capacity.secrecy", None),
    (ccsecrecy.capacity, "expect_complex_gaussian", "integrate.gh", _gh_attrs),
    (ccsecrecy.capacity, "mc_expect_complex_gaussian", "integrate.mc", None),
    (ccsecrecy.integrate.ComplexGaussianStream, "take", "integrate.philox", _philox_attrs),
    (ccsecrecy.optimize, "scan_secrecy_grid", "optimize.scan", None),
    (ccsecrecy.optimize, "find_secrecy_maximum", "optimize.find_max", None),
    (ccsecrecy.cli, "find_secrecy_maximum", "optimize.find_max", None),
    (ccsecrecy.cli, "sweep_max_vs_sigma", "optimize.sweep", None),
    (ccsecrecy.cli, "emit_csv", "cli.emit", _emit_attrs),
    (ccsecrecy.cli, "emit_json", "cli.emit", _emit_attrs),
    (ccsecrecy.cli, "_emit_max_csv", "cli.emit", _emit_attrs),
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, attributes]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, attrs=None):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self.spans.append(span)
        self._open.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        if attrs is not None:
            span[4] = attrs(fn, args, kwargs, result)
        return result

    def wrap(self, owner, attr, name, attrs) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        setattr(owner, attr, traced)


def _probe(out: str) -> None:
    def stop(*args, **kwargs):
        stamp = time.perf_counter()
        with open(out, "w") as f:
            f.write(repr(stamp))
        os._exit(0)

    for owner, attr in CAPACITY_ENTRY_POINTS:
        if hasattr(owner, attr):
            setattr(owner, attr, stop)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in ("probe", "trace") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    mode, out, cli_args = argv[0], argv[1], argv[3:]
    if mode == "probe":
        _probe(out)
        return ccsecrecy.cli.run_cli(cli_args)
    tracer = Tracer()
    for owner, attr, name, attrs in TRACE_POINTS:
        tracer.wrap(owner, attr, name, attrs)
    code = tracer.call("cli.run", ccsecrecy.cli.run_cli, (cli_args,), {})
    with open(out, "w") as f:
        json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
