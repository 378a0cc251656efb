"""Command-line front end: secrecy sweeps, peak searches, CSV/JSON emission.

All SNR values cross this boundary in dB; the library itself works on the
linear scale. Data goes to the output target only, diagnostics to stderr.
Exit codes: 0 success, 1 usage error, 2 numerical or domain error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import (
    WiretapChannel,
    cc_mutual_information,
    cc_mutual_information_mc,
    db_to_linear,
    gaussian_channel_capacity,
    gaussian_secrecy_capacity,
)
from .constellation import (
    Constellation,
    average_energy,
    from_points,
    make_bpsk,
    make_psk,
    make_qam,
    min_distance,
)
from .integrate import MAX_ORDER, MCConfig, gauss_hermite
from .optimize import (
    MAX_GRID_POINTS,
    SearchOptions,
    grid_points,
    sweep_max_vs_sigma,
)

RATE_COLUMNS = ("constellation", "snr_db", "sigma_sq", "mi_main", "mi_eve", "cc_sc",
                "gc_sc", "gaussian_cap")
PEAK_COLUMNS = ("constellation", "sigma_sq", "snr_max_db", "snr_max_linear", "c_max",
                "unimodal_ok")
POINT_COLUMNS = ("index", "re", "im")


class UsageError(ValueError):
    """Malformed command-line input (reported with exit code 1)."""


def parse_constellation_selector(selector: str) -> Constellation:
    """Resolve bpsk | psk<M> | qam<M> | file:<path> to a constellation."""
    if selector == "bpsk":
        return make_bpsk()
    for prefix, factory in (("psk", make_psk), ("qam", make_qam)):
        if selector.startswith(prefix):
            digits = selector[len(prefix):]
            # str.isdigit also accepts digits int() cannot read, such as '²'.
            if not (digits.isascii() and digits.isdigit()):
                raise UsageError(
                    f"bad constellation selector {selector!r}: expected {prefix}<M>"
                )
            return factory(int(digits))
    if selector.startswith("file:"):
        path = Path(selector[5:])
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ValueError(f"cannot read constellation file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad constellation file {path}: {exc}") from exc
        if not isinstance(payload, list) or not all(
            isinstance(p, list) and len(p) == 2 and
            all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p)
            for p in payload
        ):
            raise ValueError(
                f"constellation file {path} must hold an array of [re, im] pairs"
            )
        return from_points([complex(p[0], p[1]) for p in payload], name=path.stem)
    raise UsageError(
        f"unknown constellation selector {selector!r}: "
        "use bpsk, psk<M>, qam<M>, or file:<path>"
    )


def _numbers(parts, flag: str, text: str, expected: str) -> tuple[float, ...]:
    """The parts of a flag's text as finite floats, or a usage error quoting it."""
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"{flag}: expected {expected}, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{flag}: values must be finite, got {text!r}")
    return values


def _parse_range(text: str, flag: str) -> tuple[float, float, float]:
    """Parse '<start>:<stop>:<step>' as three finite values; the grid checks their order."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{flag}: expected start:stop:step, got {text!r}")
    return _numbers(parts, flag, text, "numeric start:stop:step")


def _as_usage(flag: str, fn, *args):
    """fn(*args), with a ValueError it raises reported as a usage error of the flag."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _parse_grid(text: str, flag: str) -> tuple[float, ...]:
    """Parse '<value>' or '<start>:<stop>:<step>' (stop inclusive on the grid)."""
    if ":" in text:
        return tuple(_as_usage(flag, grid_points, *_parse_range(text, flag)).tolist())
    return _numbers([text], flag, text, "a number")


def _parse_sigma_list(text: str) -> tuple[float, ...]:
    """Parse a comma list or start:stop:step range of noise ratios."""
    if ":" in text:
        return _parse_grid(text, "--sigma2")
    return _numbers(text.split(","), "--sigma2", text, "a comma list of numbers")


def _fmt(value, digits: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    # RFC 4180: a field holding a comma, quote or line break is quoted, and
    # its quotes are doubled; a file: set's name can hold any of them.
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_csv(columns, rows, target, digits: int = 9) -> None:
    """Write rows, dicts keyed by the columns, as CSV; floats get `digits` significant digits."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row[k], digits) for k in columns) for row in rows]
    target.write("\n".join(lines) + "\n")


def emit_json(rows, target, meta: dict) -> None:
    """Write rows with a provenance header as deterministic JSON."""
    target.write(json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n")


def _emit(ns, columns, rows, digits: int = 9, **meta) -> int:
    """Write the rows to --out or stdout in --format, and note it on stderr."""
    meta = {"tool": "ccsecrecy", "version": __version__, "command": ns.command,
            "constellation": ns.constellation, **meta}
    with open(ns.out, "w", newline="") if ns.out else nullcontext(sys.stdout) as target:
        if ns.format == "csv":
            emit_csv(columns, rows, target, digits)
        else:
            emit_json(rows, target, meta)
    print(f"{ns.command}: wrote {len(rows)} rows to {ns.out or 'stdout'}", file=sys.stderr)
    return 0


def _check_out(out) -> None:
    """Raise OSError naming --out unless the path can be opened for writing.

    Run before any work, so that a long run is not thrown away at the end.
    An existing file needs write permission on itself, a new one on its
    directory. An empty --out means stdout, as in _emit.
    """
    if not out:
        return
    path = Path(out)
    if path.is_dir():
        raise OSError(f"--out: {out} is a directory")
    if path.exists():
        if not os.access(path, os.W_OK):
            raise OSError(f"--out: cannot write to {out}")
        return
    directory = path.parent
    if not directory.is_dir():
        raise OSError(f"--out: no such directory: {directory}")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise OSError(f"--out: cannot write to directory {directory}")


def _cmd_rates(ns) -> int:
    """mi and sweep: rate rows from one table of MI per distinct noise variance and SNR."""
    snr_db = _parse_grid(ns.snr_db, "--snr-db")
    snr = _as_usage("--snr-db", db_to_linear, snr_db).tolist()
    sigmas = _parse_sigma_list(ns.sigma2)
    c = parse_constellation_selector(ns.constellation)
    # The channel rejects a ratio below 1 before any rate is computed.
    gauss_sc = gaussian_secrecy_capacity(WiretapChannel(snr, np.array(sigmas)[:, None])).tolist()
    variances = list(dict.fromkeys((1.0, *sigmas)))
    if ns.mc_samples is None:
        rule = gauss_hermite(ns.gh_order)
        table = cc_mutual_information(c, snr, np.array(variances)[:, None], rule).bits.tolist()
        meta = {"method": "gauss_hermite", "gh_order": ns.gh_order, "mc_samples": None,
                "seed": None}
    else:
        cfg = MCConfig(ns.mc_samples, ns.seed)
        table = [[cc_mutual_information_mc(c, s, v, cfg).bits for s in snr] for v in variances]
        meta = {"method": "monte_carlo", "gh_order": None, "mc_samples": ns.mc_samples,
                "seed": ns.seed}
    main = table[0]
    eves = [table[variances.index(sigma_sq)] for sigma_sq in sigmas]
    caps = [gaussian_channel_capacity(s) for s in snr]
    rows = [
        dict(zip(RATE_COLUMNS, (c.name, db, sigma_sq, main[k], eve[k],
                                max(0.0, main[k] - eve[k]), gauss_row[k], caps[k])))
        for k, db in enumerate(snr_db)
        for sigma_sq, eve, gauss_row in zip(sigmas, eves, gauss_sc)
    ]
    return _emit(ns, RATE_COLUMNS, rows, **meta)


def _cmd_peaks(ns) -> int:
    """maximize and max-sweep: the refined peak for each noise ratio."""
    lo, hi, step = _parse_range(ns.scan_db, "--scan-db")
    # argparse has checked --tol-db and --gh-order, so SearchOptions can only
    # reject the scan grid: its order, its size, or a top value that overflows.
    opts = _as_usage("--scan-db", SearchOptions, lo, hi, step, ns.tol_db, ns.gh_order)
    sigmas = _parse_sigma_list(ns.sigma2)
    if ns.command == "maximize" and len(sigmas) != 1:
        raise UsageError("maximize takes a single --sigma2 value; use max-sweep for lists")
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise UsageError(f"--sigma2: max-sweep takes strictly ascending values, got {ns.sigma2!r}")
    c = parse_constellation_selector(ns.constellation)
    rows = [{"constellation": c.name, **asdict(r)} for r in sweep_max_vs_sigma(c, sigmas, opts)]
    return _emit(ns, PEAK_COLUMNS, rows, method="gauss_hermite", gh_order=opts.gh_order,
                 scan_db=[lo, hi, step], tol_db=opts.tol_db)


def _cmd_constellation(ns) -> int:
    c = parse_constellation_selector(ns.constellation)
    rows = [{"index": k, "re": p.real, "im": p.imag} for k, p in enumerate(c.points.tolist())]
    return _emit(ns, POINT_COLUMNS, rows, digits=17, name=c.name, size=c.size,
                 avg_energy=average_energy(c), min_distance=min_distance(c))


def _number_in(kind, low, high, bounds: str):
    """argparse type for a number of the kind (int or float) in [low, high)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        # Written so that NaN is rejected too.
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


_gh_order = _number_in(int, 1, MAX_ORDER + 1, f"in [1, {MAX_ORDER}]")
# A standard error needs at least two samples.
_mc_samples = _number_in(int, 2, math.inf, "at least 2")
_seed = _number_in(int, 0, 2**64, "in [0, 2^64)")
# math.ulp(0.0) is the smallest float above 0.
_tol_db = _number_in(float, math.ulp(0.0), math.inf, "positive and finite")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccsecrecy",
        description="Constellation-constrained secrecy rates for the complex-AWGN "
                    "wiretap channel",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "mi": (_cmd_rates, "sweep with --sigma2 1 by default: mutual-information rows"),
        "sweep": (_cmd_rates, "rate curves over an SNR grid and noise-ratio list"),
        "maximize": (_cmd_peaks, "locate the secrecy-capacity peak"),
        "max-sweep": (_cmd_peaks, "peak location for each noise ratio"),
        "constellation": (_cmd_constellation, "emit constellation points and stats"),
    }
    for name, (func, blurb) in commands.items():
        p = sub.add_parser(name, help=blurb)
        p.set_defaults(func=func)
        p.add_argument("--constellation", required=True,
                       help="bpsk, psk<M>, qam<M>, or file:<path>")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if func is _cmd_constellation:
            continue
        p.add_argument("--sigma2", required=name != "mi", default="1" if name == "mi" else None,
                       help="eavesdropper noise ratio(s): comma list or lo:hi:step "
                            f"of at most {MAX_GRID_POINTS} points")
        p.add_argument("--gh-order", type=_gh_order, default=32,
                       help=f"Gauss-Hermite order in [1, {MAX_ORDER}] (default 32)")
        if func is _cmd_rates:
            p.add_argument("--snr-db", required=True,
                           help="SNR in dB: a value or start:stop:step of at most "
                                f"{MAX_GRID_POINTS} points "
                                "(write --snr-db=-10:40:0.5 when it starts negative)")
            p.add_argument("--mc-samples", type=_mc_samples, default=None,
                           help="switch to Monte-Carlo with this many samples (at least 2)")
            p.add_argument("--seed", type=_seed, default=0,
                           help="Monte-Carlo seed in [0, 2^64) (default 0)")
        else:
            p.add_argument("--scan-db", default="-30:50:0.5",
                           help="coarse scan window lo:hi:step in dB, at most "
                                f"{MAX_GRID_POINTS} points "
                                "(write --scan-db=-30:50:0.5 when it starts negative)")
            p.add_argument("--tol-db", type=_tol_db, default=0.01,
                           help="refinement tolerance in dB, above 0 (default 0.01)")
    return parser


def run_cli(args: list[str]) -> int:
    """Parse arguments, run the selected subcommand, return the exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(args)
    except SystemExit as exit_request:
        return 0 if exit_request.code in (0, None) else 1
    try:
        _check_out(ns.out)
        return ns.func(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """Console entry point: run_cli on sys.argv, then exit with its code.

    The command freezes the garbage collector before it exits; run_cli, the
    in-process entry, leaves gc untouched.
    """
    code = run_cli(sys.argv[1:])
    gc.freeze()  # the interpreter's exit-time collections then skip numpy's ~20k tracked objects
    sys.exit(code)


if __name__ == "__main__":
    main()
