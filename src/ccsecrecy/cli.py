"""Command-line front end: secrecy sweeps, peak searches, CSV/JSON emission.

All SNR values cross this boundary in dB; the library itself works on the
linear scale. Data goes to the output target only, diagnostics to stderr.
Exit codes: 0 success, 1 usage error, 2 numerical or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .capacity import (
    WiretapChannel,
    cc_mutual_information,
    cc_mutual_information_mc,
    db_to_linear,
    gaussian_channel_capacity,
    gaussian_secrecy_capacity,
)
from .constellation import Constellation, from_points, make_bpsk, make_psk, make_qam
from .integrate import MAX_ORDER, MCConfig, gauss_hermite
from .optimize import SearchOptions, SweepRow, find_secrecy_maximum, sweep_max_vs_sigma

CSV_HEADER = "constellation,snr_db,sigma_sq,mi_main,mi_eve,cc_sc,gc_sc,gaussian_cap"
MAX_CSV_HEADER = "constellation,sigma_sq,snr_max_db,snr_max_linear,c_max,unimodal_ok"
POINTS_CSV_HEADER = "index,re,im"

GRID_EDGE_TOL = 1e-9


class UsageError(ValueError):
    """Malformed command-line input (reported with exit code 1)."""


@dataclass(frozen=True)
class SweepSpec:
    """Resolved sweep request: constellation, grids, method settings."""

    selector: str
    snr_db: tuple[float, ...]
    sigma_sq: tuple[float, ...]
    gh_order: int
    mc_samples: int | None
    seed: int


@dataclass(frozen=True)
class CurveRecord:
    """One output row of a rate sweep."""

    constellation: str
    snr_db: float
    sigma_sq: float
    mi_main: float
    mi_eve: float
    cc_sc: float
    gc_sc: float
    gaussian_cap: float


def parse_constellation_selector(selector: str) -> Constellation:
    """Resolve bpsk | psk<M> | qam<M> | file:<path> to a constellation."""
    if selector == "bpsk":
        return make_bpsk()
    for prefix, factory in (("psk", make_psk), ("qam", make_qam)):
        if selector.startswith(prefix):
            digits = selector[len(prefix):]
            if not digits.isdigit():
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


def _finite(values: tuple[float, ...], flag: str, text: str) -> tuple[float, ...]:
    """Return the values parsed from a flag's text if all of them are finite."""
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{flag}: values must be finite, got {text!r}")
    return values


def _parse_grid(text: str, flag: str) -> tuple[float, ...]:
    """Parse '<value>' or '<start>:<stop>:<step>' (stop inclusive on the grid)."""
    if ":" not in text:
        try:
            value = float(text)
        except ValueError:
            raise UsageError(f"{flag}: expected a number, got {text!r}") from None
        return _finite((value,), flag, text)
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{flag}: expected start:stop:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"{flag}: expected numeric start:stop:step, got {text!r}") from None
    _finite((lo, hi, step), flag, text)
    if step <= 0.0 or hi <= lo:
        raise UsageError(f"{flag}: need start < stop and step > 0, got {text!r}")
    count = int(math.floor((hi - lo) / step + GRID_EDGE_TOL)) + 1
    return tuple(lo + k * step for k in range(count))


def _parse_sigma_list(text: str) -> tuple[float, ...]:
    """Parse a comma list or start:stop:step range of noise ratios."""
    if ":" in text:
        return _parse_grid(text, "--sigma2")
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--sigma2: expected a comma list of numbers, got {text!r}") from None
    return _finite(values, "--sigma2", text)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def emit_csv(records, target) -> None:
    """Write CurveRecords as CSV: fixed header, 9 significant digits, LF lines."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                (
                    r.constellation,
                    _fmt(r.snr_db),
                    _fmt(r.sigma_sq),
                    _fmt(r.mi_main),
                    _fmt(r.mi_eve),
                    _fmt(r.cc_sc),
                    _fmt(r.gc_sc),
                    _fmt(r.gaussian_cap),
                )
            )
        )
    target.write("\n".join(lines) + "\n")


def emit_json(rows, target, meta: dict) -> None:
    """Write rows with a provenance header as deterministic JSON."""
    target.write(json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n")


def _emit_max_csv(constellation: str, rows, target) -> None:
    lines = [MAX_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    constellation,
                    _fmt(r.sigma_sq),
                    _fmt(r.snr_max_db),
                    _fmt(r.snr_max_linear),
                    _fmt(r.c_max),
                    _fmt(r.unimodal_ok),
                )
            )
        )
    target.write("\n".join(lines) + "\n")


def _meta(command: str, spec: SweepSpec, **extra) -> dict:
    mc = spec.mc_samples
    meta = {
        "tool": "ccsecrecy",
        "version": __version__,
        "command": command,
        "constellation": spec.selector,
        "method": "gauss_hermite" if mc is None else "monte_carlo",
        "gh_order": spec.gh_order if mc is None else None,
        "mc_samples": mc,
        "seed": None if mc is None else spec.seed,
    }
    meta.update(extra)
    return meta


def _build_records(c: Constellation, spec: SweepSpec) -> list[CurveRecord]:
    mc = spec.mc_samples
    rule = gauss_hermite(spec.gh_order) if mc is None else None
    cfg = None if mc is None else MCConfig(mc, spec.seed)

    def mi(snr: float, variance: float) -> float:
        if cfg is not None:
            return cc_mutual_information_mc(c, snr, variance, cfg).bits
        return cc_mutual_information(c, snr, variance, rule).bits

    records = []
    for snr_db in spec.snr_db:
        snr = db_to_linear(snr_db)
        mi_main = mi(snr, 1.0)
        for sigma_sq in spec.sigma_sq:
            ch = WiretapChannel(snr, sigma_sq)
            mi_eve = mi_main if sigma_sq == 1.0 else mi(snr, sigma_sq)
            records.append(
                CurveRecord(
                    constellation=c.name,
                    snr_db=snr_db,
                    sigma_sq=sigma_sq,
                    mi_main=mi_main,
                    mi_eve=mi_eve,
                    cc_sc=max(0.0, mi_main - mi_eve),
                    gc_sc=gaussian_secrecy_capacity(ch),
                    gaussian_cap=gaussian_channel_capacity(snr),
                )
            )
    return records


def _out_stream(ns):
    if ns.out:
        return open(ns.out, "w", newline="")
    return nullcontext(sys.stdout)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _spec_from(ns, *, default_sigma: str | None = None) -> SweepSpec:
    sigma_text = getattr(ns, "sigma2", None) or default_sigma
    return SweepSpec(
        selector=ns.constellation,
        snr_db=_parse_grid(ns.snr_db, "--snr-db") if hasattr(ns, "snr_db") else (),
        sigma_sq=_parse_sigma_list(sigma_text) if sigma_text else (),
        gh_order=ns.gh_order,
        mc_samples=ns.mc_samples,
        seed=ns.seed,
    )


def _run_sweep(ns, command: str, default_sigma: str | None = None) -> int:
    spec = _spec_from(ns, default_sigma=default_sigma)
    c = parse_constellation_selector(spec.selector)
    records = _build_records(c, spec)
    with _out_stream(ns) as target:
        if ns.format == "csv":
            emit_csv(records, target)
        else:
            emit_json([asdict(r) for r in records], target, _meta(command, spec))
    method = _meta(command, spec)["method"]
    where = ns.out or "stdout"
    _note(f"{command}: wrote {len(records)} rows to {where} (method={method})")
    return 0


def _search_options(ns) -> SearchOptions:
    lo, hi, step = None, None, None
    parts = ns.scan_db.split(":")
    if len(parts) != 3:
        raise UsageError(f"--scan-db: expected lo:hi:step, got {ns.scan_db!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"--scan-db: expected numeric lo:hi:step, got {ns.scan_db!r}") from None
    _finite((lo, hi, step), "--scan-db", ns.scan_db)
    _finite((ns.tol_db,), "--tol-db", str(ns.tol_db))
    return SearchOptions(
        scan_lo_db=lo,
        scan_hi_db=hi,
        scan_step_db=step,
        tol_db=ns.tol_db,
        gh_order=ns.gh_order,
    )


def _max_meta(command: str, ns, opts: SearchOptions) -> dict:
    return {
        "tool": "ccsecrecy",
        "version": __version__,
        "command": command,
        "constellation": ns.constellation,
        "method": "gauss_hermite",
        "gh_order": opts.gh_order,
        "scan_db": [opts.scan_lo_db, opts.scan_hi_db, opts.scan_step_db],
        "tol_db": opts.tol_db,
    }


def _cmd_maximize(ns) -> int:
    opts = _search_options(ns)
    sigmas = _parse_sigma_list(ns.sigma2)
    if len(sigmas) != 1:
        raise UsageError("maximize takes a single --sigma2 value; use max-sweep for lists")
    c = parse_constellation_selector(ns.constellation)
    result = find_secrecy_maximum(c, sigmas[0], opts)
    row = {"constellation": c.name, "sigma_sq": sigmas[0], **asdict(result)}
    with _out_stream(ns) as target:
        if ns.format == "csv":
            csv_row = SweepRow(
                sigma_sq=sigmas[0],
                snr_max_db=result.snr_max_db,
                snr_max_linear=result.snr_max_linear,
                c_max=result.c_max,
                unimodal_ok=result.unimodal_ok,
            )
            _emit_max_csv(c.name, [csv_row], target)
        else:
            emit_json([row], target, _max_meta("maximize", ns, opts))
    _note(
        f"maximize: peak {result.c_max:.6g} bits at {result.snr_max_db:.4g} dB "
        f"(unimodal_ok={result.unimodal_ok})"
    )
    return 0


def _cmd_max_sweep(ns) -> int:
    opts = _search_options(ns)
    sigmas = _parse_sigma_list(ns.sigma2)
    c = parse_constellation_selector(ns.constellation)
    rows = sweep_max_vs_sigma(c, sigmas, opts)
    with _out_stream(ns) as target:
        if ns.format == "csv":
            _emit_max_csv(c.name, rows, target)
        else:
            payload = [{"constellation": c.name, **asdict(r)} for r in rows]
            emit_json(payload, target, _max_meta("max-sweep", ns, opts))
    where = ns.out or "stdout"
    _note(f"max-sweep: wrote {len(rows)} rows to {where}")
    return 0


def _cmd_constellation(ns) -> int:
    from .constellation import average_energy, min_distance

    c = parse_constellation_selector(ns.constellation)
    with _out_stream(ns) as target:
        if ns.format == "csv":
            lines = [POINTS_CSV_HEADER]
            for k, p in enumerate(c.points):
                lines.append(f"{k},{p.real:.17g},{p.imag:.17g}")
            target.write("\n".join(lines) + "\n")
        else:
            meta = {
                "tool": "ccsecrecy",
                "version": __version__,
                "command": "constellation",
                "constellation": ns.constellation,
                "name": c.name,
                "size": c.size,
                "avg_energy": average_energy(c),
                "min_distance": min_distance(c),
            }
            rows = [
                {"index": k, "re": p.real, "im": p.imag}
                for k, p in enumerate(c.points)
            ]
            emit_json(rows, target, meta)
    _note(f"constellation: {c.name} with {c.size} points")
    return 0


def _int_in(low: int, high: int | None, bounds: str):
    """argparse type for an integer in [low, high), or >= low if high is None."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low or (high is not None and value >= high):
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


_gh_order = _int_in(1, MAX_ORDER + 1, f"in [1, {MAX_ORDER}]")
# A standard error needs at least two samples.
_mc_samples = _int_in(2, None, "at least 2")
_seed = _int_in(0, 2**64, "in [0, 2^64)")


def _add_common(parser: argparse.ArgumentParser, *, sigma_required: bool) -> None:
    parser.add_argument("--constellation", required=True,
                        help="bpsk, psk<M>, qam<M>, or file:<path>")
    parser.add_argument("--sigma2", required=sigma_required,
                        help="eavesdropper noise ratio(s): comma list or lo:hi:step")
    parser.add_argument("--gh-order", type=_gh_order, default=32,
                        help=f"Gauss-Hermite order in [1, {MAX_ORDER}] (default 32)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccsecrecy",
        description="Constellation-constrained secrecy rates for the complex-AWGN "
                    "wiretap channel",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, default_sigma, blurb in (
        ("mi", "1", "mutual-information rows over an SNR grid"),
        ("secrecy", None, "secrecy-capacity rows at given noise ratios"),
        ("sweep", None, "rate curves over an SNR grid and noise-ratio list"),
        ("surface", None, "rate surface over SNR and noise-ratio grids"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--snr-db", required=True,
                       help="SNR in dB: a value or start:stop:step "
                            "(write --snr-db=-10:40:0.5 when it starts negative)")
        _add_common(p, sigma_required=default_sigma is None)
        p.add_argument("--mc-samples", type=_mc_samples, default=None,
                       help="switch to Monte-Carlo with this many samples (at least 2)")
        p.add_argument("--seed", type=_seed, default=0,
                       help="Monte-Carlo seed in [0, 2^64) (default 0)")
        p.set_defaults(func=lambda ns, cmd=name, ds=default_sigma:
                       _run_sweep(ns, cmd, default_sigma=ds))

    for name, handler, blurb in (
        ("maximize", _cmd_maximize, "locate the secrecy-capacity peak"),
        ("max-sweep", _cmd_max_sweep, "peak location for each noise ratio"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_common(p, sigma_required=True)
        p.add_argument("--scan-db", default="-30:50:0.5",
                       help="coarse scan window lo:hi:step in dB "
                            "(write --scan-db=-30:50:0.5 when it starts negative)")
        p.add_argument("--tol-db", type=float, default=0.01,
                       help="refinement tolerance in dB (default 0.01)")
        p.set_defaults(func=handler)

    p = sub.add_parser("constellation", help="emit constellation points and stats")
    p.add_argument("--constellation", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_constellation)

    return parser


def run_cli(args: list[str]) -> int:
    """Parse arguments, run the selected subcommand, return the exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(args)
    except SystemExit as exit_request:
        return 0 if exit_request.code in (0, None) else 1
    try:
        return ns.func(ns)
    except UsageError as exc:
        _note(f"usage error: {exc}")
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        _note(f"error: {exc}")
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
