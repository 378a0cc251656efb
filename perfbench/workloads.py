"""Benchmark workloads: the CLI commands each one runs and the checks on their output.

A workload is a list of CLI invocations made from the benchmark seed. One
workload run executes them in order, each in its own child process, and
passes every output to the workload's check, which raises CheckFailed on a
wrong answer.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SWEEP_HEADER = "constellation,snr_db,sigma_sq,mi_main,mi_eve,cc_sc,gc_sc,gaussian_cap"
MAX_HEADER = "constellation,sigma_sq,snr_max_db,snr_max_linear,c_max,unimodal_ok"
SWEEP_SNR_DB = tuple(-10.0 + 0.5 * k for k in range(101))
SIGMAS = (5.0, 10.0, 15.0, 20.0)
MAX_SWEEP_CONSTELLATIONS = ("bpsk", "qam4", "psk8", "qam16")

# Absolute tolerance (bits) for values compared against frozen or
# independently computed ones. It admits the 9-significant-digit CSV rounding
# and a reordered floating-point sum (about 1e-13), and nothing a change of
# quadrature order or estimator would produce.
VALUE_TOL = 1e-7

# Rows of the qam16 sweep frozen from the seed commit's CSV:
# (snr_db, sigma_sq) -> (mi_main, mi_eve, cc_sc).
QAM16_SPOT_ROWS = {
    (-10.0, 5.0): (0.137495789, 0.0285691357, 0.108926653),
    (0.0, 10.0): (0.989741372, 0.137495789, 0.852245583),
    (10.0, 5.0): (3.16394478, 1.54312606, 1.62081871),
    (20.0, 20.0): (3.99995196, 2.43882628, 1.56112568),
    (40.0, 15.0): (4.0, 4.0, 0.0),
}

# The acceptance suite's 0.05 dB dense-grid peaks at sigma_sq = 5,
# (snr_max_db, c_max), and its tolerances on a refined peak.
DENSE_PEAK = {
    "bpsk": (1.85, 0.5098278375296807),
    "qam4": (4.85, 1.0196487417166562),
}
DENSE_PEAK_DB_TOL = 0.05
DENSE_PEAK_BITS_TOL = 1e-4

# Order-32 Gauss-Hermite MI of qam16 at 10 dB, and the standard error of the
# 1e6-sample Monte-Carlo estimate there (4.690e-4 to 4.694e-4 over seeds
# 0, 1, 2 at the seed commit). The acceptance suite accepts an MC value within
# four standard errors of the quadrature value.
QAM16_10DB_GH_BITS = 3.163944776427913
QAM16_10DB_MC_STDERR = 4.694e-4
MC_SAMPLES = 1_000_000

ASYM_SIZE = 16
ASYM_MIN_DISTANCE = 0.2
ASYM_SPOT_SNR_DB = (-10.0, 5.0, 17.5, 40.0)
GH_ORDER = 32


class CheckFailed(Exception):
    """A workload's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# Why each workload is in the benchmark, in the order BENCHMARK.json lists them.
WHY = {
    "sweep_qam16":
        "505 distinct GH MI calls, no search or MC: the capacity kernel does ~98% of the work",
    "max_sweep_ref":
        "peak search on 4 reference constellations: optimize dominates, 35% of MI calls repeat",
    "mc_qam16":
        "1e6-sample Monte-Carlo MI: only the MC path and Philox stream run; memory high-water",
    "sweep_asym16_json":
        "GH sweep of 16 seeded points with no symmetry, JSON output: symmetry reduction "
        "cannot apply",
}
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Workload:
    """CLI argument lists for one workload run, and the check on their outputs.

    ``check`` receives the outputs of one run, in command order, as bytes.
    """

    name: str
    commands: list[list[str]]
    check: Callable[[list[bytes]], None]


def _parse_csv(data: bytes, header: str) -> list[dict[str, str]]:
    text = data.decode()
    _require(text.endswith("\n"), "output does not end with a newline")
    _require(text.split("\n", 1)[0] == header, f"bad header: {text.split(chr(10), 1)[0]!r}")
    return list(csv.DictReader(io.StringIO(text)))


def _gaussian_secrecy(snr: float, sigma_sq: float) -> float:
    return math.log2((1.0 + snr) / (1.0 + snr / sigma_sq))


def check_sweep_rows(rows: list[dict], name: str, sigmas: tuple[float, ...]) -> None:
    """Grid, row count and rate invariants of one sweep output (CSV or JSON rows)."""
    _require(len(rows) == len(SWEEP_SNR_DB) * len(sigmas),
             f"expected {len(SWEEP_SNR_DB) * len(sigmas)} rows, got {len(rows)}")
    for k, row in enumerate(rows):
        snr_db = SWEEP_SNR_DB[k // len(sigmas)]
        sigma_sq = sigmas[k % len(sigmas)]
        where = f"row {k + 1} ({snr_db} dB, sigma_sq {sigma_sq})"
        _require(row["constellation"] == name, f"{where}: constellation {row['constellation']!r}")
        _require(abs(float(row["snr_db"]) - snr_db) <= 1e-9, f"{where}: snr_db {row['snr_db']}")
        _require(float(row["sigma_sq"]) == sigma_sq, f"{where}: sigma_sq {row['sigma_sq']}")
        mi_main, mi_eve = float(row["mi_main"]), float(row["mi_eve"])
        cc_sc, gc_sc = float(row["cc_sc"]), float(row["gc_sc"])
        _require(0.0 <= cc_sc <= gc_sc + 1e-6, f"{where}: cc_sc {cc_sc} outside [0, gc_sc {gc_sc}]")
        _require(abs(cc_sc - max(0.0, mi_main - mi_eve)) <= VALUE_TOL,
                 f"{where}: cc_sc {cc_sc} != max(0, mi_main - mi_eve)")
        snr = 10.0 ** (snr_db / 10.0)
        want = _gaussian_secrecy(snr, sigma_sq)
        _require(abs(gc_sc - want) <= 1e-8 * max(1.0, want), f"{where}: gc_sc {gc_sc} != {want}")


def check_sweep_qam16(outputs: list[bytes]) -> None:
    rows = _parse_csv(outputs[0], SWEEP_HEADER)
    check_sweep_rows(rows, "qam16", SIGMAS)
    by_key = {(float(r["snr_db"]), float(r["sigma_sq"])): r for r in rows}
    for key, frozen in QAM16_SPOT_ROWS.items():
        row = by_key[key]
        got = (float(row["mi_main"]), float(row["mi_eve"]), float(row["cc_sc"]))
        _require(all(abs(g - f) <= VALUE_TOL for g, f in zip(got, frozen)),
                 f"row at {key}: {got} differs from the frozen {frozen}")


def check_max_sweep(outputs: list[bytes]) -> None:
    for name, data in zip(MAX_SWEEP_CONSTELLATIONS, outputs):
        rows = _parse_csv(data, MAX_HEADER)
        _require(len(rows) == len(SIGMAS), f"{name}: expected {len(SIGMAS)} rows, got {len(rows)}")
        c_max = [float(r["c_max"]) for r in rows]
        snr_db = [float(r["snr_max_db"]) for r in rows]
        for row, sigma_sq in zip(rows, SIGMAS):
            _require(row["constellation"] == name and float(row["sigma_sq"]) == sigma_sq,
                     f"{name}: unexpected row {row}")
            _require(row["unimodal_ok"] == "true", f"{name} at sigma_sq {sigma_sq}: not unimodal")
            linear = float(row["snr_max_linear"])
            want = 10.0 ** (float(row["snr_max_db"]) / 10.0)
            _require(abs(linear - want) <= 1e-8 * want, f"{name}: snr_max_linear {linear} != {want}")
        _require(all(b > a for a, b in zip(c_max, c_max[1:])),
                 f"{name}: c_max {c_max} does not rise strictly in sigma_sq")
        _require(all(b >= a - 0.1 for a, b in zip(snr_db, snr_db[1:])),
                 f"{name}: snr_max_db {snr_db} falls with sigma_sq")
        if name in DENSE_PEAK:
            oracle_db, oracle_bits = DENSE_PEAK[name]
            _require(abs(snr_db[0] - oracle_db) <= DENSE_PEAK_DB_TOL,
                     f"{name}: peak at {snr_db[0]} dB, dense grid says {oracle_db}")
            _require(abs(c_max[0] - oracle_bits) <= DENSE_PEAK_BITS_TOL,
                     f"{name}: peak {c_max[0]} bits, dense grid says {oracle_bits}")


def check_mc_qam16(outputs: list[bytes]) -> None:
    rows = _parse_csv(outputs[0], SWEEP_HEADER)
    _require(len(rows) == 1, f"expected 1 row, got {len(rows)}")
    row = rows[0]
    _require(row["constellation"] == "qam16" and float(row["snr_db"]) == 10.0
             and float(row["sigma_sq"]) == 1.0, f"unexpected row {row}")
    bits = float(row["mi_main"])
    gap = abs(bits - QAM16_10DB_GH_BITS)
    _require(gap <= 4.0 * QAM16_10DB_MC_STDERR,
             f"MC MI {bits} is {gap / QAM16_10DB_MC_STDERR:.1f} standard errors "
             f"from the quadrature value {QAM16_10DB_GH_BITS}")


def asym_points(seed: int) -> np.ndarray:
    """16 points drawn from the seed, unit average energy, with no symmetry
    of the square (rotation by a multiple of 90 degrees or a reflection)."""
    rng = np.random.default_rng([seed, ASYM_SIZE])
    while True:
        raw = rng.uniform(-1.0, 1.0, ASYM_SIZE) + 1j * rng.uniform(-1.0, 1.0, ASYM_SIZE)
        points = raw / math.sqrt(float(np.mean(np.abs(raw) ** 2)))
        gaps = np.abs(points[:, None] - points[None, :]) + np.eye(ASYM_SIZE) * 9.0
        images = [points * 1j ** k for k in range(1, 4)]
        images += [np.conj(points) * 1j ** k for k in range(4)]
        symmetric = any(
            np.abs(image[:, None] - points[None, :]).min(axis=1).max() < 1e-6
            for image in images
        )
        if gaps.min() >= ASYM_MIN_DISTANCE and not symmetric:
            return points


def reference_mi(points: np.ndarray, snr: float, variance: float) -> float:
    """Order-32 tensor Gauss-Hermite MI, written independently of the library.

    I = log2 M - (1/M) sum_i E_n[log2 sum_j exp(-(|n + d_ij|^2 - |n|^2) / v)]
    with d_ij = sqrt(snr) (x_i - x_j), clamped to [0, log2 M] as the CLI does.
    """
    t, w = np.polynomial.hermite.hermgauss(GH_ORDER)
    n = (math.sqrt(variance) * (t[:, None] + 1j * t[None, :])).ravel()
    weights = (w[:, None] * w[None, :]).ravel() / math.pi
    d = math.sqrt(snr) * (points[:, None] - points[None, :])
    exponent = -(np.abs(n[None, :, None] + d[:, None, :]) ** 2 - np.abs(n)[None, :, None] ** 2)
    inner = np.logaddexp.reduce(exponent / variance, axis=2) / math.log(2.0)
    m = points.size
    raw = math.log2(m) - float((inner @ weights).sum()) / m
    return min(max(raw, 0.0), math.log2(m))


def make_check_asym(points: np.ndarray, name: str, sigmas: tuple[float, ...]):
    def check(outputs: list[bytes]) -> None:
        try:
            payload = json.loads(outputs[0])
        except ValueError as exc:
            raise CheckFailed(f"output is not JSON: {exc}") from None
        _require(isinstance(payload, dict) and set(payload) == {"meta", "rows"},
                 "JSON output needs exactly the keys meta and rows")
        meta = payload["meta"]
        _require(meta.get("command") == "sweep" and meta.get("method") == "gauss_hermite"
                 and meta.get("gh_order") == GH_ORDER, f"unexpected meta {meta}")
        rows = payload["rows"]
        check_sweep_rows(rows, name, sigmas)
        for row in rows:
            if row["snr_db"] in ASYM_SPOT_SNR_DB:
                snr = 10.0 ** (row["snr_db"] / 10.0)
                for column, variance in (("mi_main", 1.0), ("mi_eve", row["sigma_sq"])):
                    want = reference_mi(points, snr, variance)
                    _require(abs(row[column] - want) <= VALUE_TOL,
                             f"{column} at {row['snr_db']} dB, sigma_sq {row['sigma_sq']}: "
                             f"{row[column]} != reference {want}")
    return check


def build(name: str, seed: int, work_dir: Path) -> Workload:
    """The named workload for this seed; inputs it needs are written to work_dir.

    Only mc_qam16 passes the seed to the CLI. The GH workloads keep it out of
    the child's arguments, because their speed depends on the child's heap
    layout, which the byte length of its arguments shifts.
    """
    sigma_list = ",".join(f"{s:g}" for s in SIGMAS)
    if name == "sweep_qam16":
        return Workload(
            name,
            [["sweep", "--constellation", "qam16", "--snr-db=-10:40:0.5",
              "--sigma2", sigma_list]],
            check_sweep_qam16,
        )
    if name == "max_sweep_ref":
        return Workload(
            name,
            [["max-sweep", "--constellation", c, "--sigma2", sigma_list]
             for c in MAX_SWEEP_CONSTELLATIONS],
            check_max_sweep,
        )
    if name == "mc_qam16":
        return Workload(
            name,
            [["mi", "--constellation", "qam16", "--snr-db", "10",
              "--mc-samples", str(MC_SAMPLES), "--seed", str(seed)]],
            check_mc_qam16,
        )
    if name == "sweep_asym16_json":
        points = asym_points(seed)
        path = work_dir / "asym16.json"
        path.write_text(json.dumps([[p.real, p.imag] for p in points]))
        sigmas = (5.0, 20.0)
        return Workload(
            name,
            [["sweep", f"--constellation=file:{path}", "--snr-db=-10:40:0.5",
              "--sigma2", ",".join(f"{s:g}" for s in sigmas), "--format", "json"]],
            make_check_asym(points, path.stem, sigmas),
        )
    raise KeyError(name)

