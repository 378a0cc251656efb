"""Regenerate the frozen oracle values used by the test suite.

Run from the repository root:

    python3 tools/gen_fixtures.py

Independent oracles back the tests:

* a plain Monte-Carlo estimate (numpy default_rng, no shared code with the
  library's sampler) of the BPSK output entropy and mutual information at
  snr = 1, variance = 1, printed with standard errors;
* a dense 0.05 dB grid scan of the secrecy-capacity curve, which brackets
  the peak without any golden-section refinement;
* the same dense scan of a two-scale set, hq16(0.2), whose curve has two
  local maxima, at orders 128 and 200, which must agree.

The printed values are pasted into tests as frozen constants, so reruns of
the suite never depend on this script.
"""

import math
import sys
import time

import numpy as np

sys.path.insert(0, "src")

from ccsecrecy import (  # noqa: E402
    SearchOptions,
    from_points,
    make_bpsk,
    make_qam,
    scan_secrecy_grid,
)

MC_SAMPLES = 10_000_000
MC_SEED = 20250819
DENSE_STEP_DB = 0.05
# Orders 128 and 200 must give the two-scale maxima to within this (bits).
ORDER_AGREEMENT = 1e-7


def mc_bpsk_entropy_and_mi():
    """10M-sample Monte-Carlo estimate of h(y) and I(x;y) for BPSK, snr=1, v=1."""
    rng = np.random.default_rng(MC_SEED)
    points = np.array([1.0 + 0.0j, -1.0 + 0.0j])
    m = points.size
    chunks = []
    for _ in range(10):
        n = (rng.standard_normal(MC_SAMPLES // 10)
             + 1j * rng.standard_normal(MC_SAMPLES // 10)) / math.sqrt(2.0)
        g = np.zeros(n.size)
        for i in range(m):
            gaps = np.abs(n[:, None] + (points[i] - points)[None, :]) ** 2
            peak = gaps.min(axis=1)
            g += (-peak + np.log(np.exp(-(gaps - peak[:, None])).sum(axis=1))) / math.log(2.0)
        chunks.append(g / m)
    g = np.concatenate(chunks)
    mean = float(g.mean())
    stderr = float(g.std(ddof=1) / math.sqrt(g.size))
    h = math.log2(m * math.pi) - mean
    mi = math.log2(m / math.e) - mean
    return h, mi, stderr


def dense_grid_peak(c, sigma_sq):
    """Peak of the secrecy curve on a 0.05 dB grid over [-30, 50] dB."""
    grid, values = scan_secrecy_grid(c, sigma_sq, SearchOptions(scan_step_db=DENSE_STEP_DB))
    k = int(np.argmax(values))
    return float(grid[k]), float(values[k])


def dense_grid_maxima(c, sigma_sq, order):
    """Every interior local maximum (dB, bits) of the secrecy curve on the dense grid."""
    opts = SearchOptions(scan_step_db=DENSE_STEP_DB, gh_order=order)
    grid, values = scan_secrecy_grid(c, sigma_sq, opts)
    inner = values[1:-1]
    ks = 1 + np.flatnonzero((inner > values[:-2]) & (inner > values[2:]))
    return [(float(grid[k]), float(values[k])) for k in ks]


def two_scale_maxima(sigma_sq):
    """Secrecy maxima of hq16(0.2) on the dense grid at order 200, checked at order 128.

    hq16(r) = {q + r q'} for q, q' in QPSK, at unit energy (r = 0.5 is qam16).
    """
    qpsk = make_qam(4).points.tolist()
    c = from_points([q + 0.2 * p for q in qpsk for p in qpsk], name="hq16")
    maxima = dense_grid_maxima(c, sigma_sq, 200)
    check = dense_grid_maxima(c, sigma_sq, 128)
    if [db for db, _ in check] != [db for db, _ in maxima] or any(
        abs(a - b) > ORDER_AGREEMENT for (_, a), (_, b) in zip(check, maxima)
    ):
        raise RuntimeError(f"orders 128 and 200 disagree at sigma_sq={sigma_sq}: "
                           f"{check} vs {maxima}")
    return maxima


def main():
    t0 = time.time()
    h, mi, stderr = mc_bpsk_entropy_and_mi()
    print(f"BPSK snr=1 v=1, {MC_SAMPLES} samples, seed {MC_SEED}:")
    print(f"  h(y)  = {h!r}  stderr = {stderr:.3e}")
    print(f"  I(x;y) = {mi!r}  stderr = {stderr:.3e}")

    for label, c, sigma_sq in (
        ("bpsk", make_bpsk(), 5.0),
        ("qam4", make_qam(4), 5.0),
        ("bpsk", make_bpsk(), 1000.0),
    ):
        db, bits = dense_grid_peak(c, sigma_sq)
        print(f"{label} sigma_sq={sigma_sq}: peak {bits!r} bits at {db!r} dB "
              f"(0.05 dB grid)")
    for sigma_sq in (2.0, 5.0):
        print(f"hq16(0.2) sigma_sq={sigma_sq}: maxima (dB, bits) "
              f"{two_scale_maxima(sigma_sq)!r} (0.05 dB grid, order 200)")
    print(f"[{time.time() - t0:.1f}s]")


if __name__ == "__main__":
    main()
