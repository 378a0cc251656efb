"""Regenerate the frozen oracle values used by the test suite.

Run from the repository root:

    python3 tools/gen_fixtures.py

Two independent oracles back the tests:

* a plain Monte-Carlo estimate (numpy default_rng, no shared code with the
  library's sampler) of the BPSK output entropy and mutual information at
  snr = 1, variance = 1, printed with standard errors;
* a dense 0.05 dB grid scan of the secrecy-capacity curve, which brackets
  the peak without any golden-section refinement.

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
    make_bpsk,
    make_qam,
    scan_secrecy_grid,
)

MC_SAMPLES = 10_000_000
MC_SEED = 20250819
DENSE_STEP_DB = 0.05


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
    print(f"[{time.time() - t0:.1f}s]")


if __name__ == "__main__":
    main()
