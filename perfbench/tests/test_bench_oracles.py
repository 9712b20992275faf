"""The oracle gate counts failures, and the seeded inputs repeat by seed.

Run with: python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import oracles  # noqa: E402


def _thm32_files(counts):
    report = {"verdict": oracles.CERTIFIED, "ladder": [
        {"label": f"N={n}", "size": n, "kernel_dim": c, "corank": 0}
        for n, c in zip((256, 512, 1024), counts)]}
    summary = {"report": report, "gram_min_eigenvalue_top_rung": 0.99}
    rows = "n,windowed_residual,window_mass\n" + "0,0.0,1.0\n" * 129
    return {"summary.json": json.dumps(summary).encode(),
            "witnesses.csv": rows.encode()}


def test_gate_passes_on_the_pinned_counts():
    gate = oracles.Gate()
    oracles.check_thm32(gate, _thm32_files((15, 31, 63)))
    assert gate.attempted > 0
    assert gate.failed_frac == 0.0


def test_gate_flips_failed_frac_on_a_wrong_expected_count():
    gate = oracles.Gate()
    oracles.check_thm32(gate, _thm32_files((15, 31, 63)), counts=(15, 31, 64))
    assert gate.failed == 1
    assert gate.failed_frac == 1 / gate.attempted
    assert "N=1024" in gate.failures[0]


def test_gate_flips_on_a_wrong_hs_block_dimension():
    ladder = ((4, 4), (6, 6), (8, 8))
    report = {"verdict": oracles.CERTIFIED, "ladder": [
        {"label": f"K={k},d={d}", "kernel_dim": k * d * d, "intersection_dim": d * d,
         "sum_dim": (2 * k - 1) * d * d, "product_kernel_dim": (2 * k - 1) * d * d,
         "corank": 0} for k, d in ladder]}
    files = {"summary.json": json.dumps({"report": report}).encode()}
    good, bad = oracles.Gate(), oracles.Gate()
    oracles.check_hs_block(good, files, ladder)
    oracles.check_hs_block(bad, files, ((4, 4), (6, 6), (8, 7)))
    assert good.failed_frac == 0.0
    assert bad.failed_frac > 0.0


def test_csv_float_reads_numpy_reprs():
    assert oracles.csv_float("np.float64(0.25)") == 0.25
    assert oracles.csv_float("-1.5") == -1.5


def test_seeded_inputs_repeat_by_seed():
    import workloads

    a, b = workloads.seeded_grid(3), workloads.seeded_grid(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, workloads.seeded_grid(4))
    assert a.size == workloads.GRID_POINTS and a[0] == 1.0
    assert np.all(np.abs(a[1:] - 1.0) >= workloads.GRID_EXCLUSION)
    assert workloads.light_params(5) == workloads.light_params(5)
    assert workloads.light_params(0)["annulus"] == {"r": 0.5}
