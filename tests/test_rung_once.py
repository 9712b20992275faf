"""Each ladder rung is built once, and the benchmark's traced run still works.

The benchmark's tracer (perfbench/tracer.py) is installed read-only in a
fresh interpreter, so its wrappers never reach the rest of the suite. It
reads adjoint_multiplicity_witnesses' trunc at position 2 and the family's
indices and count(), so an API change that breaks the traced benchmark run
fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUNS = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer as tr
from univcert import analytic, certify, cli, numlin, opbuild, spaces

t = tr.Tracer()
tr.install_univcert(t, (spaces, numlin, opbuild, analytic, certify, cli))
runs = [("thm32-adjoint-certify", {"ladder": "64,128,256", "index_max": 8}),
        ("ex31-falsify-dirichlet", {}),
        ("ex25-notC", {}),
        ("ex43-diagonal", {}),
        ("thm44-block-pair", {"ladder": "2x2,3x3,4x4"})]
metrics = {}
with tempfile.TemporaryDirectory() as out:
    for run_id, (name, params) in enumerate(runs):
        t.run_id, t.active = run_id, True
        cli.run_scenario(name, params, Path(out))
        t.active = False
        metrics[name] = tr.run_metrics(t, [run_id])
print(json.dumps(metrics))
"""


@pytest.fixture(scope="module")
def traced():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUNS, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.splitlines()[-1])


def test_thm32_builds_one_composition_matrix_and_one_family_per_rung(traced):
    m = traced["thm32-adjoint-certify"]
    assert m["opbuild.composition_matrix.calls"] == 3
    assert m["opbuild.composition_matrix.distinct_ratio"] == 1.0
    assert m["certify.witness_family.calls"] == 3


def test_ex31_scans_its_grid_once(traced):
    m = traced["ex31-falsify-dirichlet"]
    # 3 rungs x 35 spectra: the section is real, so each of the grid's 25
    # conjugate pairs takes one SVD; the table is read from the same scan
    assert m["linalg.svd.calls"] == 105
    assert m["linalg.svd.repeat_frac"] == 0


def test_ex25_takes_one_svd_per_framed_square(traced):
    m = traced["ex25-notC"]
    # one ladder walk read by both checks: 3 rungs x (square + interior)
    assert m["linalg.svd.calls"] == 6
    assert m["linalg.svd.repeat_frac"] == 0


def test_ex43_reads_coranks_from_its_kernel_bases(traced):
    m = traced["ex43-diagonal"]
    # 3 rungs x (two kernel bases + product kernel + one stacked basis)
    assert m["linalg.svd.calls"] == 12


def test_thm44_block_pair_stacks_its_kernel_bases_once(traced):
    m = traced["thm44-block-pair"]
    # 3 rungs x (one interior section, shared by both coranks since B* = B^T
    # + one factor SVD per side, read by both kernel bases and the product
    # kernel + one stacked basis)
    assert m["linalg.svd.calls"] == 12
    # the HS operators keep their factors: no n^2 x n^2 matrix is formed
    assert m["linalg.kron.calls"] == 0
    assert m["opbuild.hs.bytes"] == 0
