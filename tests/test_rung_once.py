"""Each ladder rung is built once, and the benchmark's traced run still works.

The benchmark's tracer (perfbench/tracer.py) is installed read-only in a
fresh interpreter, so its wrappers never reach the rest of the suite. It
reads adjoint_multiplicity_witnesses' trunc at position 2 and the family's
indices and count(), and the benchmark's seeded-grid part calls
spectral_falsifier with a builder of bare squares, so an API change that
breaks the traced benchmark run fails here too.
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
        ("thm44-block-pair", {"ladder": "2x2,3x3,4x4"}),
        ("cor34-heller", {}),
        ("ex46-common-zeros", {}),
        ("ex26-perturbation", {}),
        ("multiplicativity-failure", {})]
metrics = {}
with tempfile.TemporaryDirectory() as out:
    for run_id, (name, params) in enumerate(runs):
        t.run_id, t.active = run_id, True
        cli.run_scenario(name, params, Path(out))
        t.active = False
        metrics[name] = tr.run_metrics(t, [run_id])
# the benchmark's seeded-grid call shape
t.run_id, t.active = len(runs), True
report = certify.spectral_falsifier(
    certify.family_composition(0.5, beta=1.0, variant="derivative"),
    [1.0, 0.5j], (8, 16, 24)).to_json()
t.active = False
metrics["spectral_falsifier"] = tr.run_metrics(t, [len(runs)])
metrics["spectral_falsifier"]["report"] = json.loads(report)
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
    # the witness count is the kernel evidence, and the Gram certificate of
    # each rung's rows without the window's band proves corank 0, so no rung
    # falls back to an SVD, and the witness residuals take none
    assert m["linalg.svd.calls"] == 0


def test_ex31_scans_its_grid_once(traced):
    m = traced["ex31-falsify-dirichlet"]
    # the section is real, so the grid's 60 points fold into 35 cells per
    # rung, each decided once; the Gram certificate proves every cell but
    # lambda = 1, whose kernel is the constants, so 3 rungs x 1 SVD; the
    # table is read from the same scan
    assert m["linalg.svd.calls"] == 3
    assert m["linalg.svd.repeat_frac"] == 0


def test_ex25_takes_one_svd_per_framed_square(traced):
    m = traced["ex25-notC"]
    # one ladder walk read by both checks: 3 rungs x (framed square + its
    # rows without the lost band)
    assert m["linalg.svd.calls"] == 6
    assert m["linalg.svd.repeat_frac"] == 0


def test_ex43_reads_every_count_from_values_only_spectra(traced):
    m = traced["ex43-diagonal"]
    # 3 rungs x (U, V, U stacked on V, UV)
    assert m["linalg.svd.calls"] == 12
    assert m["linalg.svd.repeat_frac"] == 0


def test_thm44_block_pair_stacks_its_kernel_bases_once(traced):
    m = traced["thm44-block-pair"]
    # 3 rungs x (B without its last d rows, shared by both coranks since B* = B^T
    # + one factor SVD, shared by both sides since (B*)^T = B and read by
    # both kernel bases and the product kernel + one stacked basis)
    assert m["linalg.svd.calls"] == 9
    assert m["linalg.svd.repeat_frac"] == 0
    # the HS operators keep their factors: no n^2 x n^2 matrix is formed
    assert m["linalg.kron.calls"] == 0
    assert m["opbuild.hs.bytes"] == 0


def test_cor34_builds_its_principal_part_from_one_composition_matrix(traced):
    m = traced["cor34-heller"]
    # C(-r) for the reference adjoint, and one C(r) read by both signs of
    # the principal part
    assert m["opbuild.composition_matrix.calls"] == 2
    assert m["opbuild.composition_matrix.distinct_ratio"] == 1.0
    # one decay profile per sign
    assert m["linalg.svd.calls"] == 2


def test_ex46_evaluates_the_covering_map_83_times(traced):
    m = traced["ex46-common-zeros"]
    # one residual per zero, 41 for r and 21 for s, and one cross residual
    # per matched pair (21): the count the benchmark's registry-light reads
    assert m["analytic.covering_value.calls"] == 83


def test_ex26_reads_its_sigmas_and_2_norms_from_traced_spectra(traced):
    m = traced["ex26-perturbation"]
    # n_max = 10 perturbations x (the perturbed operator's sigma_min + the
    # 2-norm of its distance to the base): every 2-norm is a numlin.Spectrum
    # the tracer sees, not an SVD hidden inside np.linalg.norm
    assert m["linalg.svd.calls"] == 20


def test_multiplicativity_failure_reads_its_2_norms_from_traced_spectra(traced):
    m = traced["multiplicativity-failure"]
    # the 2-norms of U, V and UV
    assert m["linalg.svd.calls"] == 3


def test_spectral_falsifier_takes_a_builder_of_bare_squares(traced):
    m = traced["spectral_falsifier"]
    # 3 rungs x one composition matrix, each scanned at 2 grid points; the
    # Gram certificate proves 0.5j, so only lambda = 1 takes an SVD
    assert m["opbuild.composition_matrix.calls"] == 3
    assert m["linalg.svd.calls"] == 3
    assert m["report"]["verdict"] == "falsified"
    assert [r["kernel_dim"] for r in m["report"]["ladder"]] == [1, 1, 1]
