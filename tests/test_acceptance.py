"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with -s (or read captured output) to see the verdict lines; every
expected number below was produced by an independent oracle or closed form,
never by the code path under test.
"""

import json
import math

import numpy as np

from univcert import analytic, certify, cli, numlin, opbuild
from univcert.spaces import SpaceSpec

import hs_dense


def _verdict(num: int, name: str, ok: bool) -> bool:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_annulus_radii():
    inner, outer = analytic.annulus(0.5)
    ok = abs(inner - 0.577350) < 1e-6 and abs(outer - 1.732051) < 1e-6
    rng = np.random.default_rng(0)
    for r in rng.uniform(0.01, 0.99, size=50):
        a, b = analytic.annulus(float(r))
        ok = ok and abs(a * b - 1.0) < 1e-12
    assert _verdict(1, "spectral annulus radii", ok)


def test_criterion_02_eigenfunction_residuals():
    n_coeffs, window = 2048, 256
    lam = 3.0 ** 0.25
    space = SpaceSpec(beta=0.0, trunc=n_coeffs)
    c = opbuild.composition_matrix(0.5, space).entries
    ok = True
    worst = 0.0
    for n in (0, 1, -1, 2, -2):
        spec = analytic.EigenfunctionSpec(u=0.25, n=n, r=0.5)
        f = analytic.eigenfunction_coeffs_recurrence(spec.exponent, n_coeffs)
        res = (c @ f - lam * f)[:window]
        rel = np.linalg.norm(res) / np.linalg.norm(f[:window])
        worst = max(worst, rel)
        ok = ok and rel < 1e-6
    assert _verdict(2, f"eigenfunction residuals (worst {worst:.2e})", ok)


def test_criterion_03_multiplication_pair_dimensions():
    scalar = certify.check_M(certify.hs_pair_scalar, (8, 16, 32))
    ok = scalar.verdict == certify.FALSIFIED
    for r, n in zip(scalar.ladder, (8, 16, 32)):
        ok = ok and (r.kernel_dim, r.intersection_dim, r.sum_dim,
                     r.product_kernel_dim) == (n, 1, 2 * n - 1, 2 * n - 1)
    block = certify.check_M(certify.hs_pair_block, ((4, 4), (6, 6), (8, 8)))
    ok = ok and block.verdict == certify.CERTIFIED
    for r, (k, d) in zip(block.ladder, ((4, 4), (6, 6), (8, 8))):
        ok = ok and (r.kernel_dim, r.intersection_dim, r.sum_dim,
                     r.product_kernel_dim, r.corank) == (
            k * d * d, d * d, (2 * k - 1) * d * d, (2 * k - 1) * d * d, 0)
    # exact subspace identity Ker(L R) = Ker L + Ker R at the middle rung
    # (the product kernel basis comes from the Kronecker oracle in tests/)
    left, right, _, _ = certify.hs_pair_block((6, 6))
    b1, b2, prod_dim = opbuild.hs_pair_kernels(left, right)
    prod = hs_dense.product_kernel(left, right)
    stacked = np.hstack([b1.columns, b2.columns, prod.columns])
    ok = ok and prod.dim == prod_dim == numlin.subspace_dims(b1, b2)[0]
    ok = ok and numlin.Spectrum.of(stacked).rank() == prod.dim
    assert _verdict(3, "multiplication-pair kernel bookkeeping", ok)


def test_criterion_04_injective_perturbations():
    trunc = 128
    base = opbuild.block2x2(opbuild.backward_shift(trunc), np.eye(trunc),
                            np.zeros((trunc, trunc)), np.zeros((trunc, trunc)))
    ok = True
    for n in range(1, 11):
        vn = certify.family_ex26(n)(trunc)
        ok = ok and numlin.Spectrum.of(vn).sigma_min > 1.0 / (2 * n)
        dist = np.linalg.norm(vn.entries - base.entries, 2)
        ok = ok and abs(dist - 1.0 / n) < 1e-12
    assert _verdict(4, "injective perturbations at distance 1/n", ok)


def test_criterion_05_forward_operator_falsified():
    grid = certify.annulus_grid(0.5, 5, 12)
    fam = certify.family_composition(0.5, beta=1.0, variant="derivative")
    rep = certify.spectral_falsifier(fam, grid, (64, 128, 256))
    ok = rep.verdict == certify.FALSIFIED
    ok = ok and all(r.kernel_dim <= 1 for r in rep.ladder)
    # the only kernel on the grid sits at lambda = 1 and is the constants
    fs = opbuild.weighted_frame(fam(256))
    basis = numlin.svd_kernel(fs - np.eye(256), tol_rel=1e-6)
    ok = ok and basis.dim == 1
    overlap = abs(basis.columns[0, 0])
    ok = ok and abs(overlap - 1.0) < 1e-10
    assert _verdict(5, "annulus grid falsifies the forward operator", ok)


def test_criterion_06_adjoint_certified_with_growing_witnesses():
    r, lam = 0.5, 3.0 ** 0.25
    ladder = (256, 512, 1024)
    # independent oracle: each rung's family built on its own, outside check_C
    counts = tuple(certify.adjoint_multiplicity_witnesses(r, lam, n, index_max=64)
                   .count() for n in ladder)
    ok = counts == (15, 31, 63)
    rep = certify.check_C(
        certify.family_adjoint_witnessed(r, lam, index_max=64), ladder)
    ok = ok and rep.verdict == certify.CERTIFIED
    ok = ok and all(rg.corank == 0 for rg in rep.ladder)
    ok = ok and [rg.kernel_dim for rg in rep.ladder] == list(counts)
    top = certify.adjoint_multiplicity_witnesses(r, lam, ladder[-1], 64)
    ok = ok and top.gram_min_eigenvalue() > 0.9
    assert _verdict(6, f"compressed adjoint certified, counts {counts}", ok)


def test_criterion_07_mzstar_superdiagonal():
    trunc = 12
    space = SpaceSpec(beta=1.0, trunc=trunc, variant="derivative")
    mzs = opbuild.weighted_adjoint(opbuild.mult_z(space)).entries
    w = space.weights
    ok = True
    for m in range(trunc - 1):
        ok = ok and abs(mzs[m, m + 1] - w[m + 1] / w[m]) < 1e-12
    ok = ok and abs(mzs[0, 1] - 1.0) < 1e-12 and abs(mzs[1, 2] - 4.0) < 1e-12
    ok = ok and abs(mzs[2, 3] - 9.0 / 4.0) < 1e-12
    off = mzs - np.diag(np.diag(mzs, 1), 1)
    ok = ok and np.abs(off).max() == 0.0
    # the alternative closed form ((m+1)/m)^m agrees only at m = 2
    agree = [m for m in range(1, trunc - 1)
             if abs(mzs[m, m + 1] - ((m + 1) / m) ** m) < 1e-12]
    ok = ok and agree == [2]
    assert _verdict(7, "adjoint of multiplication by z", ok)


def test_criterion_08_halfplane_radii():
    ok = (abs(analytic.halfplane_radius(4.0) - 0.5) < 1e-15
          and abs(analytic.halfplane_radius(4.0, "bergman", 0.0) - 0.25) < 1e-15
          and abs(analytic.halfplane_radius(4.0, "bergman", 2.0) - 0.0625) < 1e-15)
    assert _verdict(8, "half-plane dilation radii", ok)


def test_criterion_09_shared_covering_zeros(tmp_path):
    cli.run_scenario("ex46-common-zeros", {}, tmp_path, fmt="json")
    summary = json.loads((tmp_path / "ex46-common-zeros" / "summary.json")
                         .read_text(encoding="utf-8"))
    ok = summary["ratio"] == "2/1"
    ok = ok and summary["zero_residual_max"] < 1e-10
    ok = ok and summary["matched_pairs"] >= 10
    ok = ok and float(summary["max_cross_residual"]) < 1e-8
    zs = analytic.covering_map_zeros(0.5, 1.0 + 0j, 20)
    ok = ok and len(zs.entries) == 41
    ok = ok and max(e.residual for e in zs.entries) < 1e-10
    assert _verdict(9, "covering maps share every other zero", ok)


def test_criterion_10_determinism_and_invariance(tmp_path):
    ok = True
    for name in cli.REGISTRY:
        a = cli.run_scenario(name, {}, tmp_path / "a", fmt="both")
        b = cli.run_scenario(name, {}, tmp_path / "b", fmt="both")
        ok = ok and len(a) == len(b)
        for pa, pb in zip(sorted(a), sorted(b)):
            ok = ok and pa.read_bytes() == pb.read_bytes()
            # CSV cells are plain numbers, never reprs of numpy scalars
            ok = ok and not (pa.suffix == ".csv" and b"np." in pa.read_bytes())
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        k = int(rng.integers(0, n - 1))
        d = np.ones(n)
        d[:k] = 0.0
        s = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        conj = s @ np.diag(d) @ np.linalg.inv(s)
        spec = numlin.Spectrum.of(conj)
        ok = ok and spec.kernel_dim() == k and spec.corank() == k
    assert _verdict(10, "deterministic reruns, plain CSV cells, similarity invariance", ok)


def test_criterion_06_runtime_guard():
    # cheap sanity companion: the witness ladder really needs resolution,
    # a too-small truncation certifies nothing
    count = certify.adjoint_multiplicity_witnesses(0.5, 3.0 ** 0.25, 64,
                                                   index_max=8).count()
    assert count < 15
