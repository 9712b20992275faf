"""Verdict rules of the certificate and falsifier machinery."""

import json

import numpy as np
import pytest

from univcert import certify, numlin, opbuild


LADDER = (16, 32, 64)


def test_block_shift_family_is_certified():
    rep = certify.check_C(certify.family_block_backward, (32, 64, 128))
    assert rep.verdict == certify.CERTIFIED
    assert [r.kernel_dim for r in rep.ladder] == [8, 16, 32]
    assert all(r.corank == 0 for r in rep.ladder)


def test_identity_family_is_falsified():
    rep = certify.check_C(certify.family_identity, LADDER)
    assert rep.verdict == certify.FALSIFIED
    assert all(r.kernel_dim == 0 for r in rep.ladder)


def test_plain_backward_shift_kernel_stays_one():
    rep = certify.check_C(certify.family_backward_shift, LADDER)
    assert rep.verdict == certify.FALSIFIED
    assert all(r.kernel_dim == 1 and r.corank == 0 for r in rep.ladder)


def test_rank_one_bump_splits_C_from_Cplus():
    rep_c = certify.check_C(certify.family_halfshift_plus_rank1, LADDER)
    rep_cp = certify.check_Cplus(certify.family_halfshift_plus_rank1, LADDER)
    assert rep_c.verdict == certify.INCONCLUSIVE
    assert rep_cp.verdict == certify.CERTIFIED
    assert all(r.corank == 1 for r in rep_cp.ladder)


def test_perturbed_pair_family_is_injective():
    for n in range(1, 6):
        op = certify.family_ex26(n)(32)
        assert numlin.Spectrum.of(op).sigma_min > 1.0 / (2 * n)


def test_ladder_validation():
    composition = certify.family_composition(0.5, beta=1.0, variant="derivative")
    checks = (lambda ladder: certify.check_C(certify.family_identity, ladder),
              lambda ladder: certify.check_M(certify.pair_diagonal_blocks, ladder),
              lambda ladder: certify.spectral_falsifier(composition, [1.0, 0.5j], ladder))
    for check in checks:
        for ladder in ((16, 32), (32,), (32, 16, 64)):
            with pytest.raises(ValueError, match="ladder"):
                check(ladder)


def test_report_json_shape():
    rep = certify.check_C(certify.family_identity, LADDER)
    payload = json.loads(rep.to_json())
    assert payload["schema_version"] == "1"
    assert payload["condition"] == "C"
    assert payload["verdict"] == certify.FALSIFIED
    assert len(payload["ladder"]) == 3
    assert payload["tolerances"] == {"rank_tol": certify.RANK_TOL}
    with pytest.raises(ValueError):
        certify.CertificateReport("C", "maybe", rep.ladder, {}, "")


# -- commuting pairs ----------------------------------------------------------

def test_scalar_multiplication_pair_is_falsified():
    rep = certify.check_M(certify.hs_pair_scalar, (8, 16, 32))
    assert rep.verdict == certify.FALSIFIED
    for r, n in zip(rep.ladder, (8, 16, 32)):
        assert r.kernel_dim == n
        assert r.intersection_dim == 1
        assert r.sum_dim == 2 * n - 1
        assert r.product_kernel_dim == 2 * n - 1
        assert r.corank == 0


def test_block_multiplication_pair_is_certified():
    rep = certify.check_M(certify.hs_pair_block, ((4, 4), (6, 6), (8, 8)))
    assert rep.verdict == certify.CERTIFIED
    for r, (k, d) in zip(rep.ladder, ((4, 4), (6, 6), (8, 8))):
        assert r.label == f"K={k},d={d}"
        assert r.kernel_dim == k * d * d
        assert r.intersection_dim == d * d
        assert r.sum_dim == (2 * k - 1) * d * d
        assert r.product_kernel_dim == r.sum_dim
        assert r.corank == 0


def test_diagonal_pair_keeps_disjoint_kernels():
    rep = certify.check_M(certify.pair_diagonal_blocks, (8, 16, 32))
    assert rep.verdict == certify.FALSIFIED
    assert all(r.intersection_dim == 0 for r in rep.ladder)


def test_check_M_is_symmetric_under_swap():
    def swapped(size):
        left, right, c1, c2 = certify.hs_pair_block(size)
        prod = opbuild.hs_product(left, right)

        # present the same kernels through dense matrices, in the other order
        class Dense:
            def __init__(self, m):
                self.entries = m

        return Dense(right.matrix), Dense(left.matrix), c2, c1

    a = certify.check_M(certify.hs_pair_block, ((2, 2), (3, 3), (4, 4)))
    b = certify.check_M(swapped, ((2, 2), (3, 3), (4, 4)))
    assert a.verdict == b.verdict == certify.CERTIFIED
    for ra, rb in zip(a.ladder, b.ladder):
        assert ra.intersection_dim == rb.intersection_dim
        assert ra.sum_dim == rb.sum_dim
        assert ra.product_kernel_dim == rb.product_kernel_dim


def test_check_M_rejects_noncommuting_pairs():
    def bad(n):
        rng = np.random.default_rng(n)
        return rng.standard_normal((n, n)), rng.standard_normal((n, n))

    with pytest.raises(ValueError):
        certify.check_M(bad, (4, 5, 6))


# -- falsifiers ---------------------------------------------------------------

def test_annulus_grid_geometry():
    grid = certify.annulus_grid(0.5, 5, 12)
    assert grid.size == 60
    inner, outer = 1.0 / np.sqrt(3.0), np.sqrt(3.0)
    assert np.all(np.abs(grid) > inner)
    assert np.all(np.abs(grid) < outer)
    # one ring sits exactly on the unit circle and contains lambda = 1
    assert np.min(np.abs(grid - 1.0)) < 1e-15


def test_spectral_falsifier_flat_dims():
    grid = certify.annulus_grid(0.5, 3, 4)
    fam = certify.family_composition(0.5, beta=1.0, variant="derivative")
    rep = certify.spectral_falsifier(fam, grid, (16, 32, 64))
    assert rep.verdict == certify.FALSIFIED
    assert all(r.kernel_dim <= 1 for r in rep.ladder)


def test_spectral_falsifier_sees_growing_multiplicity():
    rep = certify.spectral_falsifier(certify.family_block_backward,
                                     np.array([0.0]), (32, 64, 128))
    assert rep.verdict == certify.INCONCLUSIVE
    assert [r.kernel_dim for r in rep.ladder] == [8, 16, 32]


def test_algebraic_falsifier_polynomial_witness():
    b = opbuild.backward_shift(16)
    b2 = b.entries @ b.entries
    rep = certify.algebraic_falsifier(b, b2, poly=[1.0])
    assert rep.verdict == certify.FALSIFIED
    assert rep.ladder[0].extra["defect"] == 0.0


def test_algebraic_falsifier_power_witness_and_control():
    b = opbuild.backward_shift(12)
    b2 = b.entries @ b.entries
    b3 = b2 @ b.entries
    assert certify.algebraic_falsifier(b2, b3, powers=(2, 3)).verdict == certify.FALSIFIED
    control = certify.algebraic_falsifier(b, np.eye(12), poly=[1.0])
    assert control.verdict == certify.INCONCLUSIVE
    with pytest.raises(ValueError):
        certify.algebraic_falsifier(b, b2)
    with pytest.raises(ValueError):
        certify.algebraic_falsifier(b, b2, poly=[1.0], powers=(1, 1))


# -- compactness proxy and witnesses ------------------------------------------

def test_compactness_proxy_of_identical_operators_is_zero():
    a = certify.family_identity(8)
    prof = certify.compactness_proxy(a, a)
    assert np.all(prof.values == 0.0)
    assert prof.ratio(3) == 0.0


def test_compactness_proxy_rank_one_difference():
    a = certify.family_identity(8)
    bump = np.zeros((8, 8))
    bump[0, 0] = 2.0
    b = opbuild.OpMatrix(np.eye(8) + bump, a.domain_space, a.codomain_space,
                         "identity plus rank-1 bump")
    prof = certify.compactness_proxy(a, b, count=4)
    assert prof.values[0] == pytest.approx(2.0)
    assert prof.ratio(2) < 1e-14
    d = prof.as_dict()
    assert d["ratios"][0] == 1.0


def test_witness_family_counts_grow_with_resolution():
    lam = 3.0 ** 0.25
    counts = [certify.adjoint_multiplicity_witnesses(0.5, lam, n, index_max=24).count()
              for n in (128, 256)]
    assert counts[0] >= 1
    assert counts[1] > counts[0]


def test_witness_family_gram_is_well_conditioned():
    fam = certify.adjoint_multiplicity_witnesses(0.5, 3.0 ** 0.25, 256,
                                                 index_max=24)
    assert fam.count() >= 10
    assert fam.gram_min_eigenvalue() > 0.8
    # the counted witnesses are residual-verified
    ok = (fam.residuals < certify.WITNESS_TOL) & (fam.window_mass >= 0.5)
    assert np.all(fam.residuals[ok] < 1e-4)


def test_witness_family_rejects_bad_lambda():
    with pytest.raises(ValueError):
        certify.adjoint_multiplicity_witnesses(0.5, 1.0, 64)
    with pytest.raises(ValueError):
        certify.adjoint_multiplicity_witnesses(0.5, 2.0, 64)


def _same_family(a, b) -> bool:
    return a.indices == b.indices and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("vectors", "residuals", "window_mass", "weights"))


def test_witness_family_reuses_a_given_compressed_adjoint():
    lam = 3.0 ** 0.25
    a = certify.family_adjoint_compressed(0.5)(64).square
    given = certify.adjoint_multiplicity_witnesses(0.5, lam, 64, index_max=8,
                                                   compressed=a)
    assert _same_family(given, certify.adjoint_multiplicity_witnesses(
        0.5, lam, 64, index_max=8))
    with pytest.raises(ValueError, match="shape"):
        certify.adjoint_multiplicity_witnesses(0.5, lam, 65, index_max=8,
                                               compressed=a)


def test_witnessed_rungs_carry_the_shifted_adjoint_and_its_family():
    lam = 3.0 ** 0.25
    rung = certify.family_adjoint_witnessed(0.5, lam, index_max=8)(64)
    base = certify.family_adjoint_compressed(0.5)(64)
    assert np.array_equal(rung.square.entries, base.square.entries - lam * np.eye(63))
    assert rung.interior.entries.shape == base.interior.entries.shape
    assert _same_family(rung.witnesses, certify.adjoint_multiplicity_witnesses(
        0.5, lam, 64, index_max=8))
    # check_C counts each rung's family and hands back the top one
    rep = certify.check_C(certify.family_adjoint_witnessed(0.5, lam, index_max=8),
                          (32, 48, 64))
    assert [r.kernel_dim for r in rep.ladder] == [
        certify.adjoint_multiplicity_witnesses(0.5, lam, n, index_max=8).count()
        for n in (32, 48, 64)]
    assert _same_family(rep.witnesses, rung.witnesses)
    assert rep.tolerances["witness_tol"] == certify.WITNESS_TOL
    assert certify.check_C(certify.family_identity, LADDER).witnesses is None


def test_shifted_family_subtracts_lambda():
    fam = certify.shifted(certify.family_adjoint_compressed(0.5), 1.5)
    rung = fam(32)
    base = certify.family_adjoint_compressed(0.5)(32)
    assert np.abs(rung.square.entries - (base.square.entries - 1.5 * np.eye(31))).max() == 0.0
    assert rung.interior.entries.shape == base.interior.entries.shape
    assert rung.witnesses is None
