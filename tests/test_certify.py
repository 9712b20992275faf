"""Verdict rules of the certificate and falsifier machinery."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univcert import certify, numlin, opbuild
from univcert.analytic import HyperbolicAuto

import hs_dense


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

        # present the same kernels through dense matrices, in the other order
        class Dense:
            def __init__(self, m):
                self.entries = m

        return Dense(hs_dense.hs_matrix(right)), Dense(hs_dense.hs_matrix(left)), c2, c1

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
    radii = np.exp(np.linspace(-0.4, 0.4, 5) * HyperbolicAuto(0.5).t_param / 2.0)
    for n_angular in range(1, 14):
        grid = certify.annulus_grid(0.5, 5, n_angular)
        # exactly closed under conjugation, so a real section's scan may
        # fold each conjugate pair
        assert set(grid) == set(grid.conj())
        # each ring still starts on the positive real axis: lambda = 1 is
        # the unit ring's first point
        rings = grid.reshape(5, n_angular)
        assert np.all(rings[:, 0].imag == 0.0) and rings[2, 0] == 1.0
        # the points move only by rounding from exp(2 pi i k / n)
        angles = 2.0 * np.pi * np.arange(n_angular) / n_angular
        old = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
        assert np.all(np.abs(grid - old) <= 2e-15 * np.abs(old))


def test_spectral_falsifier_flat_dims():
    grid = certify.annulus_grid(0.5, 3, 4)
    fam = certify.family_composition(0.5, beta=1.0, variant="derivative")
    rep = certify.spectral_falsifier(fam, grid, (16, 32, 64))
    assert rep.verdict == certify.FALSIFIED
    assert all(r.kernel_dim <= 1 for r in rep.ladder)


def test_spectral_falsifier_sees_growing_multiplicity():
    # a repeated point is one cell, so repeating it cannot hide its growth
    for grid in ([0.0], [0.0, 0.0]):
        rep = certify.spectral_falsifier(certify.family_block_backward,
                                         np.array(grid), (32, 64, 128))
        assert rep.verdict == certify.INCONCLUSIVE
        assert [r.kernel_dim for r in rep.ladder] == [8, 16, 32]
        assert rep.narrative.startswith("2 grid cell(s) show growing")


def _sections_with_eigenvalues(points, seed, complex_entries=False):
    """Rungs n whose section has every point as an eigenvalue of
    multiplicity n // 8, in a random unitary frame. Real sections carry a
    non-real point as a 2 x 2 rotation block, so its conjugate is an
    eigenvalue too; complex sections carry the point alone."""
    def build(n: int):
        rng = np.random.default_rng(seed + n)
        blocks = []
        for lam in points * (n // 8):
            if complex_entries:
                blocks.append(np.array([[lam]]))
            elif lam.imag == 0.0:
                blocks.append(np.array([[lam.real]]))
            else:
                blocks.append(np.array([[lam.real, -lam.imag], [lam.imag, lam.real]]))
        dim = sum(len(b) for b in blocks)
        d = np.zeros((n, n), dtype=complex if complex_entries else float)
        d[dim:, dim:] = np.diag(rng.uniform(3.0, 4.0, n - dim))
        at = 0
        for b in blocks:
            d[at:at + len(b), at:at + len(b)] = b
            at += len(b)
        g = rng.standard_normal((n, n))
        if complex_entries:
            g = g + 1j * rng.standard_normal((n, n))
        q = np.linalg.qr(g)[0]
        return q @ d @ q.conj().T
    return build


def _dense_dims(builder, lams, ladder, tols):
    """Kernel dims of A - lambda I by one full SVD per cell and rung."""
    dims = {}
    for size in ladder:
        a = builder(size)
        for lam in lams:
            s = np.linalg.svd(a - lam * np.eye(size), compute_uv=False)
            for tol in tols:
                dims.setdefault((complex(lam), tol), []).append(
                    int(np.sum(s <= tol * s[0])))
    return dims


def _counted_scan(builder, grid, ladder, tols):
    """_spectral_scan's dims and the number of spectra it took."""
    taken = []
    of = numlin.Spectrum.of

    def counting(a):
        taken.append(a.shape)
        return of(a)

    with mock.patch.object(numlin.Spectrum, "of", counting):
        dims = certify._spectral_scan(builder, grid, ladder, tols)[1]
    return dims, len(taken)


_POINT = st.builds(complex, st.floats(-2.0, 2.0),
                   st.one_of(st.just(0.0), st.floats(0.25, 2.0)))


@settings(max_examples=40, deadline=None)
@given(eigen=st.lists(_POINT, min_size=1, max_size=2,
                     unique_by=lambda z: (z.real, abs(z.imag))),
       others=st.lists(_POINT, max_size=4),
       conj=st.lists(st.booleans(), min_size=6, max_size=6),
       repeat=st.lists(st.booleans(), min_size=6, max_size=6),
       seed=st.integers(0, 999))
def test_real_section_scan_folds_conjugates_and_repeats(eigen, others, conj, repeat,
                                                        seed):
    tols, ladder = (1e-6, 1e-8), (8, 16, 24)
    base = eigen + others
    grid = list(base)
    grid += [lam.conjugate() for lam, c in zip(base, conj) if c]
    grid += [lam for lam, c in zip(base, repeat) if c]
    grid = [grid[i] for i in np.random.default_rng(seed).permutation(len(grid))]
    fam = _sections_with_eigenvalues(eigen, seed)
    dims, taken = _counted_scan(fam, grid, ladder, tols)
    cells = list(dict.fromkeys(grid))
    dense = _dense_dims(fam, cells, ladder, tols)
    assert dims == dense
    # the dense dims at conj(lambda) agree, which is what the fold relies on
    mirrored = _dense_dims(fam, [lam.conjugate() for lam in cells], ladder, tols)
    assert all(mirrored[(lam.conjugate(), tol)] == dense[(lam, tol)]
               for lam in cells for tol in tols)
    folded = {complex(lam.real, abs(lam.imag)) for lam in cells}
    assert taken == len(ladder) * len(folded)
    # the planted eigenvalues are seen, with multiplicity at least n // 8
    for lam in eigen:
        assert all(d >= n // 8 for d, n in zip(dense[(lam, 1e-8)], ladder))


def test_complex_section_scan_takes_one_svd_per_cell():
    tols, ladder = (1e-6, 1e-8), (8, 16, 24)
    lam = 0.5 + 1.0j
    grid = [lam, lam.conjugate(), lam, 1.5, 0.3 - 0.7j]
    fam = _sections_with_eigenvalues([lam], 3, complex_entries=True)
    dims, taken = _counted_scan(fam, grid, ladder, tols)
    cells = list(dict.fromkeys(grid))
    assert taken == len(ladder) * len(cells)
    assert dims == _dense_dims(fam, cells, ladder, tols)
    # a complex section is not conjugate-symmetric: lambda carries the
    # planted kernel, its conjugate none
    assert dims[(lam, 1e-8)] == [1, 2, 3]
    assert dims[(lam.conjugate(), 1e-8)] == [0, 0, 0]


@pytest.mark.parametrize("r", [0.3, 0.5])
def test_sign_conjugation_leaves_scan_dims_unchanged(r):
    # J C_r J = C_{-r} with J = diag((-1)^k), and the diagonal weighted frame
    # commutes with J, so every cell's dims agree at r and -r
    grid = certify.annulus_grid(r)
    ladder, tols = (16, 32, 48), (1e-6, 1e-8)
    plus = certify._spectral_scan(
        certify.family_composition(r, 1.0, "derivative"), grid, ladder, tols)
    minus = certify._spectral_scan(
        certify.family_composition(-r, 1.0, "derivative"), grid, ladder, tols)
    assert plus[1] == minus[1]
    assert plus[0].verdict == minus[0].verdict == certify.FALSIFIED


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
