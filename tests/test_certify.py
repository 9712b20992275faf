"""Verdict rules of the certificate and falsifier machinery."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from univcert import analytic, certify, numlin, opbuild, spaces

import hs_dense
import report_parity
import thm32_oracle
from dense_kernel import svd_kernel


LADDER = (16, 32, 64)


def check_C(builder, ladder):
    """Condition C on one kernel_ladder walk: corank 0 and growing evidence."""
    return certify.kernel_verdict("C", *certify.kernel_ladder(builder, ladder))


def family_identity(n: int):
    """Fixture: the identity on the Hardy space."""
    return np.eye(n)


def family_backward_shift(n: int):
    """Fixture: the plain backward shift, kernel dim 1 at every rung."""
    b = opbuild.block_backward_shift(n, 1)
    return certify.Rung(b, 1)


def family_block_backward(n: int, block_frac: int = 4):
    """Fixture: backward shift of growing inner dimension d = n / block_frac."""
    d = max(n // block_frac, 1)
    b = opbuild.block_backward_shift(max(n // d, 2), d)
    return certify.Rung(b, d)


def test_a_rung_drops_fewer_rows_than_it_has():
    for drop in (lambda n: n, lambda n: -1):
        with pytest.raises(ValueError, match="drop_rows out of range"):
            check_C(lambda n: certify.Rung(family_identity(n), drop(n)), LADDER)
    # one row left: the identity's section still reaches every row it keeps
    rep = check_C(lambda n: certify.Rung(family_identity(n), n - 1), LADDER)
    assert [r["corank"] for r in rep.ladder] == [0, 0, 0]


def test_block_shift_family_is_certified():
    rep = check_C(family_block_backward, (32, 64, 128))
    assert rep.verdict == certify.CERTIFIED
    assert [r["kernel_dim"] for r in rep.ladder] == [8, 16, 32]
    assert all(r["corank"] == 0 for r in rep.ladder)


def test_identity_family_is_falsified():
    rep = check_C(lambda n: certify.Rung(family_identity(n)), LADDER)
    assert rep.verdict == certify.FALSIFIED
    assert all(r["kernel_dim"] == 0 for r in rep.ladder)


def test_plain_backward_shift_kernel_stays_one():
    rep = check_C(family_backward_shift, LADDER)
    assert rep.verdict == certify.FALSIFIED
    assert all(r["kernel_dim"] == 1 and r["corank"] == 0 for r in rep.ladder)


def test_rank_one_bump_splits_C_from_Cplus():
    rep_c = check_C(certify.family_halfshift_plus_rank1, LADDER)
    rep_cp = certify.kernel_verdict(
        "Cplus", *certify.kernel_ladder(certify.family_halfshift_plus_rank1, LADDER))
    assert rep_c.verdict == certify.INCONCLUSIVE
    assert rep_cp.verdict == certify.CERTIFIED
    assert all(r["corank"] == 1 for r in rep_cp.ladder)


def test_rank_one_bump_needs_three_coefficients():
    with pytest.raises(ValueError, match="n >= 3"):
        certify.family_halfshift_plus_rank1(2)
    with pytest.raises(ValueError, match="n >= 3"):
        check_C(certify.family_halfshift_plus_rank1, (2, 3, 4))


def test_perturbed_pair_family_is_injective():
    u, eye, zero = opbuild.block_backward_shift(32, 1), np.eye(32), np.zeros((32, 32))
    for n in range(1, 6):
        op = opbuild.block2x2(u, eye, eye / n, zero)
        assert numlin.Spectrum.of(op).sigma_min > 1.0 / (2 * n)


def test_ladder_validation():
    composition = certify.family_composition(0.5, beta=1.0, variant="derivative")
    checks = (lambda ladder: check_C(lambda n: certify.Rung(family_identity(n)),
                                     ladder),
              lambda ladder: certify.check_M(certify.pair_diagonal_blocks, ladder),
              lambda ladder: certify.spectral_falsifier(composition, [1.0, 0.5j], ladder))
    for check in checks:
        # sizes 16, 3, 4: in lexicographic order these KxD rungs would pass
        for ladder in ((16, 32), (32,), (32, 16, 64), ((2, 8), (3, 1), (4, 1))):
            with pytest.raises(ValueError, match="ladder"):
                check(ladder)


KERNEL_RUNG_KEYS = {"label", "size", "kernel_dim", "corank", "sigma_min"}
WITNESSED_RUNG_KEYS = {"label", "size", "kernel_dim", "corank", "corank_by",
                       "sigma_min_lower"}
PAIR_RUNG_KEYS = {"label", "size", "kernel_dim", "kernel_dim_2", "corank", "corank_1",
                  "corank_2", "intersection_dim", "sum_dim", "product_kernel_dim"}


def test_report_json_shape():
    identity = check_C(lambda n: certify.Rung(family_identity(n)), LADDER)
    assert identity.verdict == certify.FALSIFIED
    assert identity.tolerances == {"rank_tol": numlin.DEFAULT_TOL}
    b = opbuild.block_backward_shift(16, 1)
    # one report per condition, with the rung keys schema "3" writes
    cases = [
        ("C", identity, KERNEL_RUNG_KEYS),
        ("C", check_C(_identity_with_family(3, 2), LADDER), WITNESSED_RUNG_KEYS),
        ("Cplus", certify.kernel_verdict(
            "Cplus", *certify.kernel_ladder(certify.family_halfshift_plus_rank1, LADDER)),
         KERNEL_RUNG_KEYS),
        ("M", certify.check_M(certify.pair_diagonal_blocks, (8, 16, 32)), PAIR_RUNG_KEYS),
        ("M", certify.check_M(certify.hs_pair_block, ((2, 2), (3, 3), (4, 4))),
         PAIR_RUNG_KEYS),
        ("spectral", certify.spectral_falsifier(
            certify.family_composition(0.5, 1.0, "derivative"), [1.0, 0.5j], LADDER),
         {"label", "size", "kernel_dim", "grid_points"}),
        ("algebraic", certify.algebraic_falsifier(b, b @ b, poly=[1.0]),
         {"label", "size", "defect", "commutator", "witness"}),
    ]
    for condition, rep, keys in cases:
        payload = json.loads(rep.to_json())
        assert payload["schema_version"] == "3"
        assert payload["condition"] == condition
        assert payload == rep.as_dict()
        assert len(payload["ladder"]) == (1 if condition == "algebraic" else 3)
        for rung in payload["ladder"]:
            # a rung writes exactly its condition's keys, and never a null
            assert set(rung) == keys
            assert None not in rung.values()
        # a payload is a copy: editing it leaves the report as it was
        edited = rep.as_dict()
        edited["ladder"][0]["size"] = -1
        edited["tolerances"]["edited"] = True
        assert rep.as_dict() == payload
    with pytest.raises(ValueError):
        certify.CertificateReport("C", "maybe", identity.ladder, {}, "")


def _straddling(n: int) -> np.ndarray:
    """Fixture: relative singular values 1e-7 and 1e-9 on either side of
    the rank threshold 1e-8; both lie under the scan's looser 1e-6."""
    return np.diag(np.r_[np.ones(n - 2), 1e-7, 1e-9])


def test_each_report_names_the_threshold_its_check_applies():
    assert certify.SCAN_TOLS[1] == numlin.DEFAULT_TOL < certify.SCAN_TOLS[0]
    rep = check_C(lambda n: certify.Rung(_straddling(n)), LADDER)
    assert [r["kernel_dim"] for r in rep.ladder] == [1, 1, 1]
    assert rep.tolerances == {"rank_tol": numlin.DEFAULT_TOL}
    rep = certify.check_M(
        lambda n: certify.commuting_pair_counts(_straddling(n), _straddling(n)), LADDER)
    assert [r["intersection_dim"] for r in rep.ladder] == [1, 1, 1]
    assert rep.tolerances == {"rank_tol": numlin.DEFAULT_TOL}
    rep = check_C(_identity_with_family(3, 2), LADDER)
    assert rep.tolerances == {
        "rank_tol": numlin.DEFAULT_TOL, "witness_tol": certify.WITNESS_TOL,
        "gram_shifts": list(numlin.GRAM_SHIFTS), "gram_safety": numlin.GRAM_SAFETY}
    rep, dims = certify._spectral_scan(_straddling, [0.0], LADDER)
    assert dims == {(0j, certify.SCAN_TOLS[0]): [2, 2, 2],
                    (0j, certify.SCAN_TOLS[1]): [1, 1, 1]}
    assert rep.tolerances == {"svd_tols": list(certify.SCAN_TOLS)}
    # W = T^2 + eps T^3 commutes with T, at defect about eps
    t = opbuild.block_backward_shift(12, 1)
    for eps, verdict in ((0.2 * certify.ALGEBRAIC_TOL, certify.FALSIFIED),
                         (5.0 * certify.ALGEBRAIC_TOL, certify.INCONCLUSIVE)):
        rep = certify.algebraic_falsifier(t, t @ t + eps * (t @ t @ t), poly=[1.0])
        assert rep.verdict == verdict
        assert rep.tolerances == {"witness_tol": certify.ALGEBRAIC_TOL}


# -- commuting pairs ----------------------------------------------------------

def test_scalar_multiplication_pair_is_falsified():
    rep = certify.check_M(certify.hs_pair_scalar, (8, 16, 32))
    assert rep.verdict == certify.FALSIFIED
    for r, n in zip(rep.ladder, (8, 16, 32)):
        assert r["kernel_dim"] == n
        assert r["intersection_dim"] == 1
        assert r["sum_dim"] == 2 * n - 1
        assert r["product_kernel_dim"] == 2 * n - 1
        assert r["corank"] == 0


def test_diagonal_pair_keeps_disjoint_kernels():
    rep = certify.check_M(certify.pair_diagonal_blocks, (8, 16, 32))
    assert rep.verdict == certify.FALSIFIED
    assert all(r["intersection_dim"] == 0 for r in rep.ladder)


def _planted_pair_counts(inters, product_offsets=(0, 0, 0), coranks_2=(0, 0, 0)):
    """Fixture: a pair builder over the ladder (1, 2, 3) whose rung n has
    kernel dims 5 and 7, intersection inters[n - 1], a product kernel off
    the kernel sum by product_offsets[n - 1], and coranks 0 and
    coranks_2[n - 1]; no operator is built."""
    def build(n):
        i = n - 1
        return {"kernel_dim": 5, "kernel_dim_2": 7, "intersection_dim": inters[i],
                "product_kernel_dim": 12 - inters[i] + product_offsets[i],
                "corank_1": 0, "corank_2": coranks_2[i]}
    return build


def test_check_M_verdict_reads_the_rung_counts_alone():
    cases = [
        (_planted_pair_counts((1, 2, 3)), certify.CERTIFIED),
        (_planted_pair_counts((1, 2, 3), product_offsets=(0, 1, 0)), certify.INCONCLUSIVE),
        (_planted_pair_counts((1, 2, 3), coranks_2=(0, 0, 1)), certify.INCONCLUSIVE),
        (_planted_pair_counts((2, 2, 2)), certify.FALSIFIED),
        (_planted_pair_counts((1, 2, 2)), certify.INCONCLUSIVE),
    ]
    reports = [certify.check_M(builder, (1, 2, 3)) for builder, _ in cases]
    assert [rep.verdict for rep in reports] == [verdict for _, verdict in cases]
    for (builder, _), rep in zip(cases, reports):
        for n, r in zip((1, 2, 3), rep.ladder):
            counts = builder(n)
            # check_M adds only the label, the size, the kernel sum and the
            # larger corank to the builder's counts
            assert r == {**counts, "label": f"N={n}", "size": n,
                         "sum_dim": 12 - counts["intersection_dim"],
                         "corank": counts["corank_2"]}
    # growing intersections with a failed product match or a lost direction
    # are mixed evidence, and the narrative says which
    assert "product-kernel match False, coranks zero True" in reports[1].narrative
    assert "product-kernel match True, coranks zero False" in reports[2].narrative


def test_check_M_is_symmetric_under_swap():
    def swapped(size):
        b = opbuild.block_backward_shift(*size)
        counts = certify.hs_pair_block(size)
        # present the same kernels through dense matrices, in the other order,
        # with the HS pair's coranks swapped
        return {**certify.commuting_pair_counts(hs_dense.hs_matrix(None, b.conj().T),
                                                hs_dense.hs_matrix(b, None)),
                "corank_1": counts["corank_2"], "corank_2": counts["corank_1"]}

    a = certify.check_M(certify.hs_pair_block, ((2, 2), (3, 3), (4, 4)))
    b = certify.check_M(swapped, ((2, 2), (3, 3), (4, 4)))
    assert a.verdict == b.verdict == certify.CERTIFIED
    for ra, rb in zip(a.ladder, b.ladder):
        assert ra["intersection_dim"] == rb["intersection_dim"]
        assert ra["sum_dim"] == rb["sum_dim"]
        assert ra["product_kernel_dim"] == rb["product_kernel_dim"]


def test_check_M_rejects_noncommuting_pairs():
    def bad(n):
        rng = np.random.default_rng(n)
        return certify.commuting_pair_counts(rng.standard_normal((n, n)),
                                             rng.standard_normal((n, n)))

    with pytest.raises(ValueError):
        certify.check_M(bad, (4, 5, 6))


@st.composite
def _commuting_diagonals(draw):
    """Two diagonals of one length, each at its own scale in 1e-6 ... 1e6:
    zeros at random places, the other entries in [1, 10] or 1e-4 times
    that, small but never negligible."""
    n = draw(st.integers(1, 6))

    def diagonal():
        scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
        return [scale * draw(st.sampled_from([0.0, 1.0, 1e-4])) * draw(st.floats(1.0, 10.0))
                for _ in range(n)]

    return diagonal(), diagonal()


@settings(max_examples=60, deadline=None)
@given(_commuting_diagonals(), st.integers(0, 2**32 - 1))
# reads (2, 1, 1, 2); unscaled, [U; V] would read intersection 2, as V's
# 1e-3 falls below U's threshold
@example(([0.0, 0.0, 1e6], [0.0, 1e-3, 1.0]), 0)
@example(([0.0, 0.0, 0.0], [0.0, 2.0, 5.0]), 1)  # a zero operator
# UV vanishes up to rounding, so its kernel is everything
@example(([0.0, 1e-6, 0.0], [0.0, 0.0, 1e-6]), 0)
def test_dense_check_M_counts_agree_with_kernel_bases(diagonals, seed):
    n = len(diagonals[0])
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    u, v = (q @ np.diag(d) @ q.T for d in diagonals)
    rep = certify.check_M(lambda size: certify.commuting_pair_counts(u, v), (1, 2, 3))
    b1, b2 = svd_kernel(u), svd_kernel(v)
    total, inter = numlin.subspace_dims(b1, b2)
    for r in rep.ladder:
        assert (r["kernel_dim"], r["kernel_dim_2"], r["intersection_dim"],
                r["sum_dim"]) == (b1.shape[1], b2.shape[1], inter, total)
        assert r["product_kernel_dim"] >= r["sum_dim"]


def _phases(n):
    """The diagonal of a seeded random diagonal unitary."""
    return np.exp(2j * np.pi * np.random.default_rng(11).random(n))


def _unitarily_similar(a, phases):
    """D A D* for D = diag(phases), on an array or a weighted operator. D
    commutes with the diagonal weights, so this is a unitary similarity in
    the weighted frame too, and it commutes with dropping a rung's trailing
    rows."""
    if isinstance(a, opbuild.OpMatrix):
        return opbuild.OpMatrix(_unitarily_similar(a.entries, phases), a.w)
    return phases[:, None] * a * phases[None, :].conj()


def test_diagonal_unitary_similarity_leaves_rung_counts_unchanged():
    def halfshift(n):
        rung = certify.family_halfshift_plus_rank1(n)
        return certify.Rung(_unitarily_similar(rung.square, _phases(n)), rung.drop_rows)

    def counts(builder):
        rungs, _ = certify.kernel_ladder(builder, LADDER)
        return [(r["kernel_dim"], r["corank"]) for r in rungs]

    assert counts(halfshift) == counts(certify.family_halfshift_plus_rank1)

    # the conjugated section is complex, so the scan no longer folds
    # conjugate grid points
    ex31 = certify.family_composition(0.5, 1.0, "derivative")
    grid, ladder = certify.annulus_grid(0.5, 5, 12), (32, 64, 128)
    similar = certify._spectral_scan(
        lambda n: _unitarily_similar(ex31(n), _phases(n)), grid, ladder)
    assert similar[1] == certify._spectral_scan(ex31, grid, ladder)[1]

    def diagonal_blocks(n):
        u0, eye, zero = opbuild.block_backward_shift(n, 1), np.eye(n), np.zeros((n, n))
        pair = (opbuild.block2x2(u0, zero, zero, eye), opbuild.block2x2(eye, zero, zero, u0))
        return certify.commuting_pair_counts(*(_unitarily_similar(a, _phases(2 * n))
                                               for a in pair))

    def pair_counts(builder):
        return [(r["kernel_dim"], r["kernel_dim_2"], r["intersection_dim"],
                 r["sum_dim"], r["product_kernel_dim"], r["corank"])
                for r in certify.check_M(builder, (8, 16, 32)).ladder]

    assert pair_counts(diagonal_blocks) == pair_counts(certify.pair_diagonal_blocks)


# -- falsifiers ---------------------------------------------------------------

def test_annulus_grid_geometry():
    grid = certify.annulus_grid(0.5, 5, 12)
    assert grid.size == 60
    inner, outer = 1.0 / np.sqrt(3.0), np.sqrt(3.0)
    assert np.all(np.abs(grid) > inner)
    assert np.all(np.abs(grid) < outer)
    # an odd radial count puts one ring exactly on the unit circle, with
    # lambda = 1 on it; a single ring is that circle
    for n_radial in (1, 3, 5):
        rings = certify.annulus_grid(0.5, n_radial, 12).reshape(n_radial, 12)
        assert np.all(np.abs(np.abs(rings[n_radial // 2]) - 1.0) < 1e-15)
        assert rings[n_radial // 2, 0] == 1.0
    radii = np.exp(np.linspace(-0.4, 0.4, 5) * analytic.translation_length(0.5) / 2.0)
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
    assert all(r["kernel_dim"] <= 1 for r in rep.ladder)


def test_spectral_falsifier_sees_growing_multiplicity():
    # a repeated point is one cell, so repeating it cannot hide its growth
    for grid in ([0.0], [0.0, 0.0]):
        rep = certify.spectral_falsifier(lambda n: family_block_backward(n).square,
                                         np.array(grid), (32, 64, 128))
        assert rep.verdict == certify.INCONCLUSIVE
        assert [r["kernel_dim"] for r in rep.ladder] == [8, 16, 32]
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


def _counted_scan(builder, grid, ladder):
    """_spectral_scan's dims and the number of spectra it took."""
    taken = []
    of = numlin.Spectrum.of

    def counting(a):
        taken.append(a.shape)
        return of(a)

    with mock.patch.object(numlin.Spectrum, "of", counting):
        dims = certify._spectral_scan(builder, grid, ladder)[1]
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
    tols, ladder = certify.SCAN_TOLS, (8, 16, 24)
    base = eigen + others
    grid = list(base)
    grid += [lam.conjugate() for lam, c in zip(base, conj) if c]
    grid += [lam for lam, c in zip(base, repeat) if c]
    grid = [grid[i] for i in np.random.default_rng(seed).permutation(len(grid))]
    fam = _sections_with_eigenvalues(eigen, seed)
    dims, taken = _counted_scan(fam, grid, ladder)
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
    tols, ladder = certify.SCAN_TOLS, (8, 16, 24)
    lam = 0.5 + 1.0j
    grid = [lam, lam.conjugate(), lam, 1.5, 0.3 - 0.7j]
    fam = _sections_with_eigenvalues([lam], 3, complex_entries=True)
    dims, taken = _counted_scan(fam, grid, ladder)
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
    grid, ladder = certify.annulus_grid(r, 5, 12), (16, 32, 48)
    plus = certify._spectral_scan(
        certify.family_composition(r, 1.0, "derivative"), grid, ladder)
    minus = certify._spectral_scan(
        certify.family_composition(-r, 1.0, "derivative"), grid, ladder)
    assert plus[1] == minus[1]
    assert plus[0].verdict == minus[0].verdict == certify.FALSIFIED


def test_algebraic_falsifier_polynomial_witness():
    b = opbuild.block_backward_shift(16, 1)
    b2 = b @ b
    rep = certify.algebraic_falsifier(b, b2, poly=[1.0])
    assert rep.verdict == certify.FALSIFIED
    assert rep.ladder[0]["defect"] == 0.0


def test_algebraic_falsifier_power_witness_and_control():
    b = opbuild.block_backward_shift(12, 1)
    b2 = b @ b
    b3 = b2 @ b
    assert certify.algebraic_falsifier(b2, b3, powers=(2, 3)).verdict == certify.FALSIFIED
    control = certify.algebraic_falsifier(b, np.eye(12), poly=[1.0])
    assert control.verdict == certify.INCONCLUSIVE
    with pytest.raises(ValueError):
        certify.algebraic_falsifier(b, b2)
    with pytest.raises(ValueError):
        certify.algebraic_falsifier(b, b2, poly=[1.0], powers=(1, 1))


# -- witnesses ----------------------------------------------------------------

def witnesses(r, lam, trunc, index_max):
    """The witness family on the oracle's compressed adjoint, framed."""
    return certify.adjoint_multiplicity_witnesses(
        r, lam, trunc, index_max,
        opbuild.weighted_frame(thm32_oracle.compressed_adjoint(r, trunc)))


def _agree(a, b) -> bool:
    """Equal shapes, and every entry of b within the parity rule of a's."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and all(
        report_parity.floats_agree(x, y) for x, y in zip(a.ravel(), b.ravel()))


def test_witness_family_counts_grow_with_resolution():
    lam = 3.0 ** 0.25
    counts = [witnesses(0.5, lam, n, 24).count()
              for n in (128, 256)]
    assert counts[0] >= 1
    assert counts[1] > counts[0]


def test_witness_family_gram_is_well_conditioned():
    fam = witnesses(0.5, 3.0 ** 0.25, 256, 24)
    assert fam.count() >= 10
    assert fam.gram_min_eigenvalue() > 0.8
    # the counted witnesses are residual-verified
    ok = (fam.residuals < certify.WITNESS_TOL) & (fam.window_mass >= 0.5)
    assert np.all(fam.residuals[ok] < 1e-4)


def test_witness_family_rejects_bad_lambda():
    with pytest.raises(ValueError):
        witnesses(0.5, 1.0, 64, 8)
    with pytest.raises(ValueError):
        witnesses(0.5, 2.0, 64, 8)


def _same_family(a, b) -> bool:
    return a.indices == b.indices and all(
        _agree(getattr(a, f), getattr(b, f))
        for f in ("vectors", "residuals", "window_mass"))


def test_witness_family_reuses_a_given_compressed_adjoint():
    lam = 3.0 ** 0.25
    a = opbuild.weighted_frame(thm32_oracle.compressed_adjoint(0.5, 64))
    given = certify.adjoint_multiplicity_witnesses(0.5, lam, 64, 8, a)
    # the family reads the given adjoint, not a rebuilt one: on the zero
    # matrix the same witnesses leave residuals |lambda| sqrt(window mass)
    zero = certify.adjoint_multiplicity_witnesses(0.5, lam, 64, 8, np.zeros_like(a))
    assert np.array_equal(zero.vectors, given.vectors)
    assert _agree(lam * np.sqrt(zero.window_mass), zero.residuals)
    assert given.count() > zero.count() == 0
    with pytest.raises(ValueError, match="shape"):
        certify.adjoint_multiplicity_witnesses(0.5, lam, 65, 8, a)
    with pytest.raises(ValueError, match="real"):
        certify.adjoint_multiplicity_witnesses(0.5, lam, 64, 8, a + 0j)


@pytest.mark.parametrize("trunc", [64, 256])
def test_windowed_residuals_match_the_full_product_oracle(trunc):
    # the frame's window rows against a full product in weighted coordinates,
    # compared through u = W^{1/2} v
    lam = 3.0 ** 0.25
    fam = witnesses(0.5, lam, trunc, trunc // 8)
    oracle = thm32_oracle.full_product_family(0.5, lam, trunc, trunc // 8)
    assert _same_family(oracle, fam)
    assert fam.count() == oracle.count() > 0
    assert report_parity.floats_agree(thm32_oracle.weighted_gram_min(oracle),
                                      fam.gram_min_eigenvalue())


def test_witnessed_rungs_carry_the_shifted_adjoint_and_its_family():
    lam = 3.0 ** 0.25
    rung = certify.family_adjoint_witnessed(0.5, lam, index_max=8)(64)
    base = thm32_oracle.compressed_adjoint(0.5, 64)
    # the rung's one buffer is the framed square A - lambda I
    assert _agree(opbuild.weighted_frame(opbuild.OpMatrix(
        base.entries - lam * np.eye(63), base.w)), rung.square)
    # the corank drops the window's 63 // 4 = 15 trailing rows
    assert rung.drop_rows == 15
    assert _same_family(witnesses(0.5, lam, 64, 8), rung.witnesses)
    # the ladder walk counts each rung's family and hands back the top one
    rungs, top = certify.kernel_ladder(
        certify.family_adjoint_witnessed(0.5, lam, index_max=8), (32, 48, 64))
    assert [r["kernel_dim"] for r in rungs] == [
        witnesses(0.5, lam, n, 8).count() for n in (32, 48, 64)]
    assert _same_family(top, rung.witnesses)
    rep = certify.kernel_verdict("C", rungs, top)
    assert rep.tolerances["witness_tol"] == certify.WITNESS_TOL
    assert certify.kernel_ladder(lambda n: certify.Rung(family_identity(n)),
                                 LADDER)[1] is None


def test_counted_rungs_report_the_sigma_min_of_the_square():
    # a counted rung's kernel dim reads the square's spectrum, and so does its
    # sigma_min: on diag(n, ..., 1) the square's smallest value is 1 and its
    # leading n - n // 4 rows' is n // 4 + 1
    rungs, _ = certify.kernel_ladder(
        lambda n: certify.Rung(np.diag(np.arange(n, 0.0, -1.0)), n // 4), LADDER)
    assert [(r["sigma_min"], r["kernel_dim"], r["corank"]) for r in rungs] == [
        (1.0, 0, 0)] * 3
    # ex25's half shift with its rank-1 bump, built by hand: row 1 vanishes,
    # so the square's smallest value is 0
    rungs, _ = certify.kernel_ladder(certify.family_halfshift_plus_rank1, (32, 64, 128))
    for rung in rungs:
        n = rung["size"]
        square = np.zeros((n, n))
        ks = np.arange((n + 1) // 2)
        square[ks, 2 * ks] = 1.0
        square[1, 2] = 0.0
        assert rung["sigma_min"] == np.linalg.svd(square, compute_uv=False)[-1] == 0.0


def test_a_counted_rung_without_dropped_rows_takes_one_svd():
    # its kept rows are the whole square, so their spectrum gives the kernel
    # dim and sigma_min too
    svd = np.linalg.svd
    with mock.patch.object(np.linalg, "svd", side_effect=svd) as counted:
        rungs, top = certify.kernel_ladder(lambda n: certify.Rung(np.eye(n)), (8, 16, 32))
    assert counted.call_count == 3
    assert top is None
    assert rungs == tuple({"label": f"N={n}", "size": n, "kernel_dim": 0, "corank": 0,
                           "sigma_min": 1.0} for n in (8, 16, 32))


def test_the_composition_family_hands_out_framed_sections():
    for r, n in ((0.5, 16), (-0.3, 33)):
        section = certify.family_composition(r, 1.0, "derivative")(n)
        framed = opbuild.weighted_frame(opbuild.composition_matrix(
            r, spaces.weights(1.0, n, "derivative")))
        assert type(section) is np.ndarray
        assert section.tobytes() == framed.tobytes()


def test_a_capped_witness_family_is_never_evidence_of_falsification():
    # index_max = 1 builds 3 witnesses, and all 3 pass at every rung: the
    # cap holds the count constant, not the operator
    rep = check_C(certify.family_adjoint_witnessed(0.5, 3.0 ** 0.25, index_max=1),
                  (64, 128, 256))
    assert [r["kernel_dim"] for r in rep.ladder] == [3, 3, 3]
    assert rep.verdict == certify.INCONCLUSIVE
    assert "cap" in rep.narrative and "raise index_max" in rep.narrative


def test_an_empty_witness_family_says_nothing_about_the_operator():
    rungs, top = certify.kernel_ladder(
        certify.family_adjoint_witnessed(0.5, 3.0 ** 0.25, index_max=-1), LADDER)
    assert [r["kernel_dim"] for r in rungs] == [0, 0, 0]
    assert top.indices == ()
    assert top.gram_min_eigenvalue() == 0.0
    assert certify.kernel_verdict("C", rungs, top).verdict == certify.INCONCLUSIVE


def _identity_with_family(size: int, passing: int):
    """Fixture: identity rungs, each carrying a family of size witnesses of
    which the first passing ones pass."""
    def build(n):
        residuals = np.where(np.arange(size) < passing, 0.0, 1.0)
        family = certify.WitnessFamily(tuple(range(size)), np.eye(n, size),
                                       residuals, np.ones(size))
        return certify.Rung(family_identity(n), witnesses=family)
    return build


@pytest.mark.parametrize("size, passing, verdict", [
    (3, 3, certify.INCONCLUSIVE), (3, 2, certify.FALSIFIED)])
def test_constant_witness_counts_falsify_only_below_the_cap(size, passing, verdict):
    rep = check_C(_identity_with_family(size, passing), LADDER)
    assert [r["kernel_dim"] for r in rep.ladder] == [passing] * 3
    assert rep.verdict == verdict


def test_a_witnessed_rung_that_no_shift_proves_is_built_again_for_the_svd():
    # one rung of thm32's family with its first row zeroed: corank 1, which
    # no Gram certificate proves, so that rung alone is built a second time
    # and reads its corank from the SVD of its kept rows
    family = certify.family_adjoint_witnessed(0.5, 3.0 ** 0.25, index_max=8)
    builds = []

    def planted(n):
        builds.append(n)
        rung = family(n)
        if n == 128:
            rung.square[0] = 0.0
        return rung

    rungs, top = certify.kernel_ladder(planted, (64, 128, 256))
    assert builds == [64, 128, 128, 256]
    assert [r["corank_by"] for r in rungs] == ["cholesky", "svd", "cholesky"]
    assert [r["corank"] for r in rungs] == [0, 1, 0]
    assert rungs[1]["sigma_min"] == 0.0 and "sigma_min_lower" not in rungs[1]
    assert all("sigma_min" not in r for r in rungs[::2])
    assert [r["kernel_dim"] for r in rungs] == [witnesses(0.5, 3.0 ** 0.25, n, 8).count()
                                                for n in (64, 128, 256)]
    assert _same_family(top, witnesses(0.5, 3.0 ** 0.25, 256, 8))
    assert certify.kernel_verdict("C", rungs, top).verdict == certify.INCONCLUSIVE


def test_a_falsified_narrative_prints_the_sigma_its_top_rung_reports():
    # constant kernel evidence and no witness family: the top rung's sigma
    # is printed, whichever path decided its corank
    svd = {"label": "N=16", "size": 16, "kernel_dim": 2, "corank": 0, "corank_by": "svd",
           "sigma_min": 0.125}
    cholesky = {"label": "N=16", "size": 16, "kernel_dim": 2, "corank": 0,
                "corank_by": "cholesky", "sigma_min_lower": 0.01}
    for top, sigma in ((svd, "sigma_min 1.250e-01"), (cholesky, "sigma_min >= 1.000e-02")):
        rep = certify.kernel_verdict("C", (cholesky, svd, top), None)
        assert rep.verdict == certify.FALSIFIED
        assert rep.narrative == (f"kernel evidence stays at 2 across the ladder ({sigma} "
                                 "at the top rung); no sign of unbounded multiplicity")
