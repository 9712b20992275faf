"""Operator truncation builders against closed forms and independent oracles."""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from univcert import numlin, opbuild
from univcert.spaces import SpaceSpec

import hs_dense


def _hardy(n):
    return SpaceSpec(beta=0.0, trunc=n)


def _deriv(n):
    return SpaceSpec(beta=1.0, trunc=n, variant="derivative")


def test_backward_forward_shift_matrices():
    assert np.array_equal(opbuild.backward_shift(3).entries,
                          [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert np.array_equal(opbuild.forward_shift(3).entries,
                          [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def test_block_shift_moves_whole_blocks():
    b = opbuild.block_backward_shift(opbuild.BlockShiftSpec(3, 2))
    x = np.arange(6.0)
    assert np.array_equal(b.entries @ x, [2, 3, 4, 5, 0, 0])
    with pytest.raises(ValueError):
        opbuild.BlockShiftSpec(1, 2)


def test_interior_section_trims_rows():
    b = opbuild.backward_shift(5)
    sec = opbuild.interior_section(b, 1)
    assert sec.entries.shape == (4, 5)
    assert numlin.Spectrum.of(sec.entries).corank() == 0
    with pytest.raises(ValueError):
        opbuild.interior_section(b, 5)


def mobius_coeffs(r, length):
    """Taylor coefficients of (z + r)/(1 + r z) from the geometric series."""
    j = np.arange(length)
    c = np.empty(length)
    c[0] = r
    c[1:] = (1.0 - r * r) * (-r) ** (j[1:] - 1.0)
    return c


def test_mobius_coeffs_closed_form():
    c = mobius_coeffs(0.5, 5)
    assert np.allclose(c, [0.5, 0.75, -0.375, 0.1875, -0.09375])
    # the coefficients sum to phi_r(1) = 1
    assert np.sum(mobius_coeffs(0.3, 400)) == pytest.approx(1.0)


def test_composition_columns_match_convolution_oracle():
    n = 16
    m = opbuild.composition_matrix(0.5, _hardy(n)).entries
    mob = mobius_coeffs(0.5, n)
    cur = np.zeros(n)
    cur[0] = 1.0
    assert np.array_equal(m[:, 0], cur)
    for k in range(1, n):
        # truncated products never pollute low-order coefficients
        cur = np.convolve(cur, mob)[:n]
        assert np.abs(m[:, k] - cur).max() < 1e-13


@pytest.mark.parametrize("r", [0.05, 0.5, 0.9, -0.99])
def test_composition_matches_a_60_digit_oracle(r):
    # columns phi_r^k by 60-digit convolution with the series of phi_r
    n = 128
    m = opbuild.composition_matrix(r, _hardy(n)).entries
    with mpmath.workdps(60):
        rr = mpmath.mpf(r)
        mob_rev = [(1 - rr * rr) * (-rr) ** (j - 1) for j in range(n - 1, 0, -1)] + [rr]
        col = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (n - 1)
        err = 0.0
        for k in range(n):
            err = max(err, max(abs(float(col[j] - m[j, k])) for j in range(n)))
            col = [mpmath.fdot(col[:j + 1], mob_rev[n - 1 - j:]) for j in range(n)]
    assert err <= 1e-15


def test_composition_rejects_degenerate_parameters():
    for bad in (0.0, 1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            opbuild.composition_matrix(bad, _hardy(8))


def test_composition_semigroup_on_interior_window():
    r, s = 0.3, 0.2
    t = (r + s) / (1.0 + r * s)
    n = 32
    a = opbuild.composition_matrix(r, _hardy(n)).entries
    b = opbuild.composition_matrix(s, _hardy(n)).entries
    c = opbuild.composition_matrix(t, _hardy(n)).entries
    assert np.abs((a @ b - c)[:8, :8]).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.9), st.sampled_from([-1.0, 1.0]), st.integers(4, 24))
def test_sign_conjugation_flips_the_parameter(r, side, n):
    # J = diag((-1)^k) is the matrix of f -> f(-z), an involution
    j = np.diag((-1.0) ** np.arange(n))
    cr = opbuild.composition_matrix(side * r, _hardy(n)).entries
    cm = opbuild.composition_matrix(-side * r, _hardy(n)).entries
    # sign flips are exact, so the build commutes with J bit for bit
    assert np.array_equal(j @ cr @ j, cm)
    assert np.array_equal(j @ j, np.eye(n))


def test_weighted_adjoint_matches_inner_products():
    space = _deriv(7)
    a = opbuild.composition_matrix(0.5, space)
    astar = opbuild.weighted_adjoint(a)

    def inner(f, g):
        return np.sum(space.weights * f * np.conj(g))

    rng = np.random.default_rng(3)
    for _ in range(20):
        f = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        g = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        lhs = inner(a.entries @ f, g)
        rhs = inner(f, astar.entries @ g)
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_weighted_adjoint_is_an_involution():
    space = _deriv(6)
    a = opbuild.composition_matrix(0.3, space)
    back = opbuild.weighted_adjoint(opbuild.weighted_adjoint(a))
    assert np.abs(back.entries - a.entries).max() < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.9), st.integers(2, 24), st.sampled_from(["power", "derivative"]))
def test_weighted_frame_is_a_unitary_change_of_coordinates(r, n, variant):
    space = SpaceSpec(beta=1.0, trunc=n, variant=variant)
    for a in (opbuild.mult_z(space), opbuild.composition_matrix(r, space)):
        framed = opbuild.weighted_frame(a)
        # the framed matrix of the adjoint is the conjugate transpose
        framed_star = opbuild.weighted_frame(opbuild.weighted_adjoint(a))
        assert np.abs(framed_star - framed.conj().T).max() <= 1e-14 * max(
            np.abs(framed).max(), 1.0)


def test_mzstar_superdiagonal_weight_ratios():
    space = _deriv(6)
    mzs = opbuild.weighted_adjoint(opbuild.mult_z(space))
    w = space.weights
    expect = np.zeros((6, 6))
    for m in range(5):
        expect[m, m + 1] = w[m + 1] / w[m]
    assert np.abs(mzs.entries - expect).max() < 1e-14


@settings(deadline=None)
@given(st.sampled_from([-1, 1]))
def test_heller_principal_assembly(sign):
    r, lam = 0.5, 0.7 + 0.1j
    space = _deriv(8)
    hp = opbuild.heller_principal(r, lam, space, sign=sign)
    comp = opbuild.composition_matrix(r, space)
    mz = opbuild.mult_z(space)
    mzs = opbuild.weighted_adjoint(mz)
    c1 = (1 + r * r) / (1 - r * r)
    c2 = r / (1 - r * r)
    manual = (c1 * comp.entries
              + sign * c2 * (mzs.entries + mz.entries) @ comp.entries
              - lam * np.eye(8))
    assert np.abs(hp.entries - manual).max() < 1e-14
    with pytest.raises(ValueError):
        opbuild.heller_principal(r, lam, SpaceSpec(beta=0.5, trunc=8))


def test_block2x2_layout_and_zero_inference():
    u = opbuild.backward_shift(3)
    m = opbuild.block2x2(u, np.eye(3), None, np.zeros((3, 3)))
    assert m.entries.shape == (6, 6)
    assert np.array_equal(m.entries[:3, :3], u.entries)
    assert np.array_equal(m.entries[:3, 3:], np.eye(3))
    assert np.array_equal(m.entries[3:, :], np.zeros((3, 6)))
    with pytest.raises(ValueError):
        opbuild.block2x2(None, None, np.eye(3), None)


def test_compress_zH2_drops_constant_direction():
    space = _deriv(5)
    a = opbuild.composition_matrix(0.5, space)
    c = opbuild.compress_zH2(a)
    assert c.entries.shape == (4, 4)
    assert np.array_equal(c.entries, a.entries[1:, 1:])
    assert c.domain_space.offset == 1
    assert np.allclose(c.domain_space.weights, [1.0, 4.0, 9.0, 16.0])


def test_hs_operators_realize_two_sided_multiplication():
    rng = np.random.default_rng(11)
    n = 4
    u = opbuild.OpMatrix(rng.standard_normal((n, n)), _hardy(n), _hardy(n), "U")
    v = opbuild.OpMatrix(rng.standard_normal((n, n)), _hardy(n), _hardy(n), "V")
    s = rng.standard_normal((n, n))
    left, right = opbuild.hs_left(u), opbuild.hs_right(v)
    direct = u.entries @ s @ v.entries
    assert np.abs(hs_dense.apply_to(left, hs_dense.apply_to(right, s)) - direct).max() < 1e-12
    # matrix action on the column-major vectorization agrees
    prod = hs_dense.hs_matrix(left) @ hs_dense.hs_matrix(right)
    vec = prod @ s.flatten(order="F")
    assert np.abs(vec - direct.flatten(order="F")).max() < 1e-12


def test_hs_product_requires_pure_sides():
    u = opbuild.backward_shift(3)
    with pytest.raises(ValueError):
        opbuild.hs_pair_kernels(opbuild.hs_right(u), opbuild.hs_left(u))


def test_hs_kernel_basis_matches_dense_svd():
    n = 6
    b = opbuild.backward_shift(n)
    left = opbuild.hs_left(b)
    structured, _, _ = opbuild.hs_pair_kernels(left, opbuild.hs_right(b))
    dense = numlin.svd_kernel(hs_dense.hs_matrix(left))
    assert structured.dim == dense.dim == n
    assert numlin.subspace_dims(structured, dense) == (n, n)


def _low_rank(rng, n, rank):
    """Random n x n factor of the given rank. Its nonzero singular values
    lie in [0.5, 2], some scaled by 1e-5: none sits near the rank threshold,
    but the product of two scaled ones falls below it."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    values = rng.choice([1e-5, 1.0], rank) * rng.uniform(0.5, 2.0, rank)
    m = (q1[:, :rank] * values) @ q2[:, :rank].T
    return opbuild.OpMatrix(m, _hardy(n), _hardy(n), f"rank {rank}")


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
@example(3, 3, 3, 0)  # full-rank factors: every kernel is empty
@example(2, 0, 2, 1)  # a zero factor: its side's kernel is everything
def test_hs_pair_kernels_match_dense_kron(n, rank_u, rank_v, seed):
    rank_u, rank_v = min(rank_u, n), min(rank_v, n)
    rng = np.random.default_rng(seed)
    u, v = _low_rank(rng, n, rank_u), _low_rank(rng, n, rank_v)
    left, right = opbuild.hs_left(u), opbuild.hs_right(v)
    ker_left, ker_right, product_dim = opbuild.hs_pair_kernels(left, right)
    for basis, op, rank in ((ker_left, left, rank_u), (ker_right, right, rank_v)):
        dense = numlin.svd_kernel(hs_dense.hs_matrix(op))
        assert basis.columns.shape == (n * n, n * (n - rank))
        assert dense.dim == basis.dim
        assert numlin.subspace_dims(basis, dense) == (basis.dim, basis.dim)
    expected = numlin.Spectrum.of(np.kron(v.entries.T, u.entries)).kernel_dim()
    assert product_dim == expected
def test_opmatrix_rejects_nonfinite_and_empty_provenance():
    with pytest.raises(ValueError):
        opbuild.OpMatrix(np.array([[np.nan]]), _hardy(1), _hardy(1), "x")
    with pytest.raises(ValueError):
        opbuild.OpMatrix(np.eye(2), _hardy(2), _hardy(2), "")
