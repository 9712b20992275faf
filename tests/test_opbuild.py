"""Operator truncation builders against closed forms and independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from univcert import certify, numlin, opbuild, spaces

import hs_dense
import thm32_oracle
from dense_kernel import svd_kernel


def _hardy(n):
    return spaces.weights(0.0, n)


def _deriv(n):
    return spaces.weights(1.0, n, "derivative")


def test_backward_forward_shift_matrices():
    assert np.array_equal(opbuild.block_backward_shift(3, 1),
                          [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    # the forward shift on the Hardy space is multiplication by z
    assert np.array_equal(opbuild.mult_z(_hardy(3)).entries,
                          [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def test_block_shift_moves_whole_blocks():
    b = opbuild.block_backward_shift(3, 2)
    x = np.arange(6.0)
    assert np.array_equal(b @ x, [2, 3, 4, 5, 0, 0])
    # on the Hardy space the weighted adjoint is the conjugate transpose, the
    # block forward shift
    hardy_adjoint = opbuild.weighted_adjoint(opbuild.OpMatrix(b, _hardy(6))).entries
    assert np.array_equal(hardy_adjoint, b.conj().T)
    assert np.array_equal(hardy_adjoint @ x, [0, 0, 0, 1, 2, 3])
    for K, d in ((1, 2), (3, 0)):
        with pytest.raises(ValueError):
            opbuild.block_backward_shift(K, d)


def interior_section(a, drop_rows):
    """Oracle: the weighted operator a without its trailing drop_rows
    codomain rows, framed by hand as a map from the space weighted by w onto
    the one weighted by its leading weights; a rung's corank reads it."""
    if not 0 < drop_rows < a.entries.shape[0]:
        raise ValueError("drop_rows out of range")
    w = a.w
    return a.entries[:-drop_rows] * (np.sqrt(w[:-drop_rows])[:, None] / np.sqrt(w)[None, :])


def test_interior_section_trims_rows():
    b = opbuild.OpMatrix(opbuild.block_backward_shift(5, 1), _hardy(5))
    sec = interior_section(b, 1)
    assert sec.shape == (4, 5)
    assert numlin.Spectrum.of(sec).corank() == 0
    with pytest.raises(ValueError):
        interior_section(b, 5)


@pytest.mark.parametrize("k", [1, 4, 16])
def test_dropping_framed_rows_frames_the_interior_section(k):
    # the weighted adjoint of C_phi on the derivative space: unframed, its
    # sections read a corank one too large
    a = opbuild.weighted_adjoint(opbuild.composition_matrix(0.5, _deriv(64)))
    section = interior_section(a, k)
    square = opbuild.weighted_frame(a)
    framed = square[:-k]
    assert np.array_equal(framed, section)
    corank = numlin.Spectrum.of(section).corank()
    assert numlin.Spectrum.of(framed).corank() == corank
    assert numlin.Spectrum.of(a.entries[:-k]).corank() == corank + 1
    assert certify._kernel_rung(certify.Rung(square, k), 64)["corank"] == corank


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
    # column k holds the Taylor coefficients a_j of f = phi_r^k, which solves
    # (z + r)(1 + r z) f' = k (1 - r^2) f; read as a recurrence in the row
    # index, r (j+1) a_{j+1} = (k (1 - r^2) - (1 + r^2) j) a_j - r (j-1) a_{j-1}
    # with a_0 = r^k. Each row divides by r and so loses log10(1/|r|) digits:
    # the precision starts that many digits per row above 60
    n = 128
    m = opbuild.composition_matrix(r, _hardy(n)).entries
    with mpmath.workdps(60 + int(n * math.log10(1.0 / abs(r))) + 1):
        rr = mpmath.mpf(r)
        lin, quad = 1 - rr * rr, 1 + rr * rr
        err = 0.0
        for k in range(n):
            prev, cur = mpmath.mpf(0), rr ** k
            for j in range(n):
                err = max(err, abs(float(cur - m[j, k])))
                prev, cur = cur, (((k * lin - quad * j) * cur - rr * (j - 1) * prev)
                                  / (rr * (j + 1)))
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
    a = opbuild.composition_matrix(0.5, _deriv(7))
    rng = np.random.default_rng(3)
    astar = opbuild.weighted_adjoint(a)
    for _ in range(20):
        f = rng.standard_normal(a.w.size) + 1j * rng.standard_normal(a.w.size)
        g = rng.standard_normal(a.w.size) + 1j * rng.standard_normal(a.w.size)
        lhs = np.sum(a.w * (a.entries @ f) * np.conj(g))
        rhs = np.sum(a.w * f * np.conj(astar.entries @ g))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_weighted_adjoint_is_an_involution():
    a = opbuild.composition_matrix(0.3, _deriv(6))
    back = opbuild.weighted_adjoint(opbuild.weighted_adjoint(a))
    assert np.abs(back.entries - a.entries).max() < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.9), st.integers(2, 24), st.sampled_from(["power", "derivative"]))
def test_weighted_frame_is_a_unitary_change_of_coordinates(r, n, variant):
    w = spaces.weights(1.0, n, variant)
    for a in (opbuild.mult_z(w), opbuild.composition_matrix(r, w)):
        framed = opbuild.weighted_frame(a)
        # the framed matrix of the adjoint is the conjugate transpose
        framed_star = opbuild.weighted_frame(opbuild.weighted_adjoint(a))
        assert np.abs(framed_star - framed.conj().T).max() <= 1e-14 * max(
            np.abs(framed).max(), 1.0)


def test_mzstar_superdiagonal_weight_ratios():
    w = _deriv(6)
    mzs = opbuild.weighted_adjoint(opbuild.mult_z(w))
    expect = np.zeros((6, 6))
    for m in range(5):
        expect[m, m + 1] = w[m + 1] / w[m]
    assert np.abs(mzs.entries - expect).max() < 1e-14


def test_heller_principal_assembly():
    r = 0.5
    w = _deriv(8)
    displayed, flipped = opbuild.heller_remainders(r, 8)
    reference = opbuild.weighted_adjoint(opbuild.composition_matrix(-r, w)).entries
    comp = opbuild.composition_matrix(r, w)
    mz = opbuild.mult_z(w)
    mzs = opbuild.weighted_adjoint(mz)
    c1 = (1 + r * r) / (1 - r * r)
    c2 = r / (1 - r * r)
    for remainder, sign in ((displayed, -1), (flipped, 1)):
        manual = (c1 * comp.entries
                  + sign * c2 * (mzs.entries + mz.entries) @ comp.entries)
        expect = opbuild.weighted_frame(opbuild.OpMatrix(reference - manual, w))
        assert np.abs(remainder - expect).max() < 1e-14


def test_heller_remainders_are_framed_after_subtracting():
    # the flipped remainder is at rounding level, so only subtract-then-frame
    # keeps its bits; each principal part is assembled as the library does
    r, trunc = 0.5, 64
    w = _deriv(trunc)
    reference = opbuild.weighted_adjoint(opbuild.composition_matrix(-r, w)).entries
    comp = opbuild.composition_matrix(r, w)
    mz = opbuild.mult_z(w)
    middle = (r / (1 - r * r)) * (opbuild.weighted_adjoint(mz).entries
                                  + mz.entries) @ comp.entries
    base = (1 + r * r) / (1 - r * r) * comp.entries
    remainders = opbuild.heller_remainders(r, trunc)
    for remainder, principal in zip(remainders, (base - middle, base + middle)):
        expect = opbuild.weighted_frame(opbuild.OpMatrix(reference - principal, w))
        assert type(remainder) is np.ndarray
        assert remainder.tobytes() == expect.tobytes()


def test_block2x2_layout_and_zero_inference():
    u = opbuild.block_backward_shift(3, 1)
    zero = np.zeros((3, 3))
    m = opbuild.block2x2(u, np.eye(3), zero, zero)
    assert m.shape == (6, 6)
    assert np.array_equal(m[:3, :3], u)
    assert np.array_equal(m[:3, 3:], np.eye(3))
    assert np.array_equal(m[3:, :], np.zeros((3, 6)))
    # blocks whose rows or columns disagree do not tile, blocks that tile a
    # rectangle are not an operator on one space, and entries must be finite
    for blocks in ((u, np.eye(3), np.zeros((2, 3)), zero),
                   (u, np.eye(3), zero, np.zeros((3, 2))),
                   (u, np.zeros((3, 4)), zero, np.zeros((3, 4))),
                   (u, np.eye(3), zero, np.full((3, 3), np.inf))):
        with pytest.raises(ValueError):
            opbuild.block2x2(*blocks)


def test_compress_zH2_drops_constant_direction():
    a = opbuild.composition_matrix(0.5, _deriv(5))
    c = thm32_oracle.compress_zH2(a)
    assert c.entries.shape == (4, 4)
    assert np.array_equal(c.entries, a.entries[1:, 1:])
    # the compression slices the weights: e_1, e_2, ... keep their norms
    assert np.array_equal(c.w, [1.0, 4.0, 9.0, 16.0])
    # so the framed compressed adjoint is the transposed frame of C, less
    # its row and column 0, which is how the thm32 rung reads it
    framed = opbuild.weighted_frame(thm32_oracle.compressed_adjoint(0.5, 5))
    assert np.abs(framed - opbuild.weighted_frame(a)[1:, 1:].T).max() <= 1e-14 * np.abs(
        framed).max()


def test_hs_operators_realize_two_sided_multiplication():
    rng = np.random.default_rng(11)
    n = 4
    u = rng.standard_normal((n, n))
    v = rng.standard_normal((n, n))
    s = rng.standard_normal((n, n))
    direct = u @ s @ v
    # the left and right matrices compose to kron(V^T, U) on the
    # column-major vectorization
    prod = hs_dense.hs_matrix(u, None) @ hs_dense.hs_matrix(None, v)
    assert np.array_equal(prod, hs_dense.hs_matrix(u, v))
    vec = prod @ s.flatten(order="F")
    assert np.abs(vec - direct.flatten(order="F")).max() < 1e-12


def test_hs_kernel_basis_matches_dense_svd():
    n = 6
    b = opbuild.block_backward_shift(n, 1)
    structured, _, _ = opbuild.hs_pair_kernels(b, b)
    dense = svd_kernel(hs_dense.hs_matrix(b, None))
    assert structured.shape[1] == dense.shape[1] == n
    assert numlin.subspace_dims(structured, dense) == (n, n)


def _low_rank(rng, n, rank):
    """Random n x n factor of the given rank. Its nonzero singular values
    lie in [0.5, 2], some scaled by 1e-5: none sits near the rank threshold,
    but the product of two scaled ones falls below it."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    values = rng.choice([1e-5, 1.0], rank) * rng.uniform(0.5, 2.0, rank)
    return (q1[:, :rank] * values) @ q2[:, :rank].T


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
@example(3, 3, 3, 0)  # full-rank factors: every kernel is empty
@example(2, 0, 2, 1)  # a zero factor: its side's kernel is everything
def test_hs_pair_kernels_match_dense_kron(n, rank_u, rank_v, seed):
    rank_u, rank_v = min(rank_u, n), min(rank_v, n)
    rng = np.random.default_rng(seed)
    u, v = _low_rank(rng, n, rank_u), _low_rank(rng, n, rank_v)
    ker_left, ker_right, product_dim = opbuild.hs_pair_kernels(u, v)
    for basis, dense_op, rank in ((ker_left, hs_dense.hs_matrix(u, None), rank_u),
                                  (ker_right, hs_dense.hs_matrix(None, v), rank_v)):
        dense = svd_kernel(dense_op)
        assert basis.shape == (n * n, n * (n - rank))
        assert dense.shape[1] == basis.shape[1]
        assert numlin.subspace_dims(basis, dense) == (basis.shape[1], basis.shape[1])
    expected = numlin.Spectrum.of(np.kron(v.T, u)).kernel_dim()
    assert product_dim == expected


def test_opmatrix_rejects_nonfinite_entries():
    with pytest.raises(ValueError):
        opbuild.OpMatrix(np.array([[np.nan]]), _deriv(1))


def test_opmatrix_entries_must_be_square_on_its_weights():
    assert opbuild.OpMatrix(np.zeros((3, 3)), _deriv(3)).entries.shape == (3, 3)
    for entries, w in ((np.zeros((2, 3)), _deriv(3)), (np.zeros((2, 3)), _deriv(2)),
                       (np.zeros((3, 3)), _deriv(2))):
        with pytest.raises(ValueError, match="are not"):
            opbuild.OpMatrix(entries, w)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 6).map(lambda n: (n, n)),
                  elements=st.floats(allow_nan=False, allow_infinity=False,
                                     allow_subnormal=True)))
@example(np.array([[-0.0, 5e-324], [-5e-324, 0.0]]))
def test_unit_weights_frame_to_the_same_bits(x):
    # the fact that lets a real Hardy-space operator skip the frame: on unit
    # weights the frame multiplies by 1.0, which keeps every bit, signs of
    # zero and subnormals included
    framed = opbuild.weighted_frame(opbuild.OpMatrix(x.copy(), np.ones(x.shape[0])))
    assert framed.tobytes() == x.tobytes()


def test_hardy_builders_return_arrays_and_weighted_builders_operators():
    eye, zero = np.eye(3), np.zeros((3, 3))
    for m in (opbuild.block_backward_shift(3, 2), opbuild.block2x2(eye, zero, zero, eye)):
        assert type(m) is np.ndarray and not m.flags.writeable
    w = _deriv(5)
    weighted = [opbuild.composition_matrix(0.5, w), opbuild.mult_z(w),
                opbuild.weighted_adjoint(opbuild.mult_z(w))]
    for a in weighted:
        assert isinstance(a, opbuild.OpMatrix) and not a.entries.flags.writeable
    # the framed remainders are arrays in orthonormal coordinates
    for m in opbuild.heller_remainders(0.5, 5):
        assert type(m) is np.ndarray and m.shape == (5, 5)
