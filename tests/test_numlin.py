"""Spectra, ranks, kernels and subspace arithmetic against hand-built cases
and dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univcert import numlin, opbuild, spaces

from dense_kernel import svd_kernel


def test_kernel_of_rank_one_matrix():
    m = np.outer([1.0, 2.0, 3.0], [1.0, 0.0, -1.0])
    basis = svd_kernel(m)
    assert basis.shape[1] == 2
    assert np.linalg.norm(m @ basis) < 1e-12
    # columns are orthonormal
    g = basis.conj().T @ basis
    assert np.allclose(g, np.eye(2), atol=1e-12)


def test_zero_matrix_has_full_kernel():
    basis = svd_kernel(np.zeros((3, 5)))
    assert basis.shape == (5, 5)
    spec = numlin.Spectrum.of(np.zeros((3, 5)))
    assert (spec.rank(), spec.kernel_dim(), spec.corank()) == (0, 5, 3)


def test_wide_matrix_kernel_counts_missing_rows():
    # 2 x 4 of full row rank: kernel dimension must be 2, not 0
    m = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    basis = svd_kernel(m)
    assert basis.shape[1] == 2
    assert np.linalg.norm(m @ basis) < 1e-12


def test_rank_corank_kernel_dim_accounting():
    spec = numlin.Spectrum.of(np.diag([5.0, 3.0, 1e-12, 0.0]))
    assert spec.shape == (4, 4)
    assert spec.rank() == 2
    assert spec.corank() == 2
    assert spec.kernel_dim() == 2
    assert spec.kernel_dim(tol_rel=1e-14) == 1


def test_sigma_min_of_shift_section():
    spec = numlin.Spectrum.of(np.eye(4, k=1))
    assert spec.sigma_min == pytest.approx(0.0, abs=1e-15)
    assert spec.values[0] == pytest.approx(1.0)


def test_subspace_sum_and_intersection_oracle():
    e = np.eye(4)
    u = e[:, :2]           # span{e0, e1}
    v = e[:, 1:3]          # span{e1, e2}
    assert numlin.subspace_dims(u, v) == (3, 1)
    w = np.zeros((4, 0))
    assert numlin.subspace_dims(u, w) == (2, 0)


def test_subspace_ambient_mismatch_raises():
    u = np.eye(3)[:, :1]
    v = np.eye(4)[:, :1]
    with pytest.raises(ValueError):
        numlin.subspace_dims(u, v)


def test_refuses_an_operator_matrix():
    # a weighted operator reaches numlin only through opbuild.weighted_frame
    mz = opbuild.mult_z(spaces.weights(1.0, 4, "derivative"))
    with pytest.raises(ValueError, match="expected a 2-d matrix"):
        numlin.Spectrum.of(mz)
    assert numlin.Spectrum.of(opbuild.weighted_frame(mz)).rank() == 3


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 10), st.integers(0, 5), st.integers(0, 999))
def test_similarity_preserves_kernel_dimensions(n, defect, seed):
    rng = np.random.default_rng(seed)
    k = min(defect, n - 1)
    d = np.ones(n)
    d[:k] = 0.0
    a = np.diag(d)
    s = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    conj = s @ a @ np.linalg.inv(s)
    spec = numlin.Spectrum.of(conj)
    assert spec.kernel_dim() == k
    assert spec.corank() == k


def _orthonormal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _of_rank(rng, rows, cols, rank):
    """U diag(s) V^H with rank singular values in [1, 10], the rest zero."""
    s = np.zeros((rows, cols))
    s[np.arange(rank), np.arange(rank)] = rng.uniform(1.0, 10.0, rank)
    return _orthonormal(rng, rows) @ s @ _orthonormal(rng, cols).conj().T


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 9), st.integers(0, 999))
def test_spectrum_counts_agree_with_kernels_and_stacked_ranks(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    spec = numlin.Spectrum.of(_of_rank(rng, rows, cols, rank))
    assert spec.rank() == rank
    assert spec.rank() + spec.kernel_dim() == cols
    assert spec.rank() + spec.corank() == rows
    square = _of_rank(rng, rows, rows, rank)
    assert numlin.Spectrum.of(square).kernel_dim() == svd_kernel(square).shape[1]
    # a rows-dim and a cols-dim subspace sharing rank columns of one unitary
    q = _orthonormal(rng, rows + cols - rank)
    u = q[:, :rows]
    v = q[:, rows - rank:rows - rank + cols]
    stacked = np.linalg.matrix_rank(np.hstack([u, v]))
    assert stacked == rows + cols - rank
    assert numlin.subspace_dims(u, v) == (stacked, rows + cols - stacked)


# -- the Gram-Cholesky certificate --------------------------------------------

def _householder(rng, n, complex_entries):
    """I - 2 v v^H / (v^H v): unitary and Hermitian."""
    v = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_entries else 0)
    return np.eye(n) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real


def _with_singular_values(rng, s, cols, complex_entries):
    """Q [diag(s) 0] P^H, m = len(s) rows, Q and P Householder reflectors."""
    m = len(s)
    core = np.zeros((m, cols))
    core[np.arange(m), np.arange(m)] = s
    return (_householder(rng, m, complex_entries) @ core
            @ _householder(rng, cols, complex_entries))


def _bound(b):
    return numlin.corank_zero_bound(numlin.gram_rows(b), b.shape[1])


def test_the_gram_of_complex_rows_is_formed_a_block_at_a_time():
    rng = np.random.default_rng(3)
    real = rng.standard_normal((300, 320))
    assert numlin.gram_rows(real).tobytes() == (real @ real.T).tobytes()
    # 300 rows span three blocks; every entry is an inner product of length
    # 320, within gamma_322 |B| |B|^T of the exact one, as is numpy's
    b = real + 1j * rng.standard_normal((300, 320))
    gram = numlin.gram_rows(b)
    assert gram.shape == (300, 300)
    bound = 2 * numlin._gamma(322) * (np.abs(b) @ np.abs(b).T)
    assert np.all(np.abs(gram - b @ b.conj().T) <= bound)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(0, 6), st.booleans(),
       st.sampled_from(numlin.GRAM_SHIFTS), st.integers(-3, 3),
       st.sampled_from([1e-12, 0.25]), st.floats(0.0, 6.0), st.integers(0, 999))
def test_the_gram_bound_never_exceeds_the_true_sigma_min(m, extra, complex_entries, c,
                                                         nudge, step, log_cond, seed):
    # sigma_min sits a few ulps of sqrt(c) either side of a trial shift,
    # where a Cholesky that completes must not round the bound above it, or
    # well clear of it
    rng = np.random.default_rng(seed)
    cols = m + extra
    s_min = np.sqrt(c) * (1.0 + nudge * step)
    s = np.sort(s_min * np.r_[10.0 ** rng.uniform(0.0, log_cond, m - 1), 1.0])[::-1]
    b = _with_singular_values(rng, s, cols, complex_entries)
    lower = _bound(b)
    # the reflectors move the singular values of the formed B by rounding only
    slack = 8 * cols * numlin.UNIT_ROUNDOFF * s[0]
    if lower is not None:
        assert lower <= s_min + slack
        assert lower > numlin.DEFAULT_TOL * np.linalg.norm(b)
    if step == 0.25 and nudge > 0:
        # 1.25 sqrt(c) or more: the trial at c, or an earlier one, proves it
        assert lower is not None and lower > 0.5 * np.sqrt(c)


def test_a_singular_gram_has_no_bound():
    b = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    assert _bound(b) is None
    assert _bound(np.zeros((3, 4))) is None
    assert _bound(np.eye(4)) == pytest.approx(np.sqrt(numlin.GRAM_SHIFTS[0]), rel=1e-12)


def test_a_scaled_matrix_is_not_proven():
    # sigma_min 2e-3 is above sqrt(c) for the smallest shift, but below the
    # threshold 1e-8 ||B||_F = 1e-2: the rounding of a Gram matrix of norm
    # 1e12 swamps every shift
    b = np.diag([1e6, 1.0, 2e-3])
    assert _bound(b) is None
    # a row whose rounding term crosses the largest shift: whatever bound a
    # trial gives, it is a proof only above the threshold
    for scale in np.geomspace(1e12, 1e14, 101):
        row = np.array([[np.sqrt(scale), 0.0]])
        lower = _bound(row)
        assert lower is None or lower > numlin.DEFAULT_TOL * np.sqrt(scale)


def test_the_gram_diagonal_is_restored_after_every_trial():
    rng = np.random.default_rng(7)
    # sigma_min 0.05: the first shift fails and the second proves; sigma_min
    # 0: every shift fails
    for s in ([3.0, 1.0, 0.05], [3.0, 1.0, 0.0]):
        for complex_entries in (False, True):
            b = _with_singular_values(rng, s, 5, complex_entries)
            gram = b @ b.conj().T
            before = gram.tobytes()
            lower = numlin.corank_zero_bound(gram, 5)
            assert gram.tobytes() == before
            assert (lower is None) == (s[-1] == 0.0)
            if lower is not None:
                assert np.sqrt(numlin.GRAM_SHIFTS[2]) < lower <= np.sqrt(numlin.GRAM_SHIFTS[1])
