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
