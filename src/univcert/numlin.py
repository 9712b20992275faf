"""Dense numerical linear algebra kernel: SVD ranks, kernels, subspace arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a numerical subspace of C^N."""

    columns: np.ndarray
    tol_used: float

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[0]

    @property
    def dim(self) -> int:
        return self.columns.shape[1]


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(getattr(a, "entries", a))
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return m


def svd_kernel(a, tol_rel: float = DEFAULT_TOL) -> SubspaceBasis:
    """Right singular vectors with sigma_i <= tol_rel * sigma_max.

    The zero matrix is treated as having full kernel.
    """
    m = _as_matrix(a)
    _, s, vh = np.linalg.svd(m)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return SubspaceBasis(np.eye(m.shape[1], dtype=m.dtype), tol_rel)
    k = int(np.sum(s <= tol_rel * smax))
    # rows of vh beyond min(m, n) are always annihilated (wide matrices)
    basis = np.ascontiguousarray(vh[min(m.shape) - k :].conj().T)
    return SubspaceBasis(basis, tol_rel)


def singular_values(a) -> np.ndarray:
    return np.linalg.svd(_as_matrix(a), compute_uv=False)


def sigma_min(a) -> float:
    s = singular_values(a)
    return float(s[-1]) if s.size else 0.0


def spectrum_rank(s: np.ndarray, tol_rel: float = DEFAULT_TOL) -> int:
    """How many of the singular values s (largest first) exceed tol_rel * s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol_rel * s[0]))


def numerical_rank(a, tol_rel: float = DEFAULT_TOL) -> int:
    return spectrum_rank(singular_values(a), tol_rel)


def corank(a, tol_rel: float = DEFAULT_TOL) -> int:
    """Codimension of the numerical range inside the codomain."""
    m = _as_matrix(a)
    return m.shape[0] - numerical_rank(m, tol_rel)


def kernel_dim(a, tol_rel: float = DEFAULT_TOL) -> int:
    m = _as_matrix(a)
    return m.shape[1] - numerical_rank(m, tol_rel)


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues, sorted by (|lambda|, arg lambda) for determinism."""
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("eigenvalues require a square matrix")
    vals = np.linalg.eigvals(m)
    order = np.lexsort((np.angle(vals), np.abs(vals)))
    return vals[order]


def _check_ambient(u: SubspaceBasis, v: SubspaceBasis):
    if u.ambient_dim != v.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}"
        )


def subspace_sum_dim(u: SubspaceBasis, v: SubspaceBasis, tol_rel: float = DEFAULT_TOL) -> int:
    _check_ambient(u, v)
    if u.dim == 0:
        return v.dim
    if v.dim == 0:
        return u.dim
    return numerical_rank(np.hstack([u.columns, v.columns]), tol_rel)


def subspace_intersection_dim(
    u: SubspaceBasis, v: SubspaceBasis, tol_rel: float = DEFAULT_TOL
) -> int:
    _check_ambient(u, v)
    return u.dim + v.dim - subspace_sum_dim(u, v, tol_rel)
