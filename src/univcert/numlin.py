"""Dense numerical linear algebra kernel: one spectrum per matrix, kernels,
subspace arithmetic."""

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


def negligible(values: np.ndarray, tol_rel: float = DEFAULT_TOL) -> np.ndarray:
    """The rank threshold: True where sigma <= tol_rel * sigma_max. When
    sigma_max = 0 every value counts as small, so the zero matrix has full
    kernel."""
    return values <= tol_rel * (values.max() if values.size else 0.0)


@dataclass(frozen=True)
class Spectrum:
    """Singular values of one matrix, largest first, and its shape; every
    rank count of that matrix reads this one decomposition."""

    values: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def of(cls, a) -> Spectrum:
        m = _as_matrix(a)
        return cls(np.linalg.svd(m, compute_uv=False), m.shape)

    @property
    def sigma_min(self) -> float:
        return float(self.values[-1]) if self.values.size else 0.0

    def rank(self, tol_rel: float = DEFAULT_TOL) -> int:
        return int(np.count_nonzero(~negligible(self.values, tol_rel)))

    def kernel_dim(self, tol_rel: float = DEFAULT_TOL) -> int:
        return self.shape[1] - self.rank(tol_rel)

    def corank(self, tol_rel: float = DEFAULT_TOL) -> int:
        """Codimension of the numerical range inside the codomain."""
        return self.shape[0] - self.rank(tol_rel)


def svd_kernel(a, tol_rel: float = DEFAULT_TOL) -> SubspaceBasis:
    """Right singular vectors whose singular value is negligible."""
    m = _as_matrix(a)
    _, s, vh = np.linalg.svd(m)
    k = int(np.count_nonzero(negligible(s, tol_rel)))
    # rows of vh beyond min(m, n) are always annihilated (wide matrices)
    basis = np.ascontiguousarray(vh[min(m.shape) - k :].conj().T)
    return SubspaceBasis(basis, tol_rel)


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues, sorted by (|lambda|, arg lambda) for determinism."""
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("eigenvalues require a square matrix")
    vals = np.linalg.eigvals(m)
    order = np.lexsort((np.angle(vals), np.abs(vals)))
    return vals[order]


def subspace_dims(u: SubspaceBasis, v: SubspaceBasis,
                  tol_rel: float = DEFAULT_TOL) -> tuple[int, int]:
    """(dim(U + V), dim(U & V)) from one SVD of the stacked bases."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}"
        )
    if u.dim == 0 or v.dim == 0:
        total = u.dim + v.dim
    else:
        total = Spectrum.of(np.hstack([u.columns, v.columns])).rank(tol_rel)
    return total, u.dim + v.dim - total
