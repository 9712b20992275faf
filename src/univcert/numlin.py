"""Dense numerical linear algebra kernel: one spectrum per matrix and
subspace arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8


def negligible(values: np.ndarray, tol_rel: float = DEFAULT_TOL,
               top: float | None = None) -> np.ndarray:
    """The rank threshold: True where sigma <= tol_rel * top, with top =
    sigma_max unless given (||U|| ||V|| for a product UV). When top = 0
    every value counts as small, so the zero matrix has full kernel."""
    top = (values.max() if values.size else 0.0) if top is None else top
    return values <= tol_rel * top


@dataclass(frozen=True)
class Spectrum:
    """Singular values of one matrix, largest first, and its shape; every
    rank count of that matrix reads this one decomposition."""

    values: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def of(cls, a) -> Spectrum:
        """a: a 2-d array in orthonormal coordinates; a weighted operator
        reaches it through opbuild.weighted_frame."""
        m = np.asarray(a)
        if m.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        return cls(np.linalg.svd(m, compute_uv=False), m.shape)

    @property
    def sigma_min(self) -> float:
        return float(self.values[-1]) if self.values.size else 0.0

    def rank(self, tol_rel: float = DEFAULT_TOL) -> int:
        return int(np.count_nonzero(~negligible(self.values, tol_rel)))

    def kernel_dim(self, tol_rel: float = DEFAULT_TOL) -> int:
        return self.shape[1] - self.rank(tol_rel)

    def corank(self) -> int:
        """Codimension of the numerical range inside the codomain."""
        return self.shape[0] - self.rank()


def subspace_dims(u: np.ndarray, v: np.ndarray) -> tuple[int, int]:
    """(dim(U + V), dim(U & V)) for subspaces spanned by orthonormal columns,
    from one SVD of the stacked bases."""
    if u.shape[0] != v.shape[0]:
        raise ValueError(f"ambient dimensions differ: {u.shape[0]} vs {v.shape[0]}")
    total = Spectrum.of(np.hstack([u, v])).rank()
    return total, u.shape[1] + v.shape[1] - total
