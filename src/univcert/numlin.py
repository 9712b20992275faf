"""Dense numerical linear algebra kernel: one spectrum per matrix, a proven
full-row-rank certificate and subspace arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8
GRAM_SHIFTS = (1e-2, 1e-4, 1e-6)  # trial shifts c of the Gram certificate, largest first
GRAM_SAFETY = 2.0                 # S: multiplies the certificate's rounding terms
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def gram_rows(b: np.ndarray) -> np.ndarray:
    """fl(B B^H), the Gram matrix of B's rows. A complex B is conjugated 128
    rows at a time, so its conjugate is never copied whole; a real B is its
    own conjugate and takes one product."""
    if not np.iscomplexobj(b):
        return b @ b.T
    gram = np.empty((b.shape[0],) * 2, dtype=b.dtype)
    for j in range(0, b.shape[0], 128):
        gram[:, j:j + 128] = b @ b[j:j + 128].conj().T
    return gram


def corank_zero_bound(gram: np.ndarray, cols: int,
                      tol_rel: float = DEFAULT_TOL) -> float | None:
    """A proven lower bound on sigma_min(B) that proves the m x cols array B
    has corank 0 under tol_rel, or None when no shift proves it.

    gram is fl(B B^H), as gram_rows returns it. For each c of
    GRAM_SHIFTS in turn, c is subtracted on gram's diagonal in place and
    gram - cI is factored by Cholesky; the diagonal is restored bit for bit
    after each trial. The first trial that completes decides: its factor R
    gives

        sigma_min(B)^2 >= c - S (gamma_{m+1} ||R||_F^2 + gamma_cols ||B||_F^2)

    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3
    and Thm 10.3; Rump, BIT 46, 2006), with S = GRAM_SAFETY, and in complex
    arithmetic each gamma_k read as gamma_{k+2} (Higham sec. 3.6). ||B||_F^2
    is gram's trace, scaled up by 1 + 2 gamma_cols. Since sigma_max <=
    ||B||_F, the bound proves corank 0 when it exceeds tol_rel ||B||_F.
    """
    m = gram.shape[0]
    pad = 2 if np.iscomplexobj(gram) else 0
    g_rows, g_cols = _gamma(m + 1 + pad), _gamma(cols + pad)
    diag = np.einsum("ii->i", gram)
    saved = diag.copy()
    fro_sq = float(saved.real.sum()) * (1.0 + 2.0 * g_cols)
    for c in GRAM_SHIFTS:
        diag -= c
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            continue
        finally:
            diag[:] = saved
        lower_sq = c - GRAM_SAFETY * (g_rows * np.vdot(factor, factor).real + g_cols * fro_sq)
        if lower_sq > tol_rel ** 2 * fro_sq:
            return float(np.sqrt(lower_sq))
        return None
    return None


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
