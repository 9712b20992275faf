"""Truncation matrices for the concrete operators under study.

Shifts, composition operators for hyperbolic disc automorphisms,
multiplication by z and weighted adjoints, 2x2 block assemblies, and the
kernels of left/right multiplications on Hilbert-Schmidt truncations, read
from their factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin, spaces


def _checked(m: np.ndarray, n: int) -> np.ndarray:
    """m, made read-only once it is n x n with finite entries."""
    if m.shape != (n, n):
        raise ValueError(f"entries of shape {m.shape} are not {n} x {n}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class OpMatrix:
    """Dense square truncation matrix on the space weighted by w, all that a
    computation reads of a space; a Hardy-space operator is a plain array."""

    entries: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        _checked(self.entries, self.w.size)


def block_backward_shift(K: int, d: int) -> np.ndarray:
    """Block shift (x_0, x_1, ..., x_{K-1}) -> (x_1, ..., x_{K-1}, 0) on K
    blocks of inner dimension d, as a read-only array on the Hardy space;
    d = 1 is the backward shift e_{k+1} -> e_k, e_0 -> 0."""
    if K < 2 or d < 1:
        raise ValueError("need K >= 2 blocks of dimension d >= 1")
    return _checked(np.eye(K * d, k=d), K * d)


# -- composition operators ---------------------------------------------------

def composition_matrix(r: float, w: np.ndarray) -> OpMatrix:
    """Column k holds the leading Taylor coefficients of phi_r^k.

    Built from (1 + r z) phi^{k+1} = (z + r) phi^k, entry by entry
    C[j, k] = C[j-1, k-1] + r (C[j, k-1] - C[j-1, k]): a division by
    1 + r z, a stable first-order filter for |r| < 1. The first N
    coefficients of a power depend only on the first N of phi, so the
    N x N section is exact up to rounding. Anti-diagonal j + k = d reads
    only diagonals d-1 and d-2; in the flat buffer it is a slice of
    stride N-1, so each diagonal is one vectorised step.
    """
    if not abs(r) < 1:
        raise ValueError(f"automorphism parameter must satisfy |r| < 1, got {r}")
    if r == 0:
        raise ValueError("r = 0 is the identity map, not a hyperbolic automorphism")
    n = w.size
    m = np.zeros((n, n))
    m[0, 0] = 1.0
    m[0, 1:] = np.cumprod(np.full(n - 1, r))   # C[0, k] = r C[0, k-1]
    flat, step = m.reshape(-1), n - 1
    for d in range(2, 2 * n - 1):
        # entries (j, d-j) with j >= 1 and k = d-j >= 1; their neighbours
        # (j, k-1), (j-1, k) and (j-1, k-1) lie 1, n and n+1 flat places back
        lo, hi = max(1, d - step), min(d - 1, step)
        start, stop = d + lo * step, d + hi * step + 1
        out = flat[start:stop:step]
        np.subtract(flat[start - 1:stop - 1:step], flat[start - n:stop - n:step], out=out)
        out *= r
        out += flat[start - n - 1:stop - n - 1:step]
    return OpMatrix(m, w)


def mult_z(w: np.ndarray) -> OpMatrix:
    """Coefficient forward shift f -> z f; e_{N-1} falls off the truncation."""
    return OpMatrix(np.eye(w.size, k=-1), w)


def weighted_adjoint(a: OpMatrix) -> OpMatrix:
    """Gram adjoint W^{-1} A^H W on the space weighted by w."""
    return OpMatrix(a.entries.conj().T * (a.w[None, :] / a.w[:, None]), a.w)


def weighted_frame(a: OpMatrix) -> np.ndarray:
    """Conjugate into orthonormal coordinates, W^{1/2} A W^{-1/2}, whose
    singular values are the operator's honest ones: the only way a weighted
    operator reaches numlin."""
    s = np.sqrt(a.w)
    return a.entries * (s[:, None] / s[None, :])


def _heller_principal(r: float, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal part (1+r^2)/(1-r^2) C -+ r/(1-r^2) (M_z^* + M_z) C on the
    weights w, as displayed and with its middle sign flipped, both read from
    one C and one product, which are freed before the remainders are built."""
    c1 = (1.0 + r * r) / (1.0 - r * r)
    c2 = r / (1.0 - r * r)
    comp = composition_matrix(r, w)
    mz = mult_z(w)
    middle = c2 * (weighted_adjoint(mz).entries + mz.entries) @ comp.entries
    base = c1 * comp.entries
    return base - middle, base + middle


def heller_remainders(r: float, trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """The weighted adjoint of C_{-r}, the adjoint of the inverse composition
    operator on the derivative-norm space, less each principal part, framed
    after subtracting: framing first would move a remainder at rounding
    level. A compact remainder shows by fast singular-value decay."""
    w = spaces.weights(1.0, trunc, "derivative")
    principal = _heller_principal(r, w)
    reference = weighted_adjoint(composition_matrix(-r, w)).entries
    return tuple(weighted_frame(OpMatrix(reference - p, w)) for p in principal)


# -- block assemblies --------------------------------------------------------

def block2x2(u, a, c, b) -> np.ndarray:
    """[[U, A], [C, B]] from four arrays, as a read-only Hardy-space array;
    blocks that do not tile a square, or non-finite entries, raise ValueError."""
    m = np.block([[u, a], [c, b]])
    return _checked(m, m.shape[0])


# -- Hilbert-Schmidt multiplications -----------------------------------------

def _kron_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columns kron(a[:, i], b[:, j]) in (i, j) order, each entry the single
    product a[p, i] * b[q, j] that the Kronecker product forms."""
    prod = np.multiply.outer(a, b).transpose(0, 2, 1, 3)
    return prod.reshape(a.shape[0] * b.shape[0], -1)


def hs_pair_kernels(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Kernels of S -> U S and S -> S V, as orthonormal columns, and the
    kernel dim of S -> U S V, from the factors U and V alone.

    On column-major vectorized n x n truncations S -> U S V is kron(V^T, U),
    an n^2 x n^2 matrix that is never formed. The SVD of kron(A, B) is the
    Kronecker product of the factor SVDs, so one SVD of U and one of V^T
    give all three: Ker(S -> U S) is spanned by e_i (x) q_j over U's
    negligible singular values, Ker(S -> S V) by p_i (x) e_j over V^T's,
    and kron(V^T, U) has as many negligible singular values as the outer
    product of the two spectra.
    """
    if u.shape[0] != v.shape[0]:
        raise ValueError("base dimensions differ")
    eye = np.eye(u.shape[0])
    _, s_u, vh_u = np.linalg.svd(u)
    if np.array_equal(v.T, u):
        # the block pair's V^T = (B*)^T is B = U: one SVD serves both sides
        s_v, vh_v = s_u, vh_u
    else:
        _, s_v, vh_v = np.linalg.svd(v.T)
    ker_u = vh_u.conj().T[:, numlin.negligible(s_u)]
    ker_v = vh_v.conj().T[:, numlin.negligible(s_v)]
    product = np.count_nonzero(numlin.negligible(np.multiply.outer(s_v, s_u)))
    return _kron_columns(eye, ker_u), _kron_columns(ker_v, eye), int(product)
