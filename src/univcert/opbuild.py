"""Truncation matrices for the concrete operators under study.

Shifts, composition operators for hyperbolic disc automorphisms,
multiplication by z and weighted adjoints, 2x2 block assemblies,
compressions to the z-invariant subspace, and the kernels of left/right
multiplications on Hilbert-Schmidt truncations, read from their factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numlin
from .spaces import SpaceSpec


@dataclass(frozen=True)
class OpMatrix:
    """Dense truncation matrix with its domain and codomain spaces."""

    entries: np.ndarray
    domain_space: SpaceSpec
    codomain_space: SpaceSpec

    def __post_init__(self):
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("matrix entries must be finite")
        self.entries.setflags(write=False)


@dataclass(frozen=True)
class BlockShiftSpec:
    """K blocks of inner dimension d."""

    K: int
    d: int

    def __post_init__(self):
        if self.K < 2 or self.d < 1:
            raise ValueError("need K >= 2 blocks of dimension d >= 1")


def _square(entries: np.ndarray, space: SpaceSpec) -> OpMatrix:
    return OpMatrix(entries, space, space)


def _hardy(n: int) -> SpaceSpec:
    return SpaceSpec(beta=0.0, trunc=n)


def backward_shift(n: int) -> OpMatrix:
    """e_{k+1} -> e_k, e_0 -> 0."""
    if n < 2:
        raise ValueError("backward shift needs n >= 2")
    return _square(np.eye(n, k=1), _hardy(n))


def block_backward_shift(spec: BlockShiftSpec) -> OpMatrix:
    """Block shift (x_0, x_1, ..., x_{K-1}) -> (x_1, ..., x_{K-1}, 0)."""
    n = spec.K * spec.d
    return _square(np.eye(n, k=spec.d), _hardy(n))


def block_forward_shift(spec: BlockShiftSpec) -> OpMatrix:
    n = spec.K * spec.d
    return _square(np.eye(n, k=-spec.d), _hardy(n))


def interior_section(a: OpMatrix, drop_rows: int) -> OpMatrix:
    """Delete trailing codomain rows lost to truncation.

    Square finite sections of surjective shifts always show an artificial
    corank equal to the boundary band; the rectangular section keeps the
    surjectivity proxy honest.
    """
    if not 0 < drop_rows < a.entries.shape[0]:
        raise ValueError("drop_rows out of range")
    cod = replace(a.codomain_space, trunc=a.codomain_space.trunc - drop_rows)
    return OpMatrix(np.ascontiguousarray(a.entries[:-drop_rows, :]), a.domain_space, cod)


# -- composition operators ---------------------------------------------------

def composition_matrix(r: float, space: SpaceSpec) -> OpMatrix:
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
    n = space.trunc
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
    return _square(m, space)


def mult_z(space: SpaceSpec) -> OpMatrix:
    """Coefficient forward shift f -> z f; e_{N-1} falls off the truncation."""
    return _square(np.eye(space.trunc, k=-1), space)


def weighted_adjoint(a: OpMatrix) -> OpMatrix:
    """Gram adjoint W^{-1} A^H W for the diagonal weight W of the domain space."""
    s = a.domain_space
    if a.entries.shape[0] != a.entries.shape[1] or a.entries.shape[0] != s.trunc:
        raise ValueError("weighted adjoint requires a square matrix on its domain space")
    w = s.weights
    adj = a.entries.conj().T * (w[None, :] / w[:, None])
    return _square(adj, s)


def weighted_frame(a: OpMatrix) -> np.ndarray:
    """Conjugate into orthonormal coordinates: W_out^{1/2} A W_in^{-1/2}.

    Singular values of the framed matrix are the honest singular values of
    the operator between the weighted spaces.
    """
    wi = np.sqrt(a.domain_space.weights)
    wo = np.sqrt(a.codomain_space.weights)
    return a.entries * (wo[:, None] / wi[None, :])


def heller_principal(r: float, space: SpaceSpec, sign: int = -1) -> OpMatrix:
    """Principal part of the adjoint of the inverse composition operator.

    (1+r^2)/(1-r^2) C + sign r/(1-r^2) (M_z^* + M_z) C with
    sign = -1 as displayed, +1 for the combination with the middle sign
    flipped; the compact remainder is not constructible and is assessed by
    singular-value decay.
    """
    if space.beta != 1.0:
        raise ValueError("the principal-part formula lives on the beta = 1 space")
    c1 = (1.0 + r * r) / (1.0 - r * r)
    c2 = r / (1.0 - r * r)
    comp = composition_matrix(r, space)
    mz = mult_z(space)
    mzs = weighted_adjoint(mz)
    ent = c1 * comp.entries + sign * (c2 * (mzs.entries + mz.entries) @ comp.entries)
    return _square(ent, space)


# -- block assemblies --------------------------------------------------------

def block2x2(u, a, c, b) -> OpMatrix:
    """Assemble [[U, A], [C, B]]; None stands for a zero block."""
    blocks = [[u, a], [c, b]]
    ent = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            blk = blocks[i][j]
            if blk is not None:
                ent[i][j] = np.asarray(getattr(blk, "entries", blk))

    def _dim(pair, axis):
        sizes = {e.shape[axis] for e in pair if e is not None}
        if len(sizes) != 1:
            raise ValueError("block sizes are inconsistent or underdetermined")
        return sizes.pop()

    rows = [_dim(ent[i], 0) for i in range(2)]
    cols = [_dim([ent[0][j], ent[1][j]], 1) for j in range(2)]
    for i in range(2):
        for j in range(2):
            if ent[i][j] is None:
                ent[i][j] = np.zeros((rows[i], cols[j]))
    m = np.block(ent)
    return _square(m, _hardy(m.shape[0]))


def compress_zH2(a: OpMatrix) -> OpMatrix:
    """Compression to span{e_1, ...}: delete row 0 and column 0."""
    n = a.entries.shape[0]
    if n < 2 or a.entries.shape[1] < 2:
        raise ValueError("compression needs size >= 2")
    dom = replace(a.domain_space, trunc=a.domain_space.trunc - 1,
                  offset=a.domain_space.offset + 1)
    cod = replace(a.codomain_space, trunc=a.codomain_space.trunc - 1,
                  offset=a.codomain_space.offset + 1)
    return OpMatrix(np.ascontiguousarray(a.entries[1:, 1:]), dom, cod)


# -- Hilbert-Schmidt multiplications -----------------------------------------

def _kron_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columns kron(a[:, i], b[:, j]) in (i, j) order, each entry the single
    product a[p, i] * b[q, j] that the Kronecker product forms."""
    prod = np.multiply.outer(a, b).transpose(0, 2, 1, 3)
    return prod.reshape(a.shape[0] * b.shape[0], -1)


def hs_pair_kernels(u: OpMatrix, v: OpMatrix, tol_rel: float = numlin.DEFAULT_TOL
                    ) -> tuple[np.ndarray, np.ndarray, int]:
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
    if u.entries.shape[0] != v.entries.shape[0]:
        raise ValueError("base dimensions differ")
    eye = np.eye(u.entries.shape[0])
    _, s_u, vh_u = np.linalg.svd(u.entries)
    if np.array_equal(v.entries.T, u.entries):
        # the block pair's V^T = (B*)^T is B = U: one SVD serves both sides
        s_v, vh_v = s_u, vh_u
    else:
        _, s_v, vh_v = np.linalg.svd(v.entries.T)
    ker_u = vh_u.conj().T[:, numlin.negligible(s_u, tol_rel)]
    ker_v = vh_v.conj().T[:, numlin.negligible(s_v, tol_rel)]
    product = np.count_nonzero(numlin.negligible(np.multiply.outer(s_v, s_u), tol_rel))
    return _kron_columns(eye, ker_u), _kron_columns(ker_v, eye), int(product)
