"""Truncation matrices for the concrete operators under study.

Shifts, composition operators for hyperbolic disc automorphisms,
multiplication by z and weighted adjoints, 2x2 block assemblies,
compressions to the z-invariant subspace, and left/right multiplication
operators on vectorized Hilbert-Schmidt truncations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numlin
from .spaces import SpaceSpec


@dataclass(frozen=True)
class OpMatrix:
    """Dense truncation matrix with its spaces and provenance."""

    entries: np.ndarray
    domain_space: SpaceSpec
    codomain_space: SpaceSpec
    provenance: str

    def __post_init__(self):
        if not self.provenance:
            raise ValueError("provenance must be non-empty")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("matrix entries must be finite")
        self.entries.setflags(write=False)

    @property
    def shape(self):
        return self.entries.shape


@dataclass(frozen=True)
class BlockShiftSpec:
    """K blocks of inner dimension d."""

    K: int
    d: int

    def __post_init__(self):
        if self.K < 2 or self.d < 1:
            raise ValueError("need K >= 2 blocks of dimension d >= 1")


def _square(entries: np.ndarray, space: SpaceSpec, provenance: str) -> OpMatrix:
    return OpMatrix(entries, space, space, provenance)


def _hardy(n: int, offset: int = 0) -> SpaceSpec:
    return SpaceSpec(beta=0.0, trunc=n, offset=offset)


def backward_shift(n: int, space: SpaceSpec | None = None) -> OpMatrix:
    """e_{k+1} -> e_k, e_0 -> 0."""
    if n < 2:
        raise ValueError("backward shift needs n >= 2")
    m = np.eye(n, k=1)
    return _square(m, space or _hardy(n), f"backward shift, n={n}")


def forward_shift(n: int, space: SpaceSpec | None = None) -> OpMatrix:
    m = np.eye(n, k=-1)
    return _square(m, space or _hardy(n), f"forward shift, n={n}")


def block_backward_shift(spec: BlockShiftSpec) -> OpMatrix:
    """Block shift (x_0, x_1, ..., x_{K-1}) -> (x_1, ..., x_{K-1}, 0)."""
    n = spec.K * spec.d
    m = np.eye(n, k=spec.d)
    return _square(m, _hardy(n), f"block backward shift, K={spec.K}, d={spec.d}")


def block_forward_shift(spec: BlockShiftSpec) -> OpMatrix:
    n = spec.K * spec.d
    m = np.eye(n, k=-spec.d)
    return _square(m, _hardy(n), f"block forward shift, K={spec.K}, d={spec.d}")


def interior_section(a: OpMatrix, drop_rows: int) -> OpMatrix:
    """Delete trailing codomain rows lost to truncation.

    Square finite sections of surjective shifts always show an artificial
    corank equal to the boundary band; the rectangular section keeps the
    surjectivity proxy honest.
    """
    if not 0 < drop_rows < a.entries.shape[0]:
        raise ValueError("drop_rows out of range")
    cod = replace(a.codomain_space, trunc=a.codomain_space.trunc - drop_rows, weights=None)
    return OpMatrix(
        np.ascontiguousarray(a.entries[:-drop_rows, :]),
        a.domain_space,
        cod,
        a.provenance + f", interior section (-{drop_rows} rows)",
    )


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
    return _square(m, space, f"composition by phi_{r}, n={n}")


def mult_z(space: SpaceSpec) -> OpMatrix:
    """Coefficient forward shift f -> z f; e_{N-1} falls off the truncation."""
    m = np.eye(space.trunc, k=-1)
    return _square(m, space, f"multiplication by z on {space.variant.value} space, n={space.trunc}")


def weighted_adjoint(a: OpMatrix, space: SpaceSpec | None = None) -> OpMatrix:
    """Gram adjoint W^{-1} A^H W for the diagonal weight W of the space."""
    s = space or a.domain_space
    if a.entries.shape[0] != a.entries.shape[1] or a.entries.shape[0] != s.trunc:
        raise ValueError("weighted adjoint requires a square matrix on the given space")
    w = s.weights
    adj = a.entries.conj().T * (w[None, :] / w[:, None])
    return OpMatrix(adj, s, s, f"weighted adjoint of [{a.provenance}]")


def weighted_frame(a: OpMatrix) -> np.ndarray:
    """Conjugate into orthonormal coordinates: W_out^{1/2} A W_in^{-1/2}.

    Singular values of the framed matrix are the honest singular values of
    the operator between the weighted spaces.
    """
    wi = np.sqrt(a.domain_space.weights)
    wo = np.sqrt(a.codomain_space.weights)
    return a.entries * (wo[:, None] / wi[None, :])


def heller_principal(r: float, lam: complex, space: SpaceSpec,
                     sign: int = -1) -> OpMatrix:
    """Principal part of the adjoint of the inverse composition operator.

    (1+r^2)/(1-r^2) C + sign r/(1-r^2) (M_z^* + M_z) C - lambda I with
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
    mzs = weighted_adjoint(mz, space)
    n = space.trunc
    ent = c1 * comp.entries + sign * (c2 * (mzs.entries + mz.entries) @ comp.entries)
    ent = ent - lam * np.eye(n)
    return OpMatrix(ent, space, space,
                    f"principal part of inverse-composition adjoint, r={r}, "
                    f"lambda={lam}, middle sign {sign:+d}")


# -- block assemblies --------------------------------------------------------

def block2x2(u, a, c, b, provenance: str = "2x2 block operator") -> OpMatrix:
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
    return _square(m, _hardy(m.shape[0]), provenance)


def compress_zH2(a: OpMatrix) -> OpMatrix:
    """Compression to span{e_1, ...}: delete row 0 and column 0."""
    n = a.entries.shape[0]
    if n < 2 or a.entries.shape[1] < 2:
        raise ValueError("compression needs size >= 2")
    dom = replace(a.domain_space, trunc=a.domain_space.trunc - 1,
                  offset=a.domain_space.offset + 1, weights=None)
    cod = replace(a.codomain_space, trunc=a.codomain_space.trunc - 1,
                  offset=a.codomain_space.offset + 1, weights=None)
    return OpMatrix(np.ascontiguousarray(a.entries[1:, 1:]), dom, cod,
                    f"z-subspace compression of [{a.provenance}]")


# -- Hilbert-Schmidt multiplications -----------------------------------------

@dataclass(frozen=True)
class HSOperator:
    """Linear action S -> U S V on vectorized n x n truncations, held as its
    factors only.

    Column-major vectorization makes it kron(V^T, U), an n^2 x n^2 matrix
    that is never formed. A missing factor means the identity on that side.
    """

    factor_left: OpMatrix | None
    factor_right: OpMatrix | None
    base_dim: int
    provenance: str


def hs_left(u: OpMatrix) -> HSOperator:
    return HSOperator(u, None, u.entries.shape[0],
                      f"left multiplication by [{u.provenance}]")


def hs_right(v: OpMatrix) -> HSOperator:
    return HSOperator(None, v, v.entries.shape[0],
                      f"right multiplication by [{v.provenance}]")


def _kron_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columns kron(a[:, i], b[:, j]) in (i, j) order, each entry the single
    product a[p, i] * b[q, j] that the Kronecker product forms."""
    prod = np.multiply.outer(a, b).transpose(0, 2, 1, 3)
    return prod.reshape(a.shape[0] * b.shape[0], -1)


def hs_pair_kernels(left: HSOperator, right: HSOperator,
                    tol_rel: float = numlin.DEFAULT_TOL
                    ) -> tuple[numlin.SubspaceBasis, numlin.SubspaceBasis, int]:
    """Kernels of S -> U S and S -> S V, and the kernel dim of S -> U S V.

    The SVD of kron(A, B) is the Kronecker product of the factor SVDs, so
    one SVD of U and one of V^T give all three: Ker(S -> U S) is spanned by
    e_i (x) q_j over U's negligible singular values, Ker(S -> S V) by
    p_i (x) e_j over V^T's, and S -> U S V = kron(V^T, U) has as many
    negligible singular values as the outer product of the two spectra.
    """
    u, v = left.factor_left, right.factor_right
    if u is None or v is None or left.factor_right is not None or right.factor_left is not None:
        raise ValueError("hs_pair_kernels expects a pure left and a pure right factor")
    if left.base_dim != right.base_dim:
        raise ValueError("base dimensions differ")
    eye = np.eye(left.base_dim)
    _, s_u, vh_u = np.linalg.svd(u.entries)
    _, s_v, vh_v = np.linalg.svd(v.entries.T)
    ker_u = vh_u.conj().T[:, numlin.negligible(s_u, tol_rel)]
    ker_v = vh_v.conj().T[:, numlin.negligible(s_v, tol_rel)]
    product = np.count_nonzero(numlin.negligible(np.multiply.outer(s_v, s_u), tol_rel))
    return (numlin.SubspaceBasis(_kron_columns(eye, ker_u), tol_rel),
            numlin.SubspaceBasis(_kron_columns(ker_v, eye), tol_rel),
            int(product))
