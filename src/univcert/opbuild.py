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
    """Dense truncation matrix with provenance and build-padding record."""

    entries: np.ndarray
    domain_space: SpaceSpec
    codomain_space: SpaceSpec
    build_pad: int
    provenance: str

    def __post_init__(self):
        if not self.provenance:
            raise ValueError("provenance must be non-empty")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("matrix entries must be finite")
        if self.build_pad < max(self.entries.shape):
            raise ValueError("build_pad must be at least the truncation size")
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


def _square(entries: np.ndarray, space: SpaceSpec, provenance: str, pad: int | None = None) -> OpMatrix:
    return OpMatrix(entries, space, space, pad or space.trunc, provenance)


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
        a.build_pad,
        a.provenance + f", interior section (-{drop_rows} rows)",
    )


# -- composition operators ---------------------------------------------------

def mobius_coeffs(r: float, length: int) -> np.ndarray:
    """Taylor coefficients of (z + r)/(1 + r z) from the geometric series."""
    j = np.arange(length)
    c = np.empty(length)
    c[0] = r
    c[1:] = (1.0 - r * r) * (-r) ** (j[1:] - 1.0)
    return c


def _truncated_powers(base: np.ndarray, count: int, pad: int) -> np.ndarray:
    """Rows 0..count-1 hold the first `pad` coefficients of base^k.

    Powers by truncated polynomial multiplication, FFT-accelerated.
    """
    nfft = 1
    while nfft < 2 * pad:
        nfft *= 2
    base_f = np.fft.rfft(base, nfft)
    out = np.zeros((count, pad))
    out[0, 0] = 1.0
    cur = out[0]
    for k in range(1, count):
        cur = np.fft.irfft(np.fft.rfft(cur, nfft) * base_f, nfft)[:pad]
        out[k] = cur
    return out


def composition_matrix(r: float, space: SpaceSpec, pad_factor: int = 4) -> OpMatrix:
    """Column k holds the leading Taylor coefficients of phi_r^k.

    Built at padded truncation pad_factor * N and windowed to N, so that the
    low-order coefficients of high powers are not polluted by the finite
    section.
    """
    if not abs(r) < 1:
        raise ValueError(f"automorphism parameter must satisfy |r| < 1, got {r}")
    if r == 0:
        raise ValueError("r = 0 is the identity map, not a hyperbolic automorphism")
    n = space.trunc
    pad = max(pad_factor * n, n)
    powers = _truncated_powers(mobius_coeffs(r, pad), n, pad)
    m = np.ascontiguousarray(powers[:, :n].T)
    return OpMatrix(m, space, space, pad, f"composition by phi_{r}, n={n}")


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
    return OpMatrix(adj, s, s, a.build_pad, f"weighted adjoint of [{a.provenance}]")


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
    return OpMatrix(ent, space, space, comp.build_pad,
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
    return _square(m, _hardy(m.shape[0]), provenance, pad=m.shape[0])


def compress_zH2(a: OpMatrix) -> OpMatrix:
    """Compression to span{e_1, ...}: delete row 0 and column 0."""
    n = a.entries.shape[0]
    if n < 2 or a.entries.shape[1] < 2:
        raise ValueError("compression needs size >= 2")
    dom = replace(a.domain_space, trunc=a.domain_space.trunc - 1,
                  offset=a.domain_space.offset + 1, weights=None)
    cod = replace(a.codomain_space, trunc=a.codomain_space.trunc - 1,
                  offset=a.codomain_space.offset + 1, weights=None)
    return OpMatrix(np.ascontiguousarray(a.entries[1:, 1:]), dom, cod, a.build_pad,
                    f"z-subspace compression of [{a.provenance}]")


# -- Hilbert-Schmidt multiplications -----------------------------------------

@dataclass(frozen=True)
class HSOperator:
    """Linear action S -> U S V on vectorized n x n truncations.

    Column-major vectorization: the matrix is kron(V^T, U). A missing factor
    means the identity on that side.
    """

    matrix: np.ndarray
    factor_left: OpMatrix | None
    factor_right: OpMatrix | None
    base_dim: int
    provenance: str

    def __post_init__(self):
        if self.matrix.shape != (self.base_dim**2, self.base_dim**2):
            raise ValueError("HS matrix must act on the squared base dimension")
        self.matrix.setflags(write=False)

    @property
    def entries(self) -> np.ndarray:
        return self.matrix

    def apply_to(self, s: np.ndarray) -> np.ndarray:
        u = self.factor_left.entries if self.factor_left is not None else None
        v = self.factor_right.entries if self.factor_right is not None else None
        out = s if u is None else u @ s
        return out if v is None else out @ v

    def kernel_basis(self, tol_rel: float = numlin.DEFAULT_TOL) -> numlin.SubspaceBasis:
        """Orthonormal kernel basis via factor SVDs.

        The SVD of kron(A, B) is the Kronecker product of the factor SVDs,
        so the kernel basis of U S V comes from two base-dimension SVDs
        instead of one n^2 x n^2 decomposition.
        """
        n = self.base_dim
        svs, bases = [], []
        for fac, transpose in ((self.factor_right, True), (self.factor_left, False)):
            if fac is None:
                svs.append(np.ones(n))
                bases.append(np.eye(n))
            else:
                m = fac.entries.T if transpose else fac.entries
                _, s, vh = np.linalg.svd(m)
                svs.append(s)
                bases.append(vh.conj().T)
        prod = np.multiply.outer(svs[0], svs[1])
        smax = prod.max()
        cols = []
        for i in range(n):
            for j in range(n):
                if smax == 0.0 or prod[i, j] <= tol_rel * smax:
                    cols.append(np.kron(bases[0][:, i], bases[1][:, j]))
        basis = np.array(cols).T if cols else np.zeros((n * n, 0))
        return numlin.SubspaceBasis(np.ascontiguousarray(basis), tol_rel)


def hs_left(u: OpMatrix) -> HSOperator:
    n = u.entries.shape[0]
    return HSOperator(np.kron(np.eye(n), u.entries), u, None, n,
                      f"left multiplication by [{u.provenance}]")


def hs_right(v: OpMatrix) -> HSOperator:
    n = v.entries.shape[0]
    return HSOperator(np.kron(v.entries.T, np.eye(n)), None, v, n,
                      f"right multiplication by [{v.provenance}]")


def hs_product(left: HSOperator, right: HSOperator) -> HSOperator:
    """Composition left . right; requires pure left and pure right factors."""
    if left.factor_right is not None or right.factor_left is not None:
        raise ValueError("hs_product expects a pure left and a pure right factor")
    if left.base_dim != right.base_dim:
        raise ValueError("base dimensions differ")
    u, v = left.factor_left, right.factor_right
    n = left.base_dim
    return HSOperator(np.kron(v.entries.T, u.entries), u, v, n,
                      f"({left.provenance}) . ({right.provenance})")
