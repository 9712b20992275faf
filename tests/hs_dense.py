"""Dense Kronecker oracle for the Hilbert-Schmidt pairs held as factors.

A Hilbert-Schmidt pair carries only its factor matrices U and V. These
helpers form what they stand for: the n^2 x n^2 matrix kron(V^T, U) of
S -> U S V under column-major vectorization, and the kernel basis of
S -> U S V built column by column from Kronecker products of the factor
singular vectors.
"""

import numpy as np

from univcert import numlin


def hs_matrix(u: np.ndarray | None, v: np.ndarray | None) -> np.ndarray:
    """kron(V^T, U); a missing factor is the identity on its side."""
    eye = np.eye((u if u is not None else v).shape[0])
    return np.kron(eye if v is None else v.T, eye if u is None else u)


def product_kernel(u: np.ndarray, v: np.ndarray,
                   tol_rel: float = numlin.DEFAULT_TOL) -> np.ndarray:
    """Kernel basis of S -> U S V, as orthonormal columns.

    The SVD of kron(V^T, U) is the Kronecker product of the factor SVDs, so
    its kernel is spanned by kron(p_i, q_j) wherever the product of the two
    singular values is negligible.
    """
    n = u.shape[0]
    _, s_v, vh_v = np.linalg.svd(v.T)
    _, s_u, vh_u = np.linalg.svd(u)
    small = numlin.negligible(np.multiply.outer(s_v, s_u), tol_rel)
    cols = [np.kron(vh_v[i].conj(), vh_u[j].conj()) for i, j in zip(*np.nonzero(small))]
    basis = np.array(cols).T if cols else np.zeros((n * n, 0))
    return np.ascontiguousarray(basis)
