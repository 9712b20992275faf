"""Dense Kronecker oracle for the factor-only Hilbert-Schmidt operators.

opbuild.HSOperator holds only its factors. These helpers form what it
stands for: the action S -> U S V itself, the n^2 x n^2 matrix kron(V^T, U)
under column-major vectorization, and the kernel basis of S -> U S V built
column by column from Kronecker products of the factor singular vectors.
"""

import numpy as np

from univcert import numlin, opbuild


def _factors(op: opbuild.HSOperator) -> tuple[np.ndarray, np.ndarray]:
    eye = np.eye((op.factor_left or op.factor_right).entries.shape[0])
    u = eye if op.factor_left is None else op.factor_left.entries
    v = eye if op.factor_right is None else op.factor_right.entries
    return u, v


def apply_to(op: opbuild.HSOperator, s: np.ndarray) -> np.ndarray:
    u, v = _factors(op)
    return u @ s @ v


def hs_matrix(op: opbuild.HSOperator) -> np.ndarray:
    u, v = _factors(op)
    return np.kron(v.T, u)


def product_kernel(left: opbuild.HSOperator, right: opbuild.HSOperator,
                   tol_rel: float = numlin.DEFAULT_TOL) -> np.ndarray:
    """Kernel basis of S -> U S V, as orthonormal columns, for a pure left
    and a pure right factor.

    The SVD of kron(V^T, U) is the Kronecker product of the factor SVDs, so
    its kernel is spanned by kron(p_i, q_j) wherever the product of the two
    singular values is negligible.
    """
    n = left.factor_left.entries.shape[0]
    _, s_v, vh_v = np.linalg.svd(right.factor_right.entries.T)
    _, s_u, vh_u = np.linalg.svd(left.factor_left.entries)
    small = numlin.negligible(np.multiply.outer(s_v, s_u), tol_rel)
    cols = [np.kron(vh_v[i].conj(), vh_u[j].conj()) for i, j in zip(*np.nonzero(small))]
    basis = np.array(cols).T if cols else np.zeros((n * n, 0))
    return np.ascontiguousarray(basis)
