"""Dense kernel bases: the oracle for counts that the library reads from
singular values alone.

Every dense kernel and intersection dim in the library comes from a
values-only `numlin.Spectrum`; svd_kernel builds the kernel itself, as
orthonormal columns, so a test can intersect two kernels through
`numlin.subspace_dims` and compare.
"""

import numpy as np

from univcert.numlin import DEFAULT_TOL, negligible


def svd_kernel(a, tol_rel: float = DEFAULT_TOL) -> np.ndarray:
    """Right singular vectors of the 2-d array a whose singular value is
    negligible, as orthonormal columns."""
    m = np.asarray(a)
    _, s, vh = np.linalg.svd(m)
    k = int(np.count_nonzero(negligible(s, tol_rel)))
    # rows of vh beyond min(m, n) are always annihilated (wide matrices)
    return np.ascontiguousarray(vh[min(m.shape) - k :].conj().T)
