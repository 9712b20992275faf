"""The compressed weighted adjoint and its witnesses in weighted coordinates:
the oracle for thm32's framed rung.

`certify.family_adjoint_witnessed` frames the composition matrix C once and
reads the z-compressed adjoint A as `weighted_frame(C)[1:, 1:].T`, with every
witness quantity taken in that frame. Here A is built the long way, as the
Gram adjoint W^{-1} C^H W with row and column 0 deleted, and each witness v
is normalised, measured and multiplied with the weights W = diag(k^2). A
family carries u = W^{1/2} v, the library's coordinates, so the two compare
entry by entry.
"""

import numpy as np

from univcert import analytic, certify, opbuild, spaces


def compress_zH2(a: opbuild.OpMatrix) -> opbuild.OpMatrix:
    """Compression to span{e_1, ...}: delete row 0 and column 0."""
    if min(a.entries.shape) < 2:
        raise ValueError("compression needs size >= 2")
    return opbuild.OpMatrix(np.ascontiguousarray(a.entries[1:, 1:]), a.w[1:])


def compressed_adjoint(r: float, trunc: int) -> opbuild.OpMatrix:
    """z-compressed weighted adjoint of C_phi on the derivative-norm space."""
    w = spaces.weights(1.0, trunc, "derivative")
    return compress_zH2(opbuild.weighted_adjoint(opbuild.composition_matrix(r, w)))


def framed_square(r: float, lam: complex, trunc: int) -> np.ndarray:
    """A - lambda I in orthonormal coordinates, W^{1/2} (A - lambda I) W^{-1/2}."""
    a = compressed_adjoint(r, trunc)
    s = np.sqrt(a.w)
    return np.diag(s) @ (a.entries - lam * np.eye(trunc - 1)) @ np.diag(1.0 / s)


def framed_kept_rows(r: float, lam: complex, trunc: int) -> np.ndarray:
    """The leading rows - drop_rows rows of the framed square: the matrix a
    witnessed rung's corank and sigma_min read."""
    m = trunc - 1
    return framed_square(r, lam, trunc)[:m - m // 4]


def full_product_family(r, lam, trunc, index_max) -> certify.WitnessFamily:
    """The witness family in weighted coordinates, each residual read off the
    full product (A @ v - lambda v)[:win] of a complex copy of A, one
    witness at a time."""
    a = compressed_adjoint(r, trunc)
    am, wts = a.entries.astype(complex), a.w
    m = trunc - 1
    win = m // 4
    t_r = analytic.translation_length(r)
    ns = np.arange(-index_max, index_max + 1)
    ws = -np.log(complex(lam)) / t_r + 2j * np.pi * ns / t_r
    coeffs = analytic.eigenfunction_coeffs_recurrence(ws, trunc)[:, 1:]
    coeffs = coeffs / np.arange(1, trunc)
    vectors = np.zeros((m, ns.size), dtype=complex)
    residuals, window_mass = np.ones(ns.size), np.zeros(ns.size)
    for col, v in enumerate(coeffs):
        mass = wts * np.abs(v) ** 2
        total = mass.sum()
        if total == 0.0 or not np.isfinite(total):
            continue
        v = v / np.sqrt(total)
        res = (am @ v - lam * v)[:win]
        residuals[col] = np.sqrt(np.sum(wts[:win] * np.abs(res) ** 2))
        window_mass[col] = mass[:win].sum() / total
        vectors[:, col] = np.sqrt(wts) * v
    return certify.WitnessFamily(tuple(ns.tolist()), vectors, residuals, window_mass)


def weighted_gram_min(fam: certify.WitnessFamily) -> float:
    """Smallest eigenvalue of the Gram matrix v^H W v of a family's passing
    witnesses, back in weighted coordinates v = W^{-1/2} u."""
    passing = (fam.residuals < certify.WITNESS_TOL) & (fam.window_mass >= certify.MASS_FLOOR)
    k = np.arange(1.0, fam.vectors.shape[0] + 1)
    v = fam.vectors[:, passing] / k[:, None]
    return float(np.linalg.eigvalsh(v.conj().T @ (k[:, None] ** 2 * v))[0])


def weighted_rungs(r, lam, index_max):
    """thm32's rungs the long way: the square A - lambda I as an OpMatrix on
    the weights, framed here, and the full-product family."""
    def build(trunc: int) -> certify.Rung:
        a = compressed_adjoint(r, trunc)
        square = opbuild.weighted_frame(
            opbuild.OpMatrix(a.entries - lam * np.eye(trunc - 1), a.w))
        return certify.Rung(square, (trunc - 1) // 4,
                            full_product_family(r, lam, trunc, index_max))
    return build
