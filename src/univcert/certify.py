"""Universality certificates and falsifiers over truncation ladders.

Decision rules are three-valued. A ladder of growing truncations supplies
bounded evidence only, so the strongest positive verdict is
"certified_at_scale"; it never claims a proof.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import analytic, numlin, opbuild, spaces

CERTIFIED = "certified_at_scale"
FALSIFIED = "falsified"
INCONCLUSIVE = "inconclusive"

WITNESS_TOL = 1e-4
SCAN_TOLS = (1e-6, 1e-8)  # rank thresholds the spectral scan reads each cell at
ALGEBRAIC_TOL = 1e-10     # bound on a dependence witness's defect and commutator
MASS_FLOOR = 0.5     # least share of a counted witness's norm in the window
WINDOW_FRAC = 4      # residual window and rows the corank drops: 1/4 of a rung
ANNULUS_SPAN = 0.8   # annulus_grid's span in u, where |lambda| = exp(u t_r / 2)

SCALE_CAVEAT = (
    "truncation kernel growth is a heuristic proxy for infinite multiplicity; "
    "no quantitative finite-section theory backs it"
)


@dataclass(frozen=True)
class CertificateReport:
    """A verdict with its per-rung evidence: each rung the dict of numbers
    its report writes."""

    condition: str
    verdict: str
    ladder: tuple[dict, ...]
    tolerances: dict
    narrative: str

    def __post_init__(self):
        if not self.ladder:
            raise ValueError("a certificate needs at least one rung")
        if self.verdict not in (CERTIFIED, FALSIFIED, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def as_dict(self) -> dict:
        return {
            "schema_version": "3",
            "condition": self.condition,
            "verdict": self.verdict,
            "ladder": [dict(r) for r in self.ladder],
            "tolerances": dict(self.tolerances),
            "narrative": self.narrative,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


@dataclass(frozen=True)
class Rung:
    """One ladder rung, built once and read by every check: the square
    section, an array in orthonormal coordinates, the trailing codomain rows
    its corank leaves out (0: none) lest the band that truncation loses read
    as lost range, and the witness family counted as kernel evidence (None:
    count the kernel)."""

    square: np.ndarray
    drop_rows: int = 0
    witnesses: WitnessFamily | None = None


def _rung_label(size) -> str:
    return f"N={size}"


def _strictly_increasing(xs) -> bool:
    return all(b > a for a, b in zip(xs, xs[1:]))


def _check_ladder(ladder) -> None:
    """Every ladder check needs at least 3 strictly increasing rungs. A KxD
    rung differs from the last and is no smaller in either part, so each
    truncation nests in the next."""
    if len(ladder) < 3:
        raise ValueError("the ladder needs at least 3 rungs")
    if not all(a != b and np.all(np.greater_equal(b, a))
               for a, b in zip(ladder, ladder[1:])):
        raise ValueError("the ladder must be strictly increasing, "
                         "each part of a KxD rung at least the last one's")


def _kept_rows(rung: Rung) -> np.ndarray:
    """The leading rows - drop_rows rows of the square: the rows a corank reads."""
    rows = rung.square.shape[0]
    if not 0 <= rung.drop_rows < rows:
        raise ValueError("drop_rows out of range")
    return rung.square[:rows - rung.drop_rows]


def _kernel_rung(rung: Rung, size) -> dict:
    """A rung's numbers from values-only spectra: sigma_min comes from the
    spectrum that decided the rung's evidence. A witnessed rung's kernel is
    its witness count, so the square's spectrum is taken only for a counted
    kernel, and then only if rows were dropped."""
    kept = numlin.Spectrum.of(_kept_rows(rung))
    if rung.witnesses is not None:
        kdim, spec, path = rung.witnesses.count(), kept, {"corank_by": "svd"}
    else:
        spec = numlin.Spectrum.of(rung.square) if rung.drop_rows else kept
        kdim, path = spec.kernel_dim(), {}
    return {"label": _rung_label(size), "size": size, "kernel_dim": kdim,
            "corank": kept.corank(), **path, "sigma_min": spec.sigma_min}


def kernel_ladder(builder, ladder) -> tuple:
    """The rung walk shared by conditions C and C+: builder(size) returns a
    Rung. Returns each rung's numbers and the top rung's witness family
    (None when the kernel was counted).

    A witnessed rung's corank 0 is first proven from the Gram matrix of its
    kept rows (numlin.corank_zero_bound); a rung that no shift proves is
    built again and takes the values-only SVD."""
    _check_ladder(ladder)
    rungs = []
    for size in ladder:
        # only the numbers and the witness family outlive the rung, so its
        # matrices are freed before the next rung is built
        rung = builder(size)
        top_witnesses = rung.witnesses
        if top_witnesses is not None:
            # the rung is dropped before the factorisations, so its framed
            # buffer is freed while they run
            kept = _kept_rows(rung)
            gram, cols = numlin.gram_rows(kept), kept.shape[1]
            del rung, kept
            lower = numlin.corank_zero_bound(gram, cols)
            del gram
            if lower is not None:
                rungs.append({"label": _rung_label(size), "size": size,
                              "kernel_dim": top_witnesses.count(), "corank": 0,
                              "corank_by": "cholesky", "sigma_min_lower": lower})
                continue
            rung = builder(size)
        rungs.append(_kernel_rung(rung, size))
        del rung
    return tuple(rungs), top_witnesses


def kernel_verdict(condition: str, rungs, top_witnesses) -> CertificateReport:
    """Condition "C" wants corank 0 at every rung, "Cplus" a constant one;
    both want strictly growing kernel evidence. Constant evidence falsifies,
    unless it is the size of the top rung's witness family. rungs and
    top_witnesses are what kernel_ladder returns."""
    corank_target = {"C": 0, "Cplus": None}[condition]
    kdims = [r["kernel_dim"] for r in rungs]
    coranks = [r["corank"] for r in rungs]
    grows = _strictly_increasing(kdims)
    if corank_target is None:
        corank_ok = len(set(coranks)) == 1
        corank_note = f"corank constant at {coranks[0]}"
    else:
        corank_ok = all(c == corank_target for c in coranks)
        corank_note = f"corank {corank_target} at every rung"
    # when every witness of the top family passes, its size caps the count
    capped = top_witnesses is not None and kdims[-1] == len(top_witnesses.indices)
    if grows and corank_ok:
        verdict = CERTIFIED
        narrative = (f"kernel evidence {kdims} strictly increases and "
                     f"{corank_note}; {SCALE_CAVEAT}")
    elif len(set(kdims)) == 1 and capped:
        verdict = INCONCLUSIVE
        narrative = (f"kernel evidence stays at {kdims[0]}, the cap: every "
                     "witness of the top rung's family (2 index_max + 1 of them) "
                     "passes, so the count says nothing about the operator; "
                     "raise index_max")
    elif len(set(kdims)) == 1:
        verdict = FALSIFIED
        top = rungs[-1]
        sigma = (f"sigma_min {top['sigma_min']:.3e}" if "sigma_min" in top
                 else f"sigma_min >= {top['sigma_min_lower']:.3e}")
        narrative = (f"kernel evidence stays at {kdims[0]} across the ladder "
                     f"({sigma} at the top rung); no sign of unbounded multiplicity")
    else:
        verdict = INCONCLUSIVE
        narrative = (f"kernel evidence {kdims} neither grows strictly nor "
                     f"stays constant; {SCALE_CAVEAT}")
    tols = {"rank_tol": numlin.DEFAULT_TOL}
    if top_witnesses is not None:
        tols.update(witness_tol=WITNESS_TOL, gram_shifts=list(numlin.GRAM_SHIFTS),
                    gram_safety=numlin.GRAM_SAFETY)
    return CertificateReport(condition, verdict, rungs, tols, narrative)


# -- commuting pairs ----------------------------------------------------------

def _relative_commutator(a: np.ndarray, b: np.ndarray) -> float:
    """||AB - BA|| / max(||A|| ||B||, 1), in Frobenius norms."""
    return np.linalg.norm(a @ b - b @ a) / max(np.linalg.norm(a) * np.linalg.norm(b), 1.0)


def commuting_pair_counts(u: np.ndarray, v: np.ndarray) -> dict:
    """A dense commuting pair's rung counts, under the keys its report writes:
    u and v are square arrays in orthonormal coordinates, each read through
    values-only spectra."""
    if _relative_commutator(u, v) > numlin.DEFAULT_TOL:
        raise ValueError("the supplied pair does not commute")
    s1, s2 = numlin.Spectrum.of(u), numlin.Spectrum.of(v)
    k1, k2 = s1.kernel_dim(), s2.kernel_dim()
    # Ker U & Ker V = ker [U; V], each nonzero block scaled to norm 1
    # lest the larger one's threshold swallow the other's values
    scaled = [m / (s.values[0] or 1.0) for m, s in ((u, s1), (v, s2))]
    inter = numlin.Spectrum.of(np.vstack(scaled)).kernel_dim()
    # UV's threshold is relative to ||U|| ||V||, as for an HS pair: a
    # product that vanishes up to rounding has a full kernel
    prod = numlin.Spectrum.of(u @ v).values
    prod_kernel = int(np.count_nonzero(
        numlin.negligible(prod, top=s1.values[0] * s2.values[0])))
    # a commuting pair is square, so by rank-nullity each corank is a kernel dim
    return {"kernel_dim": k1, "kernel_dim_2": k2, "intersection_dim": inter,
            "product_kernel_dim": prod_kernel, "corank_1": k1, "corank_2": k2}


def check_M(pair_builder, ladder) -> CertificateReport:
    """Muller's condition for a commuting pair: the kernels overlap in an
    unbounded-looking intersection, Ker(U1 U2) = Ker(U1) + Ker(U2) at every
    rung, and both operators look surjective. pair_builder(size) returns the
    rung's counts: kernel_dim, kernel_dim_2, intersection_dim,
    product_kernel_dim, corank_1 and corank_2."""
    _check_ladder(ladder)
    rungs = []
    for size in ladder:
        counts = pair_builder(size)
        label = f"K={size[0]},d={size[1]}" if isinstance(size, tuple) else _rung_label(size)
        n = int(np.prod(size)) if isinstance(size, tuple) else int(size)
        rungs.append({"label": label, "size": n, **counts,
                      "corank": max(counts["corank_1"], counts["corank_2"]),
                      "sum_dim": counts["kernel_dim"] + counts["kernel_dim_2"]
                      - counts["intersection_dim"]})
    inters = [r["intersection_dim"] for r in rungs]
    sums_match = all(r["product_kernel_dim"] == r["sum_dim"] for r in rungs)
    coranks_zero = all(r["corank"] == 0 for r in rungs)
    if _strictly_increasing(inters) and sums_match and coranks_zero:
        verdict = CERTIFIED
        narrative = (f"kernel intersections {inters} grow strictly, the product "
                     f"kernel matches the kernel sum at every rung, and both "
                     f"coranks vanish; {SCALE_CAVEAT}")
    elif len(set(inters)) == 1:
        verdict = FALSIFIED
        narrative = (f"kernel intersection stays at {inters[0]} across the "
                     "ladder, so the pair shows no unbounded common kernel")
    else:
        verdict = INCONCLUSIVE
        narrative = (f"intersections {inters}, product-kernel match {sums_match}, "
                     f"coranks zero {coranks_zero}; mixed evidence")
    return CertificateReport("M", verdict, tuple(rungs), {"rank_tol": numlin.DEFAULT_TOL},
                             narrative)


# -- spectral falsifiers ------------------------------------------------------

def annulus_grid(r: float, n_radial: int, n_angular: int) -> np.ndarray:
    """Polar grid strictly inside the annulus, symmetric about |lambda| = 1.

    Radii are exp(u * t_r / 2) for u equally spaced in ANNULUS_SPAN * [-1/2, 1/2],
    so an odd radial count places one ring exactly on the unit circle (a
    single ring is that circle) and the first angle puts lambda = 1 on the
    grid.

    The grid is exactly closed under conjugation: angle index k > n - k is
    the conjugate of index n - k, and angle pi lies on the real axis.
    """
    t_r = analytic.translation_length(abs(r))
    us = (np.linspace(-ANNULUS_SPAN / 2.0, ANNULUS_SPAN / 2.0, n_radial)
          if n_radial != 1 else np.zeros(1))
    radii = np.exp(us * t_r / 2.0)
    ks = np.arange(n_angular)
    unit = np.exp(1j * (2.0 * np.pi * ks / n_angular))
    mirrored = ks > n_angular - ks
    unit[mirrored] = unit[n_angular - ks[mirrored]].conj()
    unit[2 * ks == n_angular] = -1.0
    return (radii[:, None] * unit[None, :]).ravel()


def spectral_falsifier(builder, lam_grid, ladder) -> CertificateReport:
    """Track kernel dimensions of (A - lambda I) over a ladder and a grid;
    builder(size) returns the square section A, an array in orthonormal
    coordinates.

    A universal candidate must show eigenvalues of growing multiplicity
    somewhere; when every grid point keeps a bounded, non-growing kernel the
    family is falsified. This operation never certifies.
    """
    return _spectral_scan(builder, lam_grid, ladder)[0]


def _spectral_scan(builder, lam_grid, ladder):
    """spectral_falsifier's report and the per-cell dims it is drawn from:
    {(lambda, tol): [kernel dim at each rung]} for tol in SCAN_TOLS."""
    lam_grid = np.asarray(lam_grid)
    if lam_grid.size == 0:
        raise ValueError("the falsifier needs a non-empty grid")
    _check_ladder(ladder)
    # one cell per distinct lambda: a repeated point is scanned once
    cells = list(dict.fromkeys(lam_grid.tolist()))
    dims = {}
    rungs = []
    for size in ladder:
        fs = builder(size)
        # one A - lambda I buffer per rung, only its diagonal rewritten per
        # point: no N x N temporaries are allocated inside the grid loop
        shifted = fs.astype(np.result_type(fs, lam_grid))
        diag, base = np.einsum("ii->i", shifted), fs.diagonal()
        # a real section has sigma(A - conj(lambda) I) = sigma(A - lambda I),
        # so a conjugate pair takes one SVD
        real = np.isrealobj(fs)
        spectra = {}
        worst = 0
        for lam in cells:
            key = complex(lam.real, abs(lam.imag)) if real else complex(lam)
            if key not in spectra:
                np.subtract(base, lam, out=diag)
                spectra[key] = numlin.Spectrum.of(shifted)
            for tol in SCAN_TOLS:
                d = spectra[key].kernel_dim(tol)
                dims.setdefault((complex(lam), tol), []).append(d)
                worst = max(worst, d)
        rungs.append({"label": _rung_label(size), "size": size, "kernel_dim": worst,
                      "grid_points": int(lam_grid.size)})
    growth = [key for key, ds in dims.items() if _strictly_increasing(ds)]
    bounded = all(max(ds) <= 1 for ds in dims.values())
    if not growth and bounded:
        verdict = FALSIFIED
        narrative = ("no grid point shows growing multiplicity and all kernel "
                     "dimensions stay <= 1; eigenvalues of unbounded "
                     "multiplicity are required")
    else:
        verdict = INCONCLUSIVE
        narrative = (f"{len(growth)} grid cell(s) show growing kernel evidence; "
                     f"consistent with universality at scale; {SCALE_CAVEAT}")
    report = CertificateReport("spectral", verdict, tuple(rungs),
                               {"svd_tols": list(SCAN_TOLS)}, narrative)
    return report, dims


def algebraic_falsifier(t, w, poly=None, powers=None) -> CertificateReport:
    """Falsify a commuting pair through an explicit algebraic dependence; t
    and w are arrays in orthonormal coordinates.

    poly: coefficients (c_1, c_2, ...) of p(z) = sum c_k z^k with p(0) = 0;
    fires when W = p(T) T. powers: (m, n); fires when W^m = T^n. Without a
    matching witness the result is inconclusive; this check never certifies.
    """
    if (poly is None) == (powers is None):
        raise ValueError("supply exactly one of poly or powers")
    scale = max(np.linalg.norm(w), 1.0)
    if poly is not None:
        acc = np.zeros_like(t)
        power = np.eye(t.shape[0])
        for c in poly:
            power = power @ t
            acc = acc + c * power
        defect = np.linalg.norm(w - acc @ t) / scale
        witness = f"p(T) T with p of degree {len(poly)}"
    else:
        m, n = powers
        if m < 1 or n < 1:
            raise ValueError("powers must be positive")
        defect = np.linalg.norm(np.linalg.matrix_power(w, m)
                                - np.linalg.matrix_power(t, n)) / scale
        witness = f"W^{m} = T^{n}"
    comm = _relative_commutator(t, w)
    rung = {"label": "pair", "size": t.shape[0], "defect": float(defect),
            "commutator": float(comm), "witness": witness}
    if defect <= ALGEBRAIC_TOL and comm <= ALGEBRAIC_TOL:
        verdict = FALSIFIED
        narrative = (f"witness {witness} matches with defect {defect:.3e}; an "
                     "algebraically dependent commuting pair is never universal")
    else:
        verdict = INCONCLUSIVE
        narrative = (f"witness {witness} does not match (defect {defect:.3e}); "
                     "no conclusion")
    return CertificateReport("algebraic", verdict, (rung,),
                             {"witness_tol": ALGEBRAIC_TOL}, narrative)


# -- multiplicity witnesses for composition adjoints --------------------------

@dataclass(frozen=True)
class WitnessFamily:
    """Normalized near-kernel vectors of a compressed composition adjoint, in
    the weighted frame."""

    indices: tuple[int, ...]
    vectors: np.ndarray
    residuals: np.ndarray
    window_mass: np.ndarray

    def _passing(self, residual_tol: float) -> np.ndarray:
        return (self.residuals < residual_tol) & (self.window_mass >= MASS_FLOOR)

    def count(self, residual_tol: float = WITNESS_TOL) -> int:
        """Witnesses both resolved by the truncation and residual-verified.

        The window-mass floor matters: an unresolved witness keeps its norm
        mass at the truncation edge, where the residual window cannot see
        it, and would pass the residual test vacuously.
        """
        return int(np.sum(self._passing(residual_tol)))

    def gram_min_eigenvalue(self) -> float:
        """Smallest Gram eigenvalue of the set passing at WITNESS_TOL; near 1
        means the counted directions are genuinely independent."""
        u = self.vectors[:, self._passing(WITNESS_TOL)]
        if u.shape[1] == 0:
            return 0.0
        return float(np.linalg.eigvalsh(u.conj().T @ u)[0])


def adjoint_multiplicity_witnesses(r: float, lam: complex, trunc: int,
                                   index_max: int,
                                   framed: np.ndarray) -> WitnessFamily:
    """Near-kernel family for the z-compressed weighted adjoint of C_phi.

    The compression is exactly diag(k)-similar to the z-compression of the
    inverse composition operator on the unweighted space, whose eigenvectors
    at lambda are explicit: exponents w_n = -log(lambda)/t_r + 2 pi i n/t_r.
    Witness n carries its coefficient mass near index 2 pi |n| / t_r, so a
    truncation resolves witnesses only up to a frequency proportional to its
    size: the verified count grows with the ladder.

    framed: the rung's compressed adjoint in the weighted frame, real and of
    shape (trunc - 1, trunc - 1). The frame's diag(sqrt(w_k)) = diag(k)
    cancels that similarity, so a witness is its eigenfunction's normalized
    coefficients c_1, c_2, ..., and its residual and window mass need no
    weights.
    """
    if not analytic.in_annulus(r, lam) or abs(lam) == 1.0:
        raise ValueError("lambda must lie in the open annulus, off the unit circle")
    t_r = analytic.translation_length(r)
    m = trunc - 1
    if framed.shape != (m, m):
        raise ValueError(f"framed adjoint has shape {framed.shape}, "
                         f"expected {(m, m)} for trunc={trunc}")
    if np.iscomplexobj(framed):
        raise ValueError("the compressed adjoint of C_phi for real r is real")
    win = m // WINDOW_FRAC
    base = -np.log(complex(lam)) / t_r
    indices = tuple(range(-index_max, index_max + 1))
    freqs = 2.0 * np.pi * np.arange(-index_max, index_max + 1) / t_r
    # one row per witness, contiguous, so each sum below runs in the same
    # order as on a lone vector
    coeffs = analytic.eigenfunction_coeffs_recurrence(base + 1j * freqs, trunc)[:, 1:]
    vectors = np.zeros((m, len(indices)), dtype=complex)
    residuals = np.ones(len(indices))
    window_mass = np.zeros(len(indices))
    kept = np.zeros(len(indices), dtype=bool)
    for col, u in enumerate(coeffs):
        mass = np.abs(u) ** 2
        total = mass.sum()
        if total == 0.0 or not np.isfinite(total):
            continue
        window_mass[col] = float(mass[:win].sum() / total)
        vectors[:, col] = u / np.sqrt(total)
        kept[col] = True
    # a residual is read on the window only, so only A's window rows are
    # multiplied, once for all witnesses; A is real, so its rows take the
    # real and imaginary parts of U apart and are never copied to complex
    top = framed[:win]
    res = top @ vectors.real + 1j * (top @ vectors.imag)
    res -= lam * vectors[:win]
    residuals[kept] = np.linalg.norm(res[:, kept], axis=0)
    return WitnessFamily(indices, vectors, residuals, window_mass)


# -- concrete ladder families -------------------------------------------------

def family_halfshift_plus_rank1(n: int):
    """U: e_{2k} -> e_k, odd basis vectors -> 0, plus the rank-1 bump
    K e_2 = -e_1; surjective up to the single lost direction e_1."""
    if n < 3:
        raise ValueError(f"the rank-1 bump needs n >= 3, got {n}")
    m = np.zeros((n, n))
    for k in range(n):
        if 2 * k < n:
            m[k, 2 * k] = 1.0
    m[1, 2] -= 1.0
    return Rung(m, n - (n + 1) // 2)


def family_composition(r: float, beta: float, variant: str):
    """Sections of C_phi on the space of weights (beta, variant), each in
    orthonormal coordinates: the one place a composition family is framed."""
    def build(trunc: int) -> np.ndarray:
        return opbuild.weighted_frame(
            opbuild.composition_matrix(r, spaces.weights(beta, trunc, variant)))
    return build


def family_adjoint_witnessed(r: float, lam: complex, index_max: int):
    """Rungs of A - lambda I for the z-compressed weighted adjoint A of C_phi
    on the derivative-norm space, one framed buffer per rung. The framed
    Gram adjoint is the transpose of the framed C, so A in orthonormal
    coordinates is family_composition's section with row and column 0
    deleted, transposed. That buffer gives the witness family of A at
    lambda, then becomes the square, whose corank drops the window's
    trailing rows."""
    framed = family_composition(r, 1.0, "derivative")

    def build(trunc: int) -> Rung:
        a = framed(trunc)[1:, 1:].T
        witnesses = adjoint_multiplicity_witnesses(r, lam, trunc, index_max, a)
        # the family has read A, so lambda is subtracted in place; only a
        # complex lambda copies A, to complex
        square = a.astype(np.result_type(a, lam), copy=False)
        np.einsum("ii->i", square)[:] -= lam
        return Rung(square, (trunc - 1) // WINDOW_FRAC, witnesses)
    return build


def hs_pair_scalar(n: int) -> dict:
    """Left multiplication by the backward shift against right multiplication
    by its adjoint, on n x n truncations: the block pair with d = 1."""
    return hs_pair_block((n, 1))


def hs_pair_block(size: tuple[int, int]) -> dict:
    """Block backward shift pair on HS truncations of K blocks, inner
    dimension d; the model universal commuting pair. S -> B S against
    S -> S B* commutes identically and is square; its counts are read from
    the factors B and B*."""
    K, d = size
    b = opbuild.block_backward_shift(K, d)
    # S -> B S loses K d directions for each one that B loses without its
    # last d rows, and S -> S B* likewise with B*; on the Hardy space B* = B^T
    # makes B*[:, :-d].T equal to B[:-d, :], so one spectrum gives both
    corank = K * d * numlin.Spectrum.of(b[:-d]).corank()
    ker_1, ker_2, prod_kernel = opbuild.hs_pair_kernels(b, b.conj().T)
    return {"kernel_dim": ker_1.shape[1], "kernel_dim_2": ker_2.shape[1],
            "intersection_dim": numlin.subspace_dims(ker_1, ker_2)[1],
            "product_kernel_dim": prod_kernel, "corank_1": corank, "corank_2": corank}


def pair_diagonal_blocks(n: int) -> dict:
    """Diagonal pair (U0 + I, I + V0) on a doubled space: commuting, but the
    kernels live in complementary components."""
    u0 = opbuild.block_backward_shift(n, 1)
    eye = np.eye(n)
    zero = np.zeros((n, n))
    u = opbuild.block2x2(u0, zero, zero, eye)
    v = opbuild.block2x2(eye, zero, zero, u0)
    return commuting_pair_counts(u, v)
