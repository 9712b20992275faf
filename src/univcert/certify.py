"""Universality certificates and falsifiers over truncation ladders.

Decision rules are three-valued. A ladder of growing truncations supplies
bounded evidence only, so the strongest positive verdict is
"certified_at_scale"; it never claims a proof.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import numlin, opbuild
from .spaces import SpaceSpec

CERTIFIED = "certified_at_scale"
FALSIFIED = "falsified"
INCONCLUSIVE = "inconclusive"

RANK_TOL = numlin.DEFAULT_TOL
WITNESS_TOL = 1e-4

SCALE_CAVEAT = (
    "truncation kernel growth is a heuristic proxy for infinite multiplicity; "
    "no quantitative finite-section theory backs it"
)


@dataclass(frozen=True)
class RungStats:
    """Numbers observed at one ladder rung; unused fields stay None."""

    label: str
    size: int
    kernel_dim: int | None = None
    corank: int | None = None
    sigma_min: float | None = None
    intersection_dim: int | None = None
    sum_dim: int | None = None
    product_kernel_dim: int | None = None
    witness_count: int | None = None
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        d = {"label": self.label, "size": self.size}
        for key in ("kernel_dim", "corank", "sigma_min", "intersection_dim",
                    "sum_dim", "product_kernel_dim", "witness_count"):
            val = getattr(self, key)
            if val is not None:
                d[key] = val
        d.update(self.extra)
        return d


@dataclass(frozen=True)
class CertificateReport:
    """A verdict with its per-rung evidence. When the ladder counted witness
    families, witnesses is the top rung's family; to_json carries only the
    counts."""

    condition: str
    verdict: str
    ladder: tuple[RungStats, ...]
    tolerances: dict
    narrative: str
    witnesses: WitnessFamily | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.ladder:
            raise ValueError("a certificate needs at least one rung")
        if self.verdict not in (CERTIFIED, FALSIFIED, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def to_json(self) -> str:
        payload = {
            "schema_version": "1",
            "condition": self.condition,
            "verdict": self.verdict,
            "ladder": [r.as_dict() for r in self.ladder],
            "tolerances": self.tolerances,
            "narrative": self.narrative,
        }
        return json.dumps(payload, sort_keys=True)


def _framed(a) -> np.ndarray:
    if isinstance(a, opbuild.OpMatrix):
        return opbuild.weighted_frame(a)
    return numlin._as_matrix(a)


@dataclass(frozen=True)
class Rung:
    """One ladder rung, built once and read by every check: the square
    section, the interior section for the corank (None: use the square) and
    the witness family counted as kernel evidence (None: count the kernel)."""

    square: object
    interior: object = None
    witnesses: WitnessFamily | None = None


def _rung(built) -> Rung:
    """Builders return a Rung or a bare square matrix."""
    return built if isinstance(built, Rung) else Rung(built)


def _rung_label(size) -> str:
    return f"N={size}"


def _strictly_increasing(xs) -> bool:
    return all(b > a for a, b in zip(xs, xs[1:]))


def _check_ladder(ladder) -> None:
    """Every ladder check needs at least 3 strictly increasing rungs."""
    if len(ladder) < 3:
        raise ValueError("the ladder needs at least 3 rungs")
    if not _strictly_increasing(ladder):
        raise ValueError("the ladder must be strictly increasing")


def _kernel_rung_stats(rung: Rung, size, tol) -> RungStats:
    spec = numlin.Spectrum.of(_framed(rung.square))
    if rung.witnesses is not None:
        kdim = rung.witnesses.count()
    else:
        kdim = spec.kernel_dim(tol)
    if rung.interior is not None:
        cor = numlin.Spectrum.of(_framed(rung.interior)).corank(tol)
    else:
        cor = spec.corank(tol)
    return RungStats(_rung_label(size), size, kernel_dim=kdim, corank=cor,
                     sigma_min=spec.sigma_min)


@dataclass(frozen=True)
class KernelLadder:
    """The rung walk shared by conditions C and C+: each rung's numbers and
    the top rung's witness family (None when the kernel was counted)."""

    rungs: tuple[RungStats, ...]
    top_witnesses: WitnessFamily | None
    tol: float


def kernel_ladder(builder, ladder, tol: float = RANK_TOL) -> KernelLadder:
    _check_ladder(ladder)
    rungs = []
    for size in ladder:
        # only the stats and the witness family outlive the rung, so its
        # matrices are freed before the next rung is built
        rung = _rung(builder(size))
        rungs.append(_kernel_rung_stats(rung, size, tol))
        top_witnesses = rung.witnesses
        del rung
    return KernelLadder(tuple(rungs), top_witnesses, tol)


def kernel_verdict(condition: str, walk: KernelLadder) -> CertificateReport:
    """Condition "C" wants corank 0 at every rung, "Cplus" a constant one;
    both want strictly growing kernel evidence."""
    rungs, top_witnesses, tol = walk.rungs, walk.top_witnesses, walk.tol
    corank_target = {"C": 0, "Cplus": None}[condition]
    kdims = [r.kernel_dim for r in rungs]
    coranks = [r.corank for r in rungs]
    grows = _strictly_increasing(kdims)
    if corank_target is None:
        corank_ok = len(set(coranks)) == 1
        corank_note = f"corank constant at {coranks[0]}"
    else:
        corank_ok = all(c == corank_target for c in coranks)
        corank_note = f"corank {corank_target} at every rung"
    if grows and corank_ok:
        verdict = CERTIFIED
        narrative = (f"kernel evidence {kdims} strictly increases and "
                     f"{corank_note}; {SCALE_CAVEAT}")
    elif len(set(kdims)) == 1:
        verdict = FALSIFIED
        narrative = (f"kernel evidence stays at {kdims[0]} across the ladder "
                     f"(sigma_min {rungs[-1].sigma_min:.3e} at the top rung); "
                     "no sign of unbounded multiplicity")
    else:
        verdict = INCONCLUSIVE
        narrative = (f"kernel evidence {kdims} neither grows strictly nor "
                     f"stays constant; {SCALE_CAVEAT}")
    tols = {"rank_tol": tol}
    if top_witnesses is not None:
        tols["witness_tol"] = WITNESS_TOL
    return CertificateReport(condition, verdict, rungs, tols, narrative,
                             top_witnesses)


def check_C(builder, ladder, tol: float = RANK_TOL) -> CertificateReport:
    """Kernel grows without bound and the range is everything.

    certified_at_scale iff the kernel evidence strictly increases across the
    ladder and every rung has corank 0 (computed on the interior section when
    the builder provides one). The kernel evidence is the rung's witness
    count when the builder returns a Rung with a witness family.
    """
    return kernel_verdict("C", kernel_ladder(builder, ladder, tol))


def check_Cplus(builder, ladder, tol: float = RANK_TOL) -> CertificateReport:
    """As condition C, but a constant finite corank is allowed."""
    return kernel_verdict("Cplus", kernel_ladder(builder, ladder, tol))


# -- commuting pairs ----------------------------------------------------------

def _pure_hs_pair(u1, u2) -> bool:
    return (isinstance(u1, opbuild.HSOperator) and isinstance(u2, opbuild.HSOperator)
            and u1.factor_right is None and u2.factor_left is None)


def check_M(pair_builder, ladder, tol: float = RANK_TOL) -> CertificateReport:
    """Muller's condition for a commuting pair: the kernels overlap in an
    unbounded-looking intersection, Ker(U1 U2) = Ker(U1) + Ker(U2) at every
    rung, and both operators look surjective. A pair without coranks gets
    them from its kernel bases by rank-nullity."""
    _check_ladder(ladder)
    rungs = []
    for size in ladder:
        built = pair_builder(size)
        u1, u2, cor1, cor2 = built if len(built) == 4 else (*built, None, None)
        if _pure_hs_pair(u1, u2):
            # U S against S V: the pair commutes identically and is square.
            b1, b2, prod_kernel = opbuild.hs_pair_kernels(u1, u2, tol)
            excess1 = excess2 = 0
        else:
            m1, m2 = numlin._as_matrix(u1), numlin._as_matrix(u2)
            comm = np.linalg.norm(m1 @ m2 - m2 @ m1)
            scale = np.linalg.norm(m1) * np.linalg.norm(m2)
            if comm > tol * max(scale, 1.0):
                raise ValueError("the supplied pair does not commute")
            prod_kernel = numlin.Spectrum.of(m1 @ m2).kernel_dim(tol)
            b1, b2 = numlin.svd_kernel(m1, tol), numlin.svd_kernel(m2, tol)
            excess1, excess2 = (m.shape[0] - m.shape[1] for m in (m1, m2))
        ssum, inter = numlin.subspace_dims(b1, b2, tol)
        if cor1 is None:
            cor1 = excess1 + b1.dim
        if cor2 is None:
            cor2 = excess2 + b2.dim
        label = f"K={size[0]},d={size[1]}" if isinstance(size, tuple) else _rung_label(size)
        n = int(np.prod(size)) if isinstance(size, tuple) else int(size)
        rungs.append(RungStats(label, n, kernel_dim=b1.dim, corank=max(cor1, cor2),
                               intersection_dim=inter, sum_dim=ssum,
                               product_kernel_dim=prod_kernel,
                               extra={"kernel_dim_2": b2.dim, "corank_1": cor1,
                                      "corank_2": cor2}))
    inters = [r.intersection_dim for r in rungs]
    sums_match = all(r.product_kernel_dim == r.sum_dim for r in rungs)
    coranks_zero = all(r.extra["corank_1"] == 0 and r.extra["corank_2"] == 0
                       for r in rungs)
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
    return CertificateReport("M", verdict, tuple(rungs), {"rank_tol": tol}, narrative)


# -- spectral falsifiers ------------------------------------------------------

def annulus_grid(r: float, n_radial: int = 5, n_angular: int = 12,
                 span: float = 0.8) -> np.ndarray:
    """Polar grid strictly inside the annulus, symmetric about |lambda| = 1.

    Radii are exp(u * t_r / 2) for u equally spaced in [-span/2, span/2], so
    an odd radial count places one ring exactly on the unit circle and the
    first angle puts lambda = 1 on the grid.

    The grid is exactly closed under conjugation: angle index k > n - k is
    the conjugate of index n - k, and angle pi lies on the real axis.
    """
    from .analytic import HyperbolicAuto

    t_r = HyperbolicAuto(abs(r)).t_param
    us = np.linspace(-span / 2.0, span / 2.0, n_radial)
    radii = np.exp(us * t_r / 2.0)
    ks = np.arange(n_angular)
    unit = np.exp(1j * (2.0 * np.pi * ks / n_angular))
    mirrored = ks > n_angular - ks
    unit[mirrored] = unit[n_angular - ks[mirrored]].conj()
    unit[2 * ks == n_angular] = -1.0
    return (radii[:, None] * unit[None, :]).ravel()


def spectral_falsifier(builder, lam_grid, ladder, tols=(1e-6, 1e-8),
                       dim_bound: int = 1) -> CertificateReport:
    """Track kernel dimensions of (A - lambda I) over a ladder and a grid.

    A universal candidate must show eigenvalues of growing multiplicity
    somewhere; when every grid point keeps a bounded, non-growing kernel the
    family is falsified. This operation never certifies.
    """
    return _spectral_scan(builder, lam_grid, ladder, tols, dim_bound)[0]


def _spectral_scan(builder, lam_grid, ladder, tols, dim_bound: int = 1):
    """spectral_falsifier's report and the per-cell dims it is drawn from:
    {(lambda, tol): [kernel dim at each rung]}."""
    lam_grid = np.asarray(lam_grid)
    if lam_grid.size == 0:
        raise ValueError("the falsifier needs a non-empty grid")
    _check_ladder(ladder)
    tols = tuple(tols)
    # one cell per distinct lambda: a repeated point is scanned once
    cells = list(dict.fromkeys(lam_grid.tolist()))
    dims = {}
    rungs = []
    for size in ladder:
        fs = _framed(_rung(builder(size)).square)
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
            for tol in tols:
                d = spectra[key].kernel_dim(tol)
                dims.setdefault((complex(lam), tol), []).append(d)
                worst = max(worst, d)
        rungs.append(RungStats(_rung_label(size), size, kernel_dim=worst,
                               extra={"grid_points": int(lam_grid.size)}))
    growth = [key for key, ds in dims.items() if _strictly_increasing(ds)]
    bounded = all(max(ds) <= dim_bound for ds in dims.values())
    if not growth and bounded:
        verdict = FALSIFIED
        narrative = (f"no grid point shows growing multiplicity and all kernel "
                     f"dimensions stay <= {dim_bound}; eigenvalues of unbounded "
                     "multiplicity are required")
    else:
        verdict = INCONCLUSIVE
        narrative = (f"{len(growth)} grid cell(s) show growing kernel evidence; "
                     f"consistent with universality at scale; {SCALE_CAVEAT}")
    report = CertificateReport("spectral", verdict, tuple(rungs),
                               {"svd_tols": list(tols)}, narrative)
    return report, dims


def algebraic_falsifier(t, w, poly=None, powers=None,
                        tol: float = 1e-10) -> CertificateReport:
    """Falsify a commuting pair through an explicit algebraic dependence.

    poly: coefficients (c_1, c_2, ...) of p(z) = sum c_k z^k with p(0) = 0;
    fires when W = p(T) T. powers: (m, n); fires when W^m = T^n. Without a
    matching witness the result is inconclusive; this check never certifies.
    """
    if (poly is None) == (powers is None):
        raise ValueError("supply exactly one of poly or powers")
    tm = numlin._as_matrix(t)
    wm = numlin._as_matrix(w)
    scale = max(np.linalg.norm(wm), 1.0)
    if poly is not None:
        acc = np.zeros_like(tm)
        power = np.eye(tm.shape[0])
        for c in poly:
            power = power @ tm
            acc = acc + c * power
        defect = np.linalg.norm(wm - acc @ tm) / scale
        witness = f"p(T) T with p of degree {len(poly)}"
        condition_hits = defect <= tol
    else:
        m, n = powers
        if m < 1 or n < 1:
            raise ValueError("powers must be positive")
        defect = np.linalg.norm(np.linalg.matrix_power(wm, m)
                                - np.linalg.matrix_power(tm, n)) / scale
        witness = f"W^{m} = T^{n}"
        condition_hits = defect <= tol
    comm = np.linalg.norm(tm @ wm - wm @ tm) / max(
        np.linalg.norm(tm) * np.linalg.norm(wm), 1.0)
    rung = RungStats("pair", tm.shape[0],
                     extra={"defect": float(defect), "commutator": float(comm),
                            "witness": witness})
    if condition_hits and comm <= tol:
        verdict = FALSIFIED
        narrative = (f"witness {witness} matches with defect {defect:.3e}; an "
                     "algebraically dependent commuting pair is never universal")
    else:
        verdict = INCONCLUSIVE
        narrative = (f"witness {witness} does not match (defect {defect:.3e}); "
                     "no conclusion")
    return CertificateReport("algebraic", verdict, (rung,),
                             {"witness_tol": tol}, narrative)


# -- compact-remainder proxy --------------------------------------------------

@dataclass(frozen=True)
class DecayProfile:
    """Singular values of a difference, as evidence of compactness."""

    values: np.ndarray
    provenance: str

    def ratio(self, j: int) -> float:
        """s_j / s_1 with 1-based index j."""
        top = self.values[0]
        if top == 0.0:
            return 0.0
        return float(self.values[j - 1] / top)

    def as_dict(self) -> dict:
        top = self.values[0] if self.values.size else 0.0
        ratios = (self.values / top).tolist() if top else [0.0] * self.values.size
        return {"singular_values": self.values.tolist(), "ratios": ratios,
                "provenance": self.provenance}


def compactness_proxy(a: opbuild.OpMatrix, reference: opbuild.OpMatrix,
                      count: int | None = None) -> DecayProfile:
    """Singular values of (reference - A) in the weighted frame.

    A compact remainder shows fast decay; the profile is reported, not
    judged, because no truncation threshold is canonical.
    """
    if a.entries.shape != reference.entries.shape:
        raise ValueError("compactness proxy needs operators of equal shape")
    diff = opbuild.OpMatrix(reference.entries - a.entries, a.domain_space,
                            a.codomain_space,
                            f"[{reference.provenance}] minus [{a.provenance}]")
    sv = numlin.Spectrum.of(_framed(diff)).values
    if count is not None:
        sv = sv[:count]
    return DecayProfile(sv, diff.provenance)


# -- multiplicity witnesses for composition adjoints --------------------------

@dataclass(frozen=True)
class WitnessFamily:
    """Normalized near-kernel vectors of a compressed composition adjoint."""

    indices: tuple[int, ...]
    vectors: np.ndarray
    residuals: np.ndarray
    window_mass: np.ndarray
    weights: np.ndarray

    def count(self, residual_tol: float = WITNESS_TOL,
              mass_floor: float = 0.5) -> int:
        """Witnesses both resolved by the truncation and residual-verified.

        The window-mass floor matters: an unresolved witness keeps its norm
        mass at the truncation edge, where the residual window cannot see
        it, and would pass the residual test vacuously.
        """
        ok = (self.residuals < residual_tol) & (self.window_mass >= mass_floor)
        return int(np.sum(ok))

    def gram_min_eigenvalue(self, residual_tol: float = WITNESS_TOL,
                            mass_floor: float = 0.5) -> float:
        """Smallest Gram eigenvalue of the passing set; near 1 means the
        counted directions are genuinely independent."""
        ok = (self.residuals < residual_tol) & (self.window_mass >= mass_floor)
        v = self.vectors[:, ok]
        if v.shape[1] == 0:
            return 0.0
        g = v.conj().T @ (self.weights[:, None] * v)
        return float(np.linalg.eigvalsh(g)[0])


def _compressed_adjoint(r: float, trunc: int) -> opbuild.OpMatrix:
    """z-compressed weighted adjoint of C_phi on the derivative-norm space."""
    space = SpaceSpec(beta=1.0, trunc=trunc, variant="derivative")
    return opbuild.compress_zH2(opbuild.weighted_adjoint(
        opbuild.composition_matrix(r, space)))


def adjoint_multiplicity_witnesses(r: float, lam: complex, trunc: int,
                                   index_max: int = 64, window_frac: int = 4,
                                   compressed: opbuild.OpMatrix | None = None
                                   ) -> WitnessFamily:
    """Near-kernel family for the z-compressed weighted adjoint of C_phi.

    The compression is exactly diag(k)-similar to the z-compression of the
    inverse composition operator on the unweighted space, whose eigenvectors
    at lambda are explicit: exponents w_n = -log(lambda)/t_r + 2 pi i n/t_r.
    Witness n carries its coefficient mass near index 2 pi |n| / t_r, so a
    truncation resolves witnesses only up to a frequency proportional to its
    size: the verified count grows with the ladder.

    compressed: the rung's already-built compressed adjoint, of shape
    (trunc - 1, trunc - 1); built here when None.
    """
    from .analytic import HyperbolicAuto, eigenfunction_coeffs_recurrence, in_annulus

    if not in_annulus(r, lam) or abs(lam) == 1.0:
        raise ValueError("lambda must lie in the open annulus, off the unit circle")
    t_r = HyperbolicAuto(r).t_param
    m = trunc - 1
    if compressed is None:
        compressed = _compressed_adjoint(r, trunc)
    elif compressed.entries.shape != (m, m):
        raise ValueError(f"compressed adjoint has shape {compressed.entries.shape}, "
                         f"expected {(m, m)} for trunc={trunc}")
    # one complex copy for every witness; a real matrix times a complex
    # vector would be cast anew on each product
    am = compressed.entries.astype(complex)
    wts = compressed.domain_space.weights
    win = m // window_frac
    k = np.arange(1, trunc)
    base = -np.log(complex(lam)) / t_r
    indices = tuple(range(-index_max, index_max + 1))
    freqs = 2.0 * np.pi * np.arange(-index_max, index_max + 1) / t_r
    # one row per witness, contiguous, so each sum below runs in the same
    # order as on a lone vector
    coeffs = eigenfunction_coeffs_recurrence(base + 1j * freqs, trunc)[:, 1:] / k
    vectors = np.zeros((m, len(indices)), dtype=complex)
    residuals = np.ones(len(indices))
    window_mass = np.zeros(len(indices))
    for col, v in enumerate(coeffs):
        mass = wts * np.abs(v) ** 2
        total = mass.sum()
        if total == 0.0 or not np.isfinite(total):
            continue
        v = v / np.sqrt(total)
        # one product per witness: a single am @ V moves the rounding-level
        # residuals by up to 10% relative
        res = am @ v - lam * v
        residuals[col] = float(np.sqrt(np.sum(wts[:win] * np.abs(res[:win]) ** 2)))
        window_mass[col] = float(mass[:win].sum() / total)
        vectors[:, col] = v
    return WitnessFamily(indices, vectors, residuals, window_mass, wts)


# -- concrete ladder families -------------------------------------------------

def family_identity(n: int):
    return opbuild.OpMatrix(np.eye(n), opbuild._hardy(n), opbuild._hardy(n),
                            f"identity, n={n}")


def family_backward_shift(n: int):
    b = opbuild.backward_shift(n)
    return Rung(b, opbuild.interior_section(b, 1))


def family_block_backward(n: int, block_frac: int = 4):
    """Backward shift of growing inner dimension d = n / block_frac."""
    d = max(n // block_frac, 1)
    spec = opbuild.BlockShiftSpec(max(n // d, 2), d)
    b = opbuild.block_backward_shift(spec)
    return Rung(b, opbuild.interior_section(b, d))


def family_halfshift_plus_rank1(n: int):
    """U: e_{2k} -> e_k, odd basis vectors -> 0, plus the rank-1 bump
    K e_2 = -e_1; surjective up to the single lost direction e_1."""
    m = np.zeros((n, n))
    for k in range(n):
        if 2 * k < n:
            m[k, 2 * k] = 1.0
    m[1, 2] -= 1.0
    op = opbuild.OpMatrix(m, opbuild._hardy(n), opbuild._hardy(n),
                          f"half shift plus rank-1 bump, n={n}")
    return Rung(op, opbuild.interior_section(op, n - (n + 1) // 2))


def family_ex26(n_param: int):
    """Perturbed block operator [[U, I], [I/n, 0]] at a fixed perturbation
    index; injective for every n, with distance exactly 1/n to the
    non-injective limit."""
    def build(trunc: int):
        u = opbuild.backward_shift(trunc)
        eye = np.eye(trunc)
        return opbuild.block2x2(u, eye, eye / n_param, np.zeros((trunc, trunc)),
                                provenance=f"perturbed pair coupling 1/{n_param}")
    return build


def family_composition(r: float, beta: float = 1.0, variant: str = "power"):
    def build(trunc: int):
        return opbuild.composition_matrix(
            r, SpaceSpec(beta=beta, trunc=trunc, variant=variant))
    return build


def family_adjoint_compressed(r: float, window_frac: int = 4):
    """z-compressed weighted adjoint of the composition operator on the
    derivative-norm space, with an interior section for the corank."""
    def build(trunc: int):
        a = _compressed_adjoint(r, trunc)
        drop = (trunc - 1) // window_frac
        return Rung(a, opbuild.interior_section(a, drop))
    return build


def family_adjoint_witnessed(r: float, lam: complex, index_max: int = 64):
    """Rungs of A - lambda I for the compressed adjoint A, each carrying the
    witness family of A at lambda built from the same matrix: one
    composition matrix per rung."""
    compressed = family_adjoint_compressed(r)

    def with_witnesses(trunc: int) -> Rung:
        rung = compressed(trunc)
        return Rung(rung.square, rung.interior, adjoint_multiplicity_witnesses(
            r, lam, trunc, index_max, compressed=rung.square))
    return shifted(with_witnesses, lam)


def shifted(builder, lam: complex):
    """Family A - lambda I built from a square family; a rung's witness
    family is kept."""
    def build(size) -> Rung:
        rung = _rung(builder(size))
        square = rung.square
        n = square.entries.shape[0]
        ent = square.entries - lam * np.eye(n)
        shifted_sq = opbuild.OpMatrix(ent, square.domain_space, square.codomain_space,
                                      f"[{square.provenance}] - ({lam}) I")
        interior = None
        if rung.interior is not None:
            drop = n - rung.interior.entries.shape[0]
            interior = opbuild.interior_section(shifted_sq, drop)
        return Rung(shifted_sq, interior, rung.witnesses)
    return build


def hs_pair_scalar(n: int):
    """Left multiplication by the backward shift against right multiplication
    by its adjoint, on n x n truncations: the block pair with d = 1."""
    return hs_pair_block((n, 1))


def hs_pair_block(size: tuple[int, int]):
    """Block backward shift pair on HS truncations of K blocks, inner
    dimension d; the model universal commuting pair."""
    spec = opbuild.BlockShiftSpec(*size)
    b = opbuild.block_backward_shift(spec)
    bstar = opbuild.block_forward_shift(spec)
    left = opbuild.hs_left(b)
    right = opbuild.hs_right(bstar)
    n, d = spec.K * spec.d, spec.d
    # S -> B S loses n directions for each one that B's interior section
    # loses, and S -> S B* likewise with B*'s; B* = B^T makes that section
    # bstar[:, :-d].T equal to b[:-d, :], so one spectrum gives both
    corank = n * numlin.Spectrum.of(b.entries[:-d, :]).corank()
    return left, right, corank, corank


def pair_diagonal_blocks(n: int):
    """Diagonal pair (U0 + I, I + V0) on a doubled space: commuting, but the
    kernels live in complementary components."""
    u0 = opbuild.backward_shift(n)
    eye = np.eye(n)
    zero = np.zeros((n, n))
    u = opbuild.block2x2(u0, zero, zero, eye, provenance=f"U0 and identity, n={n}")
    v = opbuild.block2x2(eye, zero, zero, u0, provenance=f"identity and V0, n={n}")
    return u, v
