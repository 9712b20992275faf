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
    condition: str
    verdict: str
    ladder: tuple[RungStats, ...]
    tolerances: dict
    narrative: str

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


def _split(built):
    """Builders may return a square matrix or (square, interior section)."""
    if isinstance(built, tuple):
        square, interior = built
    else:
        square, interior = built, None
    return square, interior


def _rung_label(size) -> str:
    return f"N={size}"


def _strictly_increasing(xs) -> bool:
    return all(b > a for a, b in zip(xs, xs[1:]))


def _check_kernel_ladder(condition, builder, ladder, tol, witness_counter,
                         corank_target):
    if len(ladder) < 3:
        raise ValueError("the ladder needs at least 3 rungs")
    if not _strictly_increasing(ladder):
        raise ValueError("the ladder must be strictly increasing")
    rungs = []
    for size in ladder:
        square, interior = _split(builder(size))
        fs = _framed(square)
        sv = numlin.singular_values(fs)
        smin = float(sv[-1]) if sv.size else 0.0
        if witness_counter is not None:
            kdim = int(witness_counter(size))
        else:
            kdim = numlin.kernel_dim(fs, tol)
        section = _framed(interior) if interior is not None else fs
        cor = numlin.corank(section, tol)
        rungs.append(RungStats(_rung_label(size), size, kernel_dim=kdim,
                               corank=cor, sigma_min=smin))
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
    if witness_counter is not None:
        tols["witness_tol"] = WITNESS_TOL
    return CertificateReport(condition, verdict, tuple(rungs), tols, narrative)


def check_C(builder, ladder, tol: float = RANK_TOL, witness_counter=None) -> CertificateReport:
    """Kernel grows without bound and the range is everything.

    certified_at_scale iff the kernel evidence strictly increases across the
    ladder and every rung has corank 0 (computed on the interior section when
    the builder provides one).
    """
    return _check_kernel_ladder("C", builder, ladder, tol, witness_counter,
                                corank_target=0)


def check_Cplus(builder, ladder, tol: float = RANK_TOL, witness_counter=None) -> CertificateReport:
    """As condition C, but a constant finite corank is allowed."""
    return _check_kernel_ladder("Cplus", builder, ladder, tol, witness_counter,
                                corank_target=None)


# -- commuting pairs ----------------------------------------------------------

def _pair_parts(op):
    """(matrix, kernel-basis callable) for dense or structured operators."""
    if isinstance(op, opbuild.HSOperator):
        return op.matrix, op.kernel_basis
    m = numlin._as_matrix(op)
    return m, lambda tol_rel=RANK_TOL: numlin.svd_kernel(m, tol_rel)


def _pure_hs_pair(u1, u2) -> bool:
    return (isinstance(u1, opbuild.HSOperator) and isinstance(u2, opbuild.HSOperator)
            and u1.factor_right is None and u2.factor_left is None)


def check_M(pair_builder, ladder, tol: float = RANK_TOL) -> CertificateReport:
    """Muller's condition for a commuting pair: the kernels overlap in an
    unbounded-looking intersection, Ker(U1 U2) = Ker(U1) + Ker(U2) at every
    rung, and both operators look surjective."""
    if len(ladder) < 3:
        raise ValueError("the ladder needs at least 3 rungs")
    rungs = []
    for size in ladder:
        built = pair_builder(size)
        u1, u2, cor1, cor2 = built if len(built) == 4 else (*built, None, None)
        m1, ker1 = _pair_parts(u1)
        m2, ker2 = _pair_parts(u2)
        if _pure_hs_pair(u1, u2):
            # U S V against U S V: the pair commutes identically.
            prod_kernel = opbuild.hs_product(u1, u2).kernel_basis(tol).dim
        else:
            comm = np.linalg.norm(m1 @ m2 - m2 @ m1)
            scale = np.linalg.norm(m1) * np.linalg.norm(m2)
            if comm > tol * max(scale, 1.0):
                raise ValueError("the supplied pair does not commute")
            prod_kernel = numlin.svd_kernel(m1 @ m2, tol).dim
        b1, b2 = ker1(tol), ker2(tol)
        inter = numlin.subspace_intersection_dim(b1, b2, tol)
        ssum = numlin.subspace_sum_dim(b1, b2, tol)
        if cor1 is None:
            cor1 = numlin.corank(m1, tol)
        if cor2 is None:
            cor2 = numlin.corank(m2, tol)
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
    """
    from .analytic import HyperbolicAuto

    t_r = HyperbolicAuto(abs(r)).t_param
    us = np.linspace(-span / 2.0, span / 2.0, n_radial)
    radii = np.exp(us * t_r / 2.0)
    angles = 2.0 * np.pi * np.arange(n_angular) / n_angular
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


def spectral_falsifier(builder, lam_grid, ladder, tols=(1e-6, 1e-8),
                       dim_bound: int = 1) -> CertificateReport:
    """Track kernel dimensions of (A - lambda I) over a ladder and a grid.

    A universal candidate must show eigenvalues of growing multiplicity
    somewhere; when every grid point keeps a bounded, non-growing kernel the
    family is falsified. This operation never certifies.
    """
    lam_grid = np.asarray(lam_grid)
    if lam_grid.size == 0:
        raise ValueError("the falsifier needs a non-empty grid")
    tols = tuple(tols)
    dims = {}
    rungs = []
    for size in ladder:
        square, _ = _split(builder(size))
        fs = _framed(square)
        n = fs.shape[0]
        worst = 0
        for lam in lam_grid:
            sv = np.linalg.svd(fs - lam * np.eye(n), compute_uv=False)
            for tol in tols:
                d = int(np.sum(sv <= tol * sv[0]))
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
    return CertificateReport("spectral", verdict, tuple(rungs),
                             {"svd_tols": list(tols)}, narrative)


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
                            a.codomain_space, max(a.build_pad, reference.build_pad),
                            f"[{reference.provenance}] minus [{a.provenance}]")
    sv = numlin.singular_values(_framed(diff))
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


def adjoint_multiplicity_witnesses(r: float, lam: complex, trunc: int,
                                   index_max: int = 64,
                                   window_frac: int = 4) -> WitnessFamily:
    """Near-kernel family for the z-compressed weighted adjoint of C_phi.

    The compression is exactly diag(k)-similar to the z-compression of the
    inverse composition operator on the unweighted space, whose eigenvectors
    at lambda are explicit: exponents w_n = -log(lambda)/t_r + 2 pi i n/t_r.
    Witness n carries its coefficient mass near index 2 pi |n| / t_r, so a
    truncation resolves witnesses only up to a frequency proportional to its
    size: the verified count grows with the ladder.
    """
    from .analytic import HyperbolicAuto, eigenfunction_coeffs_recurrence, in_annulus

    if not in_annulus(r, lam) or abs(lam) == 1.0:
        raise ValueError("lambda must lie in the open annulus, off the unit circle")
    t_r = HyperbolicAuto(r).t_param
    space = SpaceSpec(beta=1.0, trunc=trunc, variant="derivative")
    a = opbuild.compress_zH2(opbuild.weighted_adjoint(
        opbuild.composition_matrix(r, space)))
    am = a.entries
    wts = a.domain_space.weights
    m = trunc - 1
    win = m // window_frac
    k = np.arange(1, trunc)
    base = -np.log(complex(lam)) / t_r
    indices = tuple(range(-index_max, index_max + 1))
    vectors = np.zeros((m, len(indices)), dtype=complex)
    residuals = np.ones(len(indices))
    window_mass = np.zeros(len(indices))
    for col, n in enumerate(indices):
        g = eigenfunction_coeffs_recurrence(base + 2j * np.pi * n / t_r, trunc)
        v = g[1:] / k
        mass = wts * np.abs(v) ** 2
        total = mass.sum()
        if total == 0.0 or not np.isfinite(total):
            continue
        v = v / np.sqrt(total)
        res = am @ v - lam * v
        residuals[col] = float(np.sqrt(np.sum(wts[:win] * np.abs(res[:win]) ** 2)))
        window_mass[col] = float(mass[:win].sum() / total)
        vectors[:, col] = v
    return WitnessFamily(indices, vectors, residuals, window_mass, wts)


def composition_witness_count(r: float, lam: complex, trunc: int,
                              index_max: int = 64,
                              residual_tol: float = WITNESS_TOL) -> int:
    return adjoint_multiplicity_witnesses(r, lam, trunc, index_max).count(residual_tol)


# -- concrete ladder families -------------------------------------------------

def family_identity(n: int):
    return opbuild.OpMatrix(np.eye(n), opbuild._hardy(n), opbuild._hardy(n), n,
                            f"identity, n={n}")


def family_backward_shift(n: int):
    b = opbuild.backward_shift(n)
    return b, opbuild.interior_section(b, 1)


def family_block_backward(n: int, block_frac: int = 4):
    """Backward shift of growing inner dimension d = n / block_frac."""
    d = max(n // block_frac, 1)
    spec = opbuild.BlockShiftSpec(max(n // d, 2), d)
    b = opbuild.block_backward_shift(spec)
    return b, opbuild.interior_section(b, d)


def family_halfshift_plus_rank1(n: int):
    """U: e_{2k} -> e_k, odd basis vectors -> 0, plus the rank-1 bump
    K e_2 = -e_1; surjective up to the single lost direction e_1."""
    m = np.zeros((n, n))
    for k in range(n):
        if 2 * k < n:
            m[k, 2 * k] = 1.0
    m[1, 2] -= 1.0
    op = opbuild.OpMatrix(m, opbuild._hardy(n), opbuild._hardy(n), n,
                          f"half shift plus rank-1 bump, n={n}")
    return op, opbuild.interior_section(op, n - (n + 1) // 2)


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
        space = SpaceSpec(beta=1.0, trunc=trunc, variant="derivative")
        a = opbuild.compress_zH2(opbuild.weighted_adjoint(
            opbuild.composition_matrix(r, space)))
        drop = (trunc - 1) // window_frac
        return a, opbuild.interior_section(a, drop)
    return build


def shifted(builder, lam: complex):
    """Family A - lambda I built from a square family."""
    def build(size):
        square, interior = _split(builder(size))
        n = square.entries.shape[0]
        ent = square.entries - lam * np.eye(n)
        shifted_sq = opbuild.OpMatrix(ent, square.domain_space, square.codomain_space,
                                      square.build_pad,
                                      f"[{square.provenance}] - ({lam}) I")
        if interior is None:
            return shifted_sq
        drop = n - interior.entries.shape[0]
        return shifted_sq, opbuild.interior_section(shifted_sq, drop)
    return build


def hs_pair_scalar(n: int):
    """Left multiplication by the backward shift against right multiplication
    by its adjoint, on n x n truncations."""
    b = opbuild.backward_shift(n)
    bstar = opbuild.forward_shift(n)
    left = opbuild.hs_left(b)
    right = opbuild.hs_right(bstar)
    cor_left = n * (n - 1) - n * numlin.numerical_rank(b.entries[:-1, :])
    cor_right = n * (n - 1) - n * numlin.numerical_rank(bstar.entries[:, :-1].T)
    return left, right, cor_left, cor_right


def hs_pair_block(size: tuple[int, int]):
    """Block backward shift pair on HS truncations of K blocks, inner
    dimension d; the model universal commuting pair."""
    spec = opbuild.BlockShiftSpec(*size)
    b = opbuild.block_backward_shift(spec)
    bstar = opbuild.block_forward_shift(spec)
    left = opbuild.hs_left(b)
    right = opbuild.hs_right(bstar)
    n, d = spec.K * spec.d, spec.d
    cor_left = n * (n - d) - n * numlin.numerical_rank(b.entries[:-d, :])
    cor_right = n * (n - d) - n * numlin.numerical_rank(bstar.entries[:, :-d].T)
    return left, right, cor_left, cor_right


def pair_diagonal_blocks(n: int):
    """Diagonal pair (U0 + I, I + V0) on a doubled space: commuting, but the
    kernels live in complementary components."""
    u0 = opbuild.backward_shift(n)
    eye = np.eye(n)
    zero = np.zeros((n, n))
    u = opbuild.block2x2(u0, zero, zero, eye, provenance=f"U0 and identity, n={n}")
    v = opbuild.block2x2(eye, zero, zero, u0, provenance=f"identity and V0, n={n}")
    return u, v
