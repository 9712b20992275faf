"""Scenario runner: each registered scenario reproduces one experiment as
deterministic JSON and CSV reports."""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import mpmath as mp
import numpy as np

from . import analytic, certify, numlin, opbuild
from .spaces import SpaceSpec


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _report_payload(report: certify.CertificateReport) -> dict:
    return json.loads(report.to_json())


# -- parameter checks: each returns a problem message or None -----------------

def _real_unit(key):
    def check(p):
        v = p[key]
        if not (isinstance(v, numbers.Real) and 0.0 < v < 1.0):
            return f"{key} must be a real number in (0, 1), got {v!r}"
    return check


def _in_annulus(rkey, lkey):
    def check(p):
        if not analytic.in_annulus(p[rkey], p[lkey]):
            return f"{lkey}={p[lkey]} lies outside the open annulus"
    return check


def _real(key):
    def check(p):
        values = p[key] if isinstance(p[key], tuple) else (p[key],)
        if not all(isinstance(v, numbers.Real) for v in values):
            return f"{key} must be real, got {p[key]!r}"
    return check


def _at_least(key, lo):
    """An integer parameter's floor, the smallest value the run accepts."""
    def check(p):
        if p[key] < lo:
            return f"{key} must be at least {lo}, got {p[key]}"
    return check


def _count_in_trunc(p):
    # the summary reads s_32 / s_1
    if not 32 <= p["count"] <= p["trunc"]:
        return (f"count must satisfy 32 <= count <= trunc, got count={p['count']}, "
                f"trunc={p['trunc']}")


def _ladder(p):
    try:
        certify._check_ladder(p["ladder"])
    except ValueError as exc:
        return str(exc)


# -- scenario bodies ----------------------------------------------------------

def _sc_thm22_eigenfield(p):
    spec = opbuild.BlockShiftSpec(p["K"], p["d"])
    b = opbuild.block_backward_shift(spec)
    x0 = 1.0 / (1.0 + np.arange(spec.d))
    v = analytic.holomorphic_eigenfield(x0, p["z"], spec.K)
    defect = b.entries @ v - p["z"] * v
    interior = defect[: (spec.K - 1) * spec.d]
    summary = {
        "scenario": "thm22-eigenfield",
        "K": spec.K, "d": spec.d, "z": [p["z"].real, p["z"].imag],
        "interior_residual_max": float(np.abs(interior).max()),
        "bitwise_exact_interior": bool(np.all(interior == 0)),
        "boundary_defect": float(np.abs(defect[(spec.K - 1) * spec.d:]).max()),
        "narrative": "the geometric block vector is an exact eigenvector of the "
                     "block backward shift away from the truncation boundary",
    }
    return summary, []


def _sc_prop21_block(p):
    n = p["n"]
    u = opbuild.backward_shift(n)
    bdiag = 0.25 + 0.5 * np.arange(n) / n
    b = opbuild.OpMatrix(np.diag(bdiag), opbuild._hardy(n), opbuild._hardy(n),
                         "diagonal lower block")
    v = opbuild.block2x2(u, np.eye(n), None, b,
                         provenance="upper-triangular block operator")
    ev = numlin.eigenvalues(v)
    parts = np.sort_complex(np.concatenate([np.zeros(n), bdiag.astype(complex)]))
    gap = float(np.abs(np.sort_complex(ev) - parts).max())
    summary = {
        "scenario": "prop21-block", "n": n,
        "eigenvalue_union_gap": gap,
        "narrative": "the triangular block operator keeps exactly the union of "
                     "the diagonal blocks' eigenvalues",
    }
    return summary, []


def _sc_ex25_notC(p):
    # one walk of the ladder, read by both verdict rules
    walk = certify.kernel_ladder(certify.family_halfshift_plus_rank1, p["ladder"])
    rep_c = certify.kernel_verdict("C", walk)
    rep_cplus = certify.kernel_verdict("Cplus", walk)
    summary = {
        "scenario": "ex25-notC",
        "check_C": _report_payload(rep_c),
        "check_Cplus": _report_payload(rep_cplus),
        "narrative": "a rank-1 bump on a surjective half shift destroys "
                     "surjectivity (one lost direction) while the kernel keeps "
                     "growing: the stricter condition fails, the corank-tolerant "
                     "one certifies",
    }
    return summary, []


def _sc_ex26_perturbation(p):
    trunc = p["trunc"]
    base = opbuild.block2x2(opbuild.backward_shift(trunc), np.eye(trunc),
                            np.zeros((trunc, trunc)), np.zeros((trunc, trunc)),
                            provenance="unperturbed limit")
    rows = []
    defects = []
    for n in range(1, p["n_max"] + 1):
        vn = certify.family_ex26(n)(trunc)
        smin = numlin.Spectrum.of(vn).sigma_min
        dn = np.linalg.norm(vn.entries - base.entries, 2)
        defects.append(abs(dn - 1.0 / n))
        rows.append([n, repr(smin), repr(1.0 / (2 * n))])
    summary = {
        "scenario": "ex26-perturbation", "trunc": trunc,
        "all_injective": all(float(r[1]) > 0 for r in rows),
        "max_norm_identity_defect": float(max(defects)),
        "narrative": "every perturbed operator is injective (kernel trivial), "
                     "yet sits at distance exactly 1/n from a universal operator",
    }
    extra = [("sigma_min.csv", ["n", "sigma_min", "half_inverse_bound"], rows)]
    return summary, extra


def _sc_multiplicativity(p):
    n = p["n"]
    u0 = opbuild.backward_shift(n)
    zero = np.zeros((n, n))
    u = opbuild.block2x2(u0, zero, zero, zero, provenance="upper corner factor")
    v = opbuild.block2x2(zero, zero, zero, u0, provenance="lower corner factor")
    prod = u.entries @ v.entries
    summary = {
        "scenario": "multiplicativity-failure", "n": n,
        "norm_U": float(np.linalg.norm(u.entries, 2)),
        "norm_V": float(np.linalg.norm(v.entries, 2)),
        "norm_UV": float(np.linalg.norm(prod, 2)),
        "narrative": "two nonzero operators of the universal diagonal type "
                     "multiply to exactly zero, so the full universal class is "
                     "not closed under products",
    }
    return summary, []


def _sc_annulus(p):
    inner, outer = analytic.annulus(p["r"])
    summary = {
        "scenario": "annulus", "r": p["r"], "inner": inner, "outer": outer,
        "radius_product": inner * outer,
        "narrative": "spectral annulus radii for the hyperbolic composition "
                     "operator; the radii are reciprocal",
    }
    extra = [("radii.csv", ["r", "inner", "outer"],
              [[repr(p["r"]), repr(inner), repr(outer)]])]
    return summary, extra


def _sc_ex31_falsify(p):
    grid = certify.annulus_grid(p["r"], p["n_radial"], p["n_angular"])
    fam = certify.family_composition(p["r"], beta=1.0, variant="derivative")
    tols = (1e-6, 1e-8)
    rep, dims = certify._spectral_scan(fam, grid, p["ladder"], tols)
    # the table shows the top rung of the falsifier's own scan
    rows = [[repr(float(lam.real)), repr(float(lam.imag))]
            + [dims[(complex(lam), tol)][-1] for tol in tols] for lam in grid]
    summary = {
        "scenario": "ex31-falsify-dirichlet",
        "report": _report_payload(rep),
        "narrative": "over the whole annulus grid only lambda = 1 carries a "
                     "kernel, and it stays one-dimensional: no candidate "
                     "eigenvalue of growing multiplicity",
    }
    extra = [("grid_dims.csv", ["re_lambda", "im_lambda", "dim_1e-6", "dim_1e-8"],
              rows)]
    return summary, extra


def _sc_thm32_certify(p):
    fam = certify.family_adjoint_witnessed(p["r"], p["lam"], p["index_max"])
    rep = certify.check_C(fam, p["ladder"])
    top = rep.witnesses
    rows = [[n, repr(float(res)), repr(float(massf))]
            for n, res, massf in zip(top.indices, top.residuals, top.window_mass)]
    summary = {
        "scenario": "thm32-adjoint-certify",
        "report": _report_payload(rep),
        "gram_min_eigenvalue_top_rung": top.gram_min_eigenvalue(),
        "narrative": "the compressed weighted adjoint passes growing counts of "
                     "independent resolved witnesses with vanishing corank",
    }
    extra = [("witnesses.csv", ["n", "windowed_residual", "window_mass"], rows)]
    return summary, extra


def _sc_cor34_heller(p):
    r, trunc = p["r"], p["trunc"]
    space = SpaceSpec(beta=1.0, trunc=trunc, variant="derivative")
    reference = opbuild.weighted_adjoint(opbuild.composition_matrix(-r, space))
    displayed = opbuild.heller_principal(r, 0.0, space)
    flipped = opbuild.heller_principal(r, 0.0, space, sign=1)
    prof = certify.compactness_proxy(displayed, reference, count=p["count"])
    prof_flipped = certify.compactness_proxy(flipped, reference, count=p["count"])
    rows = [[j + 1, repr(float(s)), repr(float(t))]
            for j, (s, t) in enumerate(zip(prof.values, prof_flipped.values))]
    summary = {
        "scenario": "cor34-heller", "r": r, "trunc": trunc,
        "displayed_s32_over_s1": prof.ratio(32),
        "flipped_s32_over_s1": prof_flipped.ratio(32),
        "narrative": "the remainder against the displayed combination does not "
                     "decay, while flipping the sign of the middle term leaves "
                     "a rapidly decaying (compact-looking) remainder; this "
                     "mirrors the printed-adjoint discrepancy reported by the "
                     "mzstar comparison scenario",
    }
    extra = [("decay.csv", ["j", "s_displayed", "s_flipped"], rows)]
    return summary, extra


def _sc_mzstar_compare(p):
    trunc = p["trunc"]
    space = SpaceSpec(beta=1.0, trunc=trunc, variant="derivative")
    mzs = opbuild.weighted_adjoint(opbuild.mult_z(space))
    rows = []
    agree = []
    for m in range(trunc - 1):
        gram_val = float(mzs.entries[m, m + 1].real)
        printed = 1.0 if m == 0 else ((m + 1) / m) ** m
        if abs(gram_val - printed) < 1e-12:
            agree.append(m)
        rows.append([m, repr(gram_val), repr(printed),
                     repr(abs(gram_val - printed))])
    summary = {
        "scenario": "mzstar-adjoint-compare", "trunc": trunc,
        "agreement_rows": agree,
        "narrative": "the inner-product adjoint of multiplication by z has "
                     "superdiagonal entries w_{m+1}/w_m; the alternative closed "
                     "form ((m+1)/m)^m matches only at m = 0 and m = 2, so the "
                     "inner-product adjoint is taken as definitional",
    }
    extra = [("entries.csv", ["m", "gram_adjoint", "printed_form", "abs_diff"],
              rows)]
    return summary, extra


def _sc_prop35_halfplane(p):
    mu = p["mu"]
    rows = [["hardy", repr(mu), "", repr(analytic.halfplane_radius(mu))]]
    for alpha in p["alphas"]:
        rows.append(["bergman", repr(mu), repr(alpha),
                     repr(analytic.halfplane_radius(mu, "bergman", alpha))])
    summary = {
        "scenario": "prop35-halfplane", "mu": mu,
        "hardy_radius": analytic.halfplane_radius(mu),
        "bergman_radii": {repr(a): analytic.halfplane_radius(mu, "bergman", a)
                          for a in p["alphas"]},
        "narrative": "the half-plane dilation pins its candidate eigenvalues to "
                     "a single circle, which rules out interior point spectrum "
                     "and hence universality of the shifted operator",
    }
    extra = [("radii.csv", ["space", "mu", "alpha", "radius"], rows)]
    return summary, extra


def _sc_prop41_falsifiers(p):
    n = p["n"]
    b = opbuild.backward_shift(n)
    b2 = opbuild.OpMatrix(b.entries @ b.entries, b.domain_space,
                          b.codomain_space, "squared backward shift")
    b3 = opbuild.OpMatrix(b.entries @ b2.entries, b.domain_space,
                          b.codomain_space, "cubed backward shift")
    rep_poly = certify.algebraic_falsifier(b, b2, poly=[1.0])
    rep_pow = certify.algebraic_falsifier(b2, b3, powers=(2, 3))
    control = certify.algebraic_falsifier(b, certify.family_identity(n),
                                          poly=[1.0])
    summary = {
        "scenario": "prop41-falsifiers", "n": n,
        "poly_pair": _report_payload(rep_poly),
        "power_pair": _report_payload(rep_pow),
        "control": _report_payload(control),
        "narrative": "both algebraically dependent pairs are falsified by their "
                     "explicit witnesses; the unrelated control stays "
                     "inconclusive",
    }
    return summary, []


def _sc_ex46_zeros(p):
    frac = analytic.ratio_condition(p["r"], p["s"])
    zr = analytic.covering_map_zeros(p["r"], p["lam"], p["k_max"])
    zs = analytic.covering_map_zeros(p["s"], p["mu"], p["k_max"] // 2)
    by_k_r = {e.k: e for e in zr.entries}
    by_k_s = {e.k: e for e in zs.entries}
    pair_rows = []
    max_gap = mp.mpf(0)
    max_cross = mp.mpf(0)
    # the zeros crowd +-1 at double-exponential speed, so the comparison must
    # run at the same precision the zero sets were built with
    with mp.workdps(zr.dps):
        for j in sorted(by_k_s):
            if 2 * j not in by_k_r:
                continue
            za, zb = by_k_r[2 * j].z, by_k_s[j].z
            gap = mp.fabs(za - zb)
            cross = mp.fabs(analytic.covering_value(p["s"], za, dps=zr.dps) - p["mu"])
            max_gap = max(max_gap, gap)
            max_cross = max(max_cross, cross)
            pair_rows.append([j, 2 * j, mp.nstr(gap, 6), mp.nstr(cross, 6)])
    summary = {
        "scenario": "ex46-common-zeros",
        "ratio": None if frac is None else f"{frac.numerator}/{frac.denominator}",
        "matched_pairs": len(pair_rows),
        "max_pair_gap": mp.nstr(max_gap, 8),
        "max_cross_residual": mp.nstr(max_cross, 8),
        "zero_residual_max": max(e.residual for e in zr.entries + zs.entries),
        "narrative": "with translation lengths in ratio 2:1 every other zero of "
                     "the finer covering map is a zero of the coarser one, so "
                     "the two symbols share infinitely many zeros",
    }
    def zero_rows(zset):
        return [[e.k, mp.nstr(e.z.real, 17), mp.nstr(e.z.imag, 17), repr(e.residual)]
                for e in zset.entries]

    zero_header = ["k", "re_z", "im_z", "residual"]
    extra = [("zeros_r.csv", zero_header, zero_rows(zr)),
             ("zeros_s.csv", zero_header, zero_rows(zs)),
             ("pairs.csv", ["j", "matched_k", "gap", "cross_residual"], pair_rows)]
    return summary, extra


@dataclass(frozen=True)
class Scenario:
    """A registered experiment: run(params) returns (summary, tables), each
    table a (file name, header, rows) triple. Every parameter has a default,
    whose kind decides how a given value is parsed; checks are the domain
    rules validate() runs on the parsed parameters, in order."""

    name: str
    run: callable
    defaults: dict
    description: str
    checks: tuple = ()


def _pair_scenario(name, pair_builder, ladder, description, narrative) -> Scenario:
    """A commuting-pair scenario: condition M over the pair's ladder."""
    def run(p):
        rep = certify.check_M(pair_builder, p["ladder"])
        return {"scenario": name, "report": _report_payload(rep),
                "narrative": narrative}, []
    return Scenario(name, run, {"ladder": ladder}, description, (_ladder,))


_DEF_LADDER = (64, 128, 256)

REGISTRY = {s.name: s for s in (
    Scenario("thm22-eigenfield", _sc_thm22_eigenfield,
             {"K": 8, "d": 4, "z": 0.25 + 0.15j},
             "exact holomorphic eigenvector field of the block backward shift",
             (_at_least("K", 2), _at_least("d", 1))),
    Scenario("prop21-block", _sc_prop21_block, {"n": 24},
             "triangular block operators keep the union of part spectra",
             (_at_least("n", 2),)),
    Scenario("ex25-notC", _sc_ex25_notC, {"ladder": (32, 64, 128)},
             "rank-1 compact bump: kernel keeps growing, one range direction lost",
             (_ladder,)),
    Scenario("ex26-perturbation", _sc_ex26_perturbation,
             {"trunc": 128, "n_max": 10},
             "injective perturbations at distance 1/n from a universal operator",
             (_at_least("trunc", 2), _at_least("n_max", 1))),
    Scenario("multiplicativity-failure", _sc_multiplicativity, {"n": 16},
             "two universal-type diagonal factors with product exactly zero",
             (_at_least("n", 2),)),
    Scenario("annulus", _sc_annulus, {"r": 0.5},
             "spectral annulus radii of the hyperbolic composition operator",
             (_real_unit("r"),)),
    Scenario("ex31-falsify-dirichlet", _sc_ex31_falsify,
             {"r": 0.5, "ladder": _DEF_LADDER, "n_radial": 5, "n_angular": 12},
             "annulus grid of kernel dimensions falsifies the forward operator",
             (_real_unit("r"), _ladder, _at_least("n_radial", 1),
              _at_least("n_angular", 1))),
    Scenario("thm32-adjoint-certify", _sc_thm32_certify,
             {"r": 0.5, "lam": 3.0 ** 0.25, "ladder": (256, 512, 1024),
              "index_max": 64},
             "growing resolved-witness counts certify the compressed adjoint",
             (_real_unit("r"), _in_annulus("r", "lam"), _ladder)),
    Scenario("cor34-heller", _sc_cor34_heller,
             {"r": 0.5, "trunc": 512, "count": 64},
             "singular-value decay of the adjoint minus its principal part",
             (_real_unit("r"), _count_in_trunc)),
    Scenario("mzstar-adjoint-compare", _sc_mzstar_compare, {"trunc": 12},
             "superdiagonal of the adjoint of multiplication by z, two formulas"),
    Scenario("prop35-halfplane", _sc_prop35_halfplane,
             {"mu": 4.0, "alphas": (0.0, 2.0)},
             "half-plane dilation spectral radii",
             (_real("mu"), _real("alphas"))),
    Scenario("prop41-falsifiers", _sc_prop41_falsifiers, {"n": 32},
             "algebraic dependence witnesses falsify shift power pairs",
             (_at_least("n", 2),)),
    _pair_scenario("ex43-diagonal", certify.pair_diagonal_blocks, (8, 16, 32),
                   "commuting diagonal pair with disjoint kernels",
                   "the commuting diagonal pair keeps disjoint kernels, so the "
                   "common-kernel requirement fails"),
    _pair_scenario("thm44-scalar-pair", certify.hs_pair_scalar, (8, 16, 32),
                   "scalar multiplication pair: intersection pinned at one",
                   "the scalar shift pair pins its kernel intersection at one "
                   "dimension at every truncation"),
    _pair_scenario("thm44-block-pair", certify.hs_pair_block,
                   ((4, 4), (6, 6), (8, 8)),
                   "block multiplication pair: the model universal commuting pair",
                   "the block shift pair shows growing kernel overlap with exact "
                   "product-kernel bookkeeping"),
    Scenario("ex46-common-zeros", _sc_ex46_zeros,
             {"r": 0.5, "s": 2.0 - 3.0 ** 0.5, "lam": 1.0 + 0j, "mu": 1.0 + 0j,
              "k_max": 20},
             "covering-map zero sets sharing every other zero at ratio 2:1",
             (_real_unit("r"), _real_unit("s"), _in_annulus("r", "lam"),
              _in_annulus("s", "mu"), _at_least("k_max", 0))),
)}


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text)
    except ValueError:
        return text


def _parse_ladder(text: str):
    """Comma list of values or KxD rungs."""
    rungs = []
    for token in text.split(","):
        token = token.strip()
        if "x" in token:
            rungs.append(tuple(_parse_value(part.strip()) for part in token.split("x")))
        else:
            rungs.append(_parse_value(token))
    return tuple(rungs)


def _as_kind(default, value):
    """value in the kind of default: strings are parsed first, then tuples
    need sequences of the default's element kind (a rung of KxD rungs needs
    as many parts as the default's), ints need integers and float or
    complex defaults take any number. Raises ValueError."""
    if isinstance(default, tuple):
        if isinstance(value, str):
            value = _parse_ladder(value)
        if not isinstance(value, (tuple, list)):
            raise ValueError(f"expected a sequence like {default!r}, got {value!r}")
        if isinstance(default[0], tuple) and any(
                isinstance(v, (tuple, list)) and len(v) != len(default[0]) for v in value):
            raise ValueError(f"each rung needs {len(default[0])} parts like "
                             f"{default[0]!r}, got {value!r}")
        return tuple(_as_kind(default[0], v) for v in value)
    if isinstance(value, str):
        value = _parse_value(value)
    if isinstance(default, int):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"expected an integer, got {value!r}")
        return int(value)
    if not isinstance(value, numbers.Number):
        raise ValueError(f"expected a number, got {value!r}")
    return value


def _read_config(path: str) -> dict:
    """Plain key = value lines mirroring the flags; 'param' may repeat."""
    out = {"param": []}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "param":
            out["param"].append(value)
        else:
            out[key] = value
    return out


def list_scenarios() -> str:
    width = max(len(name) for name in REGISTRY)
    lines = [f"{name:<{width}}  {sc.description}"
             for name, sc in sorted(REGISTRY.items())]
    return "\n".join(lines)


def _resolve(name: str, params: dict) -> tuple[dict, list[str]]:
    """Registry defaults overridden by params parsed by the kind of each
    default, and the problems found: unknown keys, values of the wrong kind,
    then the first failing check of the scenario."""
    if name not in REGISTRY:
        return {}, [f"unknown scenario {name!r}"]
    sc = REGISTRY[name]
    merged = dict(sc.defaults)
    problems = []
    for key, value in params.items():
        if key not in sc.defaults:
            problems.append(f"unknown parameter {key!r} for {name}")
            continue
        try:
            merged[key] = _as_kind(sc.defaults[key], value)
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
    if not problems:
        for check in sc.checks:
            msg = check(merged)
            if msg is not None:
                return merged, [msg]
    return merged, problems


def validate(name: str, params: dict) -> list[str]:
    """Problems with params for scenario name; empty when it can run."""
    return _resolve(name, params)[1]


def run_scenario(name: str, params: dict, out_dir: Path,
                 fmt: str = "both") -> list[Path]:
    if name not in REGISTRY:
        raise KeyError(f"unknown scenario {name!r}")
    merged, problems = _resolve(name, params)
    if problems:
        raise ValueError("; ".join(problems))
    target = out_dir / name
    target.mkdir(parents=True, exist_ok=True)
    summary, tables = REGISTRY[name].run(merged)
    written = []
    if fmt in ("json", "both"):
        written.append(_write_json(target / "summary.json", summary))
    if fmt in ("csv", "both"):
        for fname, header, rows in tables:
            written.append(_write_csv(target / fname, header, rows))
    return written


def _run_one(args):
    name, params, out_dir, fmt = args
    paths = run_scenario(name, params, Path(out_dir), fmt)
    return name, [str(p) for p in paths]


FORMATS = ("json", "csv", "both")


def _fail(message) -> int:
    """Bad input ends in one stderr line and exit status 2."""
    print(f"univcert-lab: error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="univcert-lab",
        description="run registered numerical experiments on operator "
                    "truncation ladders")
    parser.add_argument("--scenario", action="append", default=[],
                        help="scenario name; repeatable")
    parser.add_argument("--param", action="append", default=[], metavar="K=V",
                        help="scenario parameter, parsed by the kind of its "
                             "default; repeatable")
    parser.add_argument("--out", help="output directory (default: reports)")
    parser.add_argument("--format", choices=FORMATS,
                        help="report files to write (default: both)")
    parser.add_argument("--ladder",
                        help="comma-separated rungs, e.g. 64,128,256 or 4x4,6x6,8x8")
    parser.add_argument("--jobs", type=int, help="worker processes (default: 1)")
    parser.add_argument("--config", default=None,
                        help="key = value file mirroring the flags")
    parser.add_argument("--list", action="store_true", dest="list_flag",
                        help="list registered scenarios")
    parser.add_argument("--validate", action="store_true",
                        help="check the parameters without running")
    ns = parser.parse_args(argv)

    if ns.list_flag:
        print(list_scenarios())
        return 0

    try:
        cfg = _read_config(ns.config) if ns.config else {"param": []}
    except (OSError, ValueError) as exc:
        return _fail(str(exc))

    def setting(key, builtin):
        """An explicit flag, then the config file, then the built-in default."""
        flag = getattr(ns, key)
        return flag if flag is not None else cfg.get(key, builtin)

    out_dir, fmt = setting("out", "reports"), setting("format", "both")
    if fmt not in FORMATS:
        return _fail(f"format: expected one of {', '.join(FORMATS)}, got {fmt!r}")
    ladder = setting("ladder", None)
    try:
        jobs = _as_kind(1, setting("jobs", 1))
    except ValueError as exc:
        return _fail(f"jobs: {exc}")
    scenarios = ns.scenario or ([cfg["scenario"]] if "scenario" in cfg else [])
    if not scenarios:
        parser.error("no scenario given (use --scenario or --list)")

    params = {}
    for item in cfg["param"] + ns.param:
        if "=" not in item:
            parser.error(f"malformed --param {item!r}, expected K=V")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    if ladder is not None:
        params["ladder"] = ladder

    if ns.validate:
        status = 0
        for name in scenarios:
            problems = validate(name, params)
            if problems:
                status = 2
                for problem in problems:
                    print(f"{name}: {problem}")
            else:
                print(f"{name}: ok")
        return status

    tasks = [(name, params, out_dir, fmt) for name in scenarios]
    try:
        if jobs > 1 and len(tasks) > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_run_one, tasks))
        else:
            results = [_run_one(task) for task in tasks]
    except (ValueError, KeyError) as exc:
        return _fail(exc.args[0] if exc.args else exc)
    for name, paths in results:
        for path in paths:
            print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
