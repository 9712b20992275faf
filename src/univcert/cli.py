"""Scenario runner: each registered scenario reproduces one experiment as
deterministic JSON and CSV reports."""

from __future__ import annotations

import argparse
import csv
import json
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic, certify, numlin, opbuild, spaces


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


def _in_disc(key):
    def check(p):
        if not abs(p[key]) < 1:
            return f"{key} must satisfy |{key}| < 1, got {p[key]!r}"
    return check


def _off_unit_circle(key):
    def check(p):
        if abs(p[key]) == 1:
            return f"{key} must lie off the unit circle, got {p[key]!r}"
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


def _halfplane(p):
    # the radius formulas hold the domain rules: mu > 0, mu != 1, alpha > -1
    try:
        analytic.halfplane_radius(p["mu"])
        for alpha in p["alphas"]:
            analytic.halfplane_radius(p["mu"], "bergman", alpha)
    except ValueError as exc:
        return str(exc)


def _zero_sets(p):
    try:
        analytic.zero_set_dps(p["r"], p["lam"], p["k_max"])
        analytic.zero_set_dps(p["s"], p["mu"], p["k_max"] // 2)
    except ValueError as exc:
        return str(exc)


def _rung_text(rung) -> str:
    return "x".join(map(str, rung)) if isinstance(rung, tuple) else str(rung)


def _ladder(floor):
    """certify's ladder rule, then the smallest rung the run accepts: every
    rung, and each part of a KxD rung, at least floor."""
    def check(p):
        try:
            certify._check_ladder(p["ladder"])
        except ValueError as exc:
            return str(exc)
        if any(np.any(np.less(rung, floor)) for rung in p["ladder"]):
            return (f"ladder rungs must be at least {_rung_text(floor)}, got "
                    f"{','.join(map(_rung_text, p['ladder']))}")
    return check


# -- scenarios ----------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A registered experiment: run(**params) returns (fields, tables), each
    table a (file name, header, rows) triple; the report's summary is the
    fields plus the scenario's name and narrative. Every parameter has a
    default, whose kind decides how a given value is parsed; checks are the
    domain rules validate() runs on the parsed parameters, in order."""

    run: callable
    defaults: dict
    description: str
    narrative: str
    checks: tuple


REGISTRY: dict[str, Scenario] = {}


def _scenario(name, description, narrative, checks):
    """Registers the decorated body as scenario name; its keyword-only
    parameters and their defaults are the scenario's."""
    def register(run):
        REGISTRY[name] = Scenario(run, dict(run.__kwdefaults__), description,
                                  narrative, checks)
        return run
    return register


@_scenario("thm22-eigenfield",
           "exact holomorphic eigenvector field of the block backward shift",
           "the geometric block vector is an exact eigenvector of the block "
           "backward shift away from the truncation boundary",
           (_at_least("K", 2), _at_least("d", 1), _in_disc("z")))
def _sc_thm22_eigenfield(*, K=8, d=4, z=0.25 + 0.15j):
    b = opbuild.block_backward_shift(K, d)
    x0 = 1.0 / (1.0 + np.arange(d))
    v = analytic.holomorphic_eigenfield(x0, z, K)
    defect = b @ v - z * v
    interior = defect[: (K - 1) * d]
    fields = {
        "K": K, "d": d, "z": [z.real, z.imag],
        "interior_residual_max": float(np.abs(interior).max()),
        "bitwise_exact_interior": bool(np.all(interior == 0)),
        "boundary_defect": float(np.abs(defect[(K - 1) * d:]).max()),
    }
    return fields, []


@_scenario("prop21-block",
           "triangular block operators keep the union of part spectra",
           "the triangular block operator keeps exactly the union of the "
           "diagonal blocks' eigenvalues",
           (_at_least("n", 2),))
def _sc_prop21_block(*, n=24):
    u = opbuild.block_backward_shift(n, 1)
    bdiag = 0.25 + 0.5 * np.arange(n) / n
    v = opbuild.block2x2(u, np.eye(n), np.zeros((n, n)), np.diag(bdiag))
    ev = np.sort_complex(np.linalg.eigvals(v))
    parts = np.sort_complex(np.concatenate([np.zeros(n), bdiag.astype(complex)]))
    gap = float(np.abs(ev - parts).max())
    return {"n": n, "eigenvalue_union_gap": gap}, []


@_scenario("ex25-notC",
           "rank-1 compact bump: kernel keeps growing, one range direction lost",
           "a rank-1 bump on a surjective half shift destroys surjectivity (one "
           "lost direction) while the kernel keeps growing: the stricter "
           "condition fails, the corank-tolerant one certifies",
           (_ladder(3),))
def _sc_ex25_notC(*, ladder=(32, 64, 128)):
    # one walk of the ladder, read by both verdict rules
    walk = certify.kernel_ladder(certify.family_halfshift_plus_rank1, ladder)
    rep_c = certify.kernel_verdict("C", *walk)
    rep_cplus = certify.kernel_verdict("Cplus", *walk)
    return {"check_C": rep_c.as_dict(), "check_Cplus": rep_cplus.as_dict()}, []


@_scenario("ex26-perturbation",
           "injective perturbations at distance 1/n from a universal operator",
           "every perturbed operator is injective (kernel trivial), yet sits at "
           "distance exactly 1/n from a universal operator",
           (_at_least("trunc", 2), _at_least("n_max", 1)))
def _sc_ex26_perturbation(*, trunc=128, n_max=10):
    u = opbuild.block_backward_shift(trunc, 1)
    eye, zero = np.eye(trunc), np.zeros((trunc, trunc))
    base = opbuild.block2x2(u, eye, zero, zero)
    sigmas, defects = [], []
    for n in range(1, n_max + 1):
        # [[U, I], [I/n, 0]]: injective, at distance exactly 1/n from base
        vn = opbuild.block2x2(u, eye, eye / n, zero)
        sigmas.append(numlin.Spectrum.of(vn).sigma_min)
        defects.append(abs(numlin.Spectrum.of(vn - base).values[0] - 1.0 / n))
    rows = [[n, repr(s), repr(1.0 / (2 * n))] for n, s in enumerate(sigmas, 1)]
    fields = {
        "trunc": trunc,
        "all_injective": all(s > 0 for s in sigmas),
        "max_norm_identity_defect": float(max(defects)),
    }
    extra = [("sigma_min.csv", ["n", "sigma_min", "half_inverse_bound"], rows)]
    return fields, extra


@_scenario("multiplicativity-failure",
           "two universal-type diagonal factors with product exactly zero",
           "two nonzero operators of the universal diagonal type multiply to "
           "exactly zero, so the full universal class is not closed under "
           "products",
           (_at_least("n", 2),))
def _sc_multiplicativity(*, n=16):
    u0 = opbuild.block_backward_shift(n, 1)
    zero = np.zeros((n, n))
    u = opbuild.block2x2(u0, zero, zero, zero)
    v = opbuild.block2x2(zero, zero, zero, u0)
    fields = {
        "n": n,
        "norm_U": float(numlin.Spectrum.of(u).values[0]),
        "norm_V": float(numlin.Spectrum.of(v).values[0]),
        "norm_UV": float(numlin.Spectrum.of(u @ v).values[0]),
    }
    return fields, []


@_scenario("annulus",
           "spectral annulus radii of the hyperbolic composition operator",
           "spectral annulus radii for the hyperbolic composition operator; the "
           "radii are reciprocal",
           (_real_unit("r"),))
def _sc_annulus(*, r=0.5):
    inner, outer = analytic.annulus(r)
    fields = {"r": r, "inner": inner, "outer": outer, "radius_product": inner * outer}
    extra = [("radii.csv", ["r", "inner", "outer"], [[repr(r), repr(inner), repr(outer)]])]
    return fields, extra


@_scenario("ex31-falsify-dirichlet",
           "annulus grid of kernel dimensions falsifies the forward operator",
           "over the whole annulus grid only lambda = 1 carries a kernel, and it "
           "stays one-dimensional: no candidate eigenvalue of growing "
           "multiplicity",
           (_real_unit("r"), _ladder(1), _at_least("n_radial", 1),
            _at_least("n_angular", 1)))
def _sc_ex31_falsify(*, r=0.5, ladder=(64, 128, 256), n_radial=5, n_angular=12):
    grid = certify.annulus_grid(r, n_radial, n_angular)
    fam = certify.family_composition(r, beta=1.0, variant="derivative")
    rep, dims = certify._spectral_scan(fam, grid, ladder)
    # the table shows the top rung of the falsifier's own scan
    rows = [[repr(float(lam.real)), repr(float(lam.imag))]
            + [dims[(complex(lam), tol)][-1] for tol in certify.SCAN_TOLS]
            for lam in grid]
    extra = [("grid_dims.csv", ["re_lambda", "im_lambda", "dim_1e-6", "dim_1e-8"],
              rows)]
    return {"report": rep.as_dict()}, extra


@_scenario("thm32-adjoint-certify",
           "growing resolved-witness counts certify the compressed adjoint",
           "the compressed weighted adjoint passes growing counts of independent "
           "resolved witnesses with vanishing corank",
           (_real_unit("r"), _in_annulus("r", "lam"), _off_unit_circle("lam"),
            _ladder(5), _at_least("index_max", 0)))
def _sc_thm32_certify(*, r=0.5, lam=3.0 ** 0.25, ladder=(256, 512, 1024),
                      index_max=64):
    fam = certify.family_adjoint_witnessed(r, lam, index_max)
    rungs, top = certify.kernel_ladder(fam, ladder)
    rep = certify.kernel_verdict("C", rungs, top)
    rows = [[n, repr(float(res)), repr(float(massf))]
            for n, res, massf in zip(top.indices, top.residuals, top.window_mass)]
    fields = {
        "report": rep.as_dict(),
        "gram_min_eigenvalue_top_rung": top.gram_min_eigenvalue(),
    }
    extra = [("witnesses.csv", ["n", "windowed_residual", "window_mass"], rows)]
    return fields, extra


@_scenario("cor34-heller",
           "singular-value decay of the adjoint minus its principal part",
           "the remainder against the displayed combination does not decay, "
           "while flipping the sign of the middle term leaves a rapidly "
           "decaying (compact-looking) remainder; this mirrors the "
           "printed-adjoint discrepancy reported by the mzstar comparison "
           "scenario",
           (_real_unit("r"), _count_in_trunc))
def _sc_cor34_heller(*, r=0.5, trunc=512, count=64):
    # a compact remainder shows fast decay; the profile is reported, not
    # judged, because no truncation threshold is canonical
    s, s_flipped = (numlin.Spectrum.of(rem).values[:count]
                    for rem in opbuild.heller_remainders(r, trunc))
    rows = [[j + 1, repr(float(a)), repr(float(b))]
            for j, (a, b) in enumerate(zip(s, s_flipped))]
    fields = {
        "r": r, "trunc": trunc,
        "displayed_s32_over_s1": float(s[31] / s[0]),
        "flipped_s32_over_s1": float(s_flipped[31] / s_flipped[0]),
    }
    extra = [("decay.csv", ["j", "s_displayed", "s_flipped"], rows)]
    return fields, extra


@_scenario("mzstar-adjoint-compare",
           "superdiagonal of the adjoint of multiplication by z, two formulas",
           "the inner-product adjoint of multiplication by z has superdiagonal "
           "entries w_{m+1}/w_m; the alternative closed form ((m+1)/m)^m matches "
           "only at m = 0 and m = 2, so the inner-product adjoint is taken as "
           "definitional",
           (_at_least("trunc", 1),))
def _sc_mzstar_compare(*, trunc=12):
    mzs = opbuild.weighted_adjoint(opbuild.mult_z(spaces.weights(1.0, trunc, "derivative")))
    rows = []
    agree = []
    for m in range(trunc - 1):
        gram_val = float(mzs.entries[m, m + 1].real)
        printed = 1.0 if m == 0 else ((m + 1) / m) ** m
        if abs(gram_val - printed) < 1e-12:
            agree.append(m)
        rows.append([m, repr(gram_val), repr(printed),
                     repr(abs(gram_val - printed))])
    extra = [("entries.csv", ["m", "gram_adjoint", "printed_form", "abs_diff"],
              rows)]
    return {"trunc": trunc, "agreement_rows": agree}, extra


@_scenario("prop35-halfplane", "half-plane dilation spectral radii",
           "the half-plane dilation pins its candidate eigenvalues to a single "
           "circle, which rules out interior point spectrum and hence "
           "universality of the shifted operator",
           (_real("mu"), _real("alphas"), _halfplane))
def _sc_prop35_halfplane(*, mu=4.0, alphas=(0.0, 2.0)):
    hardy = analytic.halfplane_radius(mu)
    bergman = [analytic.halfplane_radius(mu, "bergman", alpha) for alpha in alphas]
    rows = [["hardy", repr(mu), "", repr(hardy)]]
    rows += [["bergman", repr(mu), repr(alpha), repr(radius)]
             for alpha, radius in zip(alphas, bergman)]
    fields = {
        "mu": mu, "hardy_radius": hardy,
        "bergman_radii": {repr(alpha): radius for alpha, radius in zip(alphas, bergman)},
    }
    extra = [("radii.csv", ["space", "mu", "alpha", "radius"], rows)]
    return fields, extra


@_scenario("prop41-falsifiers",
           "algebraic dependence witnesses falsify shift power pairs",
           "both algebraically dependent pairs are falsified by their explicit "
           "witnesses; the unrelated control stays inconclusive",
           (_at_least("n", 2),))
def _sc_prop41_falsifiers(*, n=32):
    b = opbuild.block_backward_shift(n, 1)
    b2 = b @ b
    rep_poly = certify.algebraic_falsifier(b, b2, poly=[1.0])
    rep_pow = certify.algebraic_falsifier(b2, b @ b2, powers=(2, 3))
    control = certify.algebraic_falsifier(b, np.eye(n), poly=[1.0])
    fields = {
        "n": n,
        "poly_pair": rep_poly.as_dict(),
        "power_pair": rep_pow.as_dict(),
        "control": control.as_dict(),
    }
    return fields, []


def _pair_scenario(name, pair_builder, default_ladder, floor, description, narrative):
    """A commuting-pair scenario: condition M over the pair's ladder."""
    @_scenario(name, description, narrative, (_ladder(floor),))
    def run(*, ladder=default_ladder):
        return {"report": certify.check_M(pair_builder, ladder).as_dict()}, []


_pair_scenario("ex43-diagonal", certify.pair_diagonal_blocks, (8, 16, 32), 2,
               "commuting diagonal pair with disjoint kernels",
               "the commuting diagonal pair keeps disjoint kernels, so the "
               "common-kernel requirement fails")
_pair_scenario("thm44-scalar-pair", certify.hs_pair_scalar, (8, 16, 32), 2,
               "scalar multiplication pair: intersection pinned at one",
               "the scalar shift pair pins its kernel intersection at one "
               "dimension at every truncation")
_pair_scenario("thm44-block-pair", certify.hs_pair_block, ((4, 4), (6, 6), (8, 8)),
               (2, 1), "block multiplication pair: the model universal commuting pair",
               "the block shift pair shows growing kernel overlap with exact "
               "product-kernel bookkeeping")


PAIR_MATCH_TOL = 1e-8  # cross-residual bound of a match, as in perfbench's check_ex46


def _nstr(x, n: int) -> str:
    """mp.nstr(x, n) of a copy rounded to n + 10 digits: a tiny number held
    at thousands of digits would otherwise make mpmath build an integer past
    CPython's int-to-str limit."""
    import mpmath as mp
    with mp.workdps(n + 10):
        return mp.nstr(+x, n)


@_scenario("ex46-common-zeros",
           "covering-map zero sets sharing every other zero at ratio 2:1",
           "with translation lengths in ratio 2:1 every other zero of the finer "
           "covering map is a zero of the coarser one, so the two symbols share "
           "infinitely many zeros",
           (_real_unit("r"), _real_unit("s"), _in_annulus("r", "lam"),
            _in_annulus("s", "mu"), _at_least("k_max", 0), _zero_sets))
def _sc_ex46_zeros(*, r=0.5, s=2.0 - 3.0 ** 0.5, lam=1.0 + 0j, mu=1.0 + 0j, k_max=20):
    import mpmath as mp
    frac = analytic.ratio_condition(r, s)
    zr = analytic.covering_map_zeros(r, lam, k_max)
    zs = analytic.covering_map_zeros(s, mu, k_max // 2)
    # zs holds |j| <= k_max // 2, so each 2j lies among zr's |k| <= k_max
    by_k_r = {e.k: e for e in zr.entries}
    pair_rows = []
    matched = 0
    max_cross = mp.mpf(0)
    # the zeros crowd +-1 at double-exponential speed, so the comparison must
    # run at the same precision the zero sets were built with
    with mp.workdps(zr.dps):
        for e in sorted(zs.entries, key=lambda entry: entry.k):
            cross = mp.fabs(analytic.covering_value(s, by_k_r[2 * e.k].z) - mu)
            max_cross = max(max_cross, cross)
            matched += cross < PAIR_MATCH_TOL
            pair_rows.append([e.k, 2 * e.k, _nstr(cross, 6)])
    fields = {
        "ratio": None if frac is None else f"{frac.numerator}/{frac.denominator}",
        "matched_pairs": matched,
        "max_cross_residual": _nstr(max_cross, 8),
        "zero_residual_max": max(e.residual for e in zr.entries + zs.entries),
    }
    def zero_rows(zset):
        return [[e.k, _nstr(e.z.real, 17), _nstr(e.z.imag, 17), repr(e.residual)]
                for e in zset.entries]

    zero_header = ["k", "re_z", "im_z", "residual"]
    extra = [("zeros_r.csv", zero_header, zero_rows(zr)),
             ("zeros_s.csv", zero_header, zero_rows(zs)),
             ("pairs.csv", ["j", "matched_k", "cross_residual"], pair_rows)]
    return fields, extra


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
    as many parts as the default's), ints need integers that fit 64 bits and
    float or complex defaults take any number that fits a double: a real one
    as a Python float, any other as a Python complex. Raises ValueError."""
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
        if not -2**63 <= value < 2**63:
            raise ValueError(f"expected an integer in [-2**63, 2**63), got {value!r}")
        return int(value)
    if not isinstance(value, numbers.Number):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        # mu=4 and mu=np.float64(4) write the same bytes as mu=4.0
        return float(value) if isinstance(value, numbers.Real) else complex(value)
    except OverflowError:
        raise ValueError(f"{value!r} does not fit a double") from None


def _read_config(path: str) -> dict:
    """Plain key = value lines mirroring the flags; only 'param' may repeat."""
    out = {"param": []}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ("scenario", "param", "out", "format", "ladder", "jobs"):
            raise ValueError(f"unknown config key {key!r}")
        if key == "param":
            out["param"].append(value)
        elif key in out:
            raise ValueError(f"config key {key!r} given twice; only param may repeat")
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


FORMATS = ("json", "csv", "both")


def _format_problem(fmt):
    if fmt not in FORMATS:
        return f"format: expected one of {', '.join(FORMATS)}, got {fmt!r}"


def _write_report(name: str, merged: dict, out_dir: Path, fmt: str) -> list[Path]:
    """Runs scenario name on its resolved parameters and writes its report;
    a run that raises leaves no report directory."""
    sc = REGISTRY[name]
    fields, tables = sc.run(**merged)
    target = out_dir / name
    target.mkdir(parents=True, exist_ok=True)
    summary = {**fields, "scenario": name, "narrative": sc.narrative}
    written = []
    if fmt in ("json", "both"):
        written.append(_write_json(target / "summary.json", summary))
    if fmt in ("csv", "both"):
        for fname, header, rows in tables:
            written.append(_write_csv(target / fname, header, rows))
    return written


def run_scenario(name: str, params: dict, out_dir: Path,
                 fmt: str = "both") -> list[Path]:
    if problem := _format_problem(fmt):
        raise ValueError(problem)
    merged, problems = _resolve(name, params)
    if problems:
        raise ValueError("; ".join(problems))
    return _write_report(name, merged, out_dir, fmt)


def _run_one(task):
    return task[0], _write_report(*task)


def _fail(message) -> int:
    """Bad input ends in one stderr line and exit status 2."""
    print(f"univcert-lab: error: {message}", file=sys.stderr)
    return 2


class _Parser(argparse.ArgumentParser):
    """Flag errors raise ValueError, for main to print as one line."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="univcert-lab",
        description="run registered numerical experiments on operator "
                    "truncation ladders")
    parser.add_argument("--scenario", action="append", default=[],
                        help="scenario name; repeatable")
    parser.add_argument("--param", action="append", default=[], metavar="K=V",
                        help="scenario parameter, parsed by the kind of its "
                             "default; repeatable")
    parser.add_argument("--out", help="output directory (default: reports)")
    parser.add_argument("--format",
                        help="report files to write: json, csv or both (default: both)")
    parser.add_argument("--ladder",
                        help="comma-separated rungs, e.g. 64,128,256 or 4x4,6x6,8x8")
    parser.add_argument("--jobs", help="worker processes (default: 1)")
    parser.add_argument("--config", default=None,
                        help="key = value file mirroring the flags")
    parser.add_argument("--list", action="store_true", dest="list_flag",
                        help="list registered scenarios")
    parser.add_argument("--validate", action="store_true",
                        help="check the parameters without running")
    try:
        ns = parser.parse_args(argv)
    except ValueError as exc:
        return _fail(exc)

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
    if problem := _format_problem(fmt):
        return _fail(problem)
    ladder = setting("ladder", None)
    try:
        jobs = _as_kind(1, setting("jobs", 1))
    except ValueError as exc:
        return _fail(f"jobs: {exc}")
    if problem := _at_least("jobs", 1)({"jobs": jobs}):
        return _fail(problem)
    scenarios = ns.scenario or ([cfg["scenario"]] if "scenario" in cfg else [])
    if not scenarios:
        return _fail("no scenario given (use --scenario or --list)")

    params = {}
    for item in cfg["param"] + ns.param:
        if "=" not in item:
            return _fail(f"malformed --param {item!r}, expected K=V")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    if ladder is not None:
        params["ladder"] = ladder

    # every scenario is resolved once, before any runs, so bad input writes nothing
    resolved = [(name, *_resolve(name, params)) for name in scenarios]
    if ns.validate:
        for name, _, problems in resolved:
            for problem in problems or ["ok"]:
                print(f"{name}: {problem}")
        return 2 if any(problems for *_, problems in resolved) else 0
    for *_, problems in resolved:
        if problems:
            return _fail("; ".join(problems))

    tasks = [(name, merged, Path(out_dir), fmt) for name, merged, _ in resolved]
    try:
        if jobs > 1 and len(tasks) > 1:
            import concurrent.futures
            # a forking pool starts all of its workers at once
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(jobs, len(tasks))) as pool:
                results = list(pool.map(_run_one, tasks))
        else:
            results = [_run_one(task) for task in tasks]
    except (ValueError, OSError, MemoryError) as exc:
        # a size too large to allocate is bad input too, here or in a worker
        return _fail(exc)
    for name, paths in results:
        for path in paths:
            print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
