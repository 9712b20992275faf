"""Correctness gate: every pass's outputs against independent oracles.

Expected values come from closed forms or from the numbers the acceptance
tests pin, never from an earlier pass of the code under test. Each check
takes its expected values as arguments so that a wrong expectation can be
shown to fail the gate.
"""

from __future__ import annotations

import csv
import io
import json
import math

CERTIFIED = "certified_at_scale"
FALSIFIED = "falsified"
INCONCLUSIVE = "inconclusive"


class Gate:
    """Counts oracle checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def check(self, what: str, ok) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


def summary(files: dict) -> dict:
    return json.loads(files["summary.json"])


def csv_rows(files: dict, name: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(files[name].decode("utf-8"))))[1:]


def csv_float(text: str) -> float:
    """A float cell; numpy 2 writes repr(np.float64) as "np.float64(x)"."""
    return float(text.removeprefix("np.float64(").removesuffix(")"))


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def _kernel_ladder(gate, label, rep, verdict, expected):
    """``expected``: per rung, a dict of RungStats fields and their values."""
    gate.check(f"{label} verdict {verdict}", rep["verdict"] == verdict)
    gate.check(f"{label} rung count", len(rep["ladder"]) == len(expected))
    for rung, want in zip(rep["ladder"], expected):
        got = {key: rung.get(key) for key in want}
        gate.check(f"{label} {rung['label']}: {got} == {want}", got == want)


# -- adjoint-ladder -----------------------------------------------------------

def check_thm32(gate, files, counts=(15, 31, 63), index_max=64):
    """Witness counts pinned by acceptance criterion 06 (N/16 - 1)."""
    s = summary(files)
    _kernel_ladder(gate, "thm32", s["report"], CERTIFIED,
                   [{"kernel_dim": c, "corank": 0} for c in counts])
    gate.check("thm32 top-rung Gram eigenvalue > 0.9",
               s["gram_min_eigenvalue_top_rung"] > 0.9)
    gate.check("thm32 witness rows 2*index_max+1",
               len(csv_rows(files, "witnesses.csv")) == 2 * index_max + 1)


# -- spectral-grid ------------------------------------------------------------

def check_ex31(gate, files, rungs=3, grid_points=60):
    """Only lambda = 1 carries a kernel (the constants, fixed by every
    composition operator), and it is one-dimensional at every rung."""
    rep = summary(files)["report"]
    _kernel_ladder(gate, "ex31", rep, FALSIFIED,
                   [{"kernel_dim": 1, "grid_points": grid_points}] * rungs)
    rows = csv_rows(files, "grid_dims.csv")
    gate.check("ex31 grid rows", len(rows) == grid_points)
    for row in rows:
        lam = complex(csv_float(row[0]), csv_float(row[1]))
        want = ["1", "1"] if lam == 1 else ["0", "0"]
        gate.check(f"ex31 top-rung dims at {lam}", row[2:] == want)


def check_spectral_grid(gate, files, rungs=3, grid_points=60):
    """Seeded grid containing lambda = 1 and points bounded away from it: the
    worst dim is exactly the one-dimensional kernel at lambda = 1."""
    rep = json.loads(files["report.json"])
    _kernel_ladder(gate, "seeded grid", rep, FALSIFIED,
                   [{"kernel_dim": 1, "grid_points": grid_points}] * rungs)


# -- hs-pair ------------------------------------------------------------------

def check_hs_block(gate, files, ladder=((4, 4), (6, 6), (8, 8))):
    """(k d^2, d^2, (2k-1) d^2, (2k-1) d^2, 0), acceptance criterion 03."""
    _kernel_ladder(gate, "thm44-block", summary(files)["report"], CERTIFIED, [
        {"kernel_dim": k * d * d, "intersection_dim": d * d,
         "sum_dim": (2 * k - 1) * d * d, "product_kernel_dim": (2 * k - 1) * d * d,
         "corank": 0}
        for k, d in ladder])


def check_hs_scalar(gate, files, ladder=(8, 16, 32)):
    """(n, 1, 2n-1, 2n-1), acceptance criterion 03."""
    _kernel_ladder(gate, "thm44-scalar", summary(files)["report"], FALSIFIED, [
        {"kernel_dim": n, "intersection_dim": 1, "sum_dim": 2 * n - 1,
         "product_kernel_dim": 2 * n - 1, "corank": 0}
        for n in ladder])


def check_ex43(gate, files, ladder=(8, 16, 32)):
    """diag(U0, I) and diag(I, U0): one-dimensional kernels in complementary
    components, so intersection 0, sum 2, product kernel 2, corank 1."""
    _kernel_ladder(gate, "ex43", summary(files)["report"], FALSIFIED, [
        {"kernel_dim": 1, "kernel_dim_2": 1, "intersection_dim": 0, "sum_dim": 2,
         "product_kernel_dim": 2, "corank": 1}] * len(ladder))


# -- registry-light -----------------------------------------------------------

def check_thm22(gate, files, z):
    s = summary(files)
    gate.check("thm22 z echoed", s["z"] == [z.real, z.imag])
    gate.check("thm22 interior residual exactly 0",
               s["interior_residual_max"] == 0.0 and s["bitwise_exact_interior"])


def check_prop21(gate, files):
    gate.check("prop21 spectrum is the union of the blocks' spectra",
               summary(files)["eigenvalue_union_gap"] < 1e-10)


def check_ex25(gate, files, ladder=(32, 64, 128)):
    """Half shift plus bump: kernel = odd indices plus e_2, so n/2 + 1; one
    lost range direction e_1, so corank 1."""
    s = summary(files)
    want = [{"kernel_dim": n // 2 + 1, "corank": 1} for n in ladder]
    _kernel_ladder(gate, "ex25 C", s["check_C"], INCONCLUSIVE, want)
    _kernel_ladder(gate, "ex25 Cplus", s["check_Cplus"], CERTIFIED, want)


def check_ex26(gate, files):
    s = summary(files)
    gate.check("ex26 all injective", s["all_injective"] is True)
    gate.check("ex26 distance exactly 1/n", s["max_norm_identity_defect"] < 1e-12)


def check_multiplicativity(gate, files):
    s = summary(files)
    gate.check("multiplicativity norms (1, 1, 0)",
               (s["norm_U"], s["norm_V"], s["norm_UV"]) == (1.0, 1.0, 0.0))


def check_annulus(gate, files, r):
    s = summary(files)
    inner = math.sqrt((1.0 - r) / (1.0 + r))
    gate.check("annulus inner radius", close(s["inner"], inner))
    gate.check("annulus outer radius", close(s["outer"], 1.0 / inner))
    gate.check("annulus radius product 1", close(s["radius_product"], 1.0))


def check_cor34(gate, files):
    """The displayed remainder does not decay; the sign-flipped one does."""
    s = summary(files)
    gate.check("cor34 displayed s32/s1 > 0.5", s["displayed_s32_over_s1"] > 0.5)
    gate.check("cor34 flipped s32/s1 < 0.05", s["flipped_s32_over_s1"] < 0.05)


def check_mzstar(gate, files):
    gate.check("mzstar agreement rows [0, 2]",
               summary(files)["agreement_rows"] == [0, 2])


def check_prop35(gate, files, mu, alphas=(0.0, 2.0)):
    s = summary(files)
    gate.check("prop35 hardy radius mu^-1/2", close(s["hardy_radius"], mu ** -0.5))
    for a in alphas:
        gate.check(f"prop35 bergman radius alpha={a}",
                   close(s["bergman_radii"][repr(a)], mu ** (-(a + 2.0) / 2.0)))


def check_prop41(gate, files):
    s = summary(files)
    gate.check("prop41 poly pair falsified", s["poly_pair"]["verdict"] == FALSIFIED)
    gate.check("prop41 power pair falsified", s["power_pair"]["verdict"] == FALSIFIED)
    gate.check("prop41 control inconclusive", s["control"]["verdict"] == INCONCLUSIVE)


def check_ex46(gate, files, k_max=20):
    """Ratio 2:1 of translation lengths; every j in [-k_max/2, k_max/2] pairs
    zero j of the coarser map with zero 2j of the finer one."""
    s = summary(files)
    gate.check("ex46 ratio 2/1", s["ratio"] == "2/1")
    gate.check("ex46 matched pairs", s["matched_pairs"] == 2 * (k_max // 2) + 1)
    gate.check("ex46 zero residuals < 1e-10", s["zero_residual_max"] < 1e-10)
    gate.check("ex46 cross residual < 1e-8", float(s["max_cross_residual"]) < 1e-8)
