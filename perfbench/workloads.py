"""The four benchmark workloads, built from a seed.

A workload is a list of parts. Each part makes one call into univcert's
public API (``cli.run_scenario`` or ``certify.spectral_falsifier``), and the
worker times exactly that call. The part then reads back its outputs and
checks them with the oracles in ``oracles.py``.

Why each workload exists (see README.md for the full table):
- adjoint-ladder: certify witness families and composition-matrix builds
  dominate; no HS operator, no grid, no mpmath.
- spectral-grid: values-only SVDs of A - lambda I over an annulus grid, the
  registry's ex31 grid plus a seeded one so that screening is not tuned to
  a single grid.
- hs-pair: the only workload that builds HSOperator matrices (eager kron).
- registry-light: the remaining scenarios, where fixed per-scenario cost
  (validation, spaces, report IO, mpmath zeros) dominates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from univcert import certify, cli


@dataclass(frozen=True)
class Part:
    label: str
    call: Callable[[Path], object]       # the timed call into univcert
    read: Callable[[object], dict]       # its outputs as name -> bytes
    check: Callable[[oracles.Gate, dict], None]


def scenario(name: str, params: dict, check) -> Part:
    return Part(name,
                lambda out: cli.run_scenario(name, params, out, fmt="both"),
                lambda paths: {p.name: p.read_bytes() for p in paths},
                check)


# -- spectral-grid ------------------------------------------------------------

GRID_R = 0.5
GRID_LADDER = (64, 128, 256)
GRID_POINTS = 60
GRID_SPAN = 0.8            # the registry grid's span in u, see annulus_grid
GRID_EXCLUSION = 0.01      # sigma_min(A - lambda I) shrinks like |lambda - 1|


def seeded_grid(seed: int) -> np.ndarray:
    """lambda = 1 plus points exp(u t_r / 2 + i theta), u uniform in the
    registry grid's span. Points closer than GRID_EXCLUSION to 1 are redrawn:
    near the eigenvalue 1 a small singular value is expected, not a defect,
    and it would make the "carried by lambda = 1" oracle ambiguous."""
    rng = np.random.default_rng(seed)
    t_r = math.log((1.0 + GRID_R) / (1.0 - GRID_R))
    points = [1.0 + 0j]
    while len(points) < GRID_POINTS:
        u = rng.uniform(-GRID_SPAN / 2, GRID_SPAN / 2)
        lam = cmath.exp(complex(u * t_r / 2, rng.uniform(0.0, 2.0 * math.pi)))
        if abs(lam - 1.0) >= GRID_EXCLUSION:
            points.append(lam)
    return np.array(points)


def grid_part(seed: int) -> Part:
    grid = seeded_grid(seed)

    def call(out):
        fam = certify.family_composition(GRID_R, beta=1.0, variant="derivative")
        return certify.spectral_falsifier(fam, grid, GRID_LADDER)

    return Part("seeded-grid", call,
                lambda rep: {"report.json": rep.to_json().encode("utf-8")},
                partial(oracles.check_spectral_grid, rungs=len(GRID_LADDER),
                        grid_points=GRID_POINTS))


# -- registry-light -----------------------------------------------------------

def light_params(seed: int) -> dict:
    """Seed 0: registry defaults. Other seeds vary only parameters whose
    check is a closed form valid for every value."""
    if seed == 0:
        return {"annulus": {"r": 0.5}, "prop35-halfplane": {"mu": 4.0},
                "thm22-eigenfield": {"z": 0.25 + 0.15j}}
    rng = np.random.default_rng(seed)
    return {"annulus": {"r": float(rng.uniform(0.05, 0.95))},
            "prop35-halfplane": {"mu": float(rng.uniform(1.5, 8.0))},
            "thm22-eigenfield": {"z": cmath.rect(float(rng.uniform(0.05, 0.9)),
                                                 float(rng.uniform(0.0, 2 * math.pi)))}}


def light_parts(seed: int) -> list[Part]:
    p = light_params(seed)
    return [
        scenario("thm22-eigenfield", p["thm22-eigenfield"],
                 partial(oracles.check_thm22, z=p["thm22-eigenfield"]["z"])),
        scenario("prop21-block", {}, oracles.check_prop21),
        scenario("ex25-notC", {}, oracles.check_ex25),
        scenario("ex26-perturbation", {}, oracles.check_ex26),
        scenario("multiplicativity-failure", {}, oracles.check_multiplicativity),
        scenario("annulus", p["annulus"],
                 partial(oracles.check_annulus, r=p["annulus"]["r"])),
        scenario("cor34-heller", {}, oracles.check_cor34),
        scenario("mzstar-adjoint-compare", {}, oracles.check_mzstar),
        scenario("prop35-halfplane", p["prop35-halfplane"],
                 partial(oracles.check_prop35, mu=p["prop35-halfplane"]["mu"])),
        scenario("prop41-falsifiers", {}, oracles.check_prop41),
        scenario("ex46-common-zeros", {}, oracles.check_ex46),
    ]


WORKLOADS: dict[str, Callable[[int], list[Part]]] = {
    "adjoint-ladder": lambda seed: [
        scenario("thm32-adjoint-certify", {}, oracles.check_thm32)],
    "spectral-grid": lambda seed: [
        scenario("ex31-falsify-dirichlet", {}, oracles.check_ex31),
        grid_part(seed)],
    "hs-pair": lambda seed: [
        scenario("thm44-block-pair", {}, oracles.check_hs_block),
        scenario("thm44-scalar-pair", {}, oracles.check_hs_scalar),
        scenario("ex43-diagonal", {}, oracles.check_ex43)],
    "registry-light": light_parts,
}
