"""Function-theoretic layer: hyperbolic automorphisms, annulus spectra,
eigenfunction families, annulus covering maps and their zero sets, and the
half-plane spectral radius formulas."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np


@dataclass(frozen=True)
class HyperbolicAuto:
    """Normalized hyperbolic automorphism z -> (z + r)/(1 + r z), 0 < r < 1."""

    r: float

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"parameter must lie in (0, 1), got {self.r}")

    @property
    def t_param(self) -> float:
        """Translation length t_r = log((1 + r)/(1 - r)) > 0."""
        return float(np.log1p(self.r) - np.log1p(-self.r))

    def __call__(self, z):
        return (z + self.r) / (1.0 + self.r * z)

    def inverse(self):
        # phi_r^{-1} = phi_{-r}; kept as a plain callable since the
        # normalized form requires a positive parameter.
        r = self.r
        return lambda z: (z - r) / (1.0 - r * z)


def annulus(r: float) -> tuple[float, float]:
    """Inner and outer radii ((1-r)/(1+r))^{+-1/2} of the spectral annulus."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"parameter must lie in (0, 1), got {r}")
    rho = np.sqrt((1.0 - r) / (1.0 + r))
    return float(rho), float(1.0 / rho)


def in_annulus(r: float, lam: complex) -> bool:
    rho_in, rho_out = annulus(r)
    return rho_in < abs(lam) < rho_out


@dataclass(frozen=True)
class EigenfunctionSpec:
    """Family member exp((u + i n 2 pi a) log((1+z)/(1-z))) with a = -1/t_r."""

    u: float
    n: int
    r: float

    def __post_init__(self):
        if not 0.0 < self.u < 0.5:
            raise ValueError(f"exponent u must lie in (0, 1/2), got {self.u}")
        HyperbolicAuto(self.r)

    @property
    def a_param(self) -> float:
        return -1.0 / HyperbolicAuto(self.r).t_param

    @property
    def exponent(self) -> complex:
        return complex(self.u, 2.0 * np.pi * self.n * self.a_param)

    @property
    def eigenvalue(self) -> float:
        """((1-r)/(1+r))^{-u}, independent of the index n."""
        return float(np.exp(self.u * HyperbolicAuto(self.r).t_param))


def eigenfunction_values(spec: EigenfunctionSpec, z: np.ndarray) -> np.ndarray:
    """Evaluate the family member on points of the disc (principal branch)."""
    return np.exp(spec.exponent * np.log((1.0 + z) / (1.0 - z)))


def eigenfunction_coeffs_recurrence(w: complex, n_coeffs: int) -> np.ndarray:
    """Taylor coefficients of exp(w log((1+z)/(1-z))), up to a positive scalar.

    From (1 - z^2) f' = 2 w f: (k+1) a_{k+1} = (k-1) a_{k-1} + 2 w a_k with
    a_0 = 1. For large |Im w| the coefficients peak around index 2 pi |Im w|,
    far beyond double range, so all of them are rescaled by 1e-150 whenever
    one exceeds 1e150.
    """
    a = np.zeros(n_coeffs, dtype=complex)
    a[0] = 1.0
    if n_coeffs > 1:
        a[1] = 2.0 * w
    for k in range(1, n_coeffs - 1):
        a[k + 1] = ((k - 1) * a[k - 1] + 2.0 * w * a[k]) / (k + 1)
        if abs(a[k + 1]) > 1e150:
            a[: k + 2] *= 1e-150
    return a


# -- covering map of the annulus ---------------------------------------------

@dataclass(frozen=True)
class ZeroEntry:
    k: int
    z: object  # mpmath.mpc; kept at high precision, the zeros crowd +-1
    residual: float


@dataclass(frozen=True)
class ZeroSet:
    r: float
    lam: complex
    entries: tuple[ZeroEntry, ...]
    dps: int  # decimal precision the zeros were computed at


def covering_value(r: float, z, dps: int | None = None):
    """psi_r(z) = ((1-z)/(1+z))^{i t_r / pi} at mpmath precision."""
    t_r = HyperbolicAuto(r).t_param
    with mp.workdps(dps or mp.mp.dps):
        zz = mp.mpc(z)
        return mp.exp(1j * t_r / mp.pi * mp.log((1 - zz) / (1 + zz)))


def covering_derivative(r: float, z, dps: int | None = None):
    t_r = HyperbolicAuto(r).t_param
    with mp.workdps(dps or mp.mp.dps):
        zz = mp.mpc(z)
        val = mp.exp(1j * t_r / mp.pi * mp.log((1 - zz) / (1 + zz)))
        return val * (1j * t_r / mp.pi) * (-2 / (1 - zz * zz))


def covering_map_zeros(r: float, lam: complex, k_max: int) -> ZeroSet:
    """Zeros of psi_r - lam for indices |k| <= k_max, residual-checked.

    Closed form: w_k = (pi/t_r)(arg lam + 2 pi k) - i (pi/t_r) log|lam|,
    z_k = (1 - e^{w_k})/(1 + e^{w_k}). The zeros approach +-1 exponentially
    fast, far below double spacing, so they are kept as mpmath numbers.
    """
    if not in_annulus(r, lam):
        raise ValueError(f"lambda = {lam} is not strictly inside the annulus")
    t_r = HyperbolicAuto(r).t_param
    max_re_w = (np.pi / t_r) * (abs(np.angle(lam)) + 2.0 * np.pi * k_max)
    dps = max(50, int(30 + 1.2 * max_re_w / np.log(10.0)))
    entries = []
    with mp.workdps(dps):
        lam_mp = mp.mpc(lam)
        pref = mp.pi / t_r
        for k in sorted(range(-k_max, k_max + 1), key=lambda k: (abs(k), k)):
            w = pref * (mp.arg(lam_mp) + 2 * mp.pi * k) - 1j * pref * mp.log(abs(lam_mp))
            ew = mp.exp(w)
            z = (1 - ew) / (1 + ew)
            if not mp.fabs(z) < 1:
                raise ValueError(f"zero index {k} escaped the disc (precision issue)")
            residual = float(mp.fabs(covering_value(r, z) - lam_mp))
            entries.append(ZeroEntry(k, z, residual))
    return ZeroSet(r=r, lam=lam, entries=tuple(entries), dps=dps)


def ratio_condition(r: float, s: float, max_denominator: int = 50,
                    tol: float = 1e-9) -> Fraction | None:
    """Detect a rational ratio t_r/t_s; the matched eigenfunction indices
    (n, m) = (j p, j q) then share eigenfunctions across the two families."""
    x = HyperbolicAuto(r).t_param / HyperbolicAuto(s).t_param
    frac = Fraction(x).limit_denominator(max_denominator)
    if abs(x - float(frac)) < tol:
        return frac
    return None


def halfplane_radius(mu: float, space: str = "hardy", alpha: float | None = None) -> float:
    """Spectral circle radius for the half-plane dilation w -> mu w + w_0.

    hardy: mu^{-1/2}; weighted bergman: mu^{-(alpha+2)/2}.
    """
    if mu <= 0 or mu == 1.0:
        raise ValueError("dilation factor must be positive and != 1")
    if space == "hardy":
        return float(mu ** -0.5)
    if space == "bergman":
        if alpha is None or alpha <= -1:
            raise ValueError("bergman requires alpha > -1")
        return float(mu ** (-(alpha + 2.0) / 2.0))
    raise ValueError(f"unknown half-plane space {space!r}")


def holomorphic_eigenfield(x0: np.ndarray, z: complex, k_blocks: int) -> np.ndarray:
    """Block vector (x_0, z x_0, z^2 x_0, ...), an exact eigenvector of the
    block backward shift on its leading blocks.

    Built by repeated multiplication so the eigen-identity holds bitwise at
    the truncation interior.
    """
    if not abs(z) < 1:
        raise ValueError("|z| < 1 required")
    x0 = np.asarray(x0, dtype=complex)
    blocks = [x0]
    for _ in range(k_blocks - 1):
        blocks.append(z * blocks[-1])
    return np.concatenate(blocks)
