"""Function-theoretic layer: translation lengths, annulus spectra,
eigenfunction families, annulus covering maps and their zero sets, and the
half-plane spectral radius formulas."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from fractions import Fraction


def translation_length(r: float) -> float:
    """Translation length t_r = log((1 + r)/(1 - r)) > 0 of the hyperbolic
    automorphism z -> (z + r)/(1 + r z), 0 < r < 1."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"parameter must lie in (0, 1), got {r}")
    return float(np.log1p(r) - np.log1p(-r))


def annulus(r: float) -> tuple[float, float]:
    """Inner and outer radii ((1-r)/(1+r))^{+-1/2} of the spectral annulus."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"parameter must lie in (0, 1), got {r}")
    rho = np.sqrt((1.0 - r) / (1.0 + r))
    return float(rho), float(1.0 / rho)


def in_annulus(r: float, lam: complex) -> bool:
    rho_in, rho_out = annulus(r)
    return rho_in < abs(lam) < rho_out


def eigenfunction_coeffs_recurrence(w, n_coeffs: int) -> np.ndarray:
    """Taylor coefficients of exp(w log((1+z)/(1-z))), up to a positive scalar.

    From (1 - z^2) f' = 2 w f: (k+1) a_{k+1} = (k-1) a_{k-1} + 2 w a_k with
    a_0 = 1. For large |Im w| the coefficients peak around index 2 pi |Im w|,
    far beyond double range, so all of them are rescaled by 1e-150 whenever
    one exceeds 1e150.

    A scalar w gives one coefficient vector; a 1-d array of exponents gives
    one row per exponent, each row rescaled only by its own entries, so a
    row equals the scalar call for its exponent bit for bit.
    """
    ws = np.asarray(w, dtype=complex)
    a = np.zeros(ws.shape + (n_coeffs,), dtype=complex)
    a[..., 0] = 1.0
    if n_coeffs > 1:
        a[..., 1] = 2.0 * ws
    rows = a.reshape(-1, n_coeffs)
    two_w = 2.0 * ws.reshape(-1)
    for k in range(1, n_coeffs - 1):
        rows[:, k + 1] = ((k - 1) * rows[:, k - 1] + two_w * rows[:, k]) / (k + 1)
        big = np.abs(rows[:, k + 1]) > 1e150
        if big.any():
            rows[big, : k + 2] *= 1e-150
    return a


# -- covering map of the annulus ---------------------------------------------

@dataclass(frozen=True)
class ZeroEntry:
    k: int
    z: object  # mpmath.mpc; kept at high precision, the zeros crowd +-1
    residual: float


@dataclass(frozen=True)
class ZeroSet:
    entries: tuple[ZeroEntry, ...]
    dps: int  # decimal precision the zeros were computed at


def covering_value(r: float, z):
    """psi_r(z) = ((1-z)/(1+z))^{i t_r / pi} at the working mpmath precision."""
    import mpmath as mp
    t_r = translation_length(r)
    zz = mp.mpc(z)
    return mp.exp(1j * t_r / mp.pi * mp.log((1 - zz) / (1 + zz)))


ZERO_WORK_MAX = 10**9  # a zero costs ~digits^2; 1e9 is 2.5-5.4 s of mpmath on a Xeon VM


def zero_set_dps(r: float, lam: complex, k_max: int) -> int:
    """Digits for the zeros |k| <= k_max of psi_r - lam, which crowd +-1 like
    e^{-Re w_k}; a set past ZERO_WORK_MAX in zeros x digits^2 raises ValueError."""
    max_re_w = (np.pi / translation_length(r)) * (abs(np.angle(lam)) + 2.0 * np.pi * k_max)
    digits = max(50.0, 30 + 1.2 * max_re_w / np.log(10.0))
    if not (2 * k_max + 1) * digits**2 <= ZERO_WORK_MAX:
        raise ValueError(f"the {2 * k_max + 1} covering-map zeros at parameter {r!r} "
                         f"need {digits:.3g} digits each: zeros x digits^2 must stay "
                         f"<= {ZERO_WORK_MAX:.0e}")
    return int(digits)


def covering_map_zeros(r: float, lam: complex, k_max: int) -> ZeroSet:
    """Zeros of psi_r - lam for indices |k| <= k_max, residual-checked.

    Closed form: w_k = (pi/t_r)(arg lam + 2 pi k) - i (pi/t_r) log|lam|,
    z_k = (1 - e^{w_k})/(1 + e^{w_k}). The zeros approach +-1 exponentially
    fast, far below double spacing, so they are kept as mpmath numbers.
    """
    if not in_annulus(r, lam):
        raise ValueError(f"lambda = {lam} is not strictly inside the annulus")
    dps = zero_set_dps(r, lam, k_max)
    import mpmath as mp
    t_r = translation_length(r)
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
    return ZeroSet(entries=tuple(entries), dps=dps)


def ratio_condition(r: float, s: float) -> Fraction | None:
    """Detect a rational ratio t_r/t_s with denominator at most 50; the
    matched eigenfunction indices (n, m) = (j p, j q) then share
    eigenfunctions across the two families."""
    from fractions import Fraction
    x = translation_length(r) / translation_length(s)
    frac = Fraction(x).limit_denominator(50)
    if abs(x - float(frac)) < 1e-9:
        return frac
    return None


def halfplane_radius(mu: float, space: str = "hardy", alpha: float | None = None) -> float:
    """Spectral circle radius for the half-plane dilation w -> mu w + w_0.

    hardy: mu^{-1/2}; weighted bergman: mu^{-(alpha+2)/2}. A radius that
    overflows a double, or underflows it to zero, raises ValueError.
    """
    if not (0 < mu < np.inf and mu != 1.0):
        raise ValueError("dilation factor must be positive, finite and != 1")
    if space not in ("hardy", "bergman"):
        raise ValueError(f"unknown half-plane space {space!r}")
    if space == "bergman" and (alpha is None or not -1 < alpha < np.inf):
        raise ValueError("bergman requires a finite alpha > -1")
    exponent = 0.5 if space == "hardy" else (alpha + 2.0) / 2.0
    try:
        radius = float(mu ** -exponent)
    except OverflowError:
        radius = np.inf
    if not 0.0 < radius < np.inf:
        raise ValueError(f"the {space} radius mu^-{exponent!r} does not fit a double "
                         f"at mu={mu!r}")
    return radius


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
