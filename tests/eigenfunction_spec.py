"""Eigenfunction family members of the hyperbolic composition operator.

A member is named by its exponent w = u + i n 2 pi a with a = -1/t_r, so
that exp(w log((1+z)/(1-z))) is an eigenfunction of C_phi_r with
eigenvalue ((1-r)/(1+r))^{-u}. The library builds witnesses straight from
exponents; the tests name members through this spec.
"""

from dataclasses import dataclass

import numpy as np

from univcert.analytic import translation_length


@dataclass(frozen=True)
class EigenfunctionSpec:
    """Family member exp((u + i n 2 pi a) log((1+z)/(1-z))) with a = -1/t_r."""

    u: float
    n: int
    r: float

    def __post_init__(self):
        if not 0.0 < self.u < 0.5:
            raise ValueError(f"exponent u must lie in (0, 1/2), got {self.u}")
        translation_length(self.r)

    @property
    def a_param(self) -> float:
        return -1.0 / translation_length(self.r)

    @property
    def exponent(self) -> complex:
        return complex(self.u, 2.0 * np.pi * self.n * self.a_param)

    @property
    def eigenvalue(self) -> float:
        """((1-r)/(1+r))^{-u}, independent of the index n."""
        return float(np.exp(self.u * translation_length(self.r)))
