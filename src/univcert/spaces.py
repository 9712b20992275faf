"""Weighted Dirichlet coefficient spaces at finite truncation.

A space is a diagonal weight on the first N Taylor coefficients; the weight
exponent beta interpolates Bergman (-1/2), Hardy (0), Dirichlet (1/2) and the
derivative space (1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Variant(str, Enum):
    POWER = "power"
    DERIVATIVE = "derivative"


@dataclass(frozen=True)
class SpaceSpec:
    """Truncated coefficient space with diagonal weights w_0..w_{N-1}."""

    beta: float
    trunc: int
    variant: Variant = Variant.POWER
    offset: int = 0
    weights: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.trunc < 1:
            raise ValueError(f"truncation must be >= 1, got {self.trunc}")
        if self.offset < 0:
            raise ValueError("basis offset must be nonnegative")
        variant = Variant(self.variant)
        object.__setattr__(self, "variant", variant)
        if variant is Variant.DERIVATIVE and self.beta != 1.0:
            raise ValueError("derivative variant is defined only for beta = 1")
        if self.weights is None:
            object.__setattr__(
                self, "weights", _weights(self.beta, self.trunc, variant, self.offset)
            )
        if self.weights.shape != (self.trunc,):
            raise ValueError("weight sequence length must equal the truncation")
        self.weights.setflags(write=False)


def _weights(beta: float, n: int, variant: Variant, offset: int = 0) -> np.ndarray:
    idx = np.arange(offset, offset + n, dtype=float)
    if variant is Variant.POWER:
        w = (idx + 1.0) ** (2.0 * beta)
    else:
        # |a_0|^2 + sum n^2 |a_n|^2, the norm induced by f -> (f(0), f').
        w = idx**2
        w[idx == 0] = 1.0
    if not np.all(w > 0):
        raise ValueError("weights must be strictly positive")
    return w
