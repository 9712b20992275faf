"""Weighted Dirichlet coefficient spaces at finite truncation.

A space is a diagonal weight on the first N Taylor coefficients; the weight
exponent beta interpolates Bergman (-1/2), Hardy (0), Dirichlet (1/2) and the
derivative space (1).
"""

from __future__ import annotations

import numpy as np


def weights(beta: float, trunc: int, variant: str = "power") -> np.ndarray:
    """Read-only weights w_0..w_{trunc-1}: (k + 1)^(2 beta) for "power";
    for "derivative" (beta = 1 only) |a_0|^2 + sum k^2 |a_k|^2, the norm
    induced by f -> (f(0), f')."""
    if trunc < 1:
        raise ValueError(f"truncation must be >= 1, got {trunc}")
    idx = np.arange(trunc, dtype=float)
    if variant == "power":
        w = (idx + 1.0) ** (2.0 * beta)
    elif variant == "derivative":
        if beta != 1.0:
            raise ValueError("derivative variant is defined only for beta = 1")
        w = idx**2
        w[0] = 1.0
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if not np.all(w > 0):
        raise ValueError("weights must be strictly positive")
    w.setflags(write=False)
    return w
