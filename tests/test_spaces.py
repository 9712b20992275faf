"""Weight tables of the coefficient spaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univcert import spaces


def test_power_weights_beta_one():
    assert np.allclose(spaces.weights(1.0, 5), [1.0, 4.0, 9.0, 16.0, 25.0])


def test_derivative_weights():
    assert np.allclose(spaces.weights(1.0, 6, "derivative"),
                       [1.0, 1.0, 4.0, 9.0, 16.0, 25.0])


def test_hardy_weights_are_flat():
    assert np.allclose(spaces.weights(0.0, 8), np.ones(8))


def test_bergman_weights():
    assert np.allclose(spaces.weights(-0.5, 4), [1.0, 0.5, 1.0 / 3.0, 0.25])


def test_derivative_variant_requires_beta_one():
    with pytest.raises(ValueError):
        spaces.weights(0.5, 4, "derivative")


def test_unknown_variant_is_rejected():
    with pytest.raises(ValueError, match="unknown variant"):
        spaces.weights(1.0, 4, "sobolev")


def test_truncation_must_be_positive():
    with pytest.raises(ValueError):
        spaces.weights(0.0, 0)


def test_weights_are_write_protected():
    w = spaces.weights(1.0, 4)
    with pytest.raises(ValueError):
        w[0] = 7.0


@settings(max_examples=50, deadline=None)
@given(st.floats(-1.0, 1.5), st.integers(1, 40))
def test_weights_stay_positive(beta, n):
    w = spaces.weights(beta, n)
    assert np.all(w > 0)
    assert w.shape == (n,)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 20))
def test_norm_is_definite(n):
    # the derivative norm keeps |a_0|^2, so no weight vanishes, and neither
    # does any slice a compression takes
    assert np.all(spaces.weights(1.0, n, "derivative") > 0)
