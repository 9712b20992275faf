"""Weight tables of the coefficient spaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univcert import spaces


def test_power_weights_beta_one():
    s = spaces.SpaceSpec(beta=1.0, trunc=5)
    assert np.allclose(s.weights, [1.0, 4.0, 9.0, 16.0, 25.0])


def test_derivative_weights():
    s = spaces.SpaceSpec(beta=1.0, trunc=6, variant="derivative")
    assert np.allclose(s.weights, [1.0, 1.0, 4.0, 9.0, 16.0, 25.0])


def test_hardy_weights_are_flat():
    s = spaces.SpaceSpec(beta=0.0, trunc=8)
    assert np.allclose(s.weights, np.ones(8))


def test_bergman_weights():
    s = spaces.SpaceSpec(beta=-0.5, trunc=4)
    assert np.allclose(s.weights, [1.0, 0.5, 1.0 / 3.0, 0.25])


def test_offset_weights_continue_the_sequence():
    full = spaces.SpaceSpec(beta=1.0, trunc=8)
    tail = spaces.SpaceSpec(beta=1.0, trunc=5, offset=3)
    assert np.allclose(tail.weights, full.weights[3:])


def test_derivative_variant_requires_beta_one():
    with pytest.raises(ValueError):
        spaces.SpaceSpec(beta=0.5, trunc=4, variant="derivative")


def test_truncation_must_be_positive():
    with pytest.raises(ValueError):
        spaces.SpaceSpec(beta=0.0, trunc=0)


def test_weights_are_write_protected():
    s = spaces.SpaceSpec(beta=1.0, trunc=4)
    with pytest.raises(ValueError):
        s.weights[0] = 7.0


def test_weights_are_computed_never_supplied():
    with pytest.raises(TypeError):
        spaces.SpaceSpec(beta=0.0, trunc=4, weights=np.ones(4))


@settings(max_examples=50, deadline=None)
@given(st.floats(-1.0, 1.5), st.integers(1, 40))
def test_weights_stay_positive(beta, n):
    s = spaces.SpaceSpec(beta=beta, trunc=n)
    assert np.all(s.weights > 0)
    assert s.weights.shape == (n,)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 20), st.integers(0, 3))
def test_norm_is_definite(n, offset):
    # the derivative norm keeps |a_0|^2, so no weight vanishes at any offset
    s = spaces.SpaceSpec(beta=1.0, trunc=n, variant="derivative", offset=offset)
    assert np.all(s.weights > 0)
