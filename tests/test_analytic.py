"""Automorphism geometry, eigenfunction families, covering-map zero sets."""

import csv
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univcert import analytic, cli


def test_translation_length_log_three():
    auto = analytic.HyperbolicAuto(0.5)
    assert auto.t_param == pytest.approx(math.log(3.0), abs=1e-15)
    with pytest.raises(ValueError):
        analytic.HyperbolicAuto(1.0)


def test_automorphism_fixes_boundary_and_inverse():
    auto = analytic.HyperbolicAuto(0.5)
    assert auto(1.0) == pytest.approx(1.0)
    assert auto(-1.0) == pytest.approx(-1.0)
    z = 0.3 + 0.2j
    assert abs(auto.inverse()(auto(z)) - z) < 1e-15


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_semigroup_param_tangent_addition(r, s):
    # phi_r . phi_s = phi_t with t = (r + s)/(1 + r s): translation lengths add
    t = (r + s) / (1.0 + r * s)
    a, b, c = (analytic.HyperbolicAuto(x) for x in (r, s, t))
    assert a.t_param + b.t_param == pytest.approx(c.t_param)
    z = np.array([0.1, -0.3 + 0.2j, 0.5j])
    assert np.abs(a(b(z)) - c(z)).max() < 1e-12


def test_annulus_radii_reciprocal():
    inner, outer = analytic.annulus(0.5)
    assert inner == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
    assert outer == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert analytic.in_annulus(0.5, 1.0)
    assert not analytic.in_annulus(0.5, 2.0)
    assert not analytic.in_annulus(0.5, 0.5)
    with pytest.raises(ValueError):
        analytic.annulus(2.0)


def test_eigenfunction_spec_eigenvalue():
    spec = analytic.EigenfunctionSpec(u=0.25, n=3, r=0.5)
    assert spec.eigenvalue == pytest.approx(3.0 ** 0.25)
    assert spec.a_param == pytest.approx(-1.0 / math.log(3.0))
    with pytest.raises(ValueError):
        analytic.EigenfunctionSpec(u=0.5, n=0, r=0.5)


def test_eigenfunction_functional_equation_pointwise():
    spec = analytic.EigenfunctionSpec(u=0.25, n=2, r=0.5)
    auto = analytic.HyperbolicAuto(0.5)
    z = np.array([0.1, -0.3 + 0.2j, 0.5j])
    lhs = analytic.eigenfunction_values(spec, auto(z))
    rhs = spec.eigenvalue * analytic.eigenfunction_values(spec, z)
    assert np.abs((lhs - rhs) / rhs).max() < 1e-12


def _sampled_coeffs(spec, n_coeffs, oversample=8):
    """Independent oracle: Taylor coefficients by circle sampling and discrete
    Fourier inversion, at radius max(0.9, 10^(-3/N)) so that rho^{-N} stays
    around 10^3."""
    rho = max(0.9, 10.0 ** (-3.0 / n_coeffs))
    m = oversample * n_coeffs
    theta = 2.0 * np.pi * np.arange(m) / m
    samples = analytic.eigenfunction_values(spec, rho * np.exp(1j * theta))
    return np.fft.fft(samples)[:n_coeffs] / m / rho ** np.arange(n_coeffs)


def test_eigenfunction_coeffs_match_recurrence_oracle():
    spec = analytic.EigenfunctionSpec(u=0.25, n=1, r=0.5)
    sampled = _sampled_coeffs(spec, 256)
    recurrence = analytic.eigenfunction_coeffs_recurrence(spec.exponent, 256)
    scale = np.abs(recurrence).max()
    assert np.abs(sampled - recurrence).max() < 1e-8 * scale


def test_covering_value_at_origin_is_one():
    assert abs(analytic.covering_value(0.5, 0.0, dps=30) - 1) < 1e-25


def test_covering_derivative_matches_difference_quotient():
    h = mp.mpf(10) ** -20
    with mp.workdps(50):
        d = analytic.covering_derivative(0.5, 0.2, dps=50)
        quot = (analytic.covering_value(0.5, 0.2 + h, dps=50)
                - analytic.covering_value(0.5, 0.2 - h, dps=50)) / (2 * h)
        assert mp.fabs(d - quot) < mp.mpf(10) ** -15


def test_covering_map_zeros_residuals_and_ordering():
    zs = analytic.covering_map_zeros(0.5, 1.2 + 0.3j, 5)
    assert [e.k for e in zs.entries] == [0, -1, 1, -2, 2, -3, 3, -4, 4, -5, 5]
    assert max(e.residual for e in zs.entries) < 1e-12
    with pytest.raises(ValueError):
        analytic.covering_map_zeros(0.5, 5.0, 3)


def test_zero_set_csv_layout(tmp_path):
    cli.run_scenario("ex46-common-zeros", {"k_max": 2}, tmp_path, fmt="csv")
    path = tmp_path / "ex46-common-zeros" / "zeros_r.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "re_z", "im_z", "residual"]
    assert len(rows) == 6
    assert rows[1][0] == "0"


def test_ratio_condition_detects_two_to_one():
    # t_s = t_r / 2 at s = 2 - sqrt(3): the half-angle parameter
    frac = analytic.ratio_condition(0.5, 2.0 - math.sqrt(3.0))
    assert (frac.numerator, frac.denominator) == (2, 1)
    assert analytic.ratio_condition(0.5, 0.37) is None


def test_halfplane_radius_closed_forms():
    assert analytic.halfplane_radius(4.0) == 0.5
    assert analytic.halfplane_radius(4.0, "bergman", 0.0) == 0.25
    assert analytic.halfplane_radius(4.0, "bergman", 2.0) == 0.0625
    with pytest.raises(ValueError):
        analytic.halfplane_radius(1.0)
    with pytest.raises(ValueError):
        analytic.halfplane_radius(4.0, "bergman", -1.0)
    with pytest.raises(ValueError):
        analytic.halfplane_radius(4.0, "fock")


def test_holomorphic_eigenfield_blocks():
    x0 = np.array([1.0, 2.0])
    v = analytic.holomorphic_eigenfield(x0, 0.5, 3)
    assert np.array_equal(v, [1, 2, 0.5, 1, 0.25, 0.5])
    with pytest.raises(ValueError):
        analytic.holomorphic_eigenfield(x0, 1.5, 3)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_semigroup_param_stays_in_disc(r, s):
    # the composed map phi_r . phi_s is phi_t with t = phi_r(phi_s(0))
    t = analytic.HyperbolicAuto(r)(analytic.HyperbolicAuto(s)(0.0))
    assert 0.0 < t < 1.0
    assert t >= max(r, s) - 1e-12
    assert analytic.HyperbolicAuto(t).t_param > 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.99))
def test_annulus_product_is_one(r):
    inner, outer = analytic.annulus(r)
    assert inner * outer == pytest.approx(1.0, abs=1e-12)
