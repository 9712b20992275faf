"""Automorphism geometry, eigenfunction families, covering-map zero sets."""

import csv
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univcert import analytic, cli

from eigenfunction_spec import EigenfunctionSpec


def phi(r, z):
    """Oracle: the hyperbolic automorphism z -> (z + r)/(1 + r z) whose
    translation length is analytic.translation_length(r)."""
    return (z + r) / (1.0 + r * z)


def test_translation_length_log_three():
    assert analytic.translation_length(0.5) == pytest.approx(math.log(3.0), abs=1e-15)
    with pytest.raises(ValueError, match=r"parameter must lie in \(0, 1\), got 1.0"):
        analytic.translation_length(1.0)


def test_automorphism_fixes_boundary_and_inverse():
    assert phi(0.5, 1.0) == pytest.approx(1.0)
    assert phi(0.5, -1.0) == pytest.approx(-1.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_semigroup_param_tangent_addition(r, s):
    # phi_r . phi_s = phi_t with t = (r + s)/(1 + r s): translation lengths add
    t = (r + s) / (1.0 + r * s)
    a, b, c = (analytic.translation_length(x) for x in (r, s, t))
    assert a + b == pytest.approx(c)
    z = np.array([0.1, -0.3 + 0.2j, 0.5j])
    assert np.abs(phi(r, phi(s, z)) - phi(t, z)).max() < 1e-12


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
    spec = EigenfunctionSpec(u=0.25, n=3, r=0.5)
    assert spec.eigenvalue == pytest.approx(3.0 ** 0.25)
    assert spec.a_param == pytest.approx(-1.0 / math.log(3.0))
    with pytest.raises(ValueError):
        EigenfunctionSpec(u=0.5, n=0, r=0.5)


def _eigenfunction_values(spec, z):
    """Oracle: the family member on points of the disc (principal branch)."""
    return np.exp(spec.exponent * np.log((1.0 + z) / (1.0 - z)))


def test_eigenfunction_functional_equation_pointwise():
    spec = EigenfunctionSpec(u=0.25, n=2, r=0.5)
    z = np.array([0.1, -0.3 + 0.2j, 0.5j])
    lhs = _eigenfunction_values(spec, phi(0.5, z))
    rhs = spec.eigenvalue * _eigenfunction_values(spec, z)
    assert np.abs((lhs - rhs) / rhs).max() < 1e-12


def _sampled_coeffs(spec, n_coeffs, oversample=8):
    """Independent oracle: Taylor coefficients by circle sampling and discrete
    Fourier inversion, at radius max(0.9, 10^(-3/N)) so that rho^{-N} stays
    around 10^3."""
    rho = max(0.9, 10.0 ** (-3.0 / n_coeffs))
    m = oversample * n_coeffs
    theta = 2.0 * np.pi * np.arange(m) / m
    samples = _eigenfunction_values(spec, rho * np.exp(1j * theta))
    return np.fft.fft(samples)[:n_coeffs] / m / rho ** np.arange(n_coeffs)


def test_eigenfunction_coeffs_match_recurrence_oracle():
    spec = EigenfunctionSpec(u=0.25, n=1, r=0.5)
    sampled = _sampled_coeffs(spec, 256)
    recurrence = analytic.eigenfunction_coeffs_recurrence(spec.exponent, 256)
    scale = np.abs(recurrence).max()
    assert np.abs(sampled - recurrence).max() < 1e-8 * scale


def _scalar_recurrence(w: complex, n_coeffs: int) -> np.ndarray:
    """The recurrence one scalar coefficient at a time, rescaling the whole
    prefix by 1e-150 whenever an entry passes 1e150."""
    a = np.zeros(n_coeffs, dtype=complex)
    a[0] = 1.0
    a[1] = 2.0 * w
    for k in range(1, n_coeffs - 1):
        a[k + 1] = ((k - 1) * a[k - 1] + 2.0 * w * a[k]) / (k + 1)
        if abs(a[k + 1]) > 1e150:
            a[: k + 2] *= 1e-150
    return a


def test_recurrence_rows_equal_scalar_calls():
    # the thm32 exponents -log(lambda)/t_r + 2 pi i n/t_r at N = 256
    t_r = analytic.translation_length(0.5)
    base = -np.log(complex(3.0 ** 0.25)) / t_r
    ws = base + 1j * (2.0 * np.pi * np.arange(-64, 65) / t_r)
    rows = analytic.eigenfunction_coeffs_recurrence(ws, 256)
    assert rows.shape == (129, 256)
    scalar = [analytic.eigenfunction_coeffs_recurrence(w, 256) for w in ws]
    assert all(s.shape == (256,) for s in scalar)
    assert np.array_equal(rows, np.stack(scalar))
    assert np.array_equal(rows, np.stack([_scalar_recurrence(w, 256) for w in ws]))
    # a rescaled row no longer starts at 1; the low frequencies never rescale
    assert np.any(rows[:, 0] != 1.0)
    assert rows[64, 0] == 1.0


def test_recurrence_of_no_exponents_is_empty():
    assert analytic.eigenfunction_coeffs_recurrence(np.array([]), 16).shape == (0, 16)


def test_covering_value_at_origin_is_one():
    with mp.workdps(30):
        assert abs(analytic.covering_value(0.5, 0.0) - 1) < 1e-25


def _covering_derivative(r, z, dps):
    """Closed form psi_r'(z) = psi_r(z) (i t_r / pi) (-2 / (1 - z^2))."""
    t_r = analytic.translation_length(r)
    with mp.workdps(dps):
        zz = mp.mpc(z)
        return (analytic.covering_value(r, zz) * (1j * t_r / mp.pi)
                * (-2 / (1 - zz * zz)))


def test_covering_derivative_matches_difference_quotient():
    h = mp.mpf(10) ** -20
    with mp.workdps(50):
        d = _covering_derivative(0.5, 0.2, dps=50)
        quot = (analytic.covering_value(0.5, 0.2 + h)
                - analytic.covering_value(0.5, 0.2 - h)) / (2 * h)
        assert mp.fabs(d - quot) < mp.mpf(10) ** -15


def test_covering_map_zeros_residuals_and_ordering():
    zs = analytic.covering_map_zeros(0.5, 1.2 + 0.3j, 5)
    assert [e.k for e in zs.entries] == [0, -1, 1, -2, 2, -3, 3, -4, 4, -5, 5]
    assert max(e.residual for e in zs.entries) < 1e-12
    with pytest.raises(ValueError):
        analytic.covering_map_zeros(0.5, 5.0, 3)


def test_zero_sets_past_the_work_bound_raise_before_any_zero():
    # the defaults' precision, and the largest k_max the bound admits at r = 0.5
    assert analytic.zero_set_dps(0.5, 1.0, 20) == 217
    assert analytic.zero_set_dps(0.5, 1.0, 176) == 1678
    for r, k_max in ((0.5, 177), (1e-9, 20)):
        with pytest.raises(ValueError, match="digits each"):
            analytic.zero_set_dps(r, 1.0, k_max)
        # unbounded, these would take from seconds to hours of mpmath
        with pytest.raises(ValueError, match="digits each"):
            analytic.covering_map_zeros(r, 1.0, k_max)


def test_zero_set_csv_layout(tmp_path):
    cli.run_scenario("ex46-common-zeros", {"k_max": 2}, tmp_path, fmt="csv")
    path = tmp_path / "ex46-common-zeros" / "zeros_r.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "re_z", "im_z", "residual"]
    assert len(rows) == 6
    assert rows[1][0] == "0"


def test_tiny_numbers_held_at_thousands_of_digits_format_to_their_leading_digits():
    # below about 1e-1054 at more than 4,300 digits, mp.nstr would build an
    # integer past CPython's int-to-str limit; ex46 reads such residuals
    with mp.workdps(4400):
        x = -mp.mpf(1) / 3 * mp.mpf(10) ** -1100
        assert cli._nstr(x, 6) == "-3.33333e-1101"
    # the number keeps its digits outside the precision it was made at
    assert cli._nstr(x, 17) == "-3.3333333333333333e-1101"
    assert cli._nstr(mp.mpf(0), 17) == "0.0"


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
    t = phi(r, phi(s, 0.0))
    assert 0.0 < t < 1.0
    assert t >= max(r, s) - 1e-12
    assert analytic.translation_length(t) > 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.99))
def test_annulus_product_is_one(r):
    inner, outer = analytic.annulus(r)
    assert inner * outer == pytest.approx(1.0, abs=1e-12)
