import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import fresnel as scipy_fresnel

from half_power import HALF_POWER_SINC_ARG, half_power_width_coeff, solve_half_power_sinc_arg
from nearfield_bd.fresnel_core import fresnel_cs, sinc

# Frozen from adaptive quadrature of cos/sin(pi t^2 / 2) on [0, x]
# (scipy.integrate.quad, epsabs=1e-14, limit=800).
QUAD_TABLE = {
    0.25: (0.2497591503565432, 0.0081756002357778),
    0.5: (0.4923442258714463, 0.0647324328599993),
    1.0: (0.7798934003768228, 0.4382591473903548),
    1.6: (0.3654616834404875, 0.6388876835093807),
    1.7: (0.3238268760039003, 0.5491959403215686),
    2.5: (0.4574130096417772, 0.6191817558195928),
    5.0: (0.5636311887040122, 0.4991913819171172),
    10.0: (0.4998986942055157, 0.4681699785848815),
}


def _c_quad(x):
    v, _ = quad(lambda t: np.cos(0.5 * np.pi * t * t), 0.0, x,
                epsabs=1e-13, epsrel=1e-12, limit=800)
    return v


def _s_quad(x):
    v, _ = quad(lambda t: np.sin(0.5 * np.pi * t * t), 0.0, x,
                epsabs=1e-13, epsrel=1e-12, limit=800)
    return v


@pytest.mark.parametrize("x", sorted(QUAD_TABLE))
def test_frozen_quadrature_values(x):
    c_ref, s_ref = QUAD_TABLE[x]
    c, s = fresnel_cs(x)
    npt.assert_allclose(c, c_ref, rtol=0, atol=1e-12)
    npt.assert_allclose(s, s_ref, rtol=0, atol=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_grid_against_adaptive_quadrature():
    """Both integrals track adaptive quadrature on a 200-point grid in [0, 10]."""
    xs = np.linspace(0.0, 10.0, 200)
    cc, ss = fresnel_cs(xs)
    for x, c, s in zip(xs, cc, ss):
        assert abs(c - _c_quad(float(x))) < 1e-10
        assert abs(s - _s_quad(float(x))) < 1e-10


def test_against_scipy_special():
    xs = np.linspace(-12.0, 12.0, 4001)
    s_ref, c_ref = scipy_fresnel(xs)
    cc, ss = fresnel_cs(xs)
    npt.assert_allclose(cc, c_ref, rtol=0, atol=5e-15)
    npt.assert_allclose(ss, s_ref, rtol=0, atol=5e-15)


@given(st.floats(min_value=-20.0, max_value=20.0))
@settings(max_examples=300, deadline=None)
def test_oddness(x):
    c_pos, s_pos = fresnel_cs(x)
    c_neg, s_neg = fresnel_cs(-x)
    assert abs(c_pos + c_neg) <= 1e-14
    assert abs(s_pos + s_neg) <= 1e-14


def test_bounded_by_08():
    xs = np.linspace(-40.0, 40.0, 20001)
    cc, ss = fresnel_cs(xs)
    assert np.all(np.abs(cc) <= 0.8)
    assert np.all(np.abs(ss) <= 0.8)


def test_large_argument_limit():
    c, s = fresnel_cs(50.0)
    assert abs(s - 0.5) <= 1e-2
    assert abs(c - 0.5) <= 1e-2
    # past |x| = 1.3e154 x^2 overflows; the integrals stay at their limits
    xs = np.array([1e154, 2e154, 1e300, np.inf, -1e200, -np.inf])
    half = 0.5 * np.sign(xs)
    cc, ss = fresnel_cs(xs)
    npt.assert_array_equal(cc, half)
    npt.assert_array_equal(ss, half)
    for x, h in zip(xs.tolist(), half.tolist()):
        assert fresnel_cs(x) == (h, h)


@pytest.mark.parametrize("x", [0.3, 0.9, 1.3, 1.8, 2.7, 4.1, 7.9])
def test_derivative_matches_integrand(x):
    """d/dx C = cos(pi x^2/2), d/dx S = sin(pi x^2/2), via central differences."""
    h = 1e-6
    (c_hi, s_hi), (c_lo, s_lo) = fresnel_cs(x + h), fresnel_cs(x - h)
    dc = (c_hi - c_lo) / (2 * h)
    ds = (s_hi - s_lo) / (2 * h)
    npt.assert_allclose(dc, np.cos(0.5 * np.pi * x * x), rtol=1e-6, atol=1e-8)
    npt.assert_allclose(ds, np.sin(0.5 * np.pi * x * x), rtol=1e-6, atol=1e-8)


def test_zero():
    assert fresnel_cs(0.0) == (0.0, 0.0)


def test_array_and_scalar_agree():
    xs = np.array([-3.2, -0.4, 0.0, 0.7, 1.6, 1.61, 9.5])
    cc, ss = fresnel_cs(xs)
    for i, x in enumerate(xs):
        c1, s1 = fresnel_cs(float(x))
        npt.assert_allclose(c1, cc[i], rtol=0, atol=1e-14)
        npt.assert_allclose(s1, ss[i], rtol=0, atol=1e-14)
    assert all(isinstance(v, float) for v in fresnel_cs(1.0))


def test_sinc_basics():
    assert sinc(0.0) == 1.0
    xs = np.linspace(0.05, 30.0, 500)
    npt.assert_allclose(sinc(xs), np.sin(xs) / xs, rtol=0, atol=1e-15)
    assert abs(sinc(np.pi)) < 1e-15


def test_sinc_limit_at_infinity():
    """sin(x)/x tends to 0 as |x| grows without bound; NaN stays NaN. Neither
    warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sinc(np.inf) == sinc(-np.inf) == 0.0
        assert isinstance(sinc(np.inf), float)
        out = sinc(np.array([np.inf, -np.inf, np.nan, 0.0, 2.0]))
        assert np.isnan(sinc(np.nan))
    assert out[:2].tolist() == [0.0, 0.0] and np.isnan(out[2])
    assert out[3:].tolist() == [1.0, sinc(2.0)]


def test_half_power_constant():
    x = HALF_POWER_SINC_ARG
    assert abs(sinc(x) ** 2 - 0.5) < 1e-12
    assert abs(x - 1.39156) < 1e-4
    assert solve_half_power_sinc_arg(1e-13) == pytest.approx(x, abs=1e-11)
    # the classic beam-width coefficient is 2x/pi
    assert abs(half_power_width_coeff() - 0.886) < 2e-4
