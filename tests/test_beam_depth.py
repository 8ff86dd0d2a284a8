import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from half_power import half_power_width_coeff
from nearfield_bd.array_geometry import (
    CircArray,
    FixedApertureArea,
    FixedApertureLength,
    FixedElementDiagonal,
    TxGeometry,
    make_rect_array,
    wavelength_from_carrier,
)
from nearfield_bd.beam_depth import (
    STATUS_FINITE,
    STATUS_INFINITE,
    STATUS_UNDETERMINED,
    SINC_HALF_POWER_COEFF,
    BeamDepthResult,
    bd_circ,
    bd_rect,
    circ_lobe_catalog,
    finite_bd_limit_rect,
    numeric_bd,
    solve_a3db,
)
from nearfield_bd.gain_engine import (
    GainProfile,
    analytic_gain_rect,
    circ_gain_broadside,
    exact_array_gain,
    gain_profile,
    rect_gain_broadside,
)

LAM = wavelength_from_carrier(3e9)
D_F = LAM / 8

A3DB_SQUARE = 1.2421576124333265
A3DB_TENTH = 1.737893454068307


def square_array():
    return make_rect_array(100, 1.0, FixedElementDiagonal(LAM / 4), LAM)


def test_a3db_frozen_values():
    npt.assert_allclose(solve_a3db(1.0), A3DB_SQUARE, atol=1e-12)
    npt.assert_allclose(solve_a3db(0.1), A3DB_TENTH, atol=1e-12)
    assert abs(solve_a3db(1.0) - 1.25) < 0.01


def test_a3db_residual_within_tol():
    for eta in (0.05, 0.3, 1.0, 2.7, 15.0):
        a = solve_a3db(eta)
        assert abs(analytic_gain_rect(eta, a) - 0.5) <= 1e-10


def test_a3db_aspect_symmetry():
    """a(1/eta) = eta^2 a(eta), hence a(eta)(1+eta^2) = a(1/eta)(1+1/eta^2)."""
    for eta in (0.1, 0.25, 0.6, 2.0, 7.0):
        lhs = solve_a3db(eta) * (1 + eta ** 2)
        rhs = solve_a3db(1 / eta) * (1 + eta ** -2)
        npt.assert_allclose(lhs, rhs, rtol=1e-9)
        npt.assert_allclose(solve_a3db(1 / eta), eta ** 2 * solve_a3db(eta),
                            rtol=1e-9)


def test_a3db_large_eta_product_converges():
    """The root falls below the old fixed bracket start for eta >~ 1.3e3;
    the (1 + eta^2) product still tends to its strip limit, at eta = 1e6 and
    (by aspect symmetry) 1e-6, and on to eta = 1e154, just short of where
    1 + eta^2 overflows."""
    ref = solve_a3db(1e3) * (1 + 1e3 ** 2)
    for eta in (1e4, 1e5, 1e6, 1e-6):
        assert solve_a3db(eta) * (1 + eta ** 2) == pytest.approx(ref, rel=1e-6)
    for eta in (1e7, 1e10, 1e20, 1e100, 1e154):
        assert solve_a3db(eta) * (1 + eta ** 2) == pytest.approx(
            1.7379732118867, rel=1e-12)


@given(st.floats(min_value=-6.0, max_value=6.0))
@settings(max_examples=60, deadline=None)
def test_a3db_is_the_mainlobe_crossing(log_eta):
    """Over log-uniform eta in [1e-6, 1e6] the root meets its tolerance and
    the gain stays at or above half everywhere below it, so the root is the
    first (mainlobe) crossing and not a sidelobe one."""
    eta = 10.0 ** log_eta
    root = solve_a3db(eta)
    assert abs(analytic_gain_rect(eta, root) - 0.5) <= 1e-10
    below = [analytic_gain_rect(eta, a) for a in root * np.linspace(0.0, 1.0, 201)[1:-1]]
    assert min(below) >= 0.5


def test_a3db_is_brent_on_the_closed_form():
    """The solver's Brent loop checks eta once and takes both brackets from
    one Fresnel call; its roots equal, bit for bit, those of brentq on the
    public closed form over 200 seeded log-uniform eta in [1e-3, 1e3]."""
    rng = np.random.default_rng(16)
    for eta in (10.0 ** rng.uniform(-3.0, 3.0, 200)).tolist():
        scale = 1.0 + eta * eta
        root = brentq(lambda a: analytic_gain_rect(eta, a) - 0.5, 1.0 / scale,
                      3.0 / scale, xtol=1e-14 / scale, rtol=1e-14)
        assert solve_a3db(eta) == root


def test_a3db_product_peaks_at_square():
    etas = np.geomspace(0.1, 10.0, 21)
    prods = [solve_a3db(float(e)) * (1 + e ** 2) for e in etas]
    assert int(np.argmax(prods)) == 10
    assert etas[10] == pytest.approx(1.0)


def test_a3db_validation():
    with pytest.raises(ValueError):
        solve_a3db(0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_a3db(bad)
    # past eta ~ 1.3e154, 1 + eta^2 overflows and the bracket collapses to 0,
    # where the gain reads 1: a numerical failure, not a bad input.
    for eta in (1.4e154, 1e200):
        with pytest.raises(RuntimeError, match="bracketing failure"):
            solve_a3db(eta)


def test_bd_rect_square_preset():
    arr = square_array()
    d_b = arr.d_b
    res = bd_rect(arr, d_b)
    assert res.status == STATUS_FINITE
    assert res.within_validity
    assert res.z_lo < d_b < res.z_hi
    depth_over_df = res.depth / D_F
    assert 360 < depth_over_df < 440
    npt.assert_allclose(depth_over_df, 377.6625150714681, rtol=1e-9)


def test_bd_rect_interval_consistency():
    arr = square_array()
    for f_over in (1.0, 1.5, 2.2):
        res = bd_rect(arr, f_over * 50 * LAM)
        g_lo = rect_gain_broadside(arr, res.z_lo, f_over * 50 * LAM)
        g_hi = rect_gain_broadside(arr, res.z_hi, f_over * 50 * LAM)
        assert abs(g_lo - 0.5) < 2e-10
        assert abs(g_hi - 0.5) < 2e-10


def test_bd_rect_infinite_branch():
    arr = square_array()
    limit = finite_bd_limit_rect(arr)
    res = bd_rect(arr, limit)
    assert res.status == STATUS_INFINITE
    assert math.isinf(res.z_hi) and math.isinf(res.depth)
    assert bd_rect(arr, 1.2 * limit).status == STATUS_INFINITE
    res_inf = bd_rect(arr, math.inf)
    assert res_inf.status == STATUS_INFINITE
    npt.assert_allclose(res_inf.z_lo, limit, rtol=1e-12)
    just_below = bd_rect(arr, 0.999 * limit)
    assert just_below.status == STATUS_FINITE
    assert just_below.depth > 100 * just_below.z_lo


def test_bd_rect_validity_flag_and_errors():
    arr = square_array()
    res = bd_rect(arr, 30 * LAM)
    assert not res.within_validity
    assert res.status == STATUS_FINITE
    with pytest.raises(ValueError):
        bd_rect(arr, 0.0)
    with pytest.raises(ValueError, match="focus"):
        bd_rect(arr, math.nan)


def test_bd_rect_depth_grows_toward_limit():
    arr = square_array()
    limit = finite_bd_limit_rect(arr)
    focals = limit * (1 - 0.5 ** np.arange(1, 9))
    depths = [bd_rect(arr, float(f)).depth for f in focals]
    assert all(d2 > d1 for d1, d2 in zip(depths, depths[1:]))


def test_bd_rect_carrier_invariance_in_df_units():
    ratios = []
    for fc in (3e9, 28e9):
        lam = wavelength_from_carrier(fc)
        arr = make_rect_array(100, 1.0, FixedElementDiagonal(lam / 4), lam)
        ratios.append(bd_rect(arr, arr.d_b).depth / arr.d_f)
    npt.assert_allclose(ratios[0], ratios[1], rtol=1e-9)


def test_finite_limit_square():
    arr = square_array()
    npt.assert_allclose(finite_bd_limit_rect(arr), arr.d_fa / 10, rtol=0.01)


def test_finite_limit_symmetry_fixed_area():
    area = square_array().aperture_area
    for eta in (0.2, 0.5, 4.0):
        lim1 = finite_bd_limit_rect(make_rect_array(100, eta, FixedApertureArea(area), LAM))
        lim2 = finite_bd_limit_rect(make_rect_array(100, 1 / eta, FixedApertureArea(area), LAM))
        npt.assert_allclose(lim1, lim2, rtol=1e-9)


def test_finite_limit_minimized_at_square():
    for sizing in (FixedApertureArea(square_array().aperture_area),
                   FixedApertureLength(25 * LAM)):
        lims = {eta: finite_bd_limit_rect(make_rect_array(100, eta, sizing, LAM))
                for eta in (0.2, 0.5, 1.0, 2.0, 5.0)}
        assert min(lims, key=lims.get) == 1.0


def test_fixed_area_depth_ratio():
    """Narrow strip vs square at equal aperture area, each focused at its own
    boundary distance: depth in its own Fraunhofer units shrinks by roughly
    an order of magnitude."""
    area = square_array().aperture_area
    rel = {}
    for eta in (1.0, 0.1):
        arr = make_rect_array(100, eta, FixedApertureArea(area), LAM)
        rel[eta] = bd_rect(arr, arr.d_b).depth / arr.d_f
    ratio = rel[0.1] / rel[1.0]
    assert 1 / 11 < ratio < 1 / 8


def test_bd_circ_reference_case():
    circ = CircArray(12.5 * LAM, LAM)
    res = bd_circ(circ, 50 * LAM)
    assert res.status == STATUS_FINITE
    assert res.within_validity
    npt.assert_allclose(res.depth / LAM, 30.830245854716868, rtol=1e-9)
    npt.assert_allclose(res.depth / D_F, 247, rtol=0.02)
    assert res.z_lo < 50 * LAM < res.z_hi


def test_bd_circ_branches_and_small_focus():
    circ = CircArray(12.5 * LAM, LAM)
    limit = circ.radius ** 2 / (SINC_HALF_POWER_COEFF * LAM)
    assert bd_circ(circ, limit).status == STATUS_INFINITE
    assert bd_circ(circ, math.inf).status == STATUS_INFINITE
    small = bd_circ(circ, 5 * LAM)
    assert not small.within_validity
    approx = 2 * SINC_HALF_POWER_COEFF * LAM * (5 * LAM) ** 2 / circ.radius ** 2
    npt.assert_allclose(small.depth, approx, rtol=2e-3)
    with pytest.raises(ValueError):
        bd_circ(circ, -1.0)
    with pytest.raises(ValueError, match="focus"):
        bd_circ(circ, math.nan)


def test_half_power_coefficient_consistency():
    assert abs(SINC_HALF_POWER_COEFF - half_power_width_coeff()) < 2e-4


def test_geometry_ordering_at_matched_length():
    """At equal aperture length and boundary-distance focus, the strip has the
    shallowest depth, the disk sits between, the square is deepest."""
    strip = make_rect_array(100, 0.1, FixedApertureLength(25 * LAM), LAM)
    square = make_rect_array(100, 1.0, FixedApertureLength(25 * LAM), LAM)
    circ = CircArray(12.5 * LAM, LAM)
    f = 50 * LAM
    d_strip = bd_rect(strip, f).depth
    d_circ = bd_circ(circ, f).depth
    d_square = bd_rect(square, f).depth
    assert d_strip < d_circ < d_square


def test_numeric_matches_closed_form_square():
    arr = square_array()
    focus = 50 * LAM
    ref = bd_rect(arr, focus)
    grid = np.geomspace(0.5 * ref.z_lo, 2 * ref.z_hi, 200)
    grid = np.unique(np.append(grid, focus))
    prof = gain_profile("analytic", arr, grid, focus)
    res = numeric_bd(prof, gain_fn=lambda z: rect_gain_broadside(arr, z, focus))
    npt.assert_allclose(res.depth, ref.depth, rtol=0.01)
    npt.assert_allclose(res.z_lo, ref.z_lo, rtol=0.001)
    npt.assert_allclose(res.z_hi, ref.z_hi, rtol=0.001)


def test_numeric_matches_closed_form_random_configs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        eta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        arr = make_rect_array(100, eta, FixedApertureLength(25 * LAM), LAM)
        limit = finite_bd_limit_rect(arr)
        focus = float(rng.uniform(arr.d_b, 0.9 * limit))
        ref = bd_rect(arr, focus)
        grid = np.geomspace(0.5 * ref.z_lo, 2 * ref.z_hi, 96)
        grid = np.unique(np.append(grid, focus))
        prof = gain_profile("analytic", arr, grid, focus)
        res = numeric_bd(prof, gain_fn=lambda z: rect_gain_broadside(arr, z, focus))
        assert res.status == STATUS_FINITE
        npt.assert_allclose(res.depth, ref.depth, rtol=0.01)


@given(st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=64, max_value=200),
       st.floats(min_value=0.32, max_value=0.7))
@settings(max_examples=25, deadline=None)
def test_exact_depth_matches_closed_form(log_eta, n, ratio):
    """The half-power interval of the exact gain matches bd_rect's.

    The closed form keeps the Fresnel phase z + rho^2/(2z) of the distance
    r = sqrt(z^2 + rho^2).  As r - z = rho^2/(r + z), the exact phase at every
    aperture point (rho <= L/2) is the Fresnel phase of a distance between z
    and z(1 + L^2/(16 z^2)), so each exact crossing lies within that relative
    stretch of the closed form's.  The tolerance doubles the stretch for the
    amplitude taper, of the same order in L/z, that the closed form also
    drops, and adds the crossing search's rel_tol.

    With n >= 64 half-wavelength elements and F between 0.32 and 0.7 of the
    finite-depth limit, F >= d_B (2c/n <= 0.31 for c <= 9.94), and the grid
    starts above the radiative floor (0.8 z_lo >= 1.25 L)."""
    eta = 10.0 ** log_eta
    arr = make_rect_array(n, eta, FixedElementDiagonal(LAM / 2), LAM)
    focus = ratio * finite_bd_limit_rect(arr)
    ref = bd_rect(arr, focus)
    assert ref.within_validity
    grid = np.unique(np.append(np.geomspace(0.8 * ref.z_lo, 1.25 * ref.z_hi, 13), focus))
    prof = gain_profile("exact", arr, grid, focus)
    res = numeric_bd(prof, gain_fn=lambda z: exact_array_gain(arr, TxGeometry(z), focus),
                     rel_tol=1e-7)
    for z, z_ref in ((res.z_lo, ref.z_lo), (res.z_hi, ref.z_hi)):
        stretch = arr.aperture_len ** 2 / (16.0 * z_ref ** 2)
        assert abs(z / z_ref - 1.0) <= 2.0 * stretch + 1e-6


def test_numeric_matches_closed_form_circular():
    circ = CircArray(12.5 * LAM, LAM)
    focus = 50 * LAM
    ref = bd_circ(circ, focus)
    grid = np.unique(np.append(np.geomspace(15 * LAM, 160 * LAM, 200), focus))
    gains = np.array([circ_gain_broadside(circ, float(z), focus) for z in grid])
    prof = GainProfile(focus, grid, gains, kind="analytic")
    res = numeric_bd(prof, gain_fn=lambda z: circ_gain_broadside(circ, z, focus))
    npt.assert_allclose(res.depth, ref.depth, rtol=0.01)


def test_numeric_interpolation_fallback():
    arr = square_array()
    focus = 50 * LAM
    ref = bd_rect(arr, focus)
    grid = np.unique(np.append(np.geomspace(20 * LAM, 160 * LAM, 2000), focus))
    prof = gain_profile("analytic", arr, grid, focus)
    res = numeric_bd(prof)
    npt.assert_allclose(res.depth, ref.depth, rtol=0.01)


def test_numeric_flat_profile_undetermined_vs_infinite():
    z = np.geomspace(1.0, 1e4, 50)
    flat = GainProfile(10.0, z, np.ones_like(z))
    res = numeric_bd(flat)
    assert res.status == STATUS_UNDETERMINED
    assert math.isnan(res.depth)
    res2 = numeric_bd(flat, finite_limit=5.0)
    assert res2.status == STATUS_INFINITE
    res3 = numeric_bd(flat, finite_limit=1e3)
    assert res3.status == STATUS_UNDETERMINED


def test_numeric_rejects_unfocused_profile():
    z = np.linspace(1.0, 2.0, 10)
    with pytest.raises(ValueError):
        numeric_bd(GainProfile(1.5, z, np.full(10, 0.4)))


def test_numeric_gain_fn_must_cross_half_power():
    arr = square_array()
    focus = 50 * LAM
    ref = bd_rect(arr, focus)
    grid = np.geomspace(0.5 * ref.z_lo, 2 * ref.z_hi, 40)
    prof = gain_profile("analytic", arr, grid, focus)
    with pytest.raises(ValueError, match="does not cross the half-power level "
                                         "between the samples z = "):
        numeric_bd(prof, gain_fn=lambda z: 0.0)


def test_numeric_refuses_an_unresolved_peak():
    """A grid whose samples next to the focus both lie outside the closed-form
    half-power interval does not resolve the main lobe: refused, on either
    side of the peak and at the grid's edge.  One more sample inside the
    interval resolves it again."""
    arr = square_array()
    focus = 50 * LAM
    ref = bd_rect(arr, focus)
    coarse = np.array([0.5 * ref.z_lo, focus, 2.0 * ref.z_hi, 4.0 * ref.z_hi])
    for grid in (coarse, coarse[1:], coarse[:2]):
        prof = gain_profile("analytic", arr, grid, focus)
        assert prof.gains.max() == prof.gains[grid == focus][0]
        with pytest.raises(ValueError, match="does not resolve the peak at z = "):
            numeric_bd(prof, gain_fn=lambda z: rect_gain_broadside(arr, z, focus))
    resolved = np.sort(np.append(coarse, 0.5 * (focus + ref.z_hi)))
    res = numeric_bd(gain_profile("analytic", arr, resolved, focus),
                     gain_fn=lambda z: rect_gain_broadside(arr, z, focus))
    npt.assert_allclose(res.z_hi, ref.z_hi, rtol=0.001)


def test_result_type_validation():
    with pytest.raises(ValueError):
        BeamDepthResult(1.0, 2.0, 1.0, 5.0, status="bogus")
    with pytest.raises(ValueError):
        BeamDepthResult(2.0, 1.0, -1.0, 5.0)
    with pytest.raises(ValueError):
        BeamDepthResult(1.0, 2.0, math.inf, 5.0, status=STATUS_FINITE)


def test_lobe_catalog_structure():
    circ = CircArray(12.5 * LAM, LAM)
    focus = 50 * LAM
    cat = circ_lobe_catalog(circ, focus, 3)
    assert len(cat) == 7
    ls = [e.l_value for e in cat]
    assert ls == sorted(ls)
    nulls = [e for e in cat if e.kind == "null"]
    assert sorted({e.index for e in nulls}) == [1, 2, 3]
    for e in nulls:
        assert e.l_value == float(e.index)
        assert e.gain_db == -math.inf
        npt.assert_allclose(e.z_eff_value,
                            circ.radius ** 2 / (2 * LAM * e.index), rtol=1e-12)
        # z_eff = F z/|F - z|
        npt.assert_allclose(focus * e.z_value / abs(focus - e.z_value),
                            e.z_eff_value, rtol=1e-12)


def test_lobe_catalog_two_sided_nulls():
    circ = CircArray(12.5 * LAM, LAM)
    cat = circ_lobe_catalog(circ, 50 * LAM, 1)
    zs = sorted(e.z_value for e in cat)
    assert len(zs) == 2
    assert zs[0] < 50 * LAM < zs[1]


def test_lobe_catalog_peak_values():
    circ = CircArray(12.5 * LAM, LAM)
    cat = circ_lobe_catalog(circ, math.inf, 4)
    peaks = [e for e in cat if e.kind == "lobe-peak"]
    assert [e.index for e in peaks] == [1, 2, 3]
    npt.assert_allclose(peaks[0].l_value, 1.4302966532641812, atol=1e-6)
    npt.assert_allclose(peaks[0].gain_db, -13.261458884048285, atol=1e-6)
    npt.assert_allclose(peaks[1].l_value, 2.459024032241983, atol=1e-6)
    npt.assert_allclose(peaks[2].l_value, 3.4708897239957412, atol=1e-6)
    npt.assert_allclose(peaks[2].gain_db, -20.788187091910416, atol=1e-6)
    # focused at infinity, z equals the effective distance, one entry per l
    assert all(e.z_value == e.z_eff_value for e in cat)


def test_lobe_catalog_validation():
    circ = CircArray(12.5 * LAM, LAM)
    with pytest.raises(ValueError):
        circ_lobe_catalog(circ, 50 * LAM, 0)
    with pytest.raises(ValueError):
        circ_lobe_catalog(circ, 0.0, 2)
    with pytest.raises(ValueError, match="focus"):
        circ_lobe_catalog(circ, math.nan, 2)
