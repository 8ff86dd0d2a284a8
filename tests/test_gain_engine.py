import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.special import roots_legendre

from fields import quadratic_focus, spherical_wave
from nearfield_bd import gain_engine
from nearfield_bd.array_geometry import (
    CircArray,
    FixedApertureLength,
    FixedElementDiagonal,
    TxGeometry,
    _real,
    make_rect_array,
    wavelength_from_carrier,
)
from nearfield_bd.field_model import (_BLOCK_NODES, QuadratureSpec, _broadside_focus,
                                      _disk_blocks, _panel_edges, _spherical_wave)
from nearfield_bd.gain_engine import (
    GainProfile,
    SweepEvalError,
    _broadside,
    _placement,
    _steered,
    analytic_gain_circ,
    analytic_gain_nonbroadside,
    analytic_gain_rect,
    circ_gain_broadside,
    disk_gain_exact,
    disk_gain_fresnel,
    exact_array_gain,
    exact_array_gain_steered,
    gain_profile,
    projected_gain_approx,
    radiative_floor,
    rect_gain_broadside,
    rect_gain_slanted,
    run_sweep,
)

LAM = wavelength_from_carrier(3e9)
D_F = LAM / 8

FAST_QUAD = QuadratureSpec(order=8, refinement=0)


def square_array():
    return make_rect_array(100, 1.0, FixedElementDiagonal(LAM / 4), LAM)


def test_analytic_rect_limits():
    assert analytic_gain_rect(1.0, 0.0) == 1.0
    assert analytic_gain_rect(3.0, 1e-15) == 1.0
    # no cut below a = 0: tiny a keeps the half-power crossing of large eta
    for eta, a in [(1.0, 1e-300), (1e-300, 1e-300), (1.0, 5e-324)]:
        assert analytic_gain_rect(eta, a) == 1.0
    assert analytic_gain_rect(1e7, 1.7379732118867e-14) == pytest.approx(0.5, abs=1e-12)
    val = analytic_gain_rect(1.0, 1.25)
    assert abs(val - 0.5) < 0.01
    for eta, a in [(0.3, 0.7), (2.0, 4.4), (1.0, 9.0)]:
        g = analytic_gain_rect(eta, a)
        assert 0.0 < g <= 1.0
    with pytest.raises(ValueError):
        analytic_gain_rect(0.0, 1.0)
    with pytest.raises(ValueError):
        analytic_gain_rect(1.0, -0.5)
    with pytest.raises(ValueError):
        analytic_gain_rect(1.0, math.nan)
    for q, q_tilde in [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)]:
        with pytest.raises(ValueError):
            analytic_gain_nonbroadside(1.0, 0.8, q, q_tilde)
    # far past the mainlobe the gain underflows toward 0 instead of overflowing
    for eta, a in [(1.0, 1e300), (1e-300, 1e300), (1e300, 1e300), (1.0, 1e160)]:
        assert 0.0 <= analytic_gain_rect(eta, a) <= 1e-150
    for eta, p, q in [(1.0, 1e100, 0.0), (1e300, 1e200, 3.0), (1.0, 1e160, -1e150)]:
        assert 0.0 <= analytic_gain_nonbroadside(eta, p, q, q) <= 1e-150


def test_aspect_ratio_symmetry():
    """Swapping eta for 1/eta at the same effective distance leaves the
    closed-form gain unchanged."""
    rng = np.random.default_rng(7)
    d_fa = 1250 * LAM
    for _ in range(200):
        eta = rng.uniform(0.05, 20.0)
        z_eff = rng.uniform(5 * LAM, 4000 * LAM)
        a1 = d_fa / (4 * z_eff * (1 + eta ** 2))
        a2 = d_fa / (4 * z_eff * (1 + eta ** -2))
        g1 = analytic_gain_rect(eta, a1)
        g2 = analytic_gain_rect(1 / eta, a2)
        assert abs(g1 - g2) < 1e-10


def test_nonbroadside_reduces_to_rect():
    for eta, p in [(1.0, 0.8), (4.0, 0.33), (0.2, 2.1)]:
        g_rect = analytic_gain_rect(eta, p * p)
        g_slant = analytic_gain_nonbroadside(eta, p, 0.0, 0.0)
        assert abs(g_rect - g_slant) < 1e-12
    with pytest.raises(ValueError):
        analytic_gain_nonbroadside(1.0, 0.0, 0.1, 0.0)


def test_slanted_wrapper_reduces_to_broadside():
    for eta, z, f in [(1.0, 60 * LAM, 100 * LAM), (4.0, 400 * LAM, 125 * LAM),
                      (0.3, 77 * LAM, 10000 * LAM)]:
        arr = make_rect_array(100, eta, FixedElementDiagonal(LAM / 4), LAM)
        g1 = rect_gain_broadside(arr, z, f)
        g2 = rect_gain_slanted(arr, TxGeometry(z), f)
        assert abs(g1 - g2) < 1e-12


def test_thin_array_gain_angle_independence():
    """A vanishing width ratio removes the azimuth dependence."""
    arr = make_rect_array(100, 1e-3, FixedApertureLength(25 * LAM), LAM)
    f = 400 * D_F
    gains = []
    for phi in (0.0, np.pi / 8, np.pi / 4):
        tx = TxGeometry(1000 * D_F, azimuth=phi)
        gains.append(rect_gain_slanted(arr, tx, f))
    assert max(gains) - min(gains) < 1e-3


def test_slanted_perfect_focus_limit():
    """At d = F the gain collapses to the sinc^2 product, below 1 off-axis."""
    arr = square_array()
    tx = TxGeometry(400 * D_F, azimuth=np.pi / 8)
    g = rect_gain_slanted(arr, tx, 400 * D_F)
    d_fa = 1250 * LAM
    pq = 0.5 * math.sin(np.pi / 8) * math.sqrt(2 * d_fa / (LAM * 2))
    expected = (math.sin(math.pi * pq) / (math.pi * pq)) ** 2
    npt.assert_allclose(g, expected, rtol=1e-12)
    assert g < 0.05
    # broadside perfect focus is exactly 1
    assert rect_gain_slanted(arr, TxGeometry(400 * D_F), 400 * D_F) == 1.0


def test_analytic_circ_values():
    assert analytic_gain_circ(0.0) == 1.0
    for k in (1, 2, 3):
        assert abs(analytic_gain_circ(float(k))) < 1e-30
    peak = max(np.linspace(1.0, 2.0, 20001), key=analytic_gain_circ)
    assert abs(peak - 1.4303) < 1e-3
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            analytic_gain_circ(bad)


def test_exact_gain_perfect_focus():
    arr = square_array()
    d_b = arr.d_b
    g = exact_array_gain(arr, TxGeometry(d_b), d_b, FAST_QUAD)
    assert g >= 0.99
    g_steer = exact_array_gain_steered(arr, TxGeometry(d_b), d_b, FAST_QUAD)
    assert g_steer >= 0.99
    assert g_steer >= g - 1e-9


def test_far_field_filter_loses_gain():
    arr = square_array()
    d_b = arr.d_b
    g_far = exact_array_gain(arr, TxGeometry(d_b), math.inf, FAST_QUAD)
    assert g_far < 0.05


def test_exact_gain_bounds_and_refinement():
    arr = square_array()
    tx = TxGeometry(700 * D_F)
    g0 = exact_array_gain(arr, tx, 1000 * D_F, QuadratureSpec(order=8, refinement=0))
    g1 = exact_array_gain(arr, tx, 1000 * D_F, QuadratureSpec(order=8, refinement=1))
    assert 0.0 <= g0 <= 1.0 + 1e-6
    assert abs(g1 - g0) < 1e-6


def test_refinement_doubles_until_gains_agree():
    """Large elements: the gains at orders 2, 4 and 8 are 6e-3 and 4e-6
    apart, so refinement 1 fails and more doublings agree within 1e-6."""
    arr = make_rect_array(2, 1.0, FixedElementDiagonal(32 * LAM), LAM)
    tx = TxGeometry(1.5 * arr.aperture_len)
    ref = exact_array_gain(arr, tx, tx.dist, QuadratureSpec(order=16, refinement=0))
    g = exact_array_gain(arr, tx, tx.dist, QuadratureSpec(order=2, refinement=4))
    assert abs(g - ref) < 1e-6
    with pytest.raises(RuntimeError, match="did not converge"):
        exact_array_gain(arr, tx, tx.dist, QuadratureSpec(order=2, refinement=1))


def test_exact_gain_memory_bounded():
    """Element grids of n^2 * 256 nodes at order 16 (1.02e7 at n=200, 5.8e8
    at n=1500): the gain needs neither that grid nor any n x n array, so the
    traced peak stays far below it."""
    # a 750-wavelength aperture focused at 2 aperture lengths keeps a quartic
    # phase error of about k L / 128 = 37 rad at its corners
    for n, low in [(200, 0.9), (1500, 0.5)]:
        arr = make_rect_array(n, 1.0, FixedElementDiagonal(LAM / 2), LAM)
        tx = TxGeometry(2 * arr.aperture_len)
        tracemalloc.start()
        try:
            g = exact_array_gain(arr, tx, tx.dist, FAST_QUAD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert low < g <= 1.0 + 1e-6
        assert peak < 32 * 2 ** 20


# Smallest positive float: a transmitter turned by it has a nonzero x (or y)
# coordinate at ranges above 0.5 m, so its gain integrates that axis whole.
TINY = 5e-324


def _unfolded(tx):
    """tx turned by TINY on each axis it lies on, so nothing folds."""
    unfolded = TxGeometry(tx.dist, azimuth=tx.azimuth or TINY,
                          elevation=tx.elevation or TINY)
    assert unfolded.x != 0.0 and unfolded.y != 0.0
    return unfolded


@pytest.mark.parametrize("n", [1, 2, 7, 40, 41])
def test_mirror_fold_matches_full_grid(n):
    """A gain along an axis the transmitter lies on integrates the u >= 0 half
    of the aperture with doubled weights; the same gain with the transmitter
    turned off that axis by TINY integrates the whole aperture and agrees
    within 1e-13.  Covers exact and steered focusing, eta != 1, F = inf, an
    on-axis transmitter (both axes fold), an elevation-only one (x folds) and
    an azimuth-only one (y folds); the n = 1 aperture is 2 wavelengths long so
    its one element converges, the others 25, and ranges are at least 1 m."""
    length = (2.0 if n == 1 else 25.0) * LAM
    for eta in (0.5, 2.0):
        arr = make_rect_array(n, eta, FixedApertureLength(length), LAM)
        for (dist, azimuth, elevation), focus_at in [
                ((1.5, 0.0, 0.0), 2.5), ((3.0, 0.0, 0.0), math.inf),
                ((2.0, 0.0, 0.3), 3.0), ((2.5, -0.4, 0.0), math.inf)]:
            tx = TxGeometry(max(dist * length, 1.0), azimuth, elevation)
            focus = focus_at * length
            for gain in (exact_array_gain, exact_array_gain_steered):
                assert abs(gain(arr, tx, focus) - gain(arr, _unfolded(tx), focus)) <= 1e-13


def test_mirror_fold_keeps_memory_bounded():
    """Folding halves the node grid along each axis but not the block size,
    so an n = 1500 on-axis gain peaks no higher than the same gain with the
    transmitter turned off one or both axes."""
    arr = make_rect_array(1500, 1.0, FixedElementDiagonal(LAM / 2), LAM)
    on_axis = TxGeometry(2 * arr.aperture_len)
    peaks = []
    for tx in (on_axis, TxGeometry(on_axis.dist, azimuth=TINY), _unfolded(on_axis)):
        tracemalloc.start()
        try:
            exact_array_gain(arr, tx, tx.dist, FAST_QUAD)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= min(peaks[1:])


@pytest.mark.parametrize("tx_at, focus_at", [
    ((2.0, 0.0, 0.0), 3.0),
    ((3.0, 0.4, -0.25), 2.5),
    ((4.0, 0.0, 0.0), math.inf),
    ((1.5, -0.6, 0.3), math.inf),
])
def test_gain_independent_of_element_count(tx_at, focus_at):
    """Elements tile the aperture without gaps, so the same 25-wavelength
    aperture tiled as 100x100, 20x20 or 4x4 elements has the same exact gains
    (transmitter range and focus in aperture lengths)."""
    length = 25 * LAM
    arrays = [make_rect_array(n, 2.0, FixedApertureLength(length), LAM)
              for n in (100, 20, 4)]
    dist, azimuth, elevation = tx_at
    tx = TxGeometry(dist * length, azimuth=azimuth, elevation=elevation)
    for gain in (exact_array_gain, exact_array_gain_steered):
        ref, *others = (gain(arr, tx, focus_at * length) for arr in arrays)
        for g in others:
            assert abs(g - ref) <= 1e-12


def test_reactive_near_field_rejected():
    arr = square_array()
    with pytest.raises(ValueError):
        exact_array_gain(arr, TxGeometry(29 * LAM), 50 * LAM)
    with pytest.raises(ValueError):
        exact_array_gain_steered(arr, TxGeometry(29 * LAM), 50 * LAM)
    with pytest.raises(ValueError):
        exact_array_gain(arr, TxGeometry(50 * LAM), -2.0)
    circ = CircArray(12.5 * LAM, LAM)
    for z in (29 * LAM, math.nan, math.inf):
        with pytest.raises(ValueError):
            disk_gain_exact(circ, z, 50 * LAM)
    for z in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            disk_gain_fresnel(circ, z, 50 * LAM)


def test_single_element_matches_antenna_gain():
    """N = 1 degenerates to the plain aperture gain of the element, integrated
    by adaptive quadrature of the literal spherical wave and focusing factor."""
    one = make_rect_array(1, 1.0, FixedElementDiagonal(2 * LAM), LAM)
    tx = TxGeometry(10 * LAM)
    focus = 7 * LAM
    half_w = one.elem_w / 2
    half_h = one.elem_h / 2

    def integrand_re(y, x):
        val = spherical_wave(tx, x, y, LAM) * quadratic_focus(focus, x, y, LAM)
        return val.real

    def integrand_im(y, x):
        val = spherical_wave(tx, x, y, LAM) * quadratic_focus(focus, x, y, LAM)
        return val.imag

    def integrand_sq(y, x):
        return abs(spherical_wave(tx, x, y, LAM)) ** 2

    re_v, _ = dblquad(integrand_re, -half_w, half_w, -half_h, half_h, epsabs=1e-14)
    im_v, _ = dblquad(integrand_im, -half_w, half_w, -half_h, half_h, epsabs=1e-14)
    sq_v, _ = dblquad(integrand_sq, -half_w, half_w, -half_h, half_h, epsabs=1e-16)
    expected = (re_v ** 2 + im_v ** 2) / (one.elem_area * sq_v)
    g = exact_array_gain(one, tx, focus, QuadratureSpec(order=16, refinement=1))
    npt.assert_allclose(g, expected, rtol=1e-9)


def test_exact_matches_analytic_spotcheck():
    arr = square_array()
    focus = 1000 * D_F
    worst = 0.0
    for z in np.geomspace(400 * D_F, 10000 * D_F, 9):
        ge = exact_array_gain(arr, TxGeometry(z), focus, FAST_QUAD)
        ga = rect_gain_broadside(arr, z, focus)
        worst = max(worst, abs(ge - ga))
    assert worst <= 0.02


def test_discrepancy_shrinks_with_distance():
    """|exact - analytic| averaged over the near half of [d_B, 10 d_B]
    dominates the far half."""
    arr = square_array()
    d_b = arr.d_b
    focus = 4 * d_b
    zs = np.geomspace(d_b, 10 * d_b, 16)
    diffs = [abs(exact_array_gain(arr, TxGeometry(z), focus, FAST_QUAD)
                 - rect_gain_broadside(arr, z, focus)) for z in zs]
    assert np.mean(diffs[:8]) >= np.mean(diffs[8:])


def test_disk_fresnel_oracle_matches_sinc():
    circ = CircArray(12.5 * LAM, LAM)
    focus = 50 * LAM
    for z in np.geomspace(50 * LAM, 5000 * LAM, 25):
        g_quad = disk_gain_fresnel(circ, z, focus)
        g_closed = circ_gain_broadside(circ, z, focus)
        assert abs(g_quad - g_closed) < 1e-10
    assert disk_gain_fresnel(circ, focus, focus) == pytest.approx(1.0, abs=1e-12)


def test_disk_exact_agreement_band():
    """Exact-field disk gain: within 0.021 of sinc^2 from d_B, within 0.01
    from 1.6 d_B outward."""
    circ = CircArray(12.5 * LAM, LAM)
    focus = 50 * LAM
    d_b = 50 * LAM
    near = max(abs(disk_gain_exact(circ, z, focus) - circ_gain_broadside(circ, z, focus))
               for z in np.geomspace(d_b, 1.6 * d_b, 12))
    far = max(abs(disk_gain_exact(circ, z, focus) - circ_gain_broadside(circ, z, focus))
              for z in np.geomspace(1.6 * d_b, 100 * d_b, 25))
    assert near <= 0.021
    assert far <= 0.01


def test_disk_gain_refines_order_until_gains_agree():
    """Just above the radiative floor of a 60 lambda disk, unfocused, the
    gains at orders 4 and 8 are 0.12 apart, so (2, 1) fails; (2, 2) goes on
    to agree at orders 8 and 16 (1e-16 apart) and returns the order-16 gain
    that the default (8, 1) returns."""
    circ = CircArray(60 * LAM, LAM)
    z, focus = 1.01 * radiative_floor(circ), math.inf
    with pytest.raises(RuntimeError, match="orders 4 and 8"):
        disk_gain_exact(circ, z, focus, QuadratureSpec(order=2, refinement=1))
    assert (disk_gain_exact(circ, z, focus, QuadratureSpec(order=2, refinement=2))
            == disk_gain_exact(circ, z, focus)
            == disk_gain_exact(circ, z, focus, QuadratureSpec(order=8, refinement=0)))


def _full_circle_gain(circ, z, focus, order, angles=128):
    """The radial rule of disk_gain_exact at one order, 6*order Gauss-Legendre
    radii, by the ``angles``-point trapezoid over the full circle, which
    integrates the smooth periodic element pattern to rounding.  The field is
    _spherical_wave's, with the focusing phase added inside its one exponential
    as the kernel does: a separate e^{j phase} factor rounds
    each node's phase differently, by up to eps * k * r (1.7e-13 in the gain
    at z = 3000 lambda), which would hide what the angular factor changes."""
    nodes, wts = roots_legendre(6 * order)
    rho = 0.5 * circ.radius * (nodes + 1.0)
    theta = np.arange(angles) * (2.0 * np.pi / angles)
    x, y = rho[:, None] * np.cos(theta), rho[:, None] * np.sin(theta)
    amp, field = _spherical_wave(TxGeometry(z).position, x, y, LAM,
                                 _broadside_focus(LAM, focus))
    w = (0.5 * circ.radius * wts * rho)[:, None] * (2.0 * np.pi / angles)
    return abs(np.sum(w * field)) ** 2 / (circ.aperture_area * np.sum(w * amp * amp))


def test_disk_fold_matches_full_circle():
    """disk_gain_exact evaluates the field once per ring and integrates the
    element pattern over the angle in closed form; at every order 2..9 of
    QuadratureSpec (unrefined gains at rule orders 4..18), and at rule orders
    2..9 directly on _disk_blocks, it agrees with the full-circle node grid
    of the same radii and 128 angles within 1e-14."""
    circ = CircArray(12.5 * LAM, LAM)
    for z in np.geomspace(31 * LAM, 3000 * LAM, 6):
        for focus in (50 * LAM, math.inf):
            for order in range(2, 10):
                g = disk_gain_exact(circ, z, focus, QuadratureSpec(order, refinement=0))
                assert abs(g - _full_circle_gain(circ, z, focus, 2 * order)) <= 1e-14
                (_, wr, wa, amp, field), = _disk_blocks(circ, np.array([z]), order,
                                                        _broadside_focus(LAM, focus))
                g = abs(wr @ field[0] @ wa) ** 2 / (circ.aperture_area
                                                    * (wr @ amp[0] ** 2 @ wa))
                assert abs(g - _full_circle_gain(circ, z, focus, order)) <= 1e-14


@given(st.floats(2.0, 40.0), st.floats(1.0, 300.0),
       st.one_of(st.none(), st.floats(1.0, 300.0)), st.integers(2, 9))
@settings(max_examples=80, deadline=None)
def test_disk_gain_in_domain(radius, at, focus_at, order):
    """Over radii of 2..40 lambda, distances from the radiative floor to 300
    times it, a focus in that range or at infinity, and QuadratureSpec orders
    2..9 unrefined, the disk gain is finite, lies in [0, 1 + 1e-6] and is the
    full-circle node-grid rule's (128 angles) within 1e-14."""
    circ = CircArray(radius * LAM, LAM)
    floor = radiative_floor(circ)
    z = at * floor
    focus = math.inf if focus_at is None else focus_at * floor
    g = disk_gain_exact(circ, z, focus, QuadratureSpec(order, refinement=0))
    assert math.isfinite(g) and 0.0 <= g <= 1.0 + 1e-6
    assert abs(g - _full_circle_gain(circ, z, focus, 2 * order)) <= 1e-14


def test_disk_profile_evaluates_each_ring_once():
    """A 60-point default-order disk profile evaluates the field once per
    (distance, radius), not once per node of the angular orbits, so it
    traces under 0.9 MB (about 0.6 MB; 1.4 MB with a field on every node)."""
    circ = CircArray(12.5 * LAM, LAM)
    grid = np.geomspace(30 * LAM, 300 * LAM, 60)
    gain_profile("exact", circ, grid, 50 * LAM)
    tracemalloc.start()
    try:
        gain_profile("exact", circ, grid, 50 * LAM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9 * 2 ** 20


def _per_point(circ, grid, focus, quad):
    """disk_gain_exact at each distance on its own: the gain, or the message of
    the error it raises."""
    outcomes = []
    for z in grid:
        try:
            outcomes.append(disk_gain_exact(circ, z, focus, quad))
        except (ValueError, RuntimeError) as exc:
            outcomes.append(str(exc))
    return outcomes


def _assert_profile_matches_per_point(circ, grid, focus, quad):
    """gain_profile over ``grid`` (disk_gain_exact over the whole grid) gives
    each point's own disk_gain_exact gain within 1e-14, or fails at exactly the
    points that fail alone, each with its own message; returns the per-point
    outcomes."""
    ref = _per_point(circ, grid, focus, quad)
    failed = [i for i, out in enumerate(ref) if isinstance(out, str)]
    if failed:
        with pytest.raises(SweepEvalError) as info:
            gain_profile("exact", circ, grid, focus, quad=quad)
        assert info.value.indices == failed
        assert [str(exc) for _, exc in info.value.failures] == [ref[i] for i in failed]
    else:
        gains = gain_profile("exact", circ, grid, focus, quad=quad).gains
        assert np.max(np.abs(gains - ref)) <= 1e-14
        npt.assert_array_equal(disk_gain_exact(circ, grid, focus, quad), gains)
    return ref


@pytest.mark.parametrize("radius", [5.0, 12.5, 30.0])
def test_disk_profile_matches_per_point_gains(radius):
    """An exact disk profile is one batched quadrature per order; it gives each
    point the gain, order and failure that disk_gain_exact gives it alone, at
    F = 2.5 R, 10 R and infinity, QuadratureSpec orders 2..9 and refinement
    0, 1 and 2."""
    circ = CircArray(radius * LAM, LAM)
    grid = np.geomspace(1.01, 100.0, 9) * radiative_floor(circ)
    for focus in (2.5 * circ.radius, 10.0 * circ.radius, math.inf):
        for order in range(2, 10):
            for refinement in (0, 1, 2):
                _assert_profile_matches_per_point(circ, grid, focus,
                                                  QuadratureSpec(order, refinement))


def test_disk_profile_keeps_each_points_order():
    """With R = 100 lambda, F = 10 x floor and QuadratureSpec(4, 1), the
    profile's point at 1.01 x floor first agrees at orders 8 and 16, those at
    3 and 5 x floor at orders 4 and 8.  Each gets the gain of its own order,
    the one it has alone, and the first point's order-8 gain lies 1.1e-7
    apart from the order-16 gain it takes."""
    circ = CircArray(100 * LAM, LAM)
    floor = radiative_floor(circ)
    grid = np.array([1.01, 3.0, 5.0]) * floor
    focus = 10 * floor
    gains = _assert_profile_matches_per_point(circ, grid, focus, QuadratureSpec(4, 1))
    at = {o: _per_point(circ, grid, focus, QuadratureSpec(o // 2, 0)) for o in (8, 16)}
    npt.assert_array_equal(gains, [at[16][0], at[8][1], at[8][2]])
    assert abs(at[16][0] - at[8][0]) > 1e-11


def test_disk_profile_reports_each_failing_point():
    """A point below the radiative floor, and points whose orders never agree
    (on a 100 lambda disk, where the radial rule is what refines), fail
    gain_profile at exactly their indices, each with the message it has alone
    (its own gap, not the largest); the other points do not fail."""
    circ = CircArray(30 * LAM, LAM)
    floor = radiative_floor(circ)
    with pytest.raises(SweepEvalError) as info:
        gain_profile("exact", circ, np.array([0.5, 2.0, 10.0]) * floor, 2 * floor)
    assert [(i, str(exc)) for i, exc in info.value.failures] == [
        (0, "transmitter at 3.59751 m is inside the reactive near-field boundary "
            "7.19502 m (1.2 x aperture length)")]
    wide = CircArray(100 * LAM, LAM)
    floor = radiative_floor(wide)
    with pytest.raises(SweepEvalError) as info:
        gain_profile("exact", wide, np.array([1.01, 2.0, 10.0]) * floor, 10 * floor,
                     quad=QuadratureSpec(2, 1))
    assert [(i, str(exc)) for i, exc in info.value.failures] == [
        (0, "aperture quadrature did not converge: orders 4 and 8 differ by 6.214e-03"),
        (1, "aperture quadrature did not converge: orders 4 and 8 differ by 1.680e-05")]
    assert 0.0 < disk_gain_exact(wide, 10 * floor, 10 * floor, QuadratureSpec(2, 1)) < 1.0


def test_disk_profile_memory_is_bounded_per_block():
    """A disk profile is integrated in blocks of at most _RING_NODES
    (distance, radius) nodes per order: 4000 points at QuadratureSpec(16, 1)
    (42 points per order-32 block) peak below four complex grids of
    _BLOCK_NODES nodes (16.8 MB), and what 4000 more points add to the peak
    is their own bookkeeping, not blocks.  Measured for _RING_NODES = 2^8 to
    2^15: 211-316 bytes per added point; 23 kB with every point in one
    block.  The bound is 400 bytes.  An untraced profile runs first: the
    first in a process imports the scipy modules the quadrature rules load
    lazily, which traces about 2 MB."""
    small = CircArray(12.5 * LAM, LAM)
    floor = radiative_floor(small)

    def profile(points):
        gain_profile("exact", small, np.geomspace(1.01, 200.0, points) * floor,
                     4 * floor, quad=QuadratureSpec(16, 1))

    def peak(points):
        tracemalloc.start()
        try:
            profile(points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    profile(50)
    many, double = peak(4000), peak(8000)
    assert many <= 4 * 16 * _BLOCK_NODES
    assert double - many <= 4000 * 400


def test_projected_equals_exact_at_broadside():
    arr = square_array()
    tx = TxGeometry(1000 * D_F)
    g1 = projected_gain_approx(arr, tx, 400 * D_F, FAST_QUAD)
    g2 = exact_array_gain(arr, tx, 400 * D_F, FAST_QUAD)
    npt.assert_allclose(g1, g2, rtol=1e-12)


def test_projected_tracks_steered_gain():
    arr = square_array()
    tx = TxGeometry(1000 * D_F, azimuth=np.pi / 4)
    g_proj = projected_gain_approx(arr, tx, 400 * D_F, FAST_QUAD)
    g_exact = exact_array_gain_steered(arr, tx, 400 * D_F, FAST_QUAD)
    assert abs(g_proj - g_exact) < 0.1


def test_gain_profile_analytic_peak_at_focus():
    arr = square_array()
    rng = np.random.default_rng(3)
    for _ in range(10):
        focus = rng.uniform(300, 4000) * D_F
        grid = np.sort(rng.uniform(100, 10000, 41)) * D_F
        grid = np.unique(np.append(grid, focus * rng.uniform(0.97, 1.03)))
        prof = gain_profile("analytic", arr, grid, focus)
        peak_idx = int(np.argmax(prof.gains))
        nearest = int(np.argmin(np.abs(prof.distances - focus)))
        assert peak_idx == nearest


def test_gain_profile_perfect_track_is_unity():
    arr = square_array()
    for z in (100 * D_F, 700 * D_F, 5000 * D_F):
        assert rect_gain_broadside(arr, z, z) == 1.0


def test_gain_profile_exact_kind_and_rerun():
    arr = square_array()
    grid = np.geomspace(400 * D_F, 3000 * D_F, 6)
    first = gain_profile("exact", arr, grid, 1000 * D_F, quad=FAST_QUAD)
    again = gain_profile("exact", arr, grid, 1000 * D_F, quad=FAST_QUAD)
    npt.assert_allclose(first.gains, again.gains, rtol=0, atol=0)
    assert first.kind == "exact"


def test_gain_profile_error_aggregation():
    arr = square_array()
    grid = [10 * LAM, 20 * LAM, 1000 * D_F]
    with pytest.raises(SweepEvalError) as info:
        gain_profile("exact", arr, grid, 1000 * D_F, quad=FAST_QUAD)
    assert info.value.indices == [0, 1]


@pytest.mark.parametrize("threads", [1, 3])
def test_run_sweep_order_and_failures(threads):
    assert run_sweep(lambda x: x * x, range(7), threads) == [0, 1, 4, 9, 16, 25, 36]

    def flaky(x):
        if x % 3 == 0:
            raise ValueError(f"bad point {x}")
        if x == 4:
            raise RuntimeError("no convergence")
        return x

    with pytest.raises(SweepEvalError) as info:
        run_sweep(flaky, range(8), threads)
    assert info.value.indices == [0, 3, 4, 6]
    assert "bad point 0" in str(info.value)


def test_gain_profile_kind_validation():
    arr = square_array()
    circ = CircArray(12.5 * LAM, LAM)
    with pytest.raises(ValueError):
        gain_profile("bogus", arr, [1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        gain_profile("steered", circ, [10.0, 20.0], 1.0)
    with pytest.raises(ValueError):
        gain_profile("exact", circ, [10.0, 20.0], 1.0, azimuth=0.3)
    with pytest.raises(TypeError):
        gain_profile("exact", "not geometry", [1.0], 1.0)


def test_gain_profile_type_invariants():
    with pytest.raises(ValueError):
        GainProfile(1.0, np.array([2.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        GainProfile(1.0, np.array([1.0, 2.0]), np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        GainProfile(1.0, np.array([1.0, 2.0]), np.array([-0.1, 0.5]))
    prof = GainProfile(1.0, np.array([1.0, 2.0]), np.array([1.0, 0.5]))
    assert prof.gains[0] == 1.0


def _scalar_analytic(geometry, dist, focus, azimuth=0.0, elevation=0.0):
    """One closed-form point the way an analytic profile evaluated it point by
    point: the transmitter is built first, then the scalar closed form."""
    if isinstance(geometry, CircArray):
        return circ_gain_broadside(geometry, dist, focus)
    tx = TxGeometry(dist, azimuth=azimuth, elevation=elevation)
    if azimuth == 0.0 and elevation == 0.0:
        return rect_gain_broadside(geometry, dist, focus)
    return rect_gain_slanted(geometry, tx, focus)


def _eta_array(eta):
    return make_rect_array(100, eta, FixedElementDiagonal(LAM / 4), LAM)


ANALYTIC_CASES = {
    "broadside": (_eta_array(4.0), 1000 * D_F, 0.0, 0.0),
    "broadside-far-field": (_eta_array(4.0), math.inf, 0.0, 0.0),
    "broadside-eta-1e7": (_eta_array(1e7), 700 * D_F, 0.0, 0.0),
    "broadside-eta-1e-7": (_eta_array(1e-7), 700 * D_F, 0.0, 0.0),
    "slanted": (_eta_array(1.0), 550 * D_F, 0.3, 0.0),
    "slanted-elevated": (_eta_array(2.5), 900 * D_F, -0.2, 0.1),
    "elevation-only": (_eta_array(1.0), 400 * D_F, 0.0, 0.25),
    "slanted-far-field": (_eta_array(0.5), math.inf, 0.4, 0.05),
    "slanted-eta-1e7": (_eta_array(1e7), 700 * D_F, 0.3, 0.1),
    "slanted-eta-1e-7": (_eta_array(1e-7), 700 * D_F, 0.3, 0.1),
    "circular": (CircArray(12.5 * LAM, LAM), 50 * LAM, 0.0, 0.0),
    "circular-far-field": (CircArray(12.5 * LAM, LAM), math.inf, 0.0, 0.0),
}


@pytest.mark.parametrize("case", list(ANALYTIC_CASES))
def test_analytic_profile_matches_scalar_closed_forms(case):
    """Each point of an analytic profile, evaluated in one array pass, equals
    its scalar closed form bit for bit: from 1e-300 m, where the gains of
    extreme eta underflow to 0, through a point at the focus, out to 1e6 m.
    The 2000 points between 40 and 20000 dF make a different rounding of a
    square (numpy's against libm's pow, apart in about 1 value in 1000) show."""
    geometry, focus, azimuth, elevation = ANALYTIC_CASES[case]
    grid = np.concatenate([np.geomspace(1e-300, 1e6, 61),
                           np.geomspace(40 * D_F, 20000 * D_F, 2000)])
    grid = np.unique(np.append(grid, focus) if math.isfinite(focus) else grid)
    prof = gain_profile("analytic", geometry, grid, focus, azimuth=azimuth,
                        elevation=elevation)
    expected = [_scalar_analytic(geometry, float(d), focus, azimuth, elevation)
                for d in grid]
    assert prof.gains.tolist() == expected
    if "eta-1e" in case:
        assert 0.0 in expected


@pytest.mark.parametrize("case", list(ANALYTIC_CASES))
def test_analytic_profile_matches_the_parameter_space_forms(case):
    """Each profile point equals, bit for bit, the closed form in parameter
    space at its a, (p, q, q_tilde) or l, written out here from their
    definitions: a broadside rectangle, evaluated as the slanted form at
    q = q_tilde = 0, equals ``analytic_gain_rect``'s own two-bracket path."""
    geometry, focus, azimuth, elevation = ANALYTIC_CASES[case]
    grid = np.geomspace(40 * D_F, 20000 * D_F, 500).tolist()
    prof = gain_profile("analytic", geometry, grid, focus, azimuth=azimuth,
                        elevation=elevation)
    expected = []
    for d in grid:
        z = d if math.isinf(focus) else focus * d / abs(focus - d)
        if isinstance(geometry, CircArray):
            expected.append(analytic_gain_circ(
                geometry.radius ** 2 / (2.0 * geometry.wavelength * z)))
            continue
        eta, d_fa = geometry.eta, geometry.d_fa
        if azimuth == elevation == 0.0:
            expected.append(analytic_gain_rect(eta, d_fa / (4.0 * z * (1.0 + eta ** 2))))
            continue
        tx = TxGeometry(d, azimuth, elevation)
        scale = math.sqrt(2.0 * z / geometry.wavelength)
        expected.append(analytic_gain_nonbroadside(
            eta, 0.5 * math.sqrt(d_fa / (z * (1.0 + eta * eta))), tx.x / d * scale,
            tx.y / d * scale))
    assert prof.gains.tolist() == expected


@pytest.mark.parametrize("case", ["broadside", "slanted-elevated", "circular"])
def test_analytic_profile_fails_at_the_scalar_points(case):
    """Points whose distance, or a parameter derived from it, is out of range
    fail at their own indices: a bad distance with the message of reading it
    ("distance ..."), on a rectangle as on a disk, and a parameter out of
    range with the message of its scalar closed form."""
    geometry, focus, azimuth, elevation = ANALYTIC_CASES[case]
    # 1e-310 m is a valid distance whose a, p or l overflows to inf; at
    # 5e-324 m d_eff underflows to 0, and a, p or l divides by zero
    dists = [100 * D_F, -1.0, math.nan, 0.0, math.inf, 1e-310, 5e-324, 500 * D_F,
             1000 * D_F]
    expected = []
    for i, dist in enumerate(dists):
        try:
            _real("distance", dist)
            _scalar_analytic(geometry, dist, focus, azimuth, elevation)
        except ValueError as exc:
            expected.append((i, str(exc)))
    assert [i for i, _ in expected] == [1, 2, 3, 4, 5, 6]
    assert expected[0][1] == "distance must be > 0, got -1.0"
    assert expected[-1][1].endswith(": inf is not a finite number")
    with pytest.raises(SweepEvalError) as info:
        gain_profile("analytic", geometry, dists, focus, azimuth=azimuth,
                     elevation=elevation)
    assert [(i, str(exc)) for i, exc in info.value.failures] == expected


PROFILE_GEOMETRIES = {"rect": make_rect_array(40, 1.5, FixedElementDiagonal(LAM / 2), LAM),
                      "circ": CircArray(12.5 * LAM, LAM)}


PROFILE_KINDS = [*(("rect", kind) for kind in ("exact", "analytic", "steered", "projected")),
                 ("circ", "exact"), ("circ", "analytic")]


@pytest.mark.parametrize("shape, kind", PROFILE_KINDS)
@pytest.mark.parametrize("focus", [math.nan, -5.0])
def test_profile_wide_focus_fails_once(shape, kind, focus):
    """A bad focus is one setting of the whole profile: it raises one
    ValueError naming it, not a SweepEvalError listing every point."""
    geometry = PROFILE_GEOMETRIES[shape]
    floor = radiative_floor(geometry)
    with pytest.raises(ValueError, match="^focal distance"):
        gain_profile(kind, geometry, [2.0 * floor, 4.0 * floor], focus)


@pytest.mark.parametrize("kind", ["analytic", "exact", "steered", "projected"])
@pytest.mark.parametrize("angle", [{"azimuth": 2.0}, {"elevation": -2.0}])
def test_profile_wide_angle_fails_once(kind, angle):
    """An azimuth or elevation out of (-pi/2, pi/2) raises one ValueError
    naming it, before any transmitter is placed."""
    arr = PROFILE_GEOMETRIES["rect"]
    floor = radiative_floor(arr)
    (name, _), = angle.items()
    with pytest.raises(ValueError, match=f"^{name} must lie in"):
        gain_profile(kind, arr, [2.0 * floor, 4.0 * floor], 3.0 * floor, **angle)


@pytest.mark.parametrize("shape, kind", PROFILE_KINDS)
def test_profile_reads_each_distance_at_its_index(shape, kind):
    """Distances that are not positive finite numbers fail a profile of every
    kind at exactly their indices, each with the one message of reading a
    distance: no TypeError escapes, and "5" is not taken as 5.  Below the
    radiative floor a quadrature point keeps its floor message, while a
    closed form takes it."""
    geometry = PROFILE_GEOMETRIES[shape]
    floor = radiative_floor(geometry)
    grid = [2.0 * floor, None, "5", [1.0], True, math.nan, 0.5 * floor, 4.0 * floor]
    failures = _failures(lambda: gain_profile(kind, geometry, grid, 3.0 * floor,
                                              quad=FAST_QUAD))
    assert failures[:5] == [(i, f"distance: {grid[i]!r} is not a finite number")
                            for i in range(1, 6)]
    if kind == "analytic":
        assert len(failures) == 5
    else:
        (i, message), = failures[5:]
        assert i == 6 and message.startswith(
            f"transmitter at {0.5 * floor:.6g} m is inside the reactive near-field")


@pytest.mark.parametrize("shape, kind", PROFILE_KINDS)
@pytest.mark.parametrize("grid", [[3.0, 2.0], [2.0, 2.0], [2.0, 4.0, 3.0]])
def test_unsorted_grid_fails_before_any_point_is_evaluated(shape, kind, grid,
                                                           monkeypatch):
    """A grid that does not strictly increase raises GainProfile's ValueError
    before any closed form or quadrature runs."""
    evaluated = []
    for name in ("_analytic_gains", "_aperture_gains"):
        monkeypatch.setattr(gain_engine, name,
                            lambda *args, name=name: evaluated.append(name))
    geometry = PROFILE_GEOMETRIES[shape]
    floor = radiative_floor(geometry)
    with pytest.raises(ValueError, match="^distances must be strictly increasing$"):
        gain_profile(kind, geometry, [d * floor for d in grid], 3.0 * floor)
    assert evaluated == []


@pytest.mark.parametrize("kind, grid, elevation, message", [
    ("projected", [2.0, 4.0], 0.3, "elevation: projected gains take an azimuth only"),
    ("analytic", 5.0, 0.0, "distances must be a non-empty sequence"),
    ("exact", [], 0.0, "distances must be a non-empty sequence"),
    ("exact", iter([2.0, 4.0]), 0.0, "distances must be a non-empty sequence"),
])
def test_profile_wide_refusals_read_no_distance(kind, grid, elevation, message,
                                               monkeypatch):
    """A projected profile's nonzero elevation, and a grid that is a number,
    an iterator or empty, raise one ValueError before any distance is read."""
    read = []

    def spy(name, *args, **kw):
        read.append(name)
        return _real(name, *args, **kw)

    monkeypatch.setattr(gain_engine, "_real", spy)
    arr = PROFILE_GEOMETRIES["rect"]
    floor = radiative_floor(arr)
    if isinstance(grid, list):
        grid = [d * floor for d in grid]
    with pytest.raises(ValueError, match=f"^{message}"):
        gain_profile(kind, arr, grid, 3.0 * floor, azimuth=0.2, elevation=elevation)
    assert "distance" not in read


def test_slanted_gain_next_to_its_focus():
    """Within a few ulps of the focus, d_eff is finite but huge and the
    Fresnel form of the slanted gain cancels to nothing (it read 0.0 at
    z = F(1 + 2^-52)).  For z = F(1 +- k 2^-52), k from 1 to 2^32, the gain
    now departs from its d_eff = inf limit by at most C |z/F - 1| with
    C = 0.1: measured 0.055, at k = 1, where the rounding of x v is
    amplified by the slope of sinc^2."""
    arr = _eta_array(1.0)
    focus = 550 * D_F
    limit = rect_gain_slanted(arr, TxGeometry(focus, azimuth=0.3), focus)
    assert limit == pytest.approx(0.0015556377388948868, rel=1e-15)
    for k in sorted({round(2.0 ** (j / 4)) for j in range(129)}):
        for sign in (1.0, -1.0):
            z = focus * (1.0 + sign * k * 2.0 ** -52)
            gain = rect_gain_slanted(arr, TxGeometry(z, azimuth=0.3), focus)
            assert abs(gain - limit) <= 0.1 * abs(z / focus - 1.0)


RECT_KINDS = {"exact": exact_array_gain, "steered": exact_array_gain_steered,
              "projected": projected_gain_approx}


def _alone(kind, arr, dists, focus, quad, azimuth=0.0, elevation=0.0):
    """The single-point gain of ``kind`` at each distance, or the message of
    the error it raises, placing the transmitter included."""
    outcomes = []
    for dist in dists:
        try:
            outcomes.append(RECT_KINDS[kind](
                arr, TxGeometry(dist, azimuth, elevation), focus, quad))
        except (ValueError, RuntimeError) as exc:
            outcomes.append(str(exc))
    return outcomes


def _failures(call):
    with pytest.raises(SweepEvalError) as info:
        call()
    return [(i, str(exc)) for i, exc in info.value.failures]


@pytest.mark.parametrize("kind, azimuth, elevation", [
    ("exact", 0.0, 0.0), ("exact", 0.0, 0.25), ("exact", 0.3, -0.2),
    ("steered", 0.3, -0.2), ("steered", -0.4, 0.0), ("projected", 0.35, 0.0)])
def test_rect_profile_matches_single_point_gains(kind, azimuth, elevation):
    """A rectangular profile is one batched quadrature per order over points
    whose panel grids differ, some shared by several points: each point's gain
    equals its single-point call (==), folded on both axes, on one or on none,
    at a finite and an infinite focus, with and without refinement.  The
    sequence call returns the same array."""
    arr = make_rect_array(40, 1.5, FixedElementDiagonal(LAM / 2), LAM)
    floor = radiative_floor(arr)
    grid = np.geomspace(1.01, 30.0, 12) * floor
    txs = [TxGeometry(d, azimuth, elevation) for d in grid]
    for focus in (2.5 * floor, math.inf):
        for quad in (QuadratureSpec(8, 0), QuadratureSpec(4, 1), QuadratureSpec(3, 2)):
            ref = _alone(kind, arr, grid, focus, quad, azimuth, elevation)
            prof = gain_profile(kind, arr, grid, focus, azimuth=azimuth,
                                elevation=elevation, quad=quad)
            npt.assert_array_equal(prof.gains, ref)
            npt.assert_array_equal(RECT_KINDS[kind](arr, txs, focus, quad), ref)
    if kind != "projected":
        edges = _panel_edges(arr, np.array([_placement(tx) for tx in txs]),
                             (_steered if kind == "steered" else _broadside)(LAM, 2.5 * floor))
        grids = [tuple(len(b) for b in e) for e in edges]
        assert 1 < len(set(grids)) < len(grids)


@pytest.mark.parametrize("kind", list(RECT_KINDS))
def test_rect_profile_reports_each_failing_point(kind):
    """A point below the radiative floor and a NaN distance fail a profile at
    exactly their indices: the first with the message its single-point call
    gives, the second with the profile's own reading of a distance; the other
    points keep their single-point gains.  A sequence call names the failing
    transmitter's index in the sequence."""
    arr = make_rect_array(40, 1.5, FixedElementDiagonal(LAM / 2), LAM)
    floor = radiative_floor(arr)
    grid = [0.5 * floor, 1.5 * floor, math.nan, 4.0 * floor, 9.0 * floor]
    focus, quad = 2.5 * floor, QuadratureSpec(8, 1)
    ref = _alone(kind, arr, grid, focus, quad, azimuth=0.2)
    assert [i for i, out in enumerate(ref) if isinstance(out, str)] == [0, 2]
    assert _failures(lambda: gain_profile(kind, arr, grid, focus, azimuth=0.2,
                                          quad=quad)) == [
        (0, ref[0]), (2, "distance: nan is not a finite number")]
    good = [1, 3, 4]
    npt.assert_array_equal(gain_profile(kind, arr, [grid[i] for i in good], focus,
                                        azimuth=0.2, quad=quad).gains,
                           [ref[i] for i in good])
    txs = [TxGeometry(grid[i], azimuth=0.2) for i in (1, 0, 3)]
    assert _failures(lambda: RECT_KINDS[kind](arr, txs, focus, quad)) == [(1, ref[0])]


def test_rect_profile_keeps_each_points_order():
    """With 32-wavelength elements, 2 a side, on-axis points at 1.01 and 8.5 x
    the floor first agree at orders 16 and 32, those at 1.55 and 2.37 x at
    orders 8 and 16.  Under QuadratureSpec(4, 3) each keeps the gain of its own
    order, the one it has alone; under QuadratureSpec(4, 1) the first two fail,
    each with its own gap, and the others do not."""
    arr = make_rect_array(2, 1.0, FixedElementDiagonal(32 * LAM), LAM)
    floor = radiative_floor(arr)
    grid = np.array([1.01, 1.547, 2.37, 8.522]) * floor
    focus = 2 * floor
    at = {o: _alone("exact", arr, grid, focus, QuadratureSpec(o // 2, 0)) for o in (16, 32)}
    gains = gain_profile("exact", arr, grid, focus, quad=QuadratureSpec(4, 3)).gains
    npt.assert_array_equal(gains, [at[32][0], at[16][1], at[16][2], at[32][3]])
    npt.assert_array_equal(gains, _alone("exact", arr, grid, focus, QuadratureSpec(4, 3)))
    assert all(a != b for a, b in zip(at[16], at[32]))
    ref = _alone("exact", arr, grid, focus, QuadratureSpec(4, 1))
    assert _failures(lambda: gain_profile("exact", arr, grid, focus,
                                          quad=QuadratureSpec(4, 1))) == [
        (0, ref[0]), (3, ref[3])]
    assert ref[0] != ref[3] and "did not converge" in ref[0]
    npt.assert_array_equal(ref[1:3], at[16][1:3])


def test_rect_profile_memory_is_bounded_per_block():
    """A rectangular profile is integrated in blocks of at most _BLOCK_NODES
    nodes per order, counted over its points: 1024 on-axis points of an
    n = 200 array (2304 nodes each after the fold, 113 a block) peak below
    four complex grids of _BLOCK_NODES nodes (16.8 MB), and within 1 MB of the
    profile of their first 512."""
    def peak(grid):
        tracemalloc.start()
        try:
            gain_profile("exact", arr, grid, 4 * floor, quad=FAST_QUAD)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    arr = make_rect_array(200, 1.0, FixedElementDiagonal(LAM / 2), LAM)
    floor = radiative_floor(arr)
    grid = np.geomspace(20.0, 200.0, 1024) * floor
    many = peak(grid)
    assert many <= 4 * 16 * _BLOCK_NODES
    assert many <= peak(grid[:512]) + 2 ** 20
