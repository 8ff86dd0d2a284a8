import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad
from scipy.special import roots_legendre

from fields import quadratic_focus, spherical_wave
from nearfield_bd import field_model
from nearfield_bd.array_geometry import (
    CircArray,
    FixedElementDiagonal,
    TxGeometry,
    element_grid,
    make_rect_array,
    wavelength_from_carrier,
)
from nearfield_bd.field_model import (
    _PANEL_PHASE,
    _TAYLOR,
    QuadratureSpec,
    SQRT_4PI,
    _broadside_focus,
    _disk_blocks,
    _distance,
    _gauss_legendre,
    _panel_edges,
    _refined,
    _spherical_wave,
    fresnel_field_nonbroadside,
    mean_abs_distance_errors,
)
from nearfield_bd.gain_engine import exact_array_gain, gain_profile

LAM = wavelength_from_carrier(3e9)


def reference_array():
    return make_rect_array(100, 1.0, FixedElementDiagonal(LAM / 4), LAM)


def d_b(arr):
    return arr.d_b


def test_exact_field_on_axis():
    z = 7.3
    tx = TxGeometry(z)
    e = _spherical_wave(tx.position, 0.0, 0.0, LAM)[1]
    npt.assert_allclose(abs(e), 1.0 / (z * SQRT_4PI), rtol=1e-13)
    expected = np.exp(-2j * np.pi * z / LAM) / (z * SQRT_4PI)
    npt.assert_allclose(e, expected, rtol=1e-12)


def test_exact_field_phase_is_true_distance():
    tx = TxGeometry(3.0, azimuth=0.4, elevation=-0.2)
    for (x, y) in [(0.1, -0.3), (0.0, 0.0), (-0.7, 0.2)]:
        rho = math.sqrt((x - tx.x) ** 2 + (y - tx.y) ** 2 + tx.z ** 2)
        e = _spherical_wave(tx.position, x, y, LAM)[1]
        npt.assert_allclose(np.angle(e * np.exp(2j * np.pi * rho / LAM)), 0.0,
                            atol=1e-9)


def test_exact_field_y_symmetry():
    tx = TxGeometry(2.0, azimuth=0.3)
    a = np.abs(_spherical_wave(tx.position, 0.17, 0.25, LAM)[1])
    b = np.abs(_spherical_wave(tx.position, 0.17, -0.25, LAM)[1])
    npt.assert_allclose(a, b, rtol=1e-14)


def test_amplitude_flattens_with_distance():
    """Corner-vs-center amplitude dip is ~6% at z = d_B and under 1% by 4 d_B."""
    arr = reference_array()
    zb = d_b(arr)
    xc, yc = arr.aperture_w / 2, arr.aperture_h / 2

    def dip(z):
        corner, centre = _spherical_wave(TxGeometry(z).position, np.array([xc, 0.0]),
                                         np.array([yc, 0.0]), LAM)[0]
        return 1.0 - corner / centre

    assert 0.05 < dip(zb) < 0.07
    assert dip(4 * zb) < 0.01


def test_fresnel_consistency_beyond_4db():
    """Pointwise |exact - Fresnel|/|exact| stays under 5e-3 from 4 d_B out."""
    arr = reference_array()
    zb = d_b(arr)
    xs = np.linspace(-arr.aperture_w / 2, arr.aperture_w / 2, 41)
    ys = np.linspace(-arr.aperture_h / 2, arr.aperture_h / 2, 41)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    for mult, bound in [(1.0, 0.17), (4.0, 5e-3), (8.0, 5e-3)]:
        z = mult * zb
        ee = _spherical_wave(TxGeometry(z).position, X, Y, LAM)[1]
        ff = fresnel_field_nonbroadside(TxGeometry(z), X, Y, LAM)
        rel = np.abs(ee - ff) / np.abs(ee)
        assert rel.max() < bound
        if mult >= 4.0:
            ratio = np.abs(ee) / np.abs(ff)
            assert ratio.min() > 0.99 and ratio.max() < 1.01


def test_exact_field_singularity():
    # z underflows to zero at this range, putting the source in the plane
    with pytest.raises(ValueError):
        _spherical_wave(TxGeometry(1e-300).position, 0.0, 0.0, LAM)


def test_spherical_wave_matches_the_literal_formulas():
    """On a grid, for a stack of slanted transmitters broadcast against it,
    the kernel's amplitude and field match the spherical wave written out
    from its definition, and its focused field that wave times the
    matched-filter factor, within 1e-12 relative: the kernel adds the
    focusing phase inside its one exponential, a rounding of eps k r."""
    xs = np.linspace(-0.6, 0.6, 13)[:, None]
    ys = np.linspace(-0.4, 0.4, 9)
    txs = [TxGeometry(1.3, azimuth=0.4, elevation=-0.2), TxGeometry(4.0),
           TxGeometry(0.9, azimuth=-1.1)]
    stack = [np.array(c)[:, None, None] for c in zip(*(tx.position for tx in txs))]
    focus = 2.5
    amp, field = _spherical_wave(stack, xs, ys, LAM)
    _, focused = _spherical_wave(stack, xs, ys, LAM, _broadside_focus(LAM, focus))
    for i, tx in enumerate(txs):
        wave = spherical_wave(tx, xs, ys, LAM)
        npt.assert_allclose(amp[i], np.abs(wave), rtol=1e-13)
        npt.assert_allclose(field[i], wave, rtol=1e-12)
        npt.assert_allclose(focused[i], wave * quadratic_focus(focus, xs, ys, LAM),
                            rtol=1e-12)


def test_fresnel_broadside_on_axis_matches_exact():
    z = 4.2
    e_fres = fresnel_field_nonbroadside(TxGeometry(z), 0.0, 0.0, LAM)
    e_exact = _spherical_wave(TxGeometry(z).position, 0.0, 0.0, LAM)[1]
    npt.assert_allclose(e_fres, e_exact, rtol=1e-12)


def test_fresnel_broadside_flat_amplitude():
    z = 3.0
    xs = np.linspace(-0.5, 0.5, 11)
    vals = fresnel_field_nonbroadside(TxGeometry(z), xs, xs * 0.3, LAM)
    npt.assert_allclose(np.abs(vals), 1.0 / (SQRT_4PI * z), rtol=1e-14)


def test_fresnel_broadside_half_wave_point():
    z = 5.0
    x = math.sqrt(LAM * z)
    quad_phase = 2 * np.pi / LAM * (x * x) / (2 * z)
    npt.assert_allclose(quad_phase, np.pi, rtol=1e-12)
    val = fresnel_field_nonbroadside(TxGeometry(z), x, 0.0, LAM)
    on_axis = fresnel_field_nonbroadside(TxGeometry(z), 0.0, 0.0, LAM)
    npt.assert_allclose(val, -on_axis, rtol=1e-10)


def test_fresnel_phase_error_bound():
    """Phase error below (2 pi/lambda)*3.5e-3*rho while (x^2+y^2)/z^2 <= 0.1745."""
    z = 10.0
    for frac in [0.02, 0.1, 0.1745]:
        rad = math.sqrt(frac) * z
        x, y = rad / math.sqrt(2), rad / math.sqrt(2)
        rho = math.sqrt(x * x + y * y + z * z)
        exact_phase = -2 * np.pi / LAM * rho
        fres_phase = -2 * np.pi / LAM * (z + (x * x + y * y) / (2 * z))
        assert abs(exact_phase - fres_phase) < 2 * np.pi / LAM * 3.5e-3 * rho


def test_nonbroadside_reduces_to_broadside():
    """At broadside the slanted approximation is the quadratic-phase field:
    amplitude 1/(sqrt(4 pi) z), phase -(2 pi/lambda)(z + (x^2 + y^2)/(2z))."""
    z = 6.0
    xs = np.linspace(-1.0, 1.0, 7)[:, None]
    ys = np.linspace(-0.8, 0.8, 7)[None, :]
    a = fresnel_field_nonbroadside(TxGeometry(z), xs, ys, LAM)
    b = (np.exp(-2j * np.pi / LAM * (z + (xs * xs + ys * ys) / (2.0 * z)))
         / (math.sqrt(4.0 * math.pi) * z))
    npt.assert_allclose(a, b, rtol=0, atol=1e-15 * np.max(np.abs(b)))


def test_nonbroadside_center_phase():
    tx = TxGeometry(8.0, azimuth=0.7)
    val = fresnel_field_nonbroadside(tx, 0.0, 0.0, LAM)
    npt.assert_allclose(np.angle(val * np.exp(2j * np.pi * tx.dist / LAM)), 0.0,
                        atol=1e-9)


def test_nonbroadside_linear_phase_slope():
    """The approximated distance falls along x at rate sin(phi) cos(theta),
    so the carrier phase grows at +(2 pi/lambda) sin(phi) cos(theta)."""
    tx = TxGeometry(9.0, azimuth=0.5, elevation=0.2)
    h = 1e-7
    pa = np.angle(fresnel_field_nonbroadside(tx, +h, 0.0, LAM))
    pb = np.angle(fresnel_field_nonbroadside(tx, -h, 0.0, LAM))
    base = np.angle(fresnel_field_nonbroadside(tx, 0.0, 0.0, LAM))
    slope = (np.unwrap([base, pa])[1] - np.unwrap([base, pb])[1]) / (2 * h)
    expected = 2 * np.pi / LAM * math.sin(0.5) * math.cos(0.2)
    npt.assert_allclose(slope, expected, rtol=1e-5)


def test_broadside_focus_cancels_quadratic_phase():
    z = 4.0
    xs = np.linspace(-0.6, 0.6, 13)
    prod = (fresnel_field_nonbroadside(TxGeometry(z), xs, 0.2, LAM)
            * np.exp(1j * _broadside_focus(LAM, z)(xs, 0.2)))
    # quadratic terms cancel entirely; only the range phase -2 pi z/lambda stays
    npt.assert_allclose(np.angle(prod * np.exp(2j * np.pi * z / LAM)), 0.0, atol=1e-9)


def test_whole_aperture_integral_geometric_decay():
    """One huge element spanning the aperture, a slanted transmitter at 40
    wavelengths and a focus at 60: the exact gain's low orders visibly
    converge.  Errors against order 32, measured at orders 2..6: 4.1e-1,
    3.7e-2, 2.5e-3, 3.8e-5 and 6.7e-7, each more than 8 times the next (with
    F = inf the low orders are not monotone, so the focus stays finite)."""
    big = make_rect_array(1, 1.0, FixedElementDiagonal(25 * LAM), LAM)
    tx = TxGeometry(40 * LAM, azimuth=0.2)

    def gain(order, refinement=0):
        return exact_array_gain(big, tx, 60 * LAM, QuadratureSpec(order, refinement))

    ref = gain(32)
    errs = [abs(gain(order) - ref) for order in range(2, 7)]
    assert all(e > 8 * finer for e, finer in zip(errs, errs[1:]))
    assert abs(gain(8) - ref) < 1e-7 * ref
    # doubling rescues a too-coarse base rule: measured 4.6e-17 off
    assert abs(gain(2, refinement=4) - ref) < 1e-12 * ref


def _recording(scale):
    """evaluate(order, pending) of scale / order^2, NaN outside ``pending``,
    and the list of (order, pending) it was called with."""
    calls = []

    def evaluate(order, pending):
        calls.append((order, pending.copy()))
        return np.where(pending, scale / order ** 2, np.nan)
    return evaluate, calls


def test_refined_keeps_each_entry_first_agreement():
    """Scales 0, 1 and 1e3 at orders 2..32 against atol 5e-3: the first entry
    agrees at order 4, the second at 32 (3/1024 from 16), the third never, so
    it keeps its order-2 value and reports its last gap, 1e3 * 3/1024.  Each
    doubling after an agreement asks only for the entries still pending."""
    evaluate, calls = _recording(np.array([0.0, 1.0, 1e3]))
    result, gap = _refined(evaluate, (3,), QuadratureSpec(2, 3), 5e-3)
    npt.assert_array_equal(result, [0.0, 1.0 / 1024, 250.0])
    npt.assert_array_equal(gap, [0.0, 0.0, 1e3 * 3 / 1024])
    assert [order for order, _ in calls] == [2, 4, 8, 16, 32]
    for _, pending in calls[:2]:
        npt.assert_array_equal(pending, [True, True, True])
    for _, pending in calls[2:]:
        npt.assert_array_equal(pending, [False, True, True])


def test_refined_without_refinement_evaluates_once_at_twice_the_order():
    evaluate, calls = _recording(np.array([1.0, 1e3]))
    result, gap = _refined(evaluate, (2,), QuadratureSpec(4, 0), 0.0)
    npt.assert_array_equal(result, [1.0 / 64, 1e3 / 64])
    npt.assert_array_equal(gap, [0.0, 0.0])
    assert [order for order, _ in calls] == [8]


@pytest.mark.parametrize("n, diag, tx_at, focus_at, panels", [
    (40, 0.5, (1.5, 0.0, 0.0), 3.0, "coarser"),
    (40, 0.5, (2.0, 0.5, 0.3), math.inf, "coarser"),
    (40, 1.0, (1.3, -0.9, 0.2), 1.4, "any"),
    (6, 8.0, (1.3, 0.0, 0.0), math.inf, "elements"),
    (41, 0.5, (1.5, 0.0, 0.0), 3.0, "coarser"),
    (40, 0.5, (2.0, 0.0, 0.3), math.inf, "coarser"),
])
def test_panels_bound_the_residual_phase(n, diag, tx_at, focus_at, panels):
    """Across every panel of several elements, the residual phase (broadside
    focusing phase minus k r) turns by at most _PANEL_PHASE along either side,
    sampled 8 times per element; large elements get one panel each.  Along an
    axis the transmitter lies on (tx.x == 0 for the width, tx.y == 0 for the
    height) the panels are mirror-symmetric about the centre n/2, equal but
    for the two end ones; along any other they hold whole elements from 0.
    Transmitter range and focus in aperture lengths."""
    arr = make_rect_array(n, 1.5, FixedElementDiagonal(diag * LAM), LAM)
    dist, azimuth, elevation = tx_at
    tx = TxGeometry(dist * arr.aperture_len, azimuth=azimuth, elevation=elevation)
    focus = focus_at * arr.aperture_len
    phase = _broadside_focus(LAM, focus)
    edges, = _panel_edges(arr, np.array([tx.position]), lambda _: (phase, [focus]))
    steps = np.arange(8 * n + 1) / 8.0 - 0.5 * n
    x, y = steps[:, None] * arr.elem_w, steps * arr.elem_h
    residual = -2.0 * np.pi / LAM * np.sqrt((x - tx.x) ** 2 + (y - tx.y) ** 2 + tx.z ** 2)
    if phase is not None:
        residual = residual + phase(x, y)
    for axis, (b, on_axis) in enumerate(zip(edges, (tx.x == 0.0, tx.y == 0.0))):
        assert b[0] == 0 and b[-1] == n
        if on_axis:
            widths = np.diff(b)
            npt.assert_array_equal(b, n - b[::-1])
            assert 0.5 * n in b and np.all(widths > 0)
            assert np.all(widths[1:-1] == widths[len(widths) // 2])  # inner ones equal
            assert np.all(widths <= widths[len(widths) // 2])
        else:
            assert np.all(np.diff(b) >= 1)
            assert np.all(np.diff(b)[:-1] == b[1] - b[0])  # only the last may be shorter
        for lo, hi in zip(b[:-1], b[1:]):
            if hi - lo > 1:  # a single element is today's rule, whatever it spans
                part = np.take(residual, np.arange(round(8 * lo), round(8 * hi) + 1),
                               axis=axis)
                assert np.ptp(part, axis=axis).max() <= _PANEL_PHASE
        if panels == "coarser":
            assert len(b) - 1 < n
        if panels == "elements":
            assert len(b) - 1 == n


def test_disk_angular_factors_match_quadrature_over_the_circle():
    """A disk ring's amplitude and field are _spherical_wave's at (0, rho)
    times the element pattern sqrt(1 + t cos^2 theta), t = (rho/z)^2,
    integrated over the angle: the power factor is pi (2 + t) and the field
    factor scipy's adaptive quad of the pattern over [0, 2 pi], both within a
    few ulp, for t from 0 to 1."""
    circ = CircArray(12.5 * LAM, LAM)
    order = 8
    rho = 0.5 * circ.radius * (_gauss_legendre(6 * order)[0] + 1.0)
    for z in circ.radius * np.array([1.0, 2.0, 5.0, 50.0]):
        (_, _, _, amp, field), = _disk_blocks(circ, np.array([z]), order, None)
        ring_amp, ring_field = _spherical_wave((0.0, 0.0, z), 0.0, rho, LAM)
        t = (rho / z) ** 2
        npt.assert_allclose((amp[0, :, 0] / ring_amp) ** 2, np.pi * (2.0 + t),
                            rtol=4 * np.finfo(float).eps)
        pattern = [quad(lambda a, u=u: math.sqrt(1.0 + u * math.cos(a) ** 2),
                        0.0, 2.0 * np.pi, epsabs=0.0, epsrel=1e-13)[0] for u in t]
        npt.assert_allclose(field[0, :, 0] / ring_field, pattern,
                            rtol=4 * np.finfo(float).eps, atol=0.0)


def test_distance_variants_agree_at_center_broadside():
    odd = make_rect_array(5, 1.0, FixedElementDiagonal(LAM / 4), LAM)
    tx = TxGeometry(3.0)
    xs, ys = element_grid(odd)
    x, y = xs[2], ys[2]
    assert _distance(x, y, tx) == pytest.approx(3.0, abs=1e-15)
    assert _TAYLOR["direct"](x, y, tx) == pytest.approx(3.0, abs=1e-15)
    assert _TAYLOR["indirect"](x, y, tx) == pytest.approx(3.0, abs=1e-15)


def test_distance_exact_closed_form():
    arr = reference_array()
    tx = TxGeometry(2.5, azimuth=0.3)
    xs, ys = element_grid(arr)
    x, y = xs[0], ys[0]
    expected = math.sqrt((x - tx.x) ** 2 + y ** 2 + tx.z ** 2)
    assert _distance(x, y, tx) == pytest.approx(expected, rel=1e-15)


def test_indirect_equals_direct_at_broadside():
    arr = reference_array()
    tx = TxGeometry(5.0)
    xs, ys = element_grid(arr)
    for (n, m) in [(1, 1), (30, 77), (100, 100)]:
        a = _TAYLOR["direct"](xs[n - 1], ys[m - 1], tx)
        b = _TAYLOR["indirect"](xs[n - 1], ys[m - 1], tx)
        npt.assert_allclose(a, b, rtol=1e-14)
    e_dir, e_ind = mean_abs_distance_errors(arr, tx)
    npt.assert_allclose(e_dir, e_ind, rtol=1e-12)


def test_mean_error_single_element():
    one = make_rect_array(1, 1.0, FixedElementDiagonal(0.3), LAM)
    tx = TxGeometry(2.0, azimuth=0.4)
    errors = mean_abs_distance_errors(one, tx)
    for taylor, error in zip(_TAYLOR.values(), errors):
        expected = abs(_distance(0.0, 0.0, tx) - taylor(0.0, 0.0, tx))
        assert error == pytest.approx(expected, rel=1e-12)


def _full_grid_error(arr, tx, variant):
    """The mean over every element, with no mirror fold."""
    xs, ys = element_grid(arr)
    x, y = xs[:, None], ys[None, :]
    return np.mean(np.abs(_distance(x, y, tx) - _TAYLOR[variant](x, y, tx)))


@pytest.mark.parametrize("n", [1, 2, 7, 100, 101])
def test_mean_error_folds_onto_the_mirror_rows(n):
    """A transmitter on the y = 0 plane has mirror-pair rows with equal errors,
    so only the y >= 0 half is summed (weight 2, and 1 on the centre row of
    odd n).  It matches the full-grid mean within 1e-15 relative (measured
    4.1e-16 over n = 1..200, four aspect ratios, azimuths 0 to 1.3).  Off that
    plane the mean is the full-grid one, bit for bit."""
    arr = make_rect_array(n, 1.7, FixedElementDiagonal(LAM / 4), LAM)
    for phi in (0.0, 0.3, 1.1):
        on_plane = TxGeometry(arr.d_b / math.cos(phi), azimuth=phi)
        elevated = TxGeometry(arr.d_b / math.cos(phi), azimuth=phi, elevation=0.2)
        folded = mean_abs_distance_errors(arr, on_plane)
        unfolded = mean_abs_distance_errors(arr, elevated)
        for i, variant in enumerate(("direct", "indirect")):
            full = _full_grid_error(arr, on_plane, variant)
            assert folded[i] == pytest.approx(full, rel=1e-15, abs=0.0)
            assert unfolded[i] == _full_grid_error(arr, elevated, variant)


def test_indirect_beats_direct_at_constant_height():
    """Sweep azimuth with the broadside height pinned at d_B."""
    arr = reference_array()
    zb = d_b(arr)
    for phi in np.linspace(0.0, 3 * np.pi / 8, 13):
        tx = TxGeometry(zb / math.cos(phi), azimuth=phi)
        e_dir, e_ind = mean_abs_distance_errors(arr, tx)
        assert e_ind <= e_dir + 1e-15


def _disk_and_rect_profiles():
    circ = CircArray(12.5 * LAM, LAM)
    disk = gain_profile("exact", circ, np.geomspace(30 * LAM, 300 * LAM, 60), 50 * LAM)
    arr = reference_array()
    rect = gain_profile("exact", arr, np.geomspace(arr.d_b, 8 * arr.d_b, 16),
                        2 * arr.d_b)
    return disk.gains, rect.gains


def test_gauss_legendre_rules_built_once_per_order(monkeypatch):
    """Each quadrature order is solved once per process: a 60-point disk
    profile and 16 rectangular gains build each of their rules once and a
    second pass builds none; the cached rule is scipy's own and read-only,
    and a cold cache gives the same gains as a warm one."""
    calls = []

    def counting(n):
        calls.append(n)
        return roots_legendre(n)

    _gauss_legendre.cache_clear()
    monkeypatch.setattr(field_model, "roots_legendre", counting)
    try:
        first = _disk_and_rect_profiles()
        assert {8, 16, 48, 96} <= set(calls)
        assert len(calls) == len(set(calls)), calls
        built = len(calls)
        warm = _disk_and_rect_profiles()
        assert len(calls) == built, calls
        for n in (8, 16, 48, 96):
            for cached, fresh in zip(_gauss_legendre(n), roots_legendre(n)):
                assert np.array_equal(cached, fresh)
                with pytest.raises(ValueError):
                    cached[0] = 0.0
    finally:
        _gauss_legendre.cache_clear()
    cold = _disk_and_rect_profiles()
    for f, w, c in zip(first, warm, cold):
        assert np.array_equal(f, w) and np.array_equal(w, c)


def test_gauss_legendre_cache_threads_and_bound():
    """The first, concurrent use of the cache by four threads of a library
    user, each computing the same profiles (thread switches forced every
    microsecond), gives the single-threaded gains bit for bit, and the cache
    never holds more rules than its maxsize."""
    serial = _disk_and_rect_profiles()
    _gauss_legendre.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(_disk_and_rect_profiles) for _ in range(4)]
            threaded = [run.result() for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for gains in threaded:
        for s, t in zip(serial, gains):
            assert np.array_equal(s, t)
    bound = _gauss_legendre.cache_info().maxsize
    try:
        for n in range(1, bound + 10):
            _gauss_legendre(n)
            assert _gauss_legendre.cache_info().currsize <= bound
        assert _gauss_legendre.cache_info().currsize == bound
    finally:
        _gauss_legendre.cache_clear()
