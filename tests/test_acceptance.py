"""End-to-end acceptance checks, one per shipped behavior.

Run with `pytest tests/test_acceptance.py -s` to see one printed pass/fail
line per criterion.  Expected values come from closed forms or independent
quadrature oracles; random draws use fixed seeds.
"""

import functools
import math

import numpy as np

from nearfield_bd.array_geometry import (
    CircArray,
    FixedApertureArea,
    FixedApertureLength,
    FixedElementDiagonal,
    TxGeometry,
    make_rect_array,
    project_array,
    wavelength_from_carrier,
)
from nearfield_bd.beam_depth import (
    STATUS_FINITE,
    bd_circ,
    bd_rect,
    circ_lobe_catalog,
    finite_bd_limit_rect,
    numeric_bd,
    solve_a3db,
)
from nearfield_bd.field_model import QuadratureSpec, mean_abs_distance_errors
from nearfield_bd.fresnel_core import fresnel_cs
from nearfield_bd.gain_engine import (
    GainProfile,
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
)
from nearfield_bd.multiplexing import (
    build_channel_matrix,
    mmse_precoder,
    monte_carlo_sum_rate,
    plan_focal_points,
    sum_rate,
)

LAM = wavelength_from_carrier(3e9)
D_F = LAM / 8
MC_SEED = 20240817


def _report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def square_array(eta=1.0, n=100):
    return make_rect_array(n, eta, FixedElementDiagonal(0.25 * LAM), LAM)


def test_01_exact_gain_tracks_closed_form_broadside():
    arr = square_array(eta=4.0)
    focus = 1000 * D_F
    zs = np.geomspace(arr.d_b, 1e4 * D_F, 200)
    prof = gain_profile("exact", arr, zs, focus,
                        quad=QuadratureSpec(order=8, refinement=0))
    closed = np.array([rect_gain_broadside(arr, float(z), focus) for z in zs])
    worst = float(np.max(np.abs(prof.gains - closed)))
    _report(1, worst <= 0.02,
            f"max |exact - closed| = {worst:.5f} over 200 points, allowed 0.02")


def test_02_half_power_argument_and_depth_limit():
    a3 = solve_a3db(1.0)
    arr = square_array()
    d_fa, d_b = arr.d_fa, arr.d_b
    limit = finite_bd_limit_rect(arr)
    rel_limit = abs(limit - d_fa / 10) / (d_fa / 10)
    # published eta=1 shorthand rounds the coefficient to 10
    printed = 20 * d_fa * d_b ** 2 / (d_fa ** 2 - 100 * d_b ** 2)
    depth = bd_rect(arr, d_b).depth
    rel_printed = abs(depth - printed) / printed
    ok = abs(a3 - 1.25) <= 0.01 and rel_limit <= 0.01 and rel_printed <= 0.02
    _report(2, ok,
            f"a3db(1) = {a3:.4f} (1.25 +- 0.01), "
            f"limit off d_FA/10 by {rel_limit:.4%}, "
            f"depth off rounded formula by {rel_printed:.4%}")


def test_03_depth_vs_aspect_ratio_sweeps():
    base = square_array()
    etas = np.geomspace(0.1, 10.0, 21)

    def sweep(sizing):
        out = []
        for eta in etas:
            arr = make_rect_array(100, float(eta), sizing, LAM)
            res = bd_rect(arr, arr.d_b)
            assert res.status == STATUS_FINITE
            out.append(res.depth / arr.d_f)
        return np.array(out)

    area = sweep(FixedApertureArea(base.aperture_area))
    length = sweep(FixedApertureLength(base.aperture_len))
    pairs = np.abs(area - area[::-1]) / area
    area_ratio = area.max() / area.min()
    length_ratio = length.max() / length.min()
    ok = (int(np.argmax(area)) == 10
          and 360 <= area[10] <= 440
          and float(pairs.max()) <= 0.01
          and int(np.argmin(area)) in (0, 20)
          and area_ratio >= 8
          and length_ratio <= 3)
    _report(3, ok,
            f"fixed-area peak {area[10]:.1f} d_F at eta=1, "
            f"mirror asymmetry {pairs.max():.2e}, "
            f"ratios area {area_ratio:.2f} / length {length_ratio:.2f}")


def test_04_distance_error_crossing_and_ordering():
    arr = square_array()
    d_b = arr.d_b

    def errs(phi):
        tx = TxGeometry(d_b / math.cos(phi), azimuth=phi)
        return mean_abs_distance_errors(arr, tx)

    lo, _ = errs(math.pi / 16)
    hi, _ = errs(math.pi / 8)
    ordered = all(ind <= dire * (1 + 1e-9)
                  for dire, ind in (errs(p) for p in
                                    np.linspace(0.0, 3 * math.pi / 8, 49)))
    ok = lo < 3.5e-3 < hi and ordered
    _report(4, ok,
            f"direct error {lo:.3e} -> {hi:.3e} m brackets 3.5e-3, "
            f"indirect <= direct on [0, 3pi/8]: {ordered}")


def test_05_slanted_closed_form_consistency():
    arr = square_array()
    focus = 1000 * D_F
    worst = 0.0
    for z in np.geomspace(arr.d_b, arr.d_fa, 9):
        a = rect_gain_slanted(arr, TxGeometry(float(z)), focus)
        b = rect_gain_broadside(arr, float(z), focus)
        worst = max(worst, abs(a - b))
    thin = make_rect_array(100, 1e-3, FixedApertureLength(25 * LAM), LAM)
    gains = [rect_gain_slanted(thin, TxGeometry(1000 * D_F, azimuth=phi),
                               400 * D_F)
             for phi in (0.0, math.pi / 8, math.pi / 4)]
    spread = max(gains) - min(gains)
    ok = worst <= 1e-12 and spread < 1e-3
    _report(5, ok,
            f"broadside reduction gap {worst:.2e} (1e-12), "
            f"thin-array angle spread {spread:.2e} (1e-3)")


def test_06_projected_array_tracks_steered_gain():
    arr = square_array()
    dist = 1000 * D_F
    focus = 400 * D_F
    worst = 0.0
    for phi in np.linspace(0.0, 3 * math.pi / 8, 13):
        tx = TxGeometry(dist, azimuth=float(phi))
        exact = exact_array_gain_steered(arr, tx, focus)
        proj = projected_gain_approx(arr, tx, focus)
        worst = max(worst, abs(exact - proj))
    _report(6, worst < 0.1,
            f"max |projected - steered| = {worst:.4f} over 13 angles, "
            f"allowed 0.1")


@functools.lru_cache(maxsize=None)
def _steered_depth(eta, phi):
    """Exact steered half-power interval of a 100x100 half-wavelength array
    focused at half its finite-depth limit, transmitter and focus at azimuth
    phi, searched around the closed-form interval of the projected array."""
    arr = make_rect_array(100, eta, FixedElementDiagonal(0.5 * LAM), LAM)
    focus = 0.5 * finite_bd_limit_rect(arr)
    return _exact_depth(
        lambda d: exact_array_gain_steered(arr, TxGeometry(d, azimuth=phi), focus),
        bd_rect(project_array(arr, phi), focus), radiative_floor(arr), focus)


def test_06_exact_steered_depth_matches_projected_array():
    """The depth of a beam steered to azimuth phi is that of a broadside beam
    on the projected array (width times cos phi): each crossing of the exact
    steered gain (eta = 1, F about 5 aperture lengths) matches the projected
    closed form within a tolerance stated per phi.

    At phi = 0 the gap is the closed form's Fresnel approximation, as for
    broadside gains; toward end-fire the projection also drops the phase
    terms odd in x that a slanted ray adds, so the gap grows.  Measured
    largest crossing gaps are 3.2e-3, 2.2e-3, 2.5e-3, 6.7e-3 and 8.7e-3 at
    |phi| = 0, 0.3, 0.6, 0.9 and 1.2; each tolerance is about 1.5 times that.
    Without the cos phi of the projection the reference moves by 4.9e-2 at
    phi = 0.3 and by more further out."""
    tolerances = {0.0: 5e-3, 0.3: 4e-3, 0.6: 4e-3, -0.6: 4e-3, 0.9: 1e-2, 1.2: 1.3e-2}
    arr = make_rect_array(100, 1.0, FixedElementDiagonal(0.5 * LAM), LAM)
    focus = 0.5 * finite_bd_limit_rect(arr)
    worst = []
    for phi, tol in tolerances.items():
        res, ref = _steered_depth(1.0, phi), bd_rect(project_array(arr, phi), focus)
        gap = max(abs(res.z_lo / ref.z_lo - 1.0), abs(res.z_hi / ref.z_hi - 1.0))
        worst.append((phi, gap, res.status == STATUS_FINITE and gap <= tol))
    _report(6, all(ok for *_, ok in worst),
            "exact steered vs projected crossings: " + ", ".join(
                f"phi {phi:+.1f}: {gap:.1e} (tol {tolerances[phi]:.1e})"
                for phi, gap, _ in worst))


def test_06_exact_steered_depth_grows_toward_endfire():
    """The exact steered depth increases strictly with |phi| and is even in
    phi, for a square (eta = 1) and a wide (eta = 0.5) array: depths at
    phi = 0, 0.3, 0.6, 0.9, 1.2, and at -0.6 and -1.2 within 1e-6 relative
    of +phi.  Each is searched around the projected closed form, where the
    previous test puts the crossings."""
    lines, ok = [], True
    for eta in (1.0, 0.5):
        res = {phi: _steered_depth(eta, phi) for phi in (0.0, 0.3, 0.6, 0.9, 1.2, -0.6, -1.2)}
        depths = [res[phi].depth for phi in (0.0, 0.3, 0.6, 0.9, 1.2)]
        ok &= all(r.status == STATUS_FINITE for r in res.values())
        ok &= all(hi > lo for lo, hi in zip(depths, depths[1:]))
        ok &= all(abs(res[-phi].depth / res[phi].depth - 1.0) <= 1e-6 for phi in (0.6, 1.2))
        lines.append(f"eta {eta}: " + ", ".join(f"{d / LAM:.1f}" for d in depths))
    _report(6, ok, "exact steered depths/lambda at |phi| = 0 .. 1.2: " + "; ".join(lines))


def test_07_circular_aperture_depth_and_lobes():
    circ = CircArray(12.5 * LAM, LAM)
    focus = 50 * LAM
    d_b = 4 * circ.radius
    worst = 0.0
    for z in np.geomspace(d_b, 100 * d_b, 80):
        quad = disk_gain_fresnel(circ, float(z), focus)
        closed = circ_gain_broadside(circ, float(z), focus)
        worst = max(worst, abs(quad - closed))
    res = bd_circ(circ, focus)
    rel_depth = abs(res.depth - 247 * D_F) / (247 * D_F)
    entries = circ_lobe_catalog(circ, focus, k_max=4)
    nulls = sorted({e.l_value for e in entries if e.kind == "null"})[:3]
    peak = min(e.l_value for e in entries if e.kind == "lobe-peak")
    ok = (worst <= 0.01 and rel_depth <= 0.02
          and nulls == [1.0, 2.0, 3.0] and abs(peak - 1.43) <= 0.01)
    _report(7, ok,
            f"quadrature-vs-closed gap {worst:.2e}, depth off 247 d_F by "
            f"{rel_depth:.3%}, nulls {nulls}, first peak l = {peak:.4f}")


def test_08_depth_ordering_across_shapes():
    focus = 50 * LAM
    strip = bd_rect(make_rect_array(100, 0.1, FixedApertureLength(25 * LAM),
                                    LAM), focus).depth
    disk = bd_circ(CircArray(12.5 * LAM, LAM), focus).depth
    square = bd_rect(square_array(), focus).depth
    ok = strip < disk < square
    _report(8, ok,
            f"depths/lambda: strip {strip / LAM:.2f} < disk {disk / LAM:.2f} "
            f"< square {square / LAM:.2f}")


def _exact_depth(gain, ref, floor, focus):
    """Half-power interval of an exact gain on a 13-point grid from
    max(floor, 0.8 z_lo) to 1.25 z_hi of the closed form ``ref``, each
    crossing refined on ``gain`` itself."""
    grid = np.unique(np.append(
        np.geomspace(max(floor, 0.8 * ref.z_lo), 1.25 * ref.z_hi, 13), focus))
    prof = GainProfile(focus, grid, np.array([gain(float(z)) for z in grid]))
    return numeric_bd(prof, gain_fn=gain, rel_tol=1e-7)


def test_08_depth_ordering_on_exact_gains():
    """Criterion 8 with every depth taken from quadrature gains, at the same
    25-wavelength aperture length: strip (eta = 0.1) < disk < square.

    Each gain is within 1e-6 of its converged value (the quadrature's
    refinement tolerance) and each crossing is refined to 1e-7 relative, so
    a depth is known to about 1e-5 relative (order 16 with three doublings
    moves none by more than 1e-13); every gap must exceed REL_GAP = 1e-3.
    The strip-to-disk gap is about 5e-3."""
    REL_GAP = 1e-3
    focus = 50 * LAM
    strip_arr = make_rect_array(100, 0.1, FixedApertureLength(25 * LAM), LAM)
    circ = CircArray(12.5 * LAM, LAM)
    square = square_array()
    floor = radiative_floor(circ)  # 30 lambda for all three apertures
    depths = [
        _exact_depth(lambda z: exact_array_gain(strip_arr, TxGeometry(z), focus),
                     bd_rect(strip_arr, focus), floor, focus).depth,
        _exact_depth(lambda z: disk_gain_exact(circ, z, focus),
                     bd_circ(circ, focus), floor, focus).depth,
        _exact_depth(lambda z: exact_array_gain(square, TxGeometry(z), focus),
                     bd_rect(square, focus), floor, focus).depth,
    ]
    ok = all(hi > lo * (1.0 + REL_GAP) for lo, hi in zip(depths, depths[1:]))
    _report(8, ok,
            "exact depths/lambda: strip {:.3f}, disk {:.3f}, square {:.3f}; each gap "
            "must exceed {:.0e} relative".format(*np.divide(depths, LAM), REL_GAP))


def test_09_depth_multiplexing_rates():
    arr = make_rect_array(200, 1.0, FixedElementDiagonal(0.5 * LAM), LAM)
    region = (arr.d_b, arr.d_fa / 10)
    plan = plan_focal_points(arr, region)
    users = [TxGeometry(f) for f in plan.focal_points]
    h = build_channel_matrix(arr, users)
    w = mmse_precoder(h)
    planned25 = sum_rate(h, w, [10 ** 2.5] * len(users))
    means = [monte_carlo_sum_rate(arr, k, region, 500, 25.0, MC_SEED).mean_rate
             for k in range(1, 9)]
    best_k = 1 + int(np.argmax(means))
    planned20 = sum_rate(h, w, [10 ** 2.0] * len(users))
    random20 = monte_carlo_sum_rate(arr, 5, region, 500, 20.0, MC_SEED).mean_rate
    ok = (len(plan) == 5
          and abs(planned25 - 105.2) <= 0.1 * 105.2
          and best_k == 5
          and planned20 >= random20)
    _report(9, ok,
            f"planned 5-user rate {planned25:.2f} (105.2 +- 10%), "
            f"trial sweep peaks at K={best_k}, "
            f"20 dB planned {planned20:.2f} >= random mean {random20:.2f}")


def test_10_property_suite():
    xs = np.linspace(0.05, 8.0, 60)
    c_pos, s_pos = fresnel_cs(xs)
    c_neg, s_neg = fresnel_cs(-xs)
    odd = max(float(np.max(np.abs(c_pos + c_neg))),
              float(np.max(np.abs(s_pos + s_neg))))
    from scipy.special import fresnel as scipy_fresnel
    s_ref, c_ref = scipy_fresnel(xs)
    oracle = max(float(np.max(np.abs(c_pos - c_ref))),
                 float(np.max(np.abs(s_pos - s_ref))))
    h = 1e-5
    deriv = 0.0
    for x in (0.3, 0.9, 1.7, 2.6, 4.1):
        c_hi, s_hi = fresnel_cs(x + h)
        c_lo, s_lo = fresnel_cs(x - h)
        deriv = max(deriv,
                    abs((c_hi - c_lo) / (2 * h) - math.cos(math.pi * x * x / 2)),
                    abs((s_hi - s_lo) / (2 * h) - math.sin(math.pi * x * x / 2)))

    rng = np.random.default_rng(MC_SEED)
    peak_ok = True
    for _ in range(10):
        eta = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        arr = make_rect_array(int(rng.integers(30, 90)), eta,
                              FixedElementDiagonal(
                                  float(rng.uniform(0.1, 0.5)) * LAM), LAM)
        focus = finite_bd_limit_rect(arr) * float(rng.uniform(0.2, 0.9))
        grid = np.unique(np.append(np.geomspace(0.3 * focus, 3 * focus, 60),
                                   focus))
        prof = gain_profile("analytic", arr, grid, focus)
        peak_ok &= (float(np.max(prof.gains)) == prof.gains[
            int(np.argmin(np.abs(grid - focus)))] == 1.0)

    plan_ok = True
    for _ in range(20):
        eta = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
        arr = make_rect_array(200, eta, FixedElementDiagonal(0.5 * LAM), LAM)
        limit = finite_bd_limit_rect(arr)
        hi = float(rng.uniform(2.5 * arr.d_b, limit))
        plan = plan_focal_points(arr, (arr.d_b, hi))
        ivs = sorted(plan.intervals)
        for (lo1, hi1), (lo2, hi2) in zip(ivs, ivs[1:]):
            plan_ok &= hi1 <= lo2 * (1 + 1e-9)
        plan_ok &= all(lo < f < hi for f, (lo, hi)
                       in zip(plan.focal_points, plan.intervals))

    bd_worst = 0.0
    for _ in range(50):
        eta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        arr = make_rect_array(100, eta, FixedApertureLength(25 * LAM), LAM)
        focus = float(rng.uniform(arr.d_b, 0.9 * finite_bd_limit_rect(arr)))
        ref = bd_rect(arr, focus)
        grid = np.unique(np.append(
            np.geomspace(0.5 * ref.z_lo, 2 * ref.z_hi, 96), focus))
        prof = gain_profile("analytic", arr, grid, focus)
        res = numeric_bd(prof,
                         gain_fn=lambda z, a=arr, f=focus:
                         rect_gain_broadside(a, z, f))
        bd_worst = max(bd_worst, abs(res.depth - ref.depth) / ref.depth)

    ok = (odd <= 1e-15 and oracle <= 1e-12 and deriv <= 1e-6
          and peak_ok and plan_ok and bd_worst <= 0.01)
    _report(10, ok,
            f"oddness {odd:.1e}, oracle gap {oracle:.1e}, derivative gap "
            f"{deriv:.1e}, peak-at-focus {peak_ok}, disjoint plans {plan_ok}, "
            f"numeric-vs-closed depth {bd_worst:.2%}")
