"""One input contract for the public API: every numeric argument outside its
domain (NaN, +-inf, zero, negative, and for counts fractions and bools), and
anything but one point or a sequence of them where either is taken, raises
ValueError naming that argument, with no memory address in its message, and
no RuntimeWarning escapes."""

import math
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from nearfield_bd import gain_engine
from nearfield_bd.array_geometry import (
    CircArray,
    FixedApertureArea,
    FixedApertureLength,
    FixedElementDiagonal,
    RectArray,
    TxGeometry,
    make_rect_array,
    project_array,
    wavelength_from_carrier,
)
from nearfield_bd.beam_depth import (
    bd_circ,
    bd_rect,
    circ_lobe_catalog,
    finite_bd_limit_rect,
    numeric_bd,
    solve_a3db,
)
from nearfield_bd.field_model import QuadratureSpec, mean_abs_distance_errors
from nearfield_bd.gain_engine import (
    GainProfile,
    SweepEvalError,
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
)
from nearfield_bd.multiplexing import (
    ChannelMatrix,
    build_channel_matrix,
    mmse_precoder,
    monte_carlo_sum_rate,
    plan_focal_points,
    planned_sum_rate,
    sum_rate,
    user_sinrs,
)

LAM = wavelength_from_carrier(3e9)
NAN, INF = math.nan, math.inf

# values outside the domain of each kind of argument
POSITIVE = (NAN, INF, -INF, 0.0, -1.0)
COUNT = POSITIVE + (2.5, True)
NON_NEGATIVE_COUNT = (NAN, INF, -INF, -1.0, 2.5, True)
FOCUS = (NAN, -INF, 0.0, -1.0)  # +inf selects the far-field filter
NON_NEGATIVE = (NAN, INF, -INF, -1.0)
FINITE = (NAN, INF, -INF)
ANGLE = FINITE + (math.pi / 2, -math.pi / 2, 2.0)  # azimuth or elevation
OVERFLOWING_ETA = (1e160, 1e200)

ARR = make_rect_array(20, 1.0, FixedElementDiagonal(0.5 * LAM), LAM)
CIRC = CircArray(2.0 * LAM, LAM)
FAR = 10.0 * ARR.d_b
TX = TxGeometry(FAR, azimuth=0.2)
REGION = (ARR.d_b, finite_bd_limit_rect(ARR))
H = ChannelMatrix(np.eye(4, 2, dtype=complex))
W = mmse_precoder(H)
PEAKED = GainProfile(1.0, np.array([1.0, 2.0, 3.0]), np.array([0.2, 1.0, 0.2]))
RISING = GainProfile(1.0, np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.6, 1.0]))
RECT_FIELDS = {"n_per_side": 4, "eta": 1.0, "elem_diag": 0.1, "elem_h": 0.1 / math.sqrt(2),
               "elem_w": 0.1 / math.sqrt(2), "wavelength": 0.1}
# one part in 2^48: twice the tolerance of eta and the diagonal against the sides
OFF = 1.0 + 16 * math.ulp(1.0)
# in place of one transmitter or of a sequence of them
NOT_TX = (5.0, None, "ab", [], (), iter([TX]), [TX, 5.0])


def rect_array(field, value):
    """A RectArray built directly, with ``value`` at ``field``."""
    return RectArray(**(RECT_FIELDS | {field: value}))


# (entry point and argument, name the error starts with, call, bad values)
CONTRACT = [
    ("wavelength_from_carrier", "carrier frequency", wavelength_from_carrier, POSITIVE),
    ("CircArray.radius", "radius", lambda v: CircArray(v, LAM), POSITIVE),
    ("CircArray.wavelength", "wavelength", lambda v: CircArray(1.0, v), POSITIVE),
    ("TxGeometry.dist", "dist", TxGeometry, POSITIVE),
    # a RectArray built directly checks its fields as make_rect_array does
    ("RectArray.n_per_side", "n_per_side", lambda v: rect_array("n_per_side", v), COUNT),
    *[(f"RectArray.{field}", field, lambda v, field=field: rect_array(field, v), POSITIVE)
      for field in ("eta", "elem_diag", "elem_h", "elem_w", "wavelength")],
    # eta and the diagonal must be those of the sides
    ("RectArray.eta.sides", "eta", lambda v: rect_array("eta", v), (3.0, OFF)),
    ("RectArray.elem_diag.sides", "elem_diag", lambda v: rect_array("elem_diag", v),
     (0.2, 0.1 * OFF)),
    ("TxGeometry.azimuth", "azimuth", lambda v: TxGeometry(1.0, azimuth=v), ANGLE),
    ("TxGeometry.elevation", "elevation", lambda v: TxGeometry(1.0, elevation=v), ANGLE),
    ("project_array.azimuth", "azimuth", lambda v: project_array(ARR, v), ANGLE),
    ("make_rect_array.n_per_side", "n_per_side",
     lambda v: make_rect_array(v, 1.0, FixedElementDiagonal(0.01), LAM), COUNT),
    ("make_rect_array.eta", "eta",
     lambda v: make_rect_array(4, v, FixedElementDiagonal(0.01), LAM), POSITIVE),
    ("make_rect_array.wavelength", "wavelength",
     lambda v: make_rect_array(4, 1.0, FixedElementDiagonal(0.01), v), POSITIVE),
    ("make_rect_array.diag", "element diagonal",
     lambda v: make_rect_array(4, 1.0, FixedElementDiagonal(v), LAM), POSITIVE),
    ("make_rect_array.area", "aperture area",
     lambda v: make_rect_array(4, 1.0, FixedApertureArea(v), LAM), POSITIVE),
    ("make_rect_array.length", "aperture length",
     lambda v: make_rect_array(4, 1.0, FixedApertureLength(v), LAM), POSITIVE),
    # 1 + eta^2 overflows: each sizing mode would give zero or NaN element sides
    ("make_rect_array.eta.diag", "eta",
     lambda v: make_rect_array(20, v, FixedElementDiagonal(0.05), LAM), OVERFLOWING_ETA),
    ("make_rect_array.eta.length", "eta",
     lambda v: make_rect_array(20, v, FixedApertureLength(1.0), LAM), OVERFLOWING_ETA),
    ("make_rect_array.eta.area", "eta",
     lambda v: make_rect_array(20, v, FixedApertureArea(1.0), LAM), OVERFLOWING_ETA),
    ("QuadratureSpec.order", "quadrature order", QuadratureSpec, COUNT),
    ("QuadratureSpec.refinement", "refinement", lambda v: QuadratureSpec(8, v),
     NON_NEGATIVE_COUNT),
    ("analytic_gain_rect.eta", "eta", lambda v: analytic_gain_rect(v, 1.0), POSITIVE),
    ("analytic_gain_rect.a", "a", lambda v: analytic_gain_rect(1.0, v), NON_NEGATIVE),
    ("analytic_gain_nonbroadside.eta", "eta",
     lambda v: analytic_gain_nonbroadside(v, 0.8, 0.0, 0.0), POSITIVE),
    ("analytic_gain_nonbroadside.p", "p",
     lambda v: analytic_gain_nonbroadside(1.0, v, 0.0, 0.0), POSITIVE),
    ("analytic_gain_nonbroadside.q", "q",
     lambda v: analytic_gain_nonbroadside(1.0, 0.8, v, 0.0), FINITE),
    ("analytic_gain_nonbroadside.q_tilde", "q_tilde",
     lambda v: analytic_gain_nonbroadside(1.0, 0.8, 0.0, v), FINITE),
    ("analytic_gain_circ", "l", analytic_gain_circ, NON_NEGATIVE),
    ("rect_gain_broadside.z", "distance", lambda v: rect_gain_broadside(ARR, v, FAR),
     POSITIVE),
    ("rect_gain_broadside.focus", "focal distance",
     lambda v: rect_gain_broadside(ARR, FAR, v), FOCUS),
    ("rect_gain_slanted.focus", "focal distance",
     lambda v: rect_gain_slanted(ARR, TX, v), FOCUS),
    ("circ_gain_broadside.z", "distance", lambda v: circ_gain_broadside(CIRC, v, FAR),
     POSITIVE),
    ("circ_gain_broadside.focus", "focal distance",
     lambda v: circ_gain_broadside(CIRC, FAR, v), FOCUS),
    ("disk_gain_exact.z", "distance", lambda v: disk_gain_exact(CIRC, v, FAR),
     POSITIVE),
    # no sequence of distances is one distance, refused as such
    ("disk_gain_exact.z.one", "distance", lambda v: disk_gain_exact(CIRC, v, FAR),
     ([], (), np.array([]), [[FAR, 2 * FAR]], iter([FAR]))),
    ("disk_gain_exact.focus", "focal distance",
     lambda v: disk_gain_exact(CIRC, FAR, v), FOCUS),
    ("disk_gain_fresnel.z", "z", lambda v: disk_gain_fresnel(CIRC, v, FAR), POSITIVE),
    ("disk_gain_fresnel.focus", "focal distance",
     lambda v: disk_gain_fresnel(CIRC, FAR, v), FOCUS),
    ("exact_array_gain.focus", "focal distance",
     lambda v: exact_array_gain(ARR, TX, v), FOCUS),
    ("exact_array_gain_steered.focus", "focal distance",
     lambda v: exact_array_gain_steered(ARR, TX, v), FOCUS),
    ("projected_gain_approx.focus", "focal distance",
     lambda v: projected_gain_approx(ARR, TX, v), FOCUS),
    # anything but a transmitter, alone or in a sequence, fails before any point
    *[(f"{gain.__name__}.tx", "tx", lambda v, gain=gain: gain(ARR, v, FAR), NOT_TX)
      for gain in (exact_array_gain, exact_array_gain_steered, projected_gain_approx)],
    # one transmitter is read as such where only one is taken, and a channel's
    # users as one or a sequence of them
    *[(f"{name}.tx", "tx", call, NOT_TX + ([5.0], [TX, TX]))
      for name, call in (("rect_gain_slanted", lambda v: rect_gain_slanted(ARR, v, FAR)),
                         ("mean_abs_distance_errors",
                          lambda v: mean_abs_distance_errors(ARR, v)))],
    ("build_channel_matrix.users", "tx", lambda v: build_channel_matrix(ARR, v),
     NOT_TX + ([5.0],)),
    # a sequence call's focus, shared by its points, fails once, not per point
    ("disk_gain_exact.focus.sequence", "focal distance",
     lambda v: disk_gain_exact(CIRC, [FAR, 2 * FAR], v), FOCUS),
    ("exact_array_gain.focus.sequence", "focal distance",
     lambda v: exact_array_gain(ARR, [TX, TX], v), FOCUS),
    ("exact_array_gain_steered.focus.sequence", "focal distance",
     lambda v: exact_array_gain_steered(ARR, [TX, TX], v), FOCUS),
    ("projected_gain_approx.focus.sequence", "focal distance",
     lambda v: projected_gain_approx(ARR, [TX, TX], v), FOCUS),
    # the projection compresses the width by the azimuth and would drop an
    # elevation, so a nonzero one is refused, for a profile before any point
    ("projected_gain_approx.elevation", "elevation",
     lambda v: projected_gain_approx(ARR, TxGeometry(FAR, 0.2, v), FAR), (0.3, -0.3)),
    ("projected_gain_approx.elevation.sequence", "elevation",
     lambda v: projected_gain_approx(ARR, [TX, TxGeometry(FAR, 0.2, v)], FAR), (0.3,)),
    ("gain_profile.projected.elevation", "elevation",
     lambda v: gain_profile("projected", ARR, [FAR, 2 * FAR], FAR, azimuth=0.2,
                            elevation=v), (0.3, np.float64(-0.3))),
    # a grid of distances, refused before any point is read when it is a
    # number, a string or empty
    ("gain_profile.analytic.distances", "distances",
     lambda v: gain_profile("analytic", ARR, v, FAR), (5.0, np.float64(5.0), "5", [])),
    ("gain_profile.exact.distances", "distances",
     lambda v: gain_profile("exact", ARR, v, FAR), (5.0, "5", [], np.array([]))),
    ("GainProfile.gains", "gains",
     lambda v: GainProfile(1.0, np.array([1.0, 2.0]), np.array([0.5, v])),
     NON_NEGATIVE),
    ("solve_a3db.eta", "eta", solve_a3db, POSITIVE),
    ("bd_rect.focus", "focus", lambda v: bd_rect(ARR, v), FOCUS),
    ("bd_circ.focus", "focus", lambda v: bd_circ(CIRC, v), FOCUS),
    ("circ_lobe_catalog.focus", "focus", lambda v: circ_lobe_catalog(CIRC, v, 2),
     FOCUS),
    ("circ_lobe_catalog.k_max", "k_max", lambda v: circ_lobe_catalog(CIRC, FAR, v),
     COUNT),
    ("numeric_bd.rel_tol", "rel_tol", lambda v: numeric_bd(PEAKED, rel_tol=v),
     POSITIVE),
    # None means no limit; RISING never falls to half beyond its peak, where
    # the limit decides between an infinite and an undetermined depth
    ("numeric_bd.finite_limit", "finite_limit",
     lambda v: numeric_bd(RISING, finite_limit=v), POSITIVE + ("x",)),
    ("plan_focal_points.max_users", "max_users",
     lambda v: plan_focal_points(ARR, REGION, max_users=v), COUNT),
    ("user_sinrs.powers", "power", lambda v: user_sinrs(H, W, [1.0, v]), NON_NEGATIVE),
    ("sum_rate.powers", "power", lambda v: sum_rate(H, W, [1.0, v]), NON_NEGATIVE),
    ("monte_carlo_sum_rate.k_users", "k_users",
     lambda v: monte_carlo_sum_rate(ARR, v, REGION, 2, 10.0, seed=1), COUNT),
    ("monte_carlo_sum_rate.k_users.one", "k_users",
     lambda v: monte_carlo_sum_rate(ARR, v, REGION, 2, 10.0, seed=1), (iter([2]),)),
    ("monte_carlo_sum_rate.n_trials", "n_trials",
     lambda v: monte_carlo_sum_rate(ARR, 2, REGION, v, 10.0, seed=1), COUNT),
    # 4000 dB is finite but its linear power is not
    ("monte_carlo_sum_rate.snr_db", "snr_db",
     lambda v: monte_carlo_sum_rate(ARR, 2, REGION, 2, v, seed=1), FINITE + (4000.0,)),
    ("monte_carlo_sum_rate.snr_db.sequence", "snr_db",
     lambda v: monte_carlo_sum_rate(ARR, 2, REGION, 2, [10.0, v], seed=1),
     FINITE + (4000.0,)),
    # a grid of SNRs, refused before any draw when it is empty
    ("monte_carlo_sum_rate.snr_db.grid", "snr_db",
     lambda v: monte_carlo_sum_rate(ARR, 2, REGION, 2, v, seed=1), ([], (), iter([10.0]))),
    ("monte_carlo_sum_rate.region", "region",
     lambda v: monte_carlo_sum_rate(ARR, 2, v, 2, 10.0, seed=1),
     (None, REGION[:1], REGION + REGION[:1])),
    ("plan_focal_points.region", "region", lambda v: plan_focal_points(ARR, v),
     (None, REGION[:1], REGION + REGION[:1])),
    ("planned_sum_rate.focal_points", "focal point",
     lambda v: planned_sum_rate(ARR, [FAR, v], 10.0), POSITIVE),
    # the channel refuses a user in the reactive near field, naming its index
    ("planned_sum_rate.focal_points.floor", "user 1",
     lambda v: planned_sum_rate(ARR, [FAR, v], 10.0), (0.5 * radiative_floor(ARR),)),
    ("planned_sum_rate.focal_points.grid", "focal point",
     lambda v: planned_sum_rate(ARR, v, 10.0), ([], (), iter([FAR]))),
    ("planned_sum_rate.snr_db", "snr_db", lambda v: planned_sum_rate(ARR, [FAR], v),
     FINITE + (4000.0, [], iter([10.0]))),
    ("planned_sum_rate.snr_db.sequence", "snr_db",
     lambda v: planned_sum_rate(ARR, [FAR], [10.0, v]), FINITE + (4000.0,)),
]


def unaddressed(value):
    """The repr of ``value`` without the memory address an iterator's holds."""
    return re.sub(r" at 0x[0-9a-fA-F]+", "", repr(value))


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{label}={unaddressed(value)}")
    for label, name, call, bad in CONTRACT for value in bad
])
def test_out_of_domain_argument_raises_value_error(name, call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}[: ]") as info:
            call(value)
    assert " at 0x" not in str(info.value)


@pytest.mark.parametrize("value", [None, "1.0", [1.0], np.array([1.0]), True])
def test_non_numbers_raise_value_error(value):
    with pytest.raises(ValueError, match="^eta: "):
        make_rect_array(4, value, FixedElementDiagonal(0.01), LAM)
    with pytest.raises(ValueError, match="^k_max: "):
        circ_lobe_catalog(CIRC, FAR, value)
    with pytest.raises(ValueError, match="^azimuth: "):
        TxGeometry(1.0, azimuth=value)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: TxGeometry(np.float64(NAN)), "dist: nan is not a finite number",
                 id="TxGeometry.dist=nan"),
    pytest.param(lambda: TxGeometry(np.int64(-3)), "dist must be > 0, got -3",
                 id="TxGeometry.dist=-3"),
    pytest.param(lambda: TxGeometry(1.0, azimuth=np.float32(NAN)),
                 "azimuth: nan is not a finite number", id="TxGeometry.azimuth=nan"),
    pytest.param(lambda: make_rect_array(np.float64(2.5), 1.0, FixedElementDiagonal(0.01),
                                         LAM),
                 "n_per_side must be an integer, got 2.5", id="n_per_side=2.5"),
    pytest.param(lambda: make_rect_array(np.int64(0), 1.0, FixedElementDiagonal(0.01), LAM),
                 "n_per_side must be at least 1, got 0", id="n_per_side=0"),
    pytest.param(lambda: gain_profile("analytic", ARR, np.array([FAR, NAN]), FAR),
                 "evaluation failed at sweep indices [1]: "
                 "distance: nan is not a finite number", id="gain_profile.distance=nan"),
    pytest.param(lambda: projected_gain_approx(ARR, TxGeometry(FAR, 0.2, np.float64(0.3)),
                                               FAR),
                 "elevation: projected gains take an azimuth only, got 0.3",
                 id="projected_gain_approx.elevation=0.3"),
])
def test_numpy_scalars_read_as_python_values(call, message):
    """A refused numpy scalar reads as the Python number it holds, so a
    message does not depend on the scalar type: nan, not np.float64(nan)."""
    with pytest.raises((ValueError, SweepEvalError)) as info:
        call()
    assert str(info.value) == message


def test_integral_floats_are_counts():
    assert make_rect_array(4.0, 1.0, FixedElementDiagonal(0.01), LAM).n_per_side == 4
    quad = QuadratureSpec(np.float64(4.0), 1.0)
    assert (type(quad.order), type(quad.refinement)) == (int, int)
    # a RectArray built directly stores the int too, which sizes its channel
    arr = rect_array("n_per_side", 20.0)
    assert type(arr.n_per_side) is int
    assert build_channel_matrix(arr, [TxGeometry(10.0)]).entries.shape == (400, 1)


def test_one_transmitter_is_a_one_user_channel():
    npt.assert_array_equal(build_channel_matrix(ARR, TX).entries,
                           build_channel_matrix(ARR, [TX]).entries)
    assert build_channel_matrix(ARR, TX).n_users == 1


@pytest.mark.parametrize("gain", [exact_array_gain, exact_array_gain_steered,
                                  projected_gain_approx])
def test_a_non_transmitter_fails_at_its_index_before_any_point(gain, monkeypatch):
    evaluated = []
    monkeypatch.setattr(gain_engine, "_rect_gains_exact",
                        lambda *args: evaluated.append(args))
    with pytest.raises(ValueError) as info:
        gain(ARR, [TX, TX, 5.0], FAR)
    assert str(info.value) == "tx 2: 5.0 is not a TxGeometry"
    assert evaluated == []


def test_solve_a3db_validates_before_its_cache():
    """The cache key treats True, 1 and 1.0 alike and cannot hash a list, so
    the arguments are checked before the cache is consulted."""
    root = solve_a3db(1.0)
    for value in (True, [1.0]):
        with pytest.raises(ValueError, match="^eta: "):
            solve_a3db(value)
    hits = solve_a3db.cache_info().hits
    assert solve_a3db(1) == root
    assert solve_a3db.cache_info().hits == hits + 1


@pytest.mark.parametrize("region", [("1", 2.0), (1.0, None), (NAN, 2.0), (1.0, INF)])
def test_monte_carlo_region_bounds_are_finite_numbers(region):
    with pytest.raises(ValueError, match="^region bounds must be finite"):
        monte_carlo_sum_rate(ARR, 2, region, 2, 10.0, seed=1)


def test_circular_gain_past_the_sinc_argument_overflow_is_its_limit():
    """Above l of about 5.7e307, pi l overflows to inf and sinc^2 takes its
    limit 0 without a RuntimeWarning, also at its own index of a profile."""
    circ = CircArray(12.5 * LAM, LAM)  # pi l overflows at z = 1e-307 m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert analytic_gain_circ(1e308) == 0.0
        prof = gain_profile("analytic", circ, [1e-307, 50 * LAM], 100 * LAM)
    assert prof.gains[0] == 0.0 and prof.gains[1] > 0.0


# Past the phase-resolution range (3.42e7 m at 3 GHz) a gain was a rounded phase
# (4e7 m), failed as a quadrature fault (1e12), read exactly 1 (1e15), failed
# as "differ by nan" (1e120) or raised OverflowError from z ** 2 (1e160).
BEYOND_PHASE_RANGE = (4e7, 1e12, 1e15, 1e120, 1e160)


@pytest.mark.parametrize("dist", BEYOND_PHASE_RANGE)
@pytest.mark.parametrize("gain, geometry, tx", [
    (exact_array_gain, ARR, TxGeometry),
    (exact_array_gain_steered, ARR, lambda d: TxGeometry(d, 0.2, 0.1)),
    (projected_gain_approx, ARR, lambda d: TxGeometry(d, 0.2)),
    (disk_gain_exact, CIRC, float),
])
def test_a_transmitter_past_the_phase_range_raises_value_error(gain, geometry, tx, dist):
    """Beyond 2^31 / k an exact gain refuses the transmitter as it refuses one
    below the radiative floor, alone and at its index of a batch."""
    message = (f"transmitter at {dist:.6g} m is beyond the phase-resolution range "
               f"{2.0 ** 31 * LAM / (2.0 * math.pi):.6g} m (2^31 / wavenumber)")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as info:
            gain(geometry, tx(dist), FAR)
        assert str(info.value) == message
        with pytest.raises(SweepEvalError) as info:
            gain(geometry, [tx(FAR), tx(dist)], FAR)
    assert [(i, str(exc)) for i, exc in info.value.failures] == [(1, message)]


def test_gains_inside_the_phase_range_track_the_closed_form():
    """At 3e7 m, inside the phase-resolution range, the exact gains are their
    closed forms' within the refinement tolerance 1e-6 (measured 2.8e-8 for
    the 20 x 20 array focused at 4 m, and 1.0e-9 for a 0.5 m disk)."""
    disk = CircArray(0.5, LAM)
    assert abs(exact_array_gain(ARR, TxGeometry(3e7), 4.0)
               - rect_gain_broadside(ARR, 3e7, 4.0)) <= 1e-6
    assert abs(disk_gain_exact(disk, 3e7, 4.0)
               - circ_gain_broadside(disk, 3e7, 4.0)) <= 1e-6


@pytest.mark.parametrize("dist", [1e154, 1e160, 1e300])
def test_distance_errors_refuse_a_transmitter_whose_squares_overflow(dist):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^tx: squared distances overflow at "):
            mean_abs_distance_errors(ARR, TxGeometry(dist, azimuth=0.2))
