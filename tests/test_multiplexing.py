import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fields import exact_distance_channel
from nearfield_bd.array_geometry import (
    FixedApertureLength,
    FixedElementDiagonal,
    TxGeometry,
    element_grid,
    make_rect_array,
    project_array,
    wavelength_from_carrier,
)
from nearfield_bd.beam_depth import bd_rect, finite_bd_limit_rect
from nearfield_bd.field_model import fresnel_field_nonbroadside
from nearfield_bd.gain_engine import radiative_floor
from nearfield_bd import multiplexing
from nearfield_bd.multiplexing import (
    ChannelMatrix,
    PlacementPlan,
    build_channel_matrix,
    mmse_precoder,
    monte_carlo_sum_rate,
    plan_focal_points,
    planned_sum_rate,
    sum_rate,
    user_sinrs,
    _channel_gram,
    _mmse_table,
    _pair_sums,
    _phase_gram,
    _phase_table,
    _split_diagonal,
    _table_rates,
)

LAM = wavelength_from_carrier(3e9)

PLANNED_RATE_25DB = 105.14760721587858
MC_SEED = 20240817
MC_K5_MEAN = 74.11189324360154
MC_K1_MEAN = 23.592532730822906


def wide_array(eta=1.0, sizing=None):
    if sizing is None:
        sizing = FixedElementDiagonal(LAM / 2)
    return make_rect_array(200, eta, sizing, LAM)


def wide_region(arr):
    return (arr.d_b, arr.d_fa / 10)


def planned_setup(snr_db=25.0):
    arr = wide_array()
    plan = plan_focal_points(arr, wide_region(arr))
    users = [TxGeometry(float(f)) for f in plan.focal_points]
    h = build_channel_matrix(arr, users)
    w = mmse_precoder(h)
    powers = [10 ** (snr_db / 10)] * len(plan)
    return arr, plan, h, w, powers


def test_plan_reference_values():
    arr = wide_array()
    plan = plan_focal_points(arr, wide_region(arr))
    assert len(plan) == 5
    npt.assert_allclose(np.asarray(plan.focal_points) / LAM,
                        [1003.147, 502.364, 335.085, 251.380, 201.136],
                        rtol=1e-5)
    assert plan.intervals[0][1] == pytest.approx(2000 * LAM)
    # consecutive intervals touch: each lower edge is the next upper edge
    for (lo, _), (_, hi_next) in zip(plan.intervals, plan.intervals[1:]):
        npt.assert_allclose(lo, hi_next, rtol=1e-12)


def test_plan_covers_reference_focal_points():
    """The five reference focal distances d_FA/(20k) each land in their own
    interval of the greedy plan."""
    arr = wide_array()
    plan = plan_focal_points(arr, wide_region(arr))
    d_fa = arr.d_fa
    hits = []
    for f in [d_fa / 20, d_fa / 40, d_fa / 60, d_fa / 80, d_fa / 100]:
        inside = [i for i, (lo, hi) in enumerate(plan.intervals) if lo <= f <= hi]
        assert len(inside) == 1
        hits.append(inside[0])
    assert sorted(hits) == [0, 1, 2, 3, 4]


def test_plan_disjointness_random_configs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        eta = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
        arr = make_rect_array(100, eta, FixedApertureLength(25 * LAM), LAM)
        limit = finite_bd_limit_rect(arr)
        z_min = float(rng.uniform(arr.d_b, 0.3 * limit + 0.7 * arr.d_b))
        z_max = float(rng.uniform(z_min * 1.5, 0.95 * limit))
        plan = plan_focal_points(arr, (z_min, z_max))
        assert len(plan) >= 1
        by_lo = sorted(plan.intervals)
        for (_, hi), (lo, _) in zip(by_lo, by_lo[1:]):
            assert hi <= lo * (1 + 1e-9)
        for f, (lo, hi) in zip(plan.focal_points, plan.intervals):
            assert lo < f < hi
            # each interval is the closed-form depth interval of its focus
            res = bd_rect(arr, f)
            assert lo == res.z_lo
            assert hi == pytest.approx(res.z_hi, rel=1e-12)


def test_plan_empty_and_max_users():
    arr = wide_array()
    z_min, z_max = wide_region(arr)
    assert len(plan_focal_points(arr, (z_min, z_min))) == 0
    one = plan_focal_points(arr, (z_min, z_max), max_users=1)
    assert len(one) == 1
    assert one.intervals[0][1] == pytest.approx(z_max)
    three = plan_focal_points(arr, (z_min, z_max), max_users=3)
    full = plan_focal_points(arr, (z_min, z_max))
    npt.assert_allclose(three.focal_points, full.focal_points[:3])


def test_plan_refuses_an_inverted_region():
    """z_min > z_max is a mistake, refused as the Monte Carlo refuses it;
    z_min == z_max stays an empty plan (test_plan_empty_and_max_users)."""
    arr = wide_array()
    with pytest.raises(ValueError, match=r"^region must satisfy z_min <= z_max, got \("):
        plan_focal_points(arr, (3 * arr.d_b, 2 * arr.d_b))


def test_plan_validation():
    arr = wide_array()
    z_min, z_max = wide_region(arr)
    with pytest.raises(ValueError):
        plan_focal_points(arr, (0.5 * z_min, z_max))
    with pytest.raises(ValueError):
        plan_focal_points(arr, (z_min, 10 * z_max))
    with pytest.raises(ValueError):
        plan_focal_points(arr, (z_min, z_max), max_users=0)
    for region in ((math.nan, z_max), (z_min, math.nan)):
        with pytest.raises(ValueError, match="region"):
            plan_focal_points(arr, region)
    # on 20x20 this region's first focus, 1.005 m, is inside the 1.2 m floor
    small = make_rect_array(20, 1.0, FixedElementDiagonal(LAM / 2), LAM)
    with pytest.raises(ValueError, match="focus 1.005 m below the radiative floor 1.199 m"):
        plan_focal_points(small, (40.05 * small.d_f, 40.2 * small.d_f))
    with pytest.raises(ValueError):
        PlacementPlan((1.0,), ((2.0, 3.0),))
    with pytest.raises(ValueError):
        PlacementPlan((1.5, 2.5), ((1.0, 2.0), (1.8, 3.0)))
    with pytest.raises(ValueError):
        PlacementPlan((1.5,), ())


def test_channel_phase_model_unit_modulus():
    arr = wide_array()
    users = [TxGeometry(500 * LAM), TxGeometry(800 * LAM)]
    h = build_channel_matrix(arr, users)
    assert h.entries.shape == (arr.n_elements, 2)
    npt.assert_allclose(np.abs(h.entries), 1.0, atol=2e-15)
    npt.assert_allclose(np.linalg.norm(h.entries[:, 0]) ** 2,
                        arr.n_elements, rtol=1e-12)


@pytest.mark.parametrize("mult", [1.3, 5.0, 40.0])
def test_channel_slanted_users_match_the_2d_fresnel_grid(mult):
    """Per-axis columns of users off both axes equal the 2-D Fresnel field
    normalised to unit modulus.  The 2-D grid rounds its absolute range
    phase k (d + q), so the two differ by about eps k d: measured at most
    1.3 eps k d (1.4e-12 at 40 aperture lengths, k d = 8e3 rad); the bound
    is 4 eps k d."""
    arr = make_rect_array(64, 1.7, FixedElementDiagonal(LAM / 2), LAM)
    xc, yc = element_grid(arr)
    for az, el in [(0.4, -0.25), (-0.9, 0.6), (0.05, 1.2), (-1.3, -0.1)]:
        tx = TxGeometry(mult * arr.aperture_len, azimuth=az, elevation=el)
        grid = fresnel_field_nonbroadside(tx, xc[:, None], yc[None, :], LAM).ravel()
        tol = 4 * np.finfo(float).eps * 2 * np.pi / LAM * tx.dist
        col = build_channel_matrix(arr, [tx]).entries[:, 0]
        assert np.max(np.abs(col - grid / np.abs(grid))) <= tol


@pytest.mark.parametrize("n, mult", [(60, 2.0), (60, 10.0), (100, 3.0), (200, 5.0)])
def test_channel_phase_is_the_paraxial_remainder_of_the_exact_distance(n, mult):
    """Element by element, the broadside column differs in phase from the
    exact-distance channel (tests' fields.exact_distance_channel) by
    k (sqrt(d^2 + r^2) - d - r^2/(2d)), whose alternating series puts it in
    [-k r^4/(8 d^3), -k r^4/(8 d^3) + k r^6/(16 d^5)] for r < d.  Both sides
    round a range phase of about k d, so the slack is 8 eps k d."""
    arr = make_rect_array(n, 1.0, FixedElementDiagonal(LAM / 2), LAM)
    d = mult * arr.aperture_len
    xc, yc = element_grid(arr)
    r2 = (xc[:, None] ** 2 + yc[None, :] ** 2).ravel()
    k = 2 * np.pi / LAM
    quartic = k * r2 ** 2 / (8 * d ** 3)
    assert quartic.max() < np.pi
    phase = np.angle(build_channel_matrix(arr, TxGeometry(d)).entries[:, 0]
                     * exact_distance_channel(arr, [d])[:, 0].conj())
    slack = 8 * np.finfo(float).eps * k * d
    assert np.all(phase >= -quartic - slack)
    assert np.all(phase <= -quartic + k * r2 ** 3 / (16 * d ** 5) + slack)


@pytest.mark.parametrize("az, el", [(0.0, 0.0), (0.4, -0.25), (-0.9, 0.6)])
def test_channel_plane_wave_limit(az, el):
    """A far user's column tends to the plane wave e^{-jkd} e^{jk(x u + y v)}
    of its direction cosines u = sin(az) cos(el), v = sin(el): within
    k r_max^2/(2d), the paraxial curvature at the corner, at 1e3 and 1e4
    aperture lengths (measured 0.99998 and 0.9999998 of it)."""
    arr = make_rect_array(60, 1.0, FixedElementDiagonal(LAM / 2), LAM)
    xc, yc = element_grid(arr)
    x, y = np.meshgrid(xc, yc, indexing="ij")
    k = 2 * np.pi / LAM
    u, v = math.sin(az) * math.cos(el), math.sin(el)
    for mult in (1e3, 1e4):
        d = mult * arr.aperture_len
        col = build_channel_matrix(arr, TxGeometry(d, azimuth=az, elevation=el)).entries[:, 0]
        plane = (np.exp(-1j * k * d) * np.exp(1j * k * (x * u + y * v))).ravel()
        bound = k * (xc[-1] ** 2 + yc[-1] ** 2) / (2 * d)
        assert np.max(np.abs(col - plane)) <= bound + 8 * np.finfo(float).eps * k * d


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_channel_gram_memory_bound():
    """The channel is built in place in one stack whose transpose
    _channel_gram reads as a view: the build and the Gram together peak
    at 1.34 K N complex values for K = 6 (2.17 with a fresh pair product
    per first user, 3.17 with a transposed copy as well)."""
    arr = wide_array()
    users = [TxGeometry(float(d)) for d in np.geomspace(arr.d_b, arr.d_fa / 10, 6)]
    peak = _traced_peak(lambda: _channel_gram(build_channel_matrix(arr, users)))
    assert peak <= 1.4 * len(users) * arr.n_elements * 16


def test_channel_gram_scratch_is_two_columns():
    """_channel_gram alone needs two N-length buffers whatever K is: 2.01 N
    complex values for K = 6 (7.00 with a fresh pair product per first user)."""
    arr = wide_array()
    users = [TxGeometry(float(d)) for d in np.geomspace(arr.d_b, arr.d_fa / 10, 6)]
    h = build_channel_matrix(arr, users)
    assert _traced_peak(_channel_gram, h) <= 2.5 * arr.n_elements * 16


def _row_sum_gram(h):
    """H^H H as one (K - a) x N product and row sum per first user a, the
    upper triangle conjugated into the lower, the diagonal made real."""
    cols = np.ascontiguousarray(h.entries.T)
    k = len(cols)
    gram = np.empty((k, k), dtype=complex)
    for a, col in enumerate(cols):
        gram[a, a:] = (col.conj() * cols[a:]).sum(-1)
    lower = np.tril_indices(k, -1)
    gram[lower] = gram.T[lower].conj()
    np.fill_diagonal(gram, gram.diagonal().real)
    return gram


@pytest.mark.parametrize("n, eta", [(51, 1.0), (33, 0.4), (21, 2.5)])
@pytest.mark.parametrize("k", range(1, 9))
def test_channel_gram_matches_row_sums(n, eta, k):
    """Summing each pair from reused buffers takes the same pairwise sums
    over the same contiguous values as the row sums, so the bits agree."""
    arr = make_rect_array(n, eta, FixedElementDiagonal(LAM / 2), LAM)
    dists = np.geomspace(radiative_floor(arr), arr.d_fa / 10, k)
    h = build_channel_matrix(arr, [TxGeometry(float(d), azimuth=0.1 * i)
                                   for i, d in enumerate(dists)])
    npt.assert_array_equal(_channel_gram(h), _row_sum_gram(h))


def test_channel_identical_users_and_rank():
    arr = wide_array()
    tx = TxGeometry(600 * LAM)
    h = build_channel_matrix(arr, [tx, tx])
    npt.assert_allclose(h.entries[:, 0], h.entries[:, 1], rtol=0, atol=0)
    _, plan, hp, _, _ = planned_setup()
    gram = hp.entries.conj().T @ hp.entries
    assert np.linalg.matrix_rank(hp.entries) == len(plan)
    assert np.isfinite(np.linalg.cond(gram))


def test_channel_validation():
    arr = wide_array()
    with pytest.raises(ValueError, match="user 1"):
        build_channel_matrix(arr, [TxGeometry(500 * LAM), TxGeometry(50 * LAM)])
    with pytest.raises(ValueError):
        build_channel_matrix(arr, [])
    with pytest.raises(ValueError):
        ChannelMatrix(np.array([[1.0, np.inf]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ChannelMatrix(np.array([[1.0 + 0j, complex(1.0, bad)]]))
    with pytest.raises(ValueError):
        ChannelMatrix(np.ones(4))


def test_mmse_single_user_formula():
    rng = np.random.default_rng(2)
    col = rng.normal(size=16) + 1j * rng.normal(size=16)
    h = ChannelMatrix(col[:, None])
    w = mmse_precoder(h)
    unnorm = col / (np.linalg.norm(col) ** 2 + 1)
    expected = unnorm / np.linalg.norm(unnorm)
    npt.assert_allclose(w.entries[:, 0], expected, rtol=1e-12)
    npt.assert_allclose(np.linalg.norm(w.entries), 1.0, rtol=1e-12)
    npt.assert_allclose(w.alpha, 1.0 / np.linalg.norm(unnorm), rtol=1e-12)


def test_mmse_orthogonal_columns():
    g = 3.0
    mat = np.zeros((8, 2), dtype=complex)
    mat[:4, 0] = g / 2.0
    mat[4:, 1] = 1j * g / 2.0
    w = mmse_precoder(ChannelMatrix(mat))
    expected = mat / (g ** 2 + 1)
    expected /= np.linalg.norm(expected)
    npt.assert_allclose(w.entries, expected, rtol=1e-12)


def test_mmse_validation():
    with pytest.raises(ValueError):
        mmse_precoder(ChannelMatrix(np.ones((2, 3), dtype=complex)))


def test_sum_rate_single_user():
    rng = np.random.default_rng(3)
    col = rng.normal(size=32) + 1j * rng.normal(size=32)
    h = ChannelMatrix(col[:, None])
    w = mmse_precoder(h)
    p = 17.0
    expected = math.log2(1 + p * abs(col.conj() @ w.entries[:, 0]) ** 2)
    npt.assert_allclose(sum_rate(h, w, [p]), expected, rtol=1e-12)
    assert sum_rate(h, w, [0.0]) == 0.0


def test_sum_rate_validation():
    h = ChannelMatrix(np.ones((4, 2), dtype=complex))
    w = mmse_precoder(h)
    with pytest.raises(ValueError):
        sum_rate(h, w, [1.0])
    with pytest.raises(ValueError):
        sum_rate(h, w, [1.0, -2.0])


def test_planned_rate_reference():
    _, _, h, w, powers = planned_setup()
    rate = sum_rate(h, w, powers)
    npt.assert_allclose(rate, PLANNED_RATE_25DB, rtol=1e-9)
    assert abs(rate - 105.2) / 105.2 < 0.10


@pytest.mark.parametrize("eta", [1.0, 0.2, 5.0])
def test_planned_sum_rate_matches_the_channel_oracle(eta):
    """planned_sum_rate is the MMSE sum rate of the phase-model channel of
    broadside users at the focal points: sum_rate of mmse_precoder on the
    same build_channel_matrix channel.  Over fig13's seven aspect ratios,
    both element-diagonal and aperture-length sizing, at -10 to 40 dB, the
    largest relative gap measured 2.6e-14 (117 eps); the bound is 1e-12.
    A list of SNRs gives the single-SNR calls' values, in order."""
    arr = wide_array(eta)
    focal_points = plan_focal_points(arr, wide_region(arr)).focal_points
    h = build_channel_matrix(arr, [TxGeometry(float(f)) for f in focal_points])
    w = mmse_precoder(h)
    snrs = [-10.0, 0.0, 25.0, 40.0]
    rates = planned_sum_rate(arr, focal_points, snrs)
    assert rates == [planned_sum_rate(arr, focal_points, snr) for snr in snrs]
    assert all(type(rate) is float for rate in rates)
    for snr, rate in zip(snrs, rates):
        expected = sum_rate(h, w, [10 ** (snr / 10)] * len(focal_points))
        npt.assert_allclose(rate, expected, rtol=1e-12)
    if eta == 1.0:
        npt.assert_allclose(rates[2], PLANNED_RATE_25DB, rtol=1e-9)


# Measured (planned_sum_rate - exact-distance rate) / exact-distance rate of
# the default plan at 0, 10, 25 and 40 dB, per array side n (n = 200 is fig4's)
PARAXIAL_GAPS = {
    60: (1.111e-3, 8.497e-4, 6.555e-4, 1.177e-3),
    100: (1.109e-3, 8.620e-4, 6.552e-4, 7.570e-4),
    200: (8.310e-4, 6.590e-4, 5.043e-4, 4.454e-4),
}


@pytest.mark.parametrize("n", sorted(PARAXIAL_GAPS))
def test_planned_rows_track_the_exact_distance_channel(n):
    """The paraxial channel planned_sum_rate builds, against the MMSE sum
    rate of the unit-modulus channel of the exact element distances (tests'
    fields.exact_distance_channel), for the default plan at K = 2, 3 and 5
    users: each relative gap lies within 20 % of its measured value.  The
    paraxial rate reads high by 4.5e-4 to 1.2e-3; a one-user plan gaps by
    exactly 0, so that case checks nothing.  A 1 % error in the paraxial
    curvature (2.02 d for 2 d) moved every gap by 42 % to 117 %."""
    arr = make_rect_array(n, 1.0, FixedElementDiagonal(LAM / 2), LAM)
    focal_points = plan_focal_points(arr, wide_region(arr)).focal_points
    assert len(focal_points) >= 2
    snrs = [0.0, 10.0, 25.0, 40.0]
    planned = planned_sum_rate(arr, focal_points, snrs)
    h = ChannelMatrix(exact_distance_channel(arr, focal_points))
    w = mmse_precoder(h)
    for snr, rate, measured in zip(snrs, planned, PARAXIAL_GAPS[n]):
        exact = sum_rate(h, w, [10 ** (snr / 10)] * len(focal_points))
        assert 0.8 * measured < (rate - exact) / exact < 1.2 * measured, snr


def test_planned_sinrs_balanced():
    _, _, h, w, powers = planned_setup()
    s = user_sinrs(h, w, powers)
    assert 10 * math.log10(s.max() / s.min()) < 3.0


def test_sinr_scale_identity():
    """Scaling the channel by c equals scaling every power by c^2 in the
    SINR expression, precoder held fixed."""
    _, _, h, w, powers = planned_setup()
    c = 3.7
    scaled = ChannelMatrix(c * h.entries)
    npt.assert_allclose(user_sinrs(scaled, w, powers),
                        user_sinrs(h, w, [c ** 2 * p for p in powers]),
                        rtol=1e-12)
    w_scaled = mmse_precoder(scaled)
    npt.assert_allclose(np.linalg.norm(w_scaled.entries), 1.0, rtol=1e-12)


@pytest.mark.parametrize("snr_db", [0.0, 25.0, 30.0])
def test_gram_fast_path_matches_explicit(snr_db):
    """Both Gram builders, the analytic phase Gram and the BLAS-free
    channel Gram, give the explicit channel's MMSE sum rate."""
    arr = make_rect_array(50, 1.0, FixedElementDiagonal(LAM / 2), LAM)
    dists = np.array([200.0, 310.0, 555.0]) * LAM
    h = build_channel_matrix(arr, [TxGeometry(float(d)) for d in dists])
    p = 10 ** (snr_db / 10)
    explicit = sum_rate(h, mmse_precoder(h), [p] * 3)
    channel_gram = _channel_gram(h)
    npt.assert_array_equal(channel_gram, channel_gram.conj().T)
    assert not channel_gram.diagonal().imag.any()
    for gram in (_phase_gram(arr, dists), channel_gram):
        npt.assert_allclose(_table_rates(_mmse_table(gram), p), explicit, rtol=1e-10)


def _pairwise_gram(arr, dists):
    """K x K double loop over the full element grid:
    sum_x sum_y exp(i pi/lambda (1/d_i - 1/d_j)(x^2 + y^2)), the Gram of the
    phase-model columns without their range phase e^{-jkd}."""
    xc, yc = element_grid(arr)
    k = len(dists)
    gram = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            c = np.pi / arr.wavelength * (1 / dists[i] - 1 / dists[j])
            gram[i, j] = np.exp(1j * c * (xc[:, None] ** 2 + yc[None, :] ** 2)).sum()
    return gram


@pytest.mark.parametrize("n, eta", [(50, 1.0), (51, 1.0), (40, 0.3), (33, 2.5)])
def test_phase_gram_matches_pairwise_definition(n, eta):
    arr = make_rect_array(n, eta, FixedElementDiagonal(LAM / 2), LAM)
    rng = np.random.default_rng(n)
    stack = 1.0 / rng.uniform(1 / (arr.d_fa / 10), 1 / arr.d_b, size=(3, 4))
    stack[0, 1] = stack[0, 0] * (1 + 1e-9)     # a near-collinear pair
    batched = _phase_gram(arr, stack)
    assert batched.shape == (3, 4, 4)
    for dists, gram in zip(stack, batched):
        npt.assert_allclose(gram, _pairwise_gram(arr, dists), rtol=0, atol=1e-14 * n * n)
        npt.assert_array_equal(np.diag(gram), np.full(4, float(n * n)))
        npt.assert_array_equal(gram, gram.conj().T)
        npt.assert_array_equal(_phase_gram(arr, dists), gram)
    single = _phase_gram(arr, stack[0, :1])
    assert single.shape == (1, 1) and single[0, 0] == n * n


def test_phase_gram_of_an_empty_stack():
    """A stack of no trials, or of trials of no users, has no Grams: an empty
    complex (..., K, K) array."""
    arr = make_rect_array(50, 1.0, FixedElementDiagonal(LAM / 2), LAM)
    for shape in ((0, 3), (2, 0)):
        gram = _phase_gram(arr, np.empty(shape))
        assert gram.shape == shape + shape[-1:] and gram.dtype == complex


def _long_double_axis_sum(arr, d_i, d_j):
    """sum over the x axis of exp(i theta), theta = pi/lambda (1/d_i - 1/d_j)
    u^2, in long double: the real part as n - 4 sum sin^2(theta/2) over the
    mirror half u > 0, the imaginary part as 2 sum sin theta, and the
    curvature as (d_j - d_i)/(d_i d_j), whose difference is exact."""
    ld = np.longdouble
    half = element_grid(arr)[0].astype(ld)
    half = half[half > 0]
    d_i, d_j = ld(d_i), ld(d_j)
    theta = ld(np.pi) / ld(arr.wavelength) * ((d_j - d_i) / (d_i * d_j)) * half ** 2
    return (ld(arr.n_per_side) - 4 * np.sum(np.sin(theta / 2) ** 2),
            2 * np.sum(np.sin(theta)))


@pytest.mark.parametrize("gap", [None, 1e-3, 1e-6, 1e-9])
def test_half_angle_sums_match_long_double(gap):
    """One axis sum of far pairs (gap None: both users drawn over the region)
    and of near-collinear pairs d_j = d_i (1 + gap), n = 200, against long
    double.  A gap g leaves a phase difference g psi whose rounding is about
    eps psi, so the imaginary part is good to a multiple of eps/g.  Worst of
    the 100 pairs, measured: the real part is 1.55 eps n off for far pairs
    and at most 0.503 ulp of n for near-collinear ones; the imaginary part is
    1.2e-15 relative off for far pairs and 0.097-0.124 eps/g for near-collinear
    ones.  A real part formed from cos theta (Re q^2) is 1.5 and 1.9 ulps off
    at g = 1e-3 and 1e-6; sines of each pair's curvature difference leave the
    imaginary part 0.63-0.68 eps/g off."""
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is no wider than double on this platform")
    arr = wide_array()
    near, far = radiative_floor(arr), arr.d_fa / 10
    eps, n = np.finfo(float).eps, arr.n_per_side
    rng = np.random.default_rng(11)
    real_err = imag_err = 0.0
    for _ in range(100):
        d_i = 1.0 / rng.uniform(1 / far, 1 / near)
        d_j = 1.0 / rng.uniform(1 / far, 1 / near) if gap is None else d_i * (1 + gap)
        table = _phase_table(arr, np.array([d_i, d_j]), 0,
                             np.empty((2, n // 2), dtype=complex))
        got = _pair_sums(table[0].conj(), table[1], n, np.empty(n // 2, dtype=complex))
        real, imag = _long_double_axis_sum(arr, d_i, d_j)
        real_err = max(real_err, float(abs(np.longdouble(got.real) - real)))
        imag_err = max(imag_err, float(abs((np.longdouble(got.imag) - imag) / imag)))
    if gap is None:
        assert real_err <= 3 * eps * n
        assert imag_err <= 4e-15
    else:
        assert real_err <= np.spacing(float(n))
        assert imag_err <= 0.25 * eps / gap


def test_mmse_table_ignores_a_diagonal_unitary_similarity():
    """The MMSE table of a Gram G and of D^H G D, D = diag(e^{i phi}) with
    random phases: the range phase _phase_gram leaves out is such a D, so
    it can change no rate.  Each gain agrees to 200 eps cond(G + I)
    relative, and each interference entry to as much of the largest gain;
    with 100 user sets per K, 200 x 200 at lambda/2, the worst read 7.0 and
    1.9 eps cond(G + I) at this seed and at most 71 and 18 over seeds 0-3."""
    arr = wide_array()
    z_min, z_max = wide_region(arr)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(0)
    for k in (2, 5, 8):
        for dists in 1.0 / rng.uniform(1 / z_max, 1 / z_min, size=(100, k)):
            gram = _phase_gram(arr, dists)
            d = np.exp(2j * np.pi * rng.uniform(size=k))
            gains, cross = _mmse_table(gram)
            similar_gains, similar_cross = _mmse_table(d.conj()[:, None] * gram * d)
            bound = 200 * eps * np.linalg.cond(gram + np.eye(k))
            npt.assert_allclose(similar_gains, gains, rtol=bound)
            npt.assert_allclose(similar_cross, cross, rtol=0, atol=bound * gains.max())


def test_phase_gram_rates_match_a_long_double_gram():
    """Sum rates at 25 dB of 100 sets of K = 8 users drawn over the region,
    200 x 200 at lambda/2, from _phase_gram and from a Gram whose entries are
    products of _long_double_axis_sum's long-double axis sums, both through
    the float64 MMSE.  Over ten seeds of 50 sets the worst relative error
    read 1.5e-11 to 5.2e-11 and the median 6.6e-13 to 2.2e-12; a Gram that
    keeps the range phase e^{2 pi i (d_i - d_j)/lambda} read 1.2e-10 to
    5.5e-10 and 7.7e-12 to 1.7e-11, from its rounding of k |d_i - d_j|."""
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is no wider than double on this platform")
    arr = wide_array()
    z_min, z_max = wide_region(arr)
    k, power = 8, 10 ** 2.5
    rng = np.random.default_rng(3)
    errors = []
    for dists in 1.0 / rng.uniform(1 / z_max, 1 / z_min, size=(100, k)):
        reference = np.full((k, k), arr.n_elements, dtype=complex)
        for i, j in zip(*np.triu_indices(k, 1)):
            real, imag = _long_double_axis_sum(arr, dists[i], dists[j])
            entry = (real + 1j * imag) ** 2      # square: both axes alike
            reference[i, j], reference[j, i] = entry, np.conj(entry)
        expected = _table_rates(_mmse_table(reference), power)
        got = _table_rates(_mmse_table(_phase_gram(arr, dists)), power)
        errors.append(abs(got - expected) / expected)
    assert max(errors) <= 1e-10
    assert np.median(errors) <= 4e-12


def test_gram_interference_matches_explicit():
    """The Monte Carlo path's per-user interference, as small as 1e-7 of the
    signal here, equals the explicit channel's off-diagonal sum; subtracting
    the signal from a full row sum missed it by up to 5e-7 relative."""
    arr = wide_array()
    z_min, z_max = wide_region(arr)
    rng = np.random.default_rng(7)
    for dists in 1.0 / rng.uniform(1 / z_max, 1 / z_min, size=(20, 5)):
        h = build_channel_matrix(arr, [TxGeometry(float(d)) for d in dists])
        gains, cross = _split_diagonal(
            np.abs(h.entries.conj().T @ mmse_precoder(h).entries) ** 2)
        gram_gains, gram_cross = _mmse_table(_phase_gram(arr, dists))
        npt.assert_allclose(gram_gains, gains, rtol=1e-8)
        npt.assert_allclose(gram_cross.sum(-1), cross.sum(-1), rtol=1e-7)


def test_monte_carlo_reproducible():
    arr = wide_array()
    region = wide_region(arr)
    r1 = monte_carlo_sum_rate(arr, 3, region, 10, 25.0, seed=123)
    r2 = monte_carlo_sum_rate(arr, 3, region, 10, 25.0, seed=123)
    assert r1.mean_rate == r2.mean_rate
    single = monte_carlo_sum_rate(arr, 3, region, 1, 25.0, seed=9)
    assert single.stderr == 0.0
    assert single.n_trials == 1


def _smallest_windows(monkeypatch):
    """Monte Carlo Gram stacks of one trial and windows of one period, one
    trial of the largest user count."""
    monkeypatch.setattr(multiplexing, "_WINDOW_VALUES", 1)
    monkeypatch.setattr(multiplexing, "_STACK_ENTRIES", 1)


@pytest.mark.parametrize("ks", [[8], range(1, 9), [3, 5]])
def test_smallest_windows_hold_one_trial(monkeypatch, ks):
    """Under ``_smallest_windows`` every Gram stack is one trial and every
    window one period of p rows: the first window builds its period and the
    p - 1 rows its last pairs reach, each later one the p rows past those,
    and the last one the stream's last row."""
    arr = make_rect_array(21, 1.0, FixedElementDiagonal(LAM / 2), LAM)
    p, n_trials = max(ks), 7
    rows, stacks = [], []
    built, stacked = multiplexing._phase_table, multiplexing._gram_stacks

    def counted(arr, dists, axis, out=None):
        rows.append(len(dists))
        return built(arr, dists, axis, out)

    def recorded(*args):
        for stack in stacked(*args):
            stacks.append(stack[1:3])
            yield stack

    _smallest_windows(monkeypatch)
    monkeypatch.setattr(multiplexing, "_phase_table", counted)
    monkeypatch.setattr(multiplexing, "_gram_stacks", recorded)
    monte_carlo_sum_rate(arr, ks, wide_region(arr), n_trials, 20.0, seed=2)
    assert rows == [2 * p - 1] + [p] * (n_trials - 2) + [1]
    assert all(t1 - t0 == 1 for t0, t1 in stacks)
    assert len(stacks) == len(set(ks)) * n_trials


def test_monte_carlo_blocks_do_not_couple_trials(monkeypatch):
    """Gram stacks of one trial give the default run's bits, an SNR grid
    gives each SNR's own run's bits, and the memory a call takes does not
    grow with its trial count."""
    arr = wide_array()
    region = wide_region(arr)
    n_trials = 301        # not a multiple of the default stack (64 trials here)
    for snrs in ((25.0,), (0.0, 25.0, 30.0)):
        default = [monte_carlo_sum_rate(arr, 8, region, n_trials, snr, seed=5)
                   for snr in snrs]
        assert monte_carlo_sum_rate(arr, 8, region, n_trials, snrs, seed=5) == default
        _smallest_windows(monkeypatch)
        assert [monte_carlo_sum_rate(arr, 8, region, n_trials, snr, seed=5)
                for snr in snrs] == default
        assert monte_carlo_sum_rate(arr, 8, region, n_trials, snrs, seed=5) == default
        monkeypatch.undo()

        def peak(trials):
            return _traced_peak(monte_carlo_sum_rate, arr, 8, region, trials, snrs, 5)

        assert peak(3000) <= 1.5 * peak(300)


def test_one_mmse_solve_per_block_serves_every_snr(monkeypatch):
    """A 5-SNR call solves one MMSE system stack per Gram stack, as many as
    a 1-SNR call, not one per SNR; a stack of K = 5 users holds
    _STACK_ENTRIES // 25 trials, whatever the array size."""
    arr = wide_array()
    region = wide_region(arr)
    solves = []
    solve = np.linalg.solve

    def counted(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    n_trials = 301
    block = multiplexing._STACK_ENTRIES // 25
    blocks = -(-n_trials // block)
    assert blocks > 1
    monte_carlo_sum_rate(arr, 5, region, n_trials, [0.0, 5.0, 10.0, 20.0, 30.0], seed=5)
    assert [shape[0] for shape in solves] == [block] * (blocks - 1) + [n_trials % block]
    assert sum(shape[0] for shape in solves) == n_trials
    solves.clear()
    monte_carlo_sum_rate(arr, 5, region, n_trials, 20.0, seed=5)
    assert len(solves) == blocks


@pytest.mark.parametrize("arr, axes", [
    (wide_array(), [0]),
    (wide_array(0.3), [0, 1]),
    (project_array(wide_array(), 0.5), [0, 1]),
])
def test_square_arrays_fold_one_axis_sum(monkeypatch, arr, axes):
    """Equal element sides give bit-identical axes, so the Monte Carlo and
    _phase_gram build the phase table of one of them;
    test_phase_gram_matches_pairwise_definition checks the values."""
    calls = []
    built = multiplexing._phase_table

    def counted(arr, dists, axis, out=None):
        calls.append(axis)
        return built(arr, dists, axis, out)

    monkeypatch.setattr(multiplexing, "_phase_table", counted)
    monte_carlo_sum_rate(arr, 4, wide_region(arr), 40, 25.0, seed=3)  # one block
    _phase_gram(arr, np.array([2.0, 3.0]) * arr.d_b)
    assert calls == axes * 2


def _single_count_calls(arr, ks, region, n_trials, snr_db, seed):
    return [monte_carlo_sum_rate(arr, k, region, n_trials, snr_db, seed) for k in ks]


@pytest.mark.parametrize("ks, snrs", [([3, 1, 5], [0.0, 25.0]), ([2], [20.0]),
                                      (range(1, 4), (30.0, -5.0, 30.0))])
def test_user_counts_by_snrs_equal_the_nested_single_calls(ks, snrs):
    """Both arguments as sequences give a list per count of results per SNR,
    each the bits of its own single call; one-entry sequences keep their
    nesting."""
    arr = make_rect_array(51, 1.0, FixedElementDiagonal(LAM / 2), LAM)
    region = wide_region(arr)
    grid = monte_carlo_sum_rate(arr, ks, region, 41, snrs, seed=11)
    assert grid == [[monte_carlo_sum_rate(arr, k, region, 41, snr, seed=11)
                     for snr in snrs] for k in ks]


@pytest.mark.parametrize("arr, ks", [
    (wide_array(), range(1, 9)),
    (wide_array(), [5, 2, 7, 2, 3]),                       # out of order, repeated
    (make_rect_array(51, 1.0, FixedElementDiagonal(LAM / 2), LAM), [3, 4, 6]),  # odd n
    (wide_array(0.3), [8, 1, 4]),                          # unequal sides: y tables
    (make_rect_array(33, 2.5, FixedElementDiagonal(LAM / 2), LAM), [2, 6, 5]),
])
def test_user_count_sweep_equals_single_count_calls(monkeypatch, arr, ks):
    """A sequence of user counts returns, per entry, the bits of that
    count's own call, also when a Gram stack holds one trial and a window one
    period.  301 trials is a multiple of no stack here (64-1024 trials for
    K = 2-8)."""
    region = wide_region(arr)
    for seed, n_trials in ((5, 301), (17, 3)):
        swept = monte_carlo_sum_rate(arr, ks, region, n_trials, 20.0, seed)
        assert swept == _single_count_calls(arr, ks, region, n_trials, 20.0, seed)
        _smallest_windows(monkeypatch)
        assert monte_carlo_sum_rate(arr, ks, region, n_trials, 20.0, seed) == swept
        monkeypatch.undo()


@pytest.mark.parametrize("arr, axes", [(wide_array(), [0]), (wide_array(0.3), [0, 1])])
def test_user_count_sweep_builds_one_table_row_per_distance(monkeypatch, arr, axes):
    """A k = 2..8 sweep of T trials draws k_max T distances and builds each
    one's phase-table row once per axis it needs, over several chunks."""
    rows = []
    built = multiplexing._phase_table

    def counted(arr, dists, axis, out=None):
        rows.append((axis, len(dists)))
        return built(arr, dists, axis, out)

    monkeypatch.setattr(multiplexing, "_phase_table", counted)
    n_trials = 301
    monte_carlo_sum_rate(arr, range(2, 9), wide_region(arr), n_trials, 20.0, seed=5)
    assert len(rows) > 2 * len(axes)
    for axis in axes:
        assert sum(n for a, n in rows if a == axis) == 8 * n_trials
    assert {a for a, _ in rows} == set(axes)


@pytest.mark.parametrize("ks, per_trial", [
    (range(1, 9), 49),     # offsets 1-6 at every start, offset 7 at 1 of 8
    ([8], 28), ([1, 8], 28), ([5], 10), ([2], 1),   # only the count's own pairs
    ([3, 4, 6], 21),       # offsets 1-3 at every start, 4 at 2 of 6, 5 at 1
])
def test_user_counts_share_one_pass_of_pair_sums(monkeypatch, ks, per_trial):
    """Count k's trial t pairs the users t k + a and t k + b, so one pass of
    pair sums per offset b - a serves every count: T trials of k = 1..8
    evaluate 49 T pair rows per axis, against the 84 T of one pass per count
    and the 56 T of every start of every offset.  A lone count evaluates its
    k (k - 1)/2 pairs per trial, no more."""
    arr = wide_array()
    evaluated = []
    summed = multiplexing._pair_sums

    def counted(*args, **kwargs):
        sums = summed(*args, **kwargs)
        evaluated.append(sums.size)
        return sums

    monkeypatch.setattr(multiplexing, "_pair_sums", counted)
    n_trials = 301
    monte_carlo_sum_rate(arr, ks, wide_region(arr), n_trials, 20.0, seed=5)
    assert sum(evaluated) == per_trial * n_trials
    assert sum(evaluated) <= 56 * n_trials


def test_user_count_sweep_memory_does_not_grow_with_trials():
    """The distance stream is read in windows of whole periods: the phase
    tables, pair sums and Gram stacks held are one window's (and the rows its
    last pairs reach) whatever the trial count; only the draws and the rates
    (a few floats per trial) grow."""
    arr = wide_array()
    region = wide_region(arr)

    def peak(trials):
        return _traced_peak(monte_carlo_sum_rate, arr, range(1, 9), region, trials, 20.0, 5)

    assert peak(3000) <= 1.5 * peak(300)


def test_monte_carlo_k_sweep_peaks_at_five():
    arr = wide_array()
    region = wide_region(arr)
    means = [monte_carlo_sum_rate(arr, k, region, 500, 25.0, seed=MC_SEED).mean_rate
             for k in range(1, 9)]
    assert int(np.argmax(means)) + 1 == 5
    npt.assert_allclose(means[0], MC_K1_MEAN, rtol=1e-12)
    npt.assert_allclose(means[4], MC_K5_MEAN, rtol=1e-9)


def test_planned_beats_random_placement_at_20db():
    arr, _, h, w, _ = planned_setup()
    planned = sum_rate(h, w, [100.0] * 5)
    random_mean = monte_carlo_sum_rate(arr, 5, wide_region(arr), 300, 20.0,
                                       seed=7)
    assert planned >= random_mean.mean_rate
    assert planned > 90
    assert random_mean.mean_rate < 75


def test_random_draws_bounded_by_planned():
    arr, _, h, w, powers = planned_setup()
    planned = sum_rate(h, w, powers)
    region = wide_region(arr)
    rng = np.random.default_rng(MC_SEED)
    draws = 1.0 / rng.uniform(1 / region[1], 1 / region[0], size=(10_000, 5))
    p = 10 ** 2.5
    best = max(_table_rates(_mmse_table(_phase_gram(arr, d)), p) for d in draws)
    assert best <= planned * 1.01


def test_eta_extremes_fit_more_users_and_rate():
    base = wide_array(1.0, FixedApertureLength(100 * LAM))
    region = wide_region(base)
    results = {}
    for eta in (0.1, 1.0, 10.0):
        arr = make_rect_array(200, eta, FixedApertureLength(100 * LAM), LAM)
        plan = plan_focal_points(arr, region)
        h = build_channel_matrix(arr, [TxGeometry(float(f)) for f in plan.focal_points])
        w = mmse_precoder(h)
        results[eta] = (len(plan), sum_rate(h, w, [10 ** 2.5] * len(plan)))
    assert results[0.1][0] >= results[1.0][0]
    assert results[10.0][0] >= results[1.0][0]
    assert results[0.1][1] >= results[1.0][1]
    assert results[10.0][1] >= results[1.0][1]
    npt.assert_allclose(results[0.1][1], results[10.0][1], rtol=1e-9)


def test_monte_carlo_validation():
    arr = wide_array()
    region = wide_region(arr)
    with pytest.raises(ValueError):
        monte_carlo_sum_rate(arr, 0, region, 10, 25.0, seed=1)
    with pytest.raises(ValueError):
        monte_carlo_sum_rate(arr, 2, region, 0, 25.0, seed=1)
    with pytest.raises(ValueError):
        monte_carlo_sum_rate(arr, 2, (region[1], region[0]), 10, 25.0, seed=1)
    for snr_db in (math.nan, math.inf):
        with pytest.raises(ValueError, match="snr_db"):
            monte_carlo_sum_rate(arr, 2, region, 10, snr_db, seed=1)
    with pytest.raises(ValueError, match="region bounds must be finite"):
        monte_carlo_sum_rate(arr, 3, (arr.d_b, math.inf), 20, 20.0, seed=1)
    # an empty list is no sequence, so it is read as one count or SNR
    with pytest.raises(ValueError, match=r"^k_users: \[\] is not a finite number"):
        monte_carlo_sum_rate(arr, [], region, 10, 25.0, seed=1)
    with pytest.raises(ValueError, match=r"^snr_db: \[\] is not a finite number"):
        monte_carlo_sum_rate(arr, 2, region, 10, [], seed=1)
    for bad in (0, 2.5, math.nan, True):
        with pytest.raises(ValueError, match=rf"^k_users[: ].*{re.escape(repr(bad))}"):
            monte_carlo_sum_rate(arr, [2, bad], region, 10, 25.0, seed=1)
    # build_channel_matrix refuses these users, so the rate path does too
    with pytest.raises(ValueError, match="reactive near-field"):
        monte_carlo_sum_rate(arr, 3, (0.12, 6.0), 5, 20.0, seed=1)


@st.composite
def in_domain_arrays(draw):
    """Arrays with n_per_side 2-64, eta 0.3-3 and an aperture length of 7-60
    wavelengths: d_FA/10 = L^2/(5 lambda) clears the radiative floor 1.2 L
    only beyond 6 wavelengths."""
    return make_rect_array(draw(st.integers(2, 64)), draw(st.floats(0.3, 3.0)),
                           FixedApertureLength(draw(st.floats(7.0, 60.0)) * LAM), LAM)


@given(in_domain_arrays(), st.integers(1, 3), st.integers(1, 8), st.data())
@settings(max_examples=80, deadline=None)
def test_phase_gram_in_domain(arr, trials, k, data):
    """For a (trials, K) stack of distances from the radiative floor to
    d_FA/10, every Gram matrix is exactly Hermitian with diagonal N, and no
    entry exceeds N in modulus."""
    near, far = radiative_floor(arr), arr.d_fa / 10
    fractions = data.draw(st.lists(st.floats(0.0, 1.0), min_size=trials * k,
                                   max_size=trials * k))
    dists = np.clip(near * (far / near) ** np.reshape(fractions, (trials, k)), near, far)
    gram = _phase_gram(arr, dists)
    assert gram.shape == (trials, k, k)
    npt.assert_array_equal(gram, gram.conj().swapaxes(-1, -2))
    npt.assert_array_equal(np.diagonal(gram, axis1=-2, axis2=-1), arr.n_elements)
    assert np.all(np.abs(gram) <= arr.n_elements * (1 + 1e-12))


@given(in_domain_arrays(), st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_channel_gram_matches_phase_gram_in_domain(arr, k, data):
    """Broadside phase-model channels of K users from the radiative floor to
    d_FA/10: their Gram is exactly Hermitian, its diagonal real and N to
    within 10 eps N, and it is the analytic _phase_gram, whose columns leave
    out the range phase, with entry (i, j) times e^{2 pi i (d_i - d_j)/lambda}
    to within 1.5 eps N (2 pi/lambda) d_max.  Each entry's range phase
    2 pi d/lambda is rounded to about eps 2 pi d/lambda, so the channel
    carries that error coherently over N elements.  Over 4000 seeded draws
    the worst cases read 6.0 eps N and 0.86 eps N (2 pi/lambda) d_max; the
    diagonal was exactly N in a third of them."""
    near, far = radiative_floor(arr), arr.d_fa / 10
    fractions = data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    dists = np.clip(near * (far / near) ** np.array(fractions), near, far)
    gram = _channel_gram(build_channel_matrix(arr, [TxGeometry(float(d)) for d in dists]))
    eps, n = np.finfo(float).eps, arr.n_elements
    npt.assert_array_equal(gram, gram.conj().T)
    assert not gram.diagonal().imag.any()
    npt.assert_allclose(gram.diagonal().real, n, rtol=0, atol=10 * eps * n)
    wavenumber = 2 * np.pi / arr.wavelength
    lead = np.exp(1j * wavenumber * (dists[:, None] - dists[None, :]))
    npt.assert_allclose(gram, lead * _phase_gram(arr, dists), rtol=0,
                        atol=1.5 * eps * n * wavenumber * dists.max())


@given(in_domain_arrays(), st.integers(1, 8), st.integers(1, 20),
       st.lists(st.floats(-20.0, 40.0), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_monte_carlo_snr_grid_in_domain(arr, k, n_trials, snrs_db, seed):
    """Over the region from the radiative floor to d_FA/10, every mean rate
    and its stderr of an SNR list are finite and non-negative."""
    region = (radiative_floor(arr), arr.d_fa / 10)
    results = monte_carlo_sum_rate(arr, k, region, n_trials, snrs_db, seed)
    assert len(results) == len(snrs_db)
    for result in results:
        assert result.n_trials == n_trials
        assert math.isfinite(result.mean_rate) and result.mean_rate >= 0
        assert math.isfinite(result.stderr) and result.stderr >= 0


@given(in_domain_arrays(), st.lists(st.integers(1, 8), min_size=1, max_size=4),
       st.integers(1, 20), st.floats(-20.0, 40.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_monte_carlo_user_counts_in_domain(arr, ks, n_trials, snr_db, seed):
    """A sequence of user counts over the region from the radiative floor to
    d_FA/10 gives, per entry, the result of that count's own call."""
    region = (radiative_floor(arr), arr.d_fa / 10)
    results = monte_carlo_sum_rate(arr, ks, region, n_trials, snr_db, seed)
    assert results == _single_count_calls(arr, ks, region, n_trials, snr_db, seed)
    for result in results:
        assert result.n_trials == n_trials
        assert math.isfinite(result.mean_rate) and result.mean_rate >= 0
