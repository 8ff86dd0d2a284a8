import math

import numpy as np
import numpy.testing as npt
import pytest

from nearfield_bd.array_geometry import (
    FixedApertureLength,
    FixedElementDiagonal,
    TxGeometry,
    characteristic_distances,
    make_rect_array,
    wavelength_from_carrier,
)
from nearfield_bd.beam_depth import solve_a3db
from nearfield_bd.field_model import QuadratureSpec, element_channel
from nearfield_bd.multiplexing import (
    ChannelMatrix,
    PlacementPlan,
    build_channel_matrix,
    mmse_precoder,
    monte_carlo_sum_rate,
    plan_focal_points,
    sum_rate,
    user_sinrs,
    _phase_gram,
    _rates_from_gram,
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
    d = characteristic_distances(arr, solve_a3db(arr.eta))
    return (d.d_b, d.d_fa / 10)


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
    d_fa = characteristic_distances(arr, 1.25).d_fa
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
        d = characteristic_distances(arr, solve_a3db(eta))
        c = 4 * solve_a3db(eta) * (1 + eta ** 2)
        limit = d.d_fa / c
        z_min = float(rng.uniform(d.d_b, 0.3 * limit + 0.7 * d.d_b))
        z_max = float(rng.uniform(z_min * 1.5, 0.95 * limit))
        plan = plan_focal_points(arr, (z_min, z_max))
        assert len(plan) >= 1
        by_lo = sorted(plan.intervals)
        for (_, hi), (lo, _) in zip(by_lo, by_lo[1:]):
            assert hi <= lo * (1 + 1e-9)
        for f, (lo, hi) in zip(plan.focal_points, plan.intervals):
            assert lo < f < hi


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
    npt.assert_allclose(np.abs(h.entries), 1.0, atol=1e-12)
    npt.assert_allclose(np.linalg.norm(h.entries[:, 0]) ** 2,
                        arr.n_elements, rtol=1e-12)


def test_channel_fresnel_model_norm():
    """Amplitude-bearing midpoint columns have the closed-form norm of a
    flat field over the aperture."""
    arr = wide_array()
    d = 700 * LAM
    h = build_channel_matrix(arr, [TxGeometry(d)], model="fresnel")
    expected = arr.n_elements * arr.elem_area / (4 * math.pi * d ** 2)
    npt.assert_allclose(np.linalg.norm(h.entries[:, 0]) ** 2, expected,
                        rtol=1e-12)


def test_channel_identical_users_and_rank():
    arr = wide_array()
    tx = TxGeometry(600 * LAM)
    h = build_channel_matrix(arr, [tx, tx])
    npt.assert_allclose(h.entries[:, 0], h.entries[:, 1], rtol=0, atol=0)
    _, plan, hp, _, _ = planned_setup()
    gram = hp.entries.conj().T @ hp.entries
    assert np.linalg.matrix_rank(hp.entries) == len(plan)
    assert np.isfinite(np.linalg.cond(gram))


def test_channel_exact_model_close_to_midpoint():
    arr = make_rect_array(20, 1.0, FixedElementDiagonal(LAM / 2), LAM)
    users = [TxGeometry(40 * LAM)]
    mid = build_channel_matrix(arr, users, model="fresnel")
    exact = build_channel_matrix(arr, users, model="exact")
    rel = (np.abs(mid.entries - exact.entries).max()
           / np.abs(exact.entries).max())
    assert rel < 0.05


@pytest.mark.parametrize("quad", [QuadratureSpec(8, 1), QuadratureSpec(2, 3)],
                         ids=["8-1", "2-3"])
def test_channel_exact_model_matches_element_channel(quad):
    arr = make_rect_array(6, 2.0, FixedElementDiagonal(2 * LAM), LAM)
    users = [TxGeometry(1.5 * arr.aperture_len, azimuth=0.3),
             TxGeometry(3 * arr.aperture_len)]
    h = build_channel_matrix(arr, users, quad, model="exact").entries
    for k, tx in enumerate(users):
        for n in range(1, 7):
            for m in range(1, 7):
                npt.assert_allclose(h[(n - 1) * 6 + (m - 1), k],
                                    element_channel(arr, n, m, tx, quad), rtol=1e-12)


def test_channel_validation():
    arr = wide_array()
    with pytest.raises(ValueError, match="user 1"):
        build_channel_matrix(arr, [TxGeometry(500 * LAM), TxGeometry(50 * LAM)])
    coarse = make_rect_array(2, 1.0, FixedElementDiagonal(32 * LAM), LAM)
    with pytest.raises(RuntimeError, match="user 0: aperture quadrature did not converge"):
        build_channel_matrix(coarse, [TxGeometry(3 * coarse.aperture_len)],
                             QuadratureSpec(2, 1), model="exact")
    with pytest.raises(ValueError):
        build_channel_matrix(arr, [])
    with pytest.raises(ValueError):
        build_channel_matrix(arr, [TxGeometry(500 * LAM)], model="bogus")
    with pytest.raises(ValueError):
        ChannelMatrix(np.array([[1.0, np.inf]]))
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


def test_gram_fast_path_matches_explicit():
    arr = make_rect_array(50, 1.0, FixedElementDiagonal(LAM / 2), LAM)
    dists = np.array([200.0, 310.0, 555.0]) * LAM
    h = build_channel_matrix(arr, [TxGeometry(float(d)) for d in dists])
    w = mmse_precoder(h)
    p = 10 ** 2.5
    explicit = sum_rate(h, w, [p] * 3)
    fast = _rates_from_gram(_phase_gram(arr, dists), p)
    npt.assert_allclose(fast, explicit, rtol=1e-10)


def test_monte_carlo_reproducible():
    arr = wide_array()
    region = wide_region(arr)
    r1 = monte_carlo_sum_rate(arr, 3, region, 10, 25.0, seed=123)
    r2 = monte_carlo_sum_rate(arr, 3, region, 10, 25.0, seed=123)
    assert r1.mean_rate == r2.mean_rate
    single = monte_carlo_sum_rate(arr, 3, region, 1, 25.0, seed=9)
    assert single.stderr == 0.0
    assert single.n_trials == 1


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
    best = max(_rates_from_gram(_phase_gram(arr, d), p) for d in draws)
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
