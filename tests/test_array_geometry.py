import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfield_bd.array_geometry import (
    CircArray,
    FixedApertureArea,
    FixedApertureLength,
    FixedElementDiagonal,
    TxGeometry,
    element_grid,
    make_rect_array,
    project_array,
    wavelength_from_carrier,
)
from nearfield_bd.beam_depth import finite_bd_limit_rect

LAM = wavelength_from_carrier(3e9)


def quarter_wave_square(n_per_side=100):
    return make_rect_array(n_per_side, 1.0, FixedElementDiagonal(LAM / 4), LAM)


def test_wavelength_at_3ghz():
    npt.assert_allclose(LAM, 299792458.0 / 3e9, rtol=1e-15)


def test_reference_square_array_distances():
    """100x100 grid of quarter-wavelength elements: the worked example."""
    arr = quarter_wave_square()
    npt.assert_allclose(arr.aperture_len, 25 * LAM, rtol=1e-12)
    npt.assert_allclose(arr.d_f, LAM / 8, rtol=1e-12)
    npt.assert_allclose(arr.d_fa, 1250 * LAM, rtol=1e-12)
    npt.assert_allclose(arr.d_b, 50 * LAM, rtol=1e-12)
    npt.assert_allclose(arr.d_b, 400 * arr.d_f, rtol=1e-12)
    npt.assert_allclose(arr.d_fa, arr.n_elements * arr.d_f, rtol=1e-12)


@pytest.mark.parametrize("eta", [0.1, 0.5, 1.0, 2.0, 4.0, 10.0])
def test_element_shape_invariants(eta):
    arr = make_rect_array(30, eta, FixedElementDiagonal(0.02), LAM)
    npt.assert_allclose(arr.elem_h ** 2 + arr.elem_w ** 2, arr.elem_diag ** 2,
                        rtol=1e-12)
    npt.assert_allclose(arr.elem_w / arr.elem_h, eta, rtol=1e-12)


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=1e-6, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_fixed_area_round_trip(eta, area):
    arr = make_rect_array(17, eta, FixedApertureArea(area), LAM)
    npt.assert_allclose(arr.aperture_area, area, rtol=1e-12)
    npt.assert_allclose(arr.aperture_len,
                        math.sqrt(area * (1 + eta ** 2) / eta), rtol=1e-12)


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=1e-3, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_fixed_length_round_trip(eta, length):
    arr = make_rect_array(23, eta, FixedApertureLength(length), LAM)
    npt.assert_allclose(arr.aperture_len, length, rtol=1e-12)


def test_single_element_degenerate():
    arr = make_rect_array(1, 1.0, FixedElementDiagonal(0.05), LAM)
    assert arr.aperture_len == arr.elem_diag
    assert [v.tolist() for v in element_grid(arr)] == [[0.0], [0.0]]


def test_fixed_area_length_minimized_at_square():
    etas = np.linspace(0.1, 10.0, 199)
    lengths = [make_rect_array(10, e, FixedApertureArea(1.0), LAM).aperture_len
               for e in etas]
    assert etas[int(np.argmin(lengths))] == pytest.approx(1.0, abs=0.06)
    assert min(lengths) >= math.sqrt(2.0) - 1e-12


def test_element_grid_values():
    arr = quarter_wave_square()
    xs, ys = element_grid(arr)
    npt.assert_allclose(xs[0], -49.5 * arr.elem_w, rtol=1e-12)
    npt.assert_allclose(ys[0], -49.5 * arr.elem_h, rtol=1e-12)
    odd = make_rect_array(7, 1.0, FixedElementDiagonal(0.01), LAM)
    xs, ys = element_grid(odd)
    assert (xs[3], ys[3]) == (0.0, 0.0)


def test_element_centers_sum_to_zero():
    arr = make_rect_array(12, 1.7, FixedElementDiagonal(0.01), LAM)
    xs, ys = element_grid(arr)
    assert abs(xs.sum()) < 1e-9 * arr.aperture_len
    assert abs(ys.sum()) < 1e-9 * arr.aperture_len


def test_bd_limit_scale_invariance():
    """The finite-depth limit over d_F at fixed grid and eta does not depend
    on wavelength."""
    ratios = []
    for lam in [0.01, 0.1, 1.0]:
        arr = make_rect_array(50, 2.0, FixedElementDiagonal(lam / 4), lam)
        ratios.append(finite_bd_limit_rect(arr) / arr.d_f)
    npt.assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_projection_basic():
    arr = quarter_wave_square()
    same = project_array(arr, 0.0)
    assert same == arr
    proj = project_array(arr, math.pi / 3)
    npt.assert_allclose(proj.eta, 0.5, rtol=1e-12)
    npt.assert_allclose(proj.elem_w, arr.elem_w * 0.5, rtol=1e-12)
    assert proj.elem_h == arr.elem_h
    npt.assert_allclose(proj.aperture_len,
                        math.hypot(arr.aperture_h, arr.aperture_w * 0.5),
                        rtol=1e-12)


def test_projection_approaches_height():
    arr = quarter_wave_square()
    nearly = project_array(arr, math.pi / 2 - 1e-6)
    npt.assert_allclose(nearly.aperture_len, arr.aperture_h, rtol=1e-9)
    with pytest.raises(ValueError):
        project_array(arr, math.pi / 2)


@given(st.floats(min_value=-1.5, max_value=1.5))
@settings(max_examples=100, deadline=None)
def test_projection_composition(phi):
    arr = make_rect_array(9, 3.0, FixedElementDiagonal(0.03), LAM)
    assert project_array(project_array(arr, 0.0), phi) == project_array(arr, phi)


def test_tx_geometry_cartesian():
    tx = TxGeometry(dist=10.0, azimuth=math.pi / 6, elevation=math.pi / 8)
    npt.assert_allclose(tx.x, 10 * math.sin(math.pi / 6) * math.cos(math.pi / 8))
    npt.assert_allclose(tx.y, 10 * math.sin(math.pi / 8))
    npt.assert_allclose(tx.z, 10 * math.cos(math.pi / 8) * math.cos(math.pi / 6))
    npt.assert_allclose(np.hypot(np.hypot(tx.x, tx.y), tx.z), 10.0, rtol=1e-12)
    assert TxGeometry(5.0).position == (0.0, 0.0, 5.0)


def test_tx_geometry_validation():
    with pytest.raises(ValueError):
        TxGeometry(dist=-1.0)
    with pytest.raises(ValueError):
        TxGeometry(dist=1.0, azimuth=math.pi / 2)
    with pytest.raises(ValueError):
        TxGeometry(dist=1.0, elevation=-math.pi / 2)


def test_make_rect_array_validation():
    with pytest.raises(ValueError):
        make_rect_array(0, 1.0, FixedElementDiagonal(0.01), LAM)
    with pytest.raises(ValueError):
        make_rect_array(10, -1.0, FixedElementDiagonal(0.01), LAM)
    with pytest.raises(ValueError):
        make_rect_array(10, 1.0, FixedElementDiagonal(float("nan")), LAM)
    with pytest.raises(TypeError):
        make_rect_array(10, 1.0, 0.01, LAM)
    with pytest.raises(ValueError):
        CircArray(radius=0.0, wavelength=LAM)
