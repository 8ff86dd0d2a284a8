"""Aperture geometry for planar arrays.

Rectangular arrays are n-by-n grids of elements whose width-to-height
ratio is ``eta``; three sizing modes fix either the element diagonal, the
total aperture area, or the aperture length (diagonal of the whole array).
Also provides circular apertures, transmitter placement in azimuth and
elevation, and the projected (width-compressed) array seen from a
non-broadside direction. A rectangular array carries its characteristic
distances (element and array Fraunhofer distances, boundary distance) as
properties.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0


def _shown(value) -> str:
    """``value`` as an error message shows it: its repr, a numpy scalar's as
    its Python value's, so np.float64(nan) reads nan, and with any memory
    address dropped, so an iterator reads <list_iterator object>."""
    if isinstance(value, np.generic):
        value = value.item()
    return re.sub(r" at 0x[0-9a-fA-F]+", "", repr(value))


def _real(name, value, low=0.0, *, strict=True, inf=False) -> float:
    """``value`` as a float above ``low`` (at least ``low`` unless ``strict``) and
    finite unless ``inf``; anything else, None, strings, sequences and bools
    included, raises ValueError naming ``name``."""
    # float and int first: they skip the slower numbers.Real check
    if (isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real))
            or math.isnan(value) or (math.isinf(value) and not inf)):
        raise ValueError(f"{name}: {_shown(value)} is not a "
                         f"{'' if inf else 'finite '}number")
    if value < low or (strict and value == low):
        raise ValueError(
            f"{name} must be {'>' if strict else '>='} {low:g}, got {_shown(value)}")
    return float(value)


def _integer(name, value, low=1) -> int:
    """``value`` as an int of at least ``low``: an integral number such as 3 or
    3.0, not a bool; anything else raises ValueError naming ``name``."""
    if not _real(name, value, -math.inf, strict=False).is_integer():
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    if int(value) < low:
        raise ValueError(f"{name} must be at least {low}, got {_shown(value)}")
    return int(value)


def _angle(name, value) -> float:
    """``value`` as a finite float strictly between -pi/2 and pi/2, an azimuth
    or elevation from broadside; anything else raises ValueError naming ``name``."""
    value = _real(name, value, -math.inf, strict=False)
    if not abs(value) < math.pi / 2:
        raise ValueError(f"{name} must lie in (-pi/2, pi/2), got {value!r}")
    return value


def _one_or_many(value) -> tuple[list, bool]:
    """``(entries, single)``: the entries of a sequence and False, or
    ``[value]`` and True for anything else.  A sequence is a non-empty 1-D
    array, or a list, tuple or range with an entry that is none of these; so
    a number, a string, an iterator, an empty sequence and a grid of
    sequences are each one entry.  The caller's reader of an entry takes or
    refuses each one, so one point and a sequence of points read alike."""
    if isinstance(value, np.ndarray):
        many = value.ndim == 1 and value.size > 0
    else:
        many = isinstance(value, (list, tuple, range)) and not all(
            isinstance(entry, (list, tuple, range, np.ndarray)) for entry in value)
    return (list(value), False) if many else ([value], True)


def wavelength_from_carrier(carrier_hz: float) -> float:
    return SPEED_OF_LIGHT / _real("carrier frequency", carrier_hz)


@dataclass(frozen=True)
class FixedElementDiagonal:
    """Size by the diagonal of a single element."""

    diag: float


@dataclass(frozen=True)
class FixedApertureArea:
    """Size by the total aperture area N*w*h."""

    area: float


@dataclass(frozen=True)
class FixedApertureLength:
    """Size by the diagonal of the whole aperture."""

    length: float


@dataclass(frozen=True)
class RectArray:
    """n_per_side x n_per_side grid of w-by-h elements."""

    n_per_side: int
    eta: float
    elem_diag: float
    elem_h: float
    elem_w: float
    wavelength: float

    def __post_init__(self):
        object.__setattr__(self, "n_per_side", _integer("n_per_side", self.n_per_side))
        for name in ("eta", "elem_diag", "elem_h", "elem_w", "wavelength"):
            _real(name, getattr(self, name))
        # the closed forms read eta and the diagonal, the exact kernels the
        # sides, so they must agree: built arrays do within 2 eps
        for name, value in (("eta", self.elem_w / self.elem_h),
                            ("elem_diag", math.hypot(self.elem_w, self.elem_h))):
            if abs(value / getattr(self, name) - 1.0) > 8 * math.ulp(1.0):
                raise ValueError(f"{name} must be {value!r} for elements {self.elem_w!r} "
                                 f"wide and {self.elem_h!r} high, got {getattr(self, name)!r}")

    @property
    def n_elements(self) -> int:
        return self.n_per_side * self.n_per_side

    @property
    def elem_area(self) -> float:
        return self.elem_w * self.elem_h

    @property
    def aperture_len(self) -> float:
        return self.n_per_side * self.elem_diag

    @property
    def aperture_area(self) -> float:
        return self.n_elements * self.elem_area

    @property
    def aperture_w(self) -> float:
        return self.n_per_side * self.elem_w

    @property
    def aperture_h(self) -> float:
        return self.n_per_side * self.elem_h

    @property
    def d_f(self) -> float:
        """Fraunhofer distance of one element."""
        return 2.0 * self.elem_diag ** 2 / self.wavelength

    @property
    def d_fa(self) -> float:
        """Fraunhofer distance of the whole array."""
        return self.n_elements * self.d_f

    @property
    def d_b(self) -> float:
        """Boundary distance: twice the aperture length."""
        return 2.0 * self.elem_diag * self.n_per_side


@dataclass(frozen=True)
class CircArray:
    """Circular aperture of the given radius."""

    radius: float
    wavelength: float

    def __post_init__(self):
        _real("radius", self.radius)
        _real("wavelength", self.wavelength)

    @property
    def aperture_len(self) -> float:
        """Diameter of the disk."""
        return 2.0 * self.radius

    @property
    def aperture_area(self) -> float:
        return math.pi * self.radius ** 2


@dataclass(frozen=True)
class TxGeometry:
    """Transmitter placement: range plus azimuth/elevation from broadside."""

    dist: float
    azimuth: float = 0.0
    elevation: float = 0.0

    def __post_init__(self):
        _real("dist", self.dist)
        _angle("azimuth", self.azimuth)
        _angle("elevation", self.elevation)

    @property
    def x(self) -> float:
        return self.dist * math.sin(self.azimuth) * math.cos(self.elevation)

    @property
    def y(self) -> float:
        return self.dist * math.sin(self.elevation)

    @property
    def z(self) -> float:
        return self.dist * math.cos(self.elevation) * math.cos(self.azimuth)

    @property
    def position(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def _transmitters(tx) -> tuple:
    """``_one_or_many`` of ``tx``, each entry a TxGeometry; any other entry
    raises a ValueError starting with tx, naming its index in a sequence."""
    txs, single = _one_or_many(tx)
    for i, t in enumerate(txs):
        if not isinstance(t, TxGeometry):
            raise ValueError(f"tx{'' if single else f' {i}'}: {_shown(t)} is not a TxGeometry")
    return txs, single


def _transmitter(tx) -> TxGeometry:
    """``tx``, one TxGeometry, read by ``_transmitters``; a sequence of them
    raises a ValueError starting with tx too."""
    txs, single = _transmitters(tx)
    if not single:
        raise ValueError(f"tx: {_shown(tx)} is not one TxGeometry")
    return txs[0]


def make_rect_array(n_per_side: int, eta: float, sizing, wavelength: float) -> RectArray:
    """Build a rectangular array under one of the three sizing modes."""
    n_per_side = _integer("n_per_side", n_per_side)
    eta = _real("eta", eta)
    wavelength = _real("wavelength", wavelength)
    n_total = n_per_side * n_per_side
    if isinstance(sizing, FixedElementDiagonal):
        diag = _real("element diagonal", sizing.diag)
    elif isinstance(sizing, FixedApertureArea):
        area = _real("aperture area", sizing.area)
        diag = math.sqrt(area * (1.0 + eta * eta) / (n_total * eta))
    elif isinstance(sizing, FixedApertureLength):
        diag = _real("aperture length", sizing.length) / n_per_side
    else:
        raise TypeError(f"unknown sizing mode: {sizing!r}")
    elem_h = diag / math.sqrt(1.0 + eta * eta)
    elem_w = eta * elem_h
    for side in (elem_w, elem_h):   # extreme eta overflows 1 + eta^2 or the area's diag
        _real(f"eta {eta!r}: element side", side)
    return RectArray(n_per_side=n_per_side, eta=eta, elem_diag=diag,
                     elem_h=elem_h, elem_w=elem_w, wavelength=wavelength)


def element_grid(arr: RectArray) -> tuple[np.ndarray, np.ndarray]:
    """1-D arrays of element-center x and y coordinates along each side."""
    idx = np.arange(1, arr.n_per_side + 1, dtype=float)
    offset = (arr.n_per_side + 1) / 2.0
    return (idx - offset) * arr.elem_w, (idx - offset) * arr.elem_h


def project_array(arr: RectArray, azimuth: float) -> RectArray:
    """Array seen from azimuth phi: element width compressed by cos(phi)."""
    scale = math.cos(_angle("azimuth", azimuth))
    elem_w = arr.elem_w * scale
    diag = math.hypot(arr.elem_h, elem_w)
    return RectArray(n_per_side=arr.n_per_side, eta=arr.eta * scale,
                     elem_diag=diag, elem_h=arr.elem_h, elem_w=elem_w,
                     wavelength=arr.wavelength)
