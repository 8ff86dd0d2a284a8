"""Normalized array gain in the radiative near-field.

Exact gains, rectangular or disk, reduce the spherical-wave field over the
aperture, times a focusing filter, over ``field_model``'s node blocks in one
kernel with one convergence check (rectangular apertures on a panel grid
sized by the residual phase; along each axis the transmitter lies on, over
one mirror half of the aperture); closed-form gains evaluate the
Fresnel-integral expressions for rectangular apertures (broadside and
slanted transmitters) and the sinc^2 expression for circular apertures.
``run_sweep`` evaluates any sweep point by point, optionally threaded, and
aggregates per-point failures; ``gain_profile`` uses it over distance grids,
except that an exact disk profile integrates all its distances at once, one
batched quadrature per order, with the same per-point orders and failures.

Two focusing conventions are provided. ``exact_array_gain`` and
``disk_gain_exact`` inject the broadside quadratic phase
e^{+j(2 pi/lambda)(x^2+y^2)/(2F)} that the closed forms approximate;
``exact_array_gain_steered`` conjugates the true propagation phase toward
the point at range F along the transmitter ray, the natural reference when
the array steers at a slanted user, which the projected array approximates.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .array_geometry import (
    CircArray,
    RectArray,
    TxGeometry,
    _real,
    project_array,
)
from .field_model import (QuadratureSpec, _aperture_blocks, _broadside_focus,
                          _disk_blocks, _gauss_legendre, _mirrored, _panel_edges,
                          _refined, _unconverged)
from .fresnel_core import fresnel_cs, sinc

REACTIVE_LIMIT_FACTOR = 1.2

_GAIN_REFINE_ATOL = 1e-6


class SweepEvalError(RuntimeError):
    """One or more sweep points failed; carries the offending indices."""

    def __init__(self, failures):
        self.failures = failures
        idx = ", ".join(str(i) for i, _ in failures)
        first = failures[0][1]
        super().__init__(f"evaluation failed at sweep indices [{idx}]: {first}")

    @property
    def indices(self):
        return [i for i, _ in self.failures]


def effective_distance(focus: float, dist: float) -> float:
    """F*d/|F - d|: infinite at perfect focus, d under the far-field filter."""
    _real("distance", dist)
    if math.isinf(_real("focal distance", focus, inf=True)):
        return dist
    if focus == dist:
        return math.inf
    return focus * dist / abs(focus - dist)


def radiative_floor(geometry) -> float:
    """Smallest distance at which gains are evaluated: 1.2 x the aperture
    length (the diameter of a circular aperture); closer lies the reactive
    near field."""
    return REACTIVE_LIMIT_FACTOR * geometry.aperture_len


def _aperture_gains(geometry, dists, focus: float, quad: QuadratureSpec, rule) -> list:
    """For the transmitter at each distance of ``dists``, in order, its gain
    |sum w E e^{j phase}|^2 / (A sum w |E|^2) or the ValueError or RuntimeError
    it met.  Once the distances and the focus have been checked, ``rule()``
    builds ``blocks``: ``blocks(z, order)`` yields, for the transmitters at the
    distances ``z``, blocks ``(at, wx, wy, amp, field)`` whose sums add to the
    entries ``at`` of ``z``.  Each transmitter's order is refined per ``quad`` on
    its own, and each doubling evaluates only the transmitters still pending."""
    limit = radiative_floor(geometry)
    outcomes = []
    for dist in dists:
        try:
            dist = _real("dist", dist)
            if dist < limit:
                raise ValueError(
                    f"transmitter at {dist:.6g} m is inside the reactive near-field "
                    f"boundary {limit:.6g} m (1.2 x aperture length)")
            _real("focal distance", focus, inf=True)
        except ValueError as exc:
            dist = exc
        outcomes.append(dist)
    valid = [i for i, out in enumerate(outcomes) if not isinstance(out, Exception)]
    if not valid:
        return outcomes
    ranges = np.array([outcomes[i] for i in valid])
    blocks, area = rule(), geometry.aperture_area

    def gain(order, pending):
        z = ranges[pending]
        num, den = np.zeros(z.shape, complex), np.zeros(z.shape)
        for at, wx, wy, amp, field in blocks(z, order):
            num[at] += wx @ field @ wy
            den[at] += wx @ (amp * amp) @ wy
            del amp, field  # freed before the next block is built
        gains = np.zeros(ranges.shape)
        # entry by entry: numpy's array abs and ** 2 may round the last bit apart
        # from the scalar ones, and a gain must not depend on its batch
        gains[pending] = [abs(n) ** 2 / (area * d)
                          for n, d in zip(num.tolist(), den.tolist())]
        return gains

    gains, gaps = _refined(gain, ranges.shape, quad,
                           lambda g, g2: abs(g2 - g) <= _GAIN_REFINE_ATOL)
    for i, g, gap in zip(valid, gains.tolist(), gaps.tolist()):
        outcomes[i] = _unconverged(quad, gap) if gap else g
    return outcomes


def _outcome(out):
    """``out``, raised if it is an exception."""
    if isinstance(out, Exception):
        raise out
    return out


def _rect_gain(arr: RectArray, tx: TxGeometry, focus: float,
               quad: QuadratureSpec, phase, focus_depth: float) -> float:
    """Gain over the panels ``_panel_edges`` sizes for the focusing ``phase``,
    whose centre lies at depth ``focus_depth`` in front of the aperture.
    Along each axis ``_mirrored`` marks, where the integrand is even, only the
    panels of the u >= 0 half are integrated, with doubled weights."""
    def rule():
        mirrored = _mirrored(tx)
        bx, by = (b[b >= 0.5 * arr.n_per_side] if fold else b
                  for b, fold in zip(_panel_edges(arr, tx, phase, focus_depth), mirrored))
        return lambda _, order: (
            (0, *block) for block in _aperture_blocks(arr, bx, by, tx, order, phase,
                                                      2.0 ** sum(mirrored)))

    return _outcome(_aperture_gains(arr, [tx.dist], focus, quad, rule)[0])


def exact_array_gain(arr: RectArray, tx: TxGeometry, focus: float,
                     quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Gain with the broadside quadratic focusing phase toward (0, 0, F)."""
    return _rect_gain(arr, tx, focus, quad, _broadside_focus(arr.wavelength, focus),
                      focus)


def exact_array_gain_steered(arr: RectArray, tx: TxGeometry, focus: float,
                             quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Gain with the true propagation phase conjugated toward the point at
    range F along the transmitter ray (steered focusing)."""
    ux, uy, uz = tx.x / tx.dist, tx.y / tx.dist, tx.z / tx.dist

    def focus_phase(x, y):
        if math.isinf(focus):
            # plane wave arriving from the ray direction
            return -(2.0 * np.pi / arr.wavelength) * (x * ux + y * uy)
        fx, fy, fz = focus * ux, focus * uy, focus * uz
        rho = np.sqrt((x - fx) ** 2 + (y - fy) ** 2 + fz * fz)
        return (2.0 * np.pi / arr.wavelength) * rho

    return _rect_gain(arr, tx, focus, quad, focus_phase, focus * uz)


def analytic_gain_rect(eta: float, a: float) -> float:
    """Closed-form broadside gain as a function of the aperture phase
    parameter a = d_FA/(4 z_eff (1 + eta^2)); a = 0 is the focused limit."""
    eta = _real("eta", eta)
    root = math.sqrt(_real("a", a, strict=False))
    return _bracket(eta * root, 0.0) * _bracket(root, 0.0)


def _bracket(x: float, v: float) -> float:
    """((C(x+v) + C(x-v))/2x)^2 + ((S(x+v) + S(x-v))/2x)^2, which tends to 1
    as x -> 0, from one Fresnel call at v = 0; dividing before squaring
    neither underflows at tiny x nor overflows at huge x."""
    if x == 0.0:
        return 1.0
    cp, sp = fresnel_cs(x + v)
    cm, sm = (cp, sp) if v == 0.0 else fresnel_cs(x - v)
    return ((cp + cm) / (2.0 * x)) ** 2 + ((sp + sm) / (2.0 * x)) ** 2


def analytic_gain_nonbroadside(eta: float, p: float, q: float, q_tilde: float) -> float:
    """Closed-form slanted-transmitter gain with p = (1/2)sqrt(d_FA/(d_eff(1+eta^2)))
    and angular offsets q (azimuth axis) and q_tilde (elevation axis) in
    Fresnel-integral units."""
    eta = _real("eta", eta)
    p = _real("p", p)
    q = _real("q", q, -math.inf, strict=False)
    q_tilde = _real("q_tilde", q_tilde, -math.inf, strict=False)
    return _bracket(eta * p, q) * _bracket(p, q_tilde)


def analytic_gain_circ(l: float) -> float:
    """Closed-form circular-aperture gain sinc^2(pi l), l = R^2/(2 lambda z_eff)."""
    _real("l", l, strict=False)
    return sinc(math.pi * l) ** 2


def rect_gain_broadside(arr: RectArray, z: float, focus: float) -> float:
    """Closed-form gain for a broadside transmitter at distance z."""
    z_eff = effective_distance(focus, z)
    if math.isinf(z_eff):
        return 1.0
    a = arr.d_fa / (4.0 * z_eff * (1.0 + arr.eta ** 2))
    return analytic_gain_rect(arr.eta, a)


def rect_gain_slanted(arr: RectArray, tx: TxGeometry, focus: float) -> float:
    """Closed-form gain for a slanted transmitter at range d == tx.dist,
    focusing filter toward (0, 0, F)."""
    d = tx.dist
    eta = arr.eta
    lam = arr.wavelength
    d_fa = arr.d_fa
    sin_az = tx.x / d
    sin_el = tx.y / d
    d_eff = effective_distance(focus, d)
    if math.isinf(d_eff):
        # p -> 0 while the products p*q stay finite; the bracket terms
        # collapse to sincs of those products
        pq = 0.5 * sin_az * math.sqrt(2.0 * d_fa / (lam * (1.0 + eta * eta)))
        pqt = 0.5 * sin_el * math.sqrt(2.0 * d_fa / (lam * (1.0 + eta * eta)))
        return sinc(math.pi * eta * pq) ** 2 * sinc(math.pi * pqt) ** 2
    p = 0.5 * math.sqrt(d_fa / (d_eff * (1.0 + eta * eta)))
    scale = math.sqrt(2.0 * d_eff / lam)
    return analytic_gain_nonbroadside(eta, p, sin_az * scale, sin_el * scale)


def circ_gain_broadside(circ: CircArray, z: float, focus: float) -> float:
    """Closed-form gain for a circular aperture, broadside transmitter."""
    z_eff = effective_distance(focus, z)
    if math.isinf(z_eff):
        return 1.0
    return analytic_gain_circ(circ.radius ** 2 / (2.0 * circ.wavelength * z_eff))


def disk_gain_exact(circ: CircArray, z: float, focus: float,
                    quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Gain over the continuous disk, broadside transmitter at distance z,
    with the broadside quadratic focusing phase toward (0, 0, F).

    For a 1-D sequence of distances z, the array of their gains, integrated
    together as one batched quadrature per order; the points that fail raise
    one SweepEvalError with their indices.  Each point gets the gain, order
    and error it has alone."""
    single = np.ndim(z) == 0
    outcomes = _aperture_gains(circ, [z] if single else z, focus, quad, lambda: partial(
        _disk_blocks, circ, focus_phase=_broadside_focus(circ.wavelength, focus)))
    return _outcome(outcomes[0]) if single else np.array(_collected(outcomes))


def disk_gain_fresnel(circ: CircArray, z: float, focus: float) -> float:
    """Polar quadrature of the gain with the Fresnel-approximated field
    (flat amplitude, quadratic phase) over the disk. The integrand is
    rotationally symmetric, so the angular factor is exact and only the
    radial Gauss-Legendre rule remains. This is the construction the
    sinc^2 closed form summarizes, so it validates that algebra."""
    _real("z", z)
    _real("focal distance", focus, inf=True)
    lam = circ.wavelength
    nodes, wts = _gauss_legendre(96)
    rho = 0.5 * circ.radius * (nodes + 1.0)
    w_rad = 0.5 * circ.radius * wts * rho * 2.0 * np.pi
    phase = -2.0 * np.pi / lam * (z + rho * rho / (2.0 * z))
    if not math.isinf(focus):
        phase = phase + 2.0 * np.pi / lam * rho * rho / (2.0 * focus)
    num = np.abs(np.sum(w_rad * np.exp(1j * phase))) ** 2
    # flat amplitude cancels: denominator reduces to area^2
    return float(num / circ.aperture_area ** 2)


def projected_gain_approx(arr: RectArray, tx: TxGeometry, focus: float,
                          quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Broadside gain of the width-compressed array at the transmitter range,
    approximating the steered slanted gain."""
    flat = project_array(arr, tx.azimuth)
    return exact_array_gain(flat, TxGeometry(tx.dist), focus, quad)


@dataclass(frozen=True)
class GainProfile:
    """Gain samples over a strictly increasing distance grid."""

    focus: float
    distances: np.ndarray
    gains: np.ndarray
    kind: str = "exact"

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        g = np.asarray(self.gains, dtype=float)
        if d.shape != g.shape or d.ndim != 1:
            raise ValueError("distances and gains must be 1-D arrays of equal length")
        if not np.all(np.diff(d) > 0):
            raise ValueError("distances must be strictly increasing")
        if not np.all((g >= 0) & (g <= 1.0 + 1e-6)):
            raise ValueError("gains must lie in [0, 1 + 1e-6]")
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "gains", g)


_RECT_KINDS = ("exact", "analytic", "steered", "projected")
_CIRC_KINDS = ("exact", "analytic")


def gain_profile(kind: str, geometry, distances, focus: float, *,
                 azimuth: float = 0.0, elevation: float = 0.0,
                 quad: QuadratureSpec = QuadratureSpec(),
                 threads: int | None = None) -> GainProfile:
    """Sweep the transmitter over a distance grid and collect gains.

    ``kind`` selects the estimator: for rectangular arrays one of
    exact | analytic | steered | projected, for circular arrays
    exact | analytic. Per-point failures are aggregated into a
    SweepEvalError carrying the offending sweep indices. ``threads`` sets the
    sweep's worker threads, except for exact circular profiles, which are
    integrated as one batched quadrature per order in the calling thread.
    """
    if isinstance(geometry, RectArray):
        if kind not in _RECT_KINDS:
            raise ValueError(f"kind must be one of {_RECT_KINDS}, got {kind!r}")
    elif isinstance(geometry, CircArray):
        if kind not in _CIRC_KINDS:
            raise ValueError(f"kind must be one of {_CIRC_KINDS}, got {kind!r}")
        if azimuth != 0.0 or elevation != 0.0:
            raise ValueError("circular profiles support broadside transmitters only")
    else:
        raise TypeError(f"unsupported geometry: {geometry!r}")

    def eval_point(dist):
        if isinstance(geometry, CircArray):
            return circ_gain_broadside(geometry, dist, focus)
        tx = TxGeometry(dist, azimuth=azimuth, elevation=elevation)
        if kind == "analytic":
            if azimuth == 0.0 and elevation == 0.0:
                return rect_gain_broadside(geometry, dist, focus)
            return rect_gain_slanted(geometry, tx, focus)
        if kind == "steered":
            return exact_array_gain_steered(geometry, tx, focus, quad)
        if kind == "projected":
            return projected_gain_approx(geometry, tx, focus, quad)
        return exact_array_gain(geometry, tx, focus, quad)

    dgrid = [float(d) for d in distances]
    if isinstance(geometry, CircArray) and kind == "exact":
        gains = disk_gain_exact(geometry, dgrid, focus, quad)
    else:
        gains = run_sweep(eval_point, dgrid, threads)
    return GainProfile(focus=focus, distances=np.array(dgrid),
                       gains=np.array(gains), kind=kind)


def run_sweep(fn, values, threads: int | None = None) -> list:
    """``[fn(v) for v in values]`` in order, over ``threads`` worker threads
    when more than one. Every point runs; the ValueError/RuntimeError of any
    point is collected into one SweepEvalError with the offending indices."""
    def attempt(value):
        try:
            return fn(value)
        except (ValueError, RuntimeError) as exc:
            return exc

    values = list(values)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return _collected(pool.map(attempt, values))
    return _collected(attempt(v) for v in values)


def _collected(outcomes) -> list:
    """The values of ``outcomes`` in order, or one SweepEvalError for those that
    are exceptions, with their indices."""
    outcomes = list(outcomes)
    failures = [(i, out) for i, out in enumerate(outcomes) if isinstance(out, Exception)]
    if failures:
        raise SweepEvalError(failures)
    return outcomes
