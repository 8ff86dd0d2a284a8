"""Normalized array gain in the radiative near-field.

Exact gains, rectangular or disk, reduce the spherical-wave field over the
aperture, times a focusing filter, over ``field_model``'s node blocks in one
kernel with one convergence check (rectangular apertures on a panel grid
sized by the residual phase; along each axis the transmitter lies on, over
one mirror half of the aperture); closed-form gains evaluate the
Fresnel-integral expressions for rectangular apertures (broadside and
slanted transmitters) and the sinc^2 expression for circular apertures, all
in one array pass of which each scalar closed form is a one-point call.
Each exact gain function takes one transmitter (a distance for the disk) or
a sequence of them (``array_geometry._one_or_many`` tells which), integrated
together as one batched quadrature per order in which no point's nodes,
order or failure depend on the others.
``gain_profile`` checks the settings its points share once, reads each
distance of a grid once at its index, and takes every readable distance at
once, with the same per-point values and failures as single-point calls:
one call of the kind's exact gain function, or for an analytic profile
that array pass.  ``run_sweep`` evaluates any other sweep
point by point, threaded if its caller asks, and aggregates per-point
failures.

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
    _angle,
    _one_or_many,
    _real,
    _shown,
    _transmitter,
    _transmitters,
    project_array,
)
from .field_model import (QuadratureSpec, _aperture_blocks, _broadside_focus,
                          _disk_blocks, _gauss_legendre, _mirrored, _panel_edges,
                          _refined)
from .fresnel_core import fresnel_cs, sinc

REACTIVE_LIMIT_FACTOR = 1.2

_GAIN_REFINE_ATOL = 1e-6

# Most radians k d a transmitter's range may span.  Each node's phase -k r
# rounds by about eps k r, so a gain moves by up to about 2 eps k d; keeping
# that within _GAIN_REFINE_ATOL gives k d <= 1e-6 / (2 * 2.2e-16), about 2^31.
_PHASE_RANGE = 2.0 ** 31


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


def radiative_floor(geometry) -> float:
    """Smallest distance at which gains are evaluated: 1.2 x the aperture
    length (the diameter of a circular aperture); closer lies the reactive
    near field."""
    return REACTIVE_LIMIT_FACTOR * geometry.aperture_len


def _aperture_gains(geometry, dists, focus: float, quad: QuadratureSpec, rule) -> list:
    """For the transmitter at each distance of ``dists``, in order, its gain
    |sum w E e^{j phase}|^2 / (A sum w |E|^2) or the ValueError or RuntimeError
    it met (a distance below the radiative floor, or beyond the range whose
    float64 phase the kernel resolves, is a ValueError); a bad focus, which
    every transmitter shares, raises at once.
    Once the distances have been checked, ``rule(valid, ranges)`` builds
    ``blocks`` for the transmitters at the indices ``valid`` of ``dists``, at
    the checked distances ``ranges``: ``blocks(at, order)`` yields, for the
    transmitters at the positions ``at`` of ``valid``, blocks
    ``(s, wx, wy, amp, field)`` whose sums add to the entries ``s`` of ``at``
    (a disk block's amp and field are per-ring sums over the angles, with a
    unit wy).
    Each transmitter's order is refined per ``quad`` on its own, and each
    doubling evaluates only the transmitters still pending."""
    _real("focal distance", focus, inf=True)
    limit = radiative_floor(geometry)
    far = _PHASE_RANGE * geometry.wavelength / (2.0 * np.pi)
    outcomes = []
    for dist in dists:
        try:
            dist = _real("distance", dist)
            if dist < limit:
                raise ValueError(
                    f"transmitter at {dist:.6g} m is inside the reactive near-field "
                    f"boundary {limit:.6g} m (1.2 x aperture length)")
            if dist > far:
                raise ValueError(
                    f"transmitter at {dist:.6g} m is beyond the phase-resolution "
                    f"range {far:.6g} m (2^31 / wavenumber)")
        except ValueError as exc:
            dist = exc
        outcomes.append(dist)
    valid = [i for i, out in enumerate(outcomes) if not isinstance(out, Exception)]
    if not valid:
        return outcomes
    ranges = np.array([outcomes[i] for i in valid])
    blocks, area = rule(valid, ranges), geometry.aperture_area

    def gain(order, pending):
        at = np.flatnonzero(pending)
        num, den = np.zeros(at.shape, complex), np.zeros(at.shape)
        for s, wx, wy, amp, field in blocks(at, order):
            num[s] += wx @ field @ wy
            den[s] += wx @ (amp * amp) @ wy
            del amp, field  # freed before the next block is built
        gains = np.zeros(ranges.shape)
        # entry by entry: numpy's array abs and ** 2 may round the last bit apart
        # from the scalar ones, and a gain must not depend on its batch
        gains[pending] = [abs(n) ** 2 / (area * d)
                          for n, d in zip(num.tolist(), den.tolist())]
        return gains

    gains, gaps = _refined(gain, ranges.shape, quad, _GAIN_REFINE_ATOL)
    last = quad.order << quad.refinement
    for i, g, gap in zip(valid, gains.tolist(), gaps.tolist()):
        outcomes[i] = RuntimeError(
            f"aperture quadrature did not converge: orders {last} and {2 * last} "
            f"differ by {gap:.3e}") if gap else g
    return outcomes


def _outcome(out):
    """``out``, raised if it is an exception."""
    if isinstance(out, Exception):
        raise out
    return out


def _returned(single: bool, outcomes: list):
    """The one gain of ``outcomes``, raised if it is an exception, when
    ``single``; else the array of every gain, or one SweepEvalError with the
    indices of the exceptions."""
    return _outcome(outcomes[0]) if single else np.array(_collected(outcomes))


def _rect_gains_exact(arr: RectArray, txs: list, focus: float, quad: QuadratureSpec,
                      focusing) -> list:
    """``_aperture_gains`` of each transmitter of ``txs`` over the panels
    ``_panel_edges`` sizes for it, with ``focusing(points)`` giving, for rows
    of transmitters' ``_placement``, their focusing phase (broadcasting
    against their stack, or None) and each one's depth of the phase's centre.

    One probe pass sizes every transmitter's panels.  Along each axis
    ``_mirrored`` marks, where the integrand is even, only the panels of the
    u >= 0 half are integrated, with doubled weights.  The transmitters with
    the same panels and folds share each order's ``_aperture_blocks``; each
    transmitter's sums are the 2-D products a lone one has, so a gain does not
    depend on its batch."""
    def rule(valid, _):
        points = np.array([_placement(txs[i]) for i in valid])
        grids, keys = {}, []
        for position, edges in zip(points.tolist(), _panel_edges(arr, points, focusing)):
            mirrored = _mirrored(position)
            bx, by = (b[b >= 0.5 * arr.n_per_side] if fold else b
                      for b, fold in zip(edges, mirrored))
            keys.append((tuple(bx.tolist()), tuple(by.tolist()), mirrored))
            grids.setdefault(keys[-1], (bx, by, 2.0 ** sum(mirrored)))

        def blocks(at, order):
            groups = {}
            for s, j in enumerate(at.tolist()):
                groups.setdefault(keys[j], []).append(s)
            for key, members in groups.items():
                bx, by, weight = grids[key]
                for p, wx, wy, amp, field in _aperture_blocks(
                        arr, bx, by, points[at[members]], order, focusing, weight):
                    yield members[p], wx, wy, amp, field
                    del amp, field  # views that would keep their block alive

        return blocks

    return _aperture_gains(arr, [tx.dist for tx in txs], focus, quad, rule)


def _placement(tx: TxGeometry) -> tuple:
    """(x, y, z) of the transmitter, then its direction cosines x / dist,
    y / dist and z / dist."""
    x, y, z = tx.position
    return x, y, z, x / tx.dist, y / tx.dist, z / tx.dist


def _rect_gain(arr: RectArray, tx, focus: float, quad: QuadratureSpec, focusing):
    """``_rect_gains_exact`` of one transmitter, raised if it failed, or of a
    sequence, as ``_returned`` gives them."""
    txs, single = _transmitters(tx)
    return _returned(single, _rect_gains_exact(arr, txs, focus, quad, focusing))


def _broadside(wavelength: float, focus: float):
    """``focusing`` of the broadside quadratic phase toward (0, 0, F)."""
    return lambda points: (_broadside_focus(wavelength, focus), [focus] * len(points))


def _steered(wavelength: float, focus: float):
    """``focusing`` of the true propagation phase conjugated toward the point
    at range F along each transmitter's own ray, from its own direction
    cosines."""
    k = 2.0 * np.pi / wavelength

    def focusing(points):
        ux, uy, uz = (u[:, None, None] for u in points.T[3:])
        depths = (focus * uz).ravel().tolist()
        if math.isinf(focus):
            # plane wave arriving from the ray direction
            return (lambda x, y: -k * (x * ux + y * uy)), depths
        fx, fy, fz = focus * ux, focus * uy, focus * uz
        return (lambda x, y: k * np.sqrt((x - fx) ** 2 + (y - fy) ** 2 + fz * fz)), depths

    return focusing


def exact_array_gain(arr: RectArray, tx, focus: float,
                     quad: QuadratureSpec = QuadratureSpec()):
    """Gain with the broadside quadratic focusing phase toward (0, 0, F).

    For a sequence of transmitters, the array of their gains, integrated
    together as one batched quadrature per order; the points that fail raise
    one SweepEvalError with their indices.  Each point gets the gain, order
    and error it has alone.  Anything but a TxGeometry in place of one, or
    in a sequence, raises one ValueError starting with tx before any point
    is evaluated."""
    return _rect_gain(arr, tx, focus, quad, _broadside(arr.wavelength, focus))


def exact_array_gain_steered(arr: RectArray, tx, focus: float,
                             quad: QuadratureSpec = QuadratureSpec()):
    """Gain with the true propagation phase conjugated toward the point at
    range F along the transmitter ray (steered focusing); for a sequence of
    transmitters, their gains as ``exact_array_gain`` gives them."""
    return _rect_gain(arr, tx, focus, quad, _steered(arr.wavelength, focus))


def analytic_gain_rect(eta: float, a: float) -> float:
    """Closed-form broadside gain as a function of the aperture phase
    parameter a = d_FA/(4 z_eff (1 + eta^2)); a = 0 is the focused limit."""
    eta = _real("eta", eta)
    return _broadside_gain(eta, math.sqrt(_real("a", a, strict=False)))


def analytic_gain_nonbroadside(eta: float, p: float, q: float, q_tilde: float) -> float:
    """Closed-form slanted-transmitter gain with p = (1/2)sqrt(d_FA/(d_eff(1+eta^2)))
    and angular offsets q (azimuth axis) and q_tilde (elevation axis) in
    Fresnel-integral units."""
    eta = _real("eta", eta)
    p = _real("p", p)
    q = _real("q", q, -math.inf, strict=False)
    q_tilde = _real("q_tilde", q_tilde, -math.inf, strict=False)
    return _rect_gains(eta, *(np.array([u]) for u in (p, q, q_tilde)))[0]


def analytic_gain_circ(l: float) -> float:
    """Closed-form circular-aperture gain sinc^2(pi l), l = R^2/(2 lambda z_eff)."""
    _real("l", l, strict=False)
    return _sinc_squares(np.array([math.pi * l]))[0]


def rect_gain_broadside(arr: RectArray, z: float, focus: float) -> float:
    """Closed-form gain for a broadside transmitter at distance z."""
    return _outcome(_analytic_gains(arr, [_real("distance", z)], focus)[0])


def rect_gain_slanted(arr: RectArray, tx: TxGeometry, focus: float) -> float:
    """Closed-form gain for a slanted transmitter at range d == tx.dist,
    focusing filter toward (0, 0, F)."""
    tx = _transmitter(tx)
    return _outcome(_analytic_gains(arr, [tx.dist], focus, tx.azimuth, tx.elevation)[0])


def circ_gain_broadside(circ: CircArray, z: float, focus: float) -> float:
    """Closed-form gain for a circular aperture, broadside transmitter."""
    return _outcome(_analytic_gains(circ, [_real("distance", z)], focus)[0])


# ``_analytic_gains`` evaluates every closed form in geometry space, and the
# forms in parameter space above share its expressions below.  Sinc and
# Fresnel values come from one array call per evaluation; the rest is Python
# float arithmetic (x ** 2 is libm's pow, which can round the last bit apart
# from numpy's square), so a point's gain does not depend on its batch.

# Below x^2 = _NEAR_LIMIT |v| a bracket takes its x -> 0 limit (``_brackets``).
_NEAR_LIMIT = 3.7e-8


def _sinc_squares(t) -> list:
    """sinc(t)^2 at each entry of the array t, from one sinc call."""
    return [s ** 2 for s in sinc(t).tolist()]


def _broadside_gain(eta: float, root: float) -> float:
    """``analytic_gain_rect`` at a = root^2, without its checks: the brackets at
    eta root and at root, from one Fresnel call on a two-entry array."""
    x = eta * root
    cc, ss = fresnel_cs(np.array((x, root)))
    (c1, c2), (s1, s2) = cc.tolist(), ss.tolist()
    return _bracket(x, c1, c1, s1, s1) * _bracket(root, c2, c2, s2, s2)


def _rect_gains(eta: float, p, q, q_tilde) -> list:
    """``analytic_gain_nonbroadside`` at each entry of the arrays p, q and
    q_tilde: the product of the brackets at (eta p, q) and at (p, q_tilde).
    At q = q_tilde = 0 it is ``_broadside_gain`` at root = p bit for bit, as
    x + 0.0 = x - 0.0 = x."""
    n = len(p)
    with np.errstate(over="ignore"):  # float semantics: eta p and x^2 overflow to inf
        b = _brackets(np.concatenate([eta * p, p]), np.concatenate([q, q_tilde]))
    return [u * w for u, w in zip(b[:n], b[n:])]


def _focal_limits(arr: RectArray, sin_az, sin_el) -> list:
    """The slanted gain at d_eff = inf, for arrays of the direction sines:
    p -> 0 while the products p q and p q_tilde stay finite, and the brackets
    collapse to sincs of those products."""
    eta = arr.eta
    root = math.sqrt(2.0 * arr.d_fa / (arr.wavelength * (1.0 + eta * eta)))
    pq, pqt = 0.5 * sin_az * root, 0.5 * sin_el * root
    s = _sinc_squares(np.concatenate([math.pi * eta * pq, math.pi * pqt]))
    return [u * w for u, w in zip(s[:len(pq)], s[len(pq):])]


def _brackets(x, v) -> list:
    """``_bracket`` at each entry of the arrays x >= 0 and v, from one Fresnel
    call.

    As x -> 0 at fixed x v the bracket tends to sinc^2(pi x v), and there
    C(x+v) + C(x-v) cancels.  Against 50-digit mpmath (x v from 0.05 to 300,
    x^2 from 1e-12 to 1e-2) the Fresnel form is off by up to 10.5 eps v^2
    relative (scipy rounds the phase pi v^2/2) and the limit by up to 1.74 x^4.
    The bounds cross at x^2 = sqrt(10.5 eps / 1.74) |v| = _NEAR_LIMIT |v|, below
    which the limit is taken: the result then stays within 2.6e-8 relative and
    6.8e-12 absolute of mpmath over that range, where the Fresnel form alone
    was off by up to 100 %."""
    n = len(x)
    cc, ss = (u.tolist() for u in fresnel_cs(np.concatenate([x + v, x - v])))
    out = list(map(_bracket, x.tolist(), cc[:n], cc[n:], ss[:n], ss[n:]))
    near = np.flatnonzero(x * x < _NEAR_LIMIT * np.abs(v))
    if near.size:
        for i, g in zip(near.tolist(), _sinc_squares(math.pi * x[near] * v[near])):
            out[i] = g
    return out


def _bracket(x: float, cp: float, cm: float, sp: float, sm: float) -> float:
    """((C(x+v) + C(x-v))/2x)^2 + ((S(x+v) + S(x-v))/2x)^2 from the Fresnel
    values cp, sp at x + v and cm, sm at x - v: the squared mean of
    e^{j pi t^2/2} over [v-x, v+x], 1 at x = 0.  Dividing before squaring
    neither underflows at tiny x nor overflows at huge x."""
    if x == 0.0:
        return 1.0
    return ((cp + cm) / (2.0 * x)) ** 2 + ((sp + sm) / (2.0 * x)) ** 2


def disk_gain_exact(circ: CircArray, z: float, focus: float,
                    quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Gain over the continuous disk, broadside transmitter at distance z,
    with the broadside quadratic focusing phase toward (0, 0, F).

    For a sequence of distances z, the array of their gains, integrated
    together as one batched quadrature per order; the points that fail raise
    one SweepEvalError with their indices.  Each point gets the gain, order
    and error it has alone.  Anything ``_one_or_many`` takes as one entry,
    such as an empty list, is one distance, refused with a ValueError."""
    def rule(_, ranges):
        phase = _broadside_focus(circ.wavelength, focus)
        return lambda at, order: _disk_blocks(circ, ranges[at], order, phase)

    zs, single = _one_or_many(z)
    return _returned(single, _aperture_gains(circ, zs, focus, quad, rule))


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


def projected_gain_approx(arr: RectArray, tx, focus: float,
                          quad: QuadratureSpec = QuadratureSpec()):
    """Broadside gain of the width-compressed array at the transmitter range,
    approximating the steered slanted gain; for a sequence of transmitters,
    their gains as ``exact_array_gain`` gives them, one batch per azimuth.
    The projection takes an azimuth only, so a transmitter with a nonzero
    elevation, which it would drop, raises one ValueError naming it."""
    txs, single = _transmitters(tx)
    for t in txs:
        _azimuth_only(t.elevation)
    outcomes = [None] * len(txs)
    for azimuth in dict.fromkeys(t.azimuth for t in txs):
        at = [i for i, t in enumerate(txs) if t.azimuth == azimuth]
        flat = project_array(arr, azimuth)
        for i, out in zip(at, _rect_gains_exact(
                flat, [TxGeometry(txs[i].dist) for i in at], focus, quad,
                _broadside(flat.wavelength, focus))):
            outcomes[i] = out
    return _returned(single, outcomes)


def _azimuth_only(elevation):
    """Refuse the nonzero ``elevation`` that the width-only projection of a
    projected gain would drop (``project_array`` takes the azimuth)."""
    if elevation != 0.0:
        raise ValueError(f"elevation: projected gains take an azimuth only, "
                         f"got {_shown(elevation)}")


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
                 quad: QuadratureSpec = QuadratureSpec()) -> GainProfile:
    """Sweep the transmitter over a distance grid and collect gains.

    ``kind`` selects the estimator: for rectangular arrays one of
    exact | analytic | steered | projected, for circular arrays
    exact | analytic. The focus, azimuth and elevation, which every point
    shares, are checked once; a bad one, or a nonzero elevation of a
    projected profile (``projected_gain_approx`` takes an azimuth only),
    raises a ValueError naming it.  So does anything ``_one_or_many`` takes
    as one entry (a number, a string, an iterator, an empty sequence or a
    grid of sequences) in place of the grid ``distances``.
    Each distance is read once, at its index, and a grid whose distances
    all read but do not strictly increase raises a ValueError before any
    point is evaluated.  The readable points are then one call of the kind's
    gain function with every transmitter, one batched quadrature per order
    (exact, steered, projected or exact circular), or one array pass over
    the closed forms (analytic).  Per-point failures, in reading or in
    evaluating, are aggregated into a SweepEvalError carrying the offending
    sweep indices.  Each point equals its single-point gain bit for bit (an
    exact circular one to within 1e-14).
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
    _real("focal distance", focus, inf=True)
    _angle("azimuth", azimuth)
    _angle("elevation", elevation)
    if kind == "projected":
        _azimuth_only(elevation)
    entries, single = _one_or_many(distances)
    if single:
        raise ValueError(f"distances must be a non-empty sequence of distances, "
                         f"got {_shown(distances)}")

    dgrid, read, failures = [], [], []
    for i, d in enumerate(entries):
        try:
            dgrid.append(_real("distance", d))
            read.append(i)
        except ValueError as exc:
            failures.append((i, exc))
    if not failures and not all(a < b for a, b in zip(dgrid, dgrid[1:])):
        raise ValueError("distances must be strictly increasing")
    if not dgrid:   # an empty list would be one point to the gain functions
        raise SweepEvalError(failures)
    try:
        if kind == "analytic":
            gains = _collected(_analytic_gains(geometry, dgrid, focus, azimuth, elevation))
        elif isinstance(geometry, CircArray):
            gains = disk_gain_exact(geometry, dgrid, focus, quad)
        else:
            gain = {"steered": exact_array_gain_steered,
                    "projected": projected_gain_approx}.get(kind, exact_array_gain)
            gains = gain(geometry, [TxGeometry(d, azimuth, elevation) for d in dgrid],
                         focus, quad)
    except SweepEvalError as err:
        failures += [(read[j], exc) for j, exc in err.failures]
    if failures:
        raise SweepEvalError(sorted(failures))
    return GainProfile(focus=focus, distances=np.array(dgrid), gains=np.array(gains),
                       kind=kind)


def _analytic_gains(geometry, dists, focus: float, azimuth: float = 0.0,
                    elevation: float = 0.0) -> list:
    """For each distance of ``dists``, each one already read (finite and
    positive), in order, the closed-form gain at that distance or the
    ValueError that names what is wrong with it; a bad focus, or a bad eta of
    a rectangle, raises at once.

    Every point is evaluated in one array pass.  A rectangle's broadside gain
    is its slanted form at q = q_tilde = 0, and a slanted transmitter at the
    focus itself (d_eff = inf, so p = 0) takes that form's limit.  The points
    the pass cannot take, and only those, then name the parameter out of
    range by their form in parameter space (``analytic_gain_rect``,
    ``analytic_gain_nonbroadside`` or ``analytic_gain_circ``)."""
    _real("focal distance", focus, inf=True)
    circ = isinstance(geometry, CircArray)
    eta = None if circ else _real("eta", geometry.eta)
    slanted = azimuth != 0.0 or elevation != 0.0
    d = np.array(dists, dtype=float)
    gains = np.full(d.shape, np.nan)
    # float semantics: overflow to inf, and inf where a distance is the focus
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # d_eff = F d/|F - d|, and d under the far-field filter
        z_eff = d if math.isinf(focus) else focus * d / abs(focus - d)
        if circ:
            # l = R^2/(2 lambda z_eff)
            form = analytic_gain_circ
            params = [geometry.radius ** 2 / (2.0 * geometry.wavelength * z_eff)]
        elif slanted:
            form = partial(analytic_gain_nonbroadside, eta)
            # the direction sines as TxGeometry's x / dist and y / dist, then
            # p = (1/2) sqrt(d_FA/(d_eff (1 + eta^2))) and q, q_tilde = the
            # sines times sqrt(2 d_eff/lambda)
            sines = (d * math.sin(azimuth) * math.cos(elevation) / d,
                     d * math.sin(elevation) / d)
            scale = np.sqrt(2.0 * z_eff / geometry.wavelength)
            params = [0.5 * np.sqrt(geometry.d_fa / (z_eff * (1.0 + eta * eta))),
                      sines[0] * scale, sines[1] * scale]
            brackets = params
            at_focus = z_eff == math.inf
            if at_focus.any():
                gains[at_focus] = _focal_limits(geometry, *(u[at_focus] for u in sines))
        else:
            form = partial(analytic_gain_rect, eta)
            # a = d_FA/(4 z_eff (1 + eta^2)), and root a for p
            params = [geometry.d_fa / (4.0 * z_eff * (1.0 + eta ** 2))]
            zero = np.zeros(d.shape)
            brackets = [np.sqrt(params[0]), zero, zero]
        # each parameter in the range its form checks: finite, p > 0, a and l >= 0
        ok = params[0] > 0.0 if slanted else params[0] >= 0.0
        ok &= np.logical_and.reduce([np.isfinite(u) for u in params])
        gains[ok] = (_sinc_squares(math.pi * params[0][ok]) if circ else
                     _rect_gains(eta, *(u[ok] for u in brackets)))

    def failure(i):
        return form(*(float(u[i]) for u in params))

    outcomes = gains.tolist()
    for i in np.flatnonzero(np.isnan(gains)).tolist():
        outcomes[i] = _attempt(failure, i)
    return outcomes


def run_sweep(fn, values, threads: int | None = None) -> list:
    """``[fn(v) for v in values]`` in order, over ``threads`` worker threads
    when more than one. Every point runs; the ValueError/RuntimeError of any
    point is collected into one SweepEvalError with the offending indices."""
    values = list(values)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return _collected(pool.map(partial(_attempt, fn), values))
    return _collected(_attempt(fn, v) for v in values)


def _attempt(fn, value):
    """``fn(value)``, or the ValueError or RuntimeError it raised."""
    try:
        return fn(value)
    except (ValueError, RuntimeError) as exc:
        return exc


def _collected(outcomes) -> list:
    """The values of ``outcomes`` in order, or one SweepEvalError for those that
    are exceptions, with their indices."""
    outcomes = list(outcomes)
    failures = [(i, out) for i, out in enumerate(outcomes) if isinstance(out, Exception)]
    if failures:
        raise SweepEvalError(failures)
    return outcomes
