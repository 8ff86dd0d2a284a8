"""Electric-field models over a planar aperture at z = 0.

The exact spherical-wave field, its Fresnel (quadratic-phase)
approximation for a slanted transmitter, and the Taylor
distance-approximation error diagnostics used to compare the direct and
indirect expansions.  Exact gains reduce over the node blocks of
``_aperture_blocks`` or ``_disk_blocks``, which share ``_spherical_wave`` and
take their Gauss-Legendre rules from ``_gauss_legendre``.  The disk's
transmitter is on its axis, where the range and the focusing phase do not
vary around a ring, so ``_disk_blocks`` evaluates the field once per ring and
lets the angle in only through the element pattern's closed-form integrals
over the circle; an off-axis transmitter would need the polar node grid.

Fields are only ever used in ratios, so the source amplitude is fixed at 1;
the 1/sqrt(4*pi) prefactor is kept so values match the underlying spherical
wave literally.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipe, roots_legendre

from .array_geometry import (CircArray, RectArray, TxGeometry, _integer, _transmitter,
                             element_grid)

SQRT_4PI = math.sqrt(4.0 * math.pi)

# Grid nodes per kernel block, unless one panel row (order**2 * panels) holds more.
_BLOCK_NODES = 1 << 18

# (transmitter, radius) nodes per disk block.  A node holds its amplitude, its
# field and its (rho/z)^2 with their temporaries, so a full block traces about
# 0.53 MB at every order.
_RING_NODES = 1 << 13

# Most radians of residual phase a gain panel spans along a side: one turn,
# which order-8 Gauss-Legendre integrates to 1e-10 and order 16 to rounding.
_PANEL_PHASE = 2.0 * np.pi

# Probe-grid intervals per side that bound the residual-phase gradient.
_PROBES = 32


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n: int):
    """Read-only nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    scipy's ``roots_legendre(n)``, built once per order per process.  At most
    32 orders are kept (least recently used first out); a rule is 2n floats,
    far below the n^2-node grids it feeds."""
    nodes, wts = roots_legendre(n)
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


@dataclass(frozen=True)
class QuadratureSpec:
    """Exact-field rules (``_aperture_blocks``, ``_disk_blocks``) evaluated at 2*order,
    and how many more times the order may double until two successive results agree.
    A disk's order sets its radial rule only; its angle is integrated exactly."""

    order: int = 8
    refinement: int = 1

    def __post_init__(self):
        object.__setattr__(self, "order", _integer("quadrature order", self.order, 2))
        object.__setattr__(self, "refinement", _integer("refinement", self.refinement, 0))


def _spherical_wave(position, x, y, wavelength: float, focus_phase=None):
    """Exact-field amplitude at (x, y, 0), and the field times e^{j focus_phase(x, y)},
    of a transmitter at ``position`` (x_t, y_t, z_t).  Each coordinate may be a
    float or a stack of transmitters that broadcasts against x and y, such as
    (P, 1, 1) on-axis distances over a (radii, angles) grid."""
    tx_x, tx_y, z = position
    dx2 = (x - tx_x) ** 2
    r2 = dx2 + (y - tx_y) ** 2 + z * z
    if np.any(r2 == 0.0):
        raise ValueError("transmitter lies in the aperture plane at this point")
    amp = np.sqrt(z * (dx2 + z * z)) / (SQRT_4PI * r2 ** 1.25)
    phase = -2.0 * np.pi / wavelength * np.sqrt(r2)
    del r2  # one grid-sized array fewer alive next to the complex ones below
    if focus_phase is not None:
        phase += focus_phase(x, y)
    return amp, amp * np.exp(1j * phase)


def fresnel_field_nonbroadside(tx: TxGeometry, x, y, wavelength: float):
    """Quadratic-phase approximation for a slanted transmitter: phase from
    d + (x^2 + y^2 - 2(x x_t + y y_t))/(2d), amplitude 1/(sqrt(4 pi) z)."""
    phase = _TAYLOR["indirect"](np.asarray(x, dtype=float),
                                np.asarray(y, dtype=float), tx)
    return np.exp(-2j * np.pi / wavelength * phase) / (SQRT_4PI * tx.z)


def _broadside_focus(wavelength: float, focus: float):
    """Focusing phase (x, y) -> (2 pi/lambda)(x^2+y^2)/(2F); None when F = inf."""
    if math.isinf(focus):
        return None
    return lambda x, y: np.pi / wavelength * (x * x + y * y) / focus


def _panels(edges, n: int, size: float):
    """Centres and half-widths of the panels between element-boundary indices
    ``edges`` (0 .. n) along a side of n elements of width ``size``."""
    edges = np.asarray(edges, dtype=float)
    return 0.5 * (edges[:-1] + edges[1:] - n) * size, 0.5 * np.diff(edges) * size


def _aperture_blocks(arr: RectArray, bx, by, points, order: int, focusing,
                     weight: float):
    """Exact field on the composite Gauss-Legendre grid, order nodes per panel
    side, of the panels between element-boundary indices bx (rows, along the
    width) and by (columns, along the height), for each transmitter of
    ``points``, an array whose rows start with a transmitter's position
    (x, y, z).  Blocks hold at most _BLOCK_NODES nodes counted over
    transmitters times nodes: the whole grids of as many transmitters as fit,
    or else whole panel rows of one transmitter (at least one row).  A block's
    transmitters share one ``_spherical_wave`` call, focused by the phase
    ``focusing(block)`` gives first for that block of rows of ``points`` (as
    in ``_panel_edges``: a phase, or None where the gain is unfocused).

    Yields, for each transmitter of each block, its row in ``points``, the
    block's row node weights times ``weight`` (1, or 2 or 4 where the panels
    cover one mirror half or quarter of the aperture), its column node
    weights, and that transmitter's amplitude and focused field on the
    block's node grid."""
    nodes, wts = _gauss_legendre(order)
    cx, hx = _panels(bx, arr.n_per_side, arr.elem_w)
    cy, hy = _panels(by, arr.n_per_side, arr.elem_h)
    gy = (cy[:, None] + hy[:, None] * nodes).ravel()
    wy = (hy[:, None] * wts).ravel()
    rows = max(1, _BLOCK_NODES // (order * gy.size))
    per = max(1, rows // len(cx))  # whole grids per block, or one row-split one
    for t in range(0, len(points), per):
        block = points[t:t + per]
        position = [c[:, None, None] for c in block.T[:3]]
        phase = focusing(block)[0]
        for i in range(0, len(cx), rows):
            gx = (cx[i:i + rows, None] + hx[i:i + rows, None] * nodes).ravel()
            wx = (weight * hx[i:i + rows, None] * wts).ravel()
            amp, field = _spherical_wave(position, gx[:, None], gy, arr.wavelength, phase)
            for p in range(len(block)):
                yield t + p, wx, wy, amp[p], field[p]
            del amp, field  # freed before the next block is built


def _mirrored(position) -> tuple[bool, bool]:
    """Whether the transmitter at ``position`` (x, y, ...) lies on the x = 0 and
    on the y = 0 plane.  On such an axis the exact field, and each gain's
    focusing phase, are even."""
    return position[0] == 0.0, position[1] == 0.0


def _panel_edges(arr: RectArray, points, focusing) -> list:
    """Element-boundary indices (bx, by) of the panels a gain integrates over,
    for each transmitter of ``points``, rows that start with its position
    (x, y, z) as in ``_aperture_blocks``: g elements per panel side, with g
    the most elements whose residual phase, the focusing phase minus k r,
    turns by at most _PANEL_PHASE across a panel, and at least 1.  Panels of
    whole elements start at 0 (a shorter last panel where g does not divide
    n), except along an axis ``_mirrored`` marks: there they lie
    mirror-symmetric about the centre n/2 (mid-element for odd n), with a
    shorter panel at each end.

    The gradient bound per axis is the largest secant slope of the residual
    phase between neighbouring points of a _PROBES-interval probe grid over
    the aperture, plus what its second derivatives can add within a probe
    cell: each is at most k/z for -k r and k/depth for a focusing phase
    centred at that depth.  ``focusing(rows)`` gives, for rows of ``points``,
    their focusing phase (broadcasting against their stack, or None) and each
    one's depth.  The probe grid does not grow with n; the transmitters are
    probed together, in (transmitters, probes, probes) stacks of at most
    _BLOCK_NODES probe nodes, and no transmitter's panels depend on
    another's."""
    k = 2.0 * np.pi / arr.wavelength
    px = np.linspace(-0.5 * arr.aperture_w, 0.5 * arr.aperture_w, _PROBES + 1)
    py = np.linspace(-0.5 * arr.aperture_h, 0.5 * arr.aperture_h, _PROBES + 1)
    hx, hy = px[1] - px[0], py[1] - py[0]
    per = max(1, _BLOCK_NODES // (_PROBES + 1) ** 2)
    edges = []
    for t in range(0, len(points), per):
        rows = points[t:t + per]
        phase, depths = focusing(rows)
        tx_x, tx_y = (c[:, None, None] for c in rows.T[:2])
        # libm's pow, as _distance squares a scalar z: numpy's square can round apart
        z2 = np.array([z ** 2 for z in rows[:, 2].tolist()])[:, None, None]
        residual = -k * np.sqrt((px[:, None] - tx_x) ** 2 + (py - tx_y) ** 2 + z2)
        if phase is not None:
            residual += phase(px[:, None], py)
        slopes_x = np.abs(residual[:, 1:] - residual[:, :-1]).max(axis=(1, 2)) / hx
        slopes_y = np.abs(residual[:, :, 1:] - residual[:, :, :-1]).max(axis=(1, 2)) / hy
        del residual
        for position, depth, sx, sy in zip(rows.tolist(), depths, slopes_x.tolist(),
                                           slopes_y.tolist()):
            curvature = k * (1.0 / position[2] + 1.0 / depth)
            grads = sx + curvature * (hx + 0.5 * hy), sy + curvature * (hy + 0.5 * hx)
            edges.append(tuple(
                _edges(arr.n_per_side, _PANEL_PHASE / (grad * size), fold)
                for grad, size, fold in zip(grads, (arr.elem_w, arr.elem_h),
                                            _mirrored(position))))
    return edges


def _edges(n: int, elements: float, centred: bool) -> np.ndarray:
    """Boundary indices 0, g, 2g, ..., n with g = floor(elements) in [1, n];
    when ``centred``, n/2 -+ g, 2g, ... down to 0 and up to n instead."""
    g = int(min(n, max(1.0, elements)))
    if not centred:
        return np.append(np.arange(0, n, g), n)
    upper = np.append(np.arange(0.5 * n, n, g), n)
    return np.concatenate([n - upper[:0:-1], upper])


def _disk_blocks(circ: CircArray, dists, order: int, focus_phase):
    """Ring blocks over the disk for on-axis transmitters at the distances
    ``dists``, focused by ``focus_phase``, a phase of x^2 + y^2 alone (or
    None).  Each block of consecutive transmitters is yielded as its slice of
    ``dists``, the radial node weights, a unit angular weight, and two
    (points, radii, 1) arrays: per ring, the root of its power and its field,
    each integrated over the angle, so the radial reduction over them is the
    whole rule.  A block takes as many transmitters as keep it within
    _RING_NODES (transmitter, radius) nodes, and at least one.

    The radii are 6*order Gauss-Legendre nodes, whose weights carry the rho
    Jacobian.  On the axis the range, and with it the propagation and
    focusing phases, is the same all around a ring, so ``_spherical_wave`` is
    evaluated once per (distance, radius), at (0, rho).  The angle enters only
    through the element pattern, amp(rho, theta) = amp(rho, pi/2)
    sqrt(1 + t cos^2 theta) with t = (rho/z)^2, and is integrated exactly:
    over the circle the square of that factor gives pi (2 + t), and the factor
    4 sqrt(1 + t) E(t/(1 + t)), E the complete elliptic integral of the second
    kind (scipy's ``ellipe``).  Off the axis the range varies around a ring,
    and this does not hold."""
    nodes, wts = _gauss_legendre(6 * order)
    rho = 0.5 * circ.radius * (nodes + 1.0)
    wr = 0.5 * circ.radius * wts * rho
    points = max(1, _RING_NODES // rho.size)
    for i in range(0, len(dists), points):
        at = slice(i, i + points)
        z = dists[at, None]
        amp, field = _spherical_wave((0.0, 0.0, z), 0.0, rho, circ.wavelength, focus_phase)
        t = (rho / z) ** 2
        amp *= np.sqrt(np.pi * (2.0 + t))
        field *= 4.0 * np.sqrt(1.0 + t) * ellipe(t / (1.0 + t))
        yield at, wr, np.ones(1), amp[..., None], field[..., None]


def _refined(evaluate, shape, quad: QuadratureSpec, atol: float):
    """Results of ``evaluate(order, pending)``, an array of ``shape`` that need hold
    the order's results only where the boolean mask ``pending`` is set: at
    2*quad.order, unchecked if quad.refinement is 0; else each entry keeps its
    first result within ``atol`` of the one at half its order, within
    quad.refinement more doublings, and each doubling asks only for the entries
    still without one.  Also returns, per entry, the gap between its last two
    results where it never agreed, and 0 where it did."""
    pending = np.full(shape, True)
    if quad.refinement == 0:
        return evaluate(2 * quad.order, pending), np.zeros(shape)
    coarse = result = evaluate(quad.order, pending)
    for k in range(1, quad.refinement + 2):
        fine = evaluate(quad.order << k, pending)
        done = pending & (np.abs(fine - coarse) <= atol)
        result, pending = np.where(done, fine, result), pending & ~done
        if not pending.any():
            return result, np.zeros(shape)
        previous, coarse = coarse, fine
    return result, np.where(pending, np.abs(fine - previous), 0.0)


def _distance(x, y, tx: TxGeometry):
    return np.sqrt((x - tx.x) ** 2 + (y - tx.y) ** 2 + tx.z ** 2)


# first-order Taylor expansions of _distance: "direct" around the broadside
# axis, "indirect" after recentering on the transmitter range
_TAYLOR = {
    "direct": lambda x, y, tx: tx.z * (
        1.0 + ((x - tx.x) ** 2 + (y - tx.y) ** 2) / (2.0 * tx.z * tx.z)),
    "indirect": lambda x, y, tx: tx.dist + (
        x * x + y * y - 2.0 * (x * tx.x + y * tx.y)) / (2.0 * tx.dist),
}


def mean_abs_distance_errors(arr: RectArray, tx: TxGeometry) -> tuple:
    """Means over all N element centres of |exact - Taylor| distance, in
    meters, of the direct and then the indirect expansion, both reduced from
    one exact-distance grid.

    With the transmitter on the y = 0 plane (``_mirrored``), both distances are
    even in y and the element rows are mirror pairs, so only the rows with
    y >= 0 are evaluated: weight 2, and 1 on a centre row at y = 0."""
    tx = _transmitter(tx)
    # 2 (dist + aperture length)^2 bounds every square below
    if tx.dist + arr.aperture_len > math.sqrt(0.5 * np.finfo(float).max):
        raise ValueError(f"tx: squared distances overflow at {tx.dist:.6g} m")
    xs, ys = element_grid(arr)
    weights = 1.0
    if _mirrored(tx.position)[1]:
        ys = ys[ys >= 0.0]
        weights = np.where(ys == 0.0, 1.0, 2.0)
    X = xs[:, None]
    exact = _distance(X, ys, tx)
    return tuple(float(np.sum(np.abs(exact - taylor(X, ys, tx)) * weights)
                       / arr.n_elements) for taylor in _TAYLOR.values())
