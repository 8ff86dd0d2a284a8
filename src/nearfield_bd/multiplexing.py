"""Distance-domain multiplexing: focal planning, channels, MMSE, sum rate.

Users share one angular direction and are separated purely by distance.
Focal points are planned so their half-power depth intervals tile a region
without overlap; channels are per-element narrowband responses; the
precoder is MMSE with a total transmit-power normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .array_geometry import RectArray, TxGeometry, characteristic_distances, element_grid
from .beam_depth import solve_a3db
from .field_model import QuadratureSpec, _element_channels, fresnel_field_nonbroadside
from .gain_engine import REACTIVE_LIMIT_FACTOR

_PLAN_EDGE_RTOL = 1e-9


@dataclass(frozen=True)
class PlacementPlan:
    """Focal points with pairwise disjoint half-power intervals.

    Ordered far to near: focal_points[0] has the outermost interval and
    intervals[i] = (z_lo, z_hi) touches intervals[i-1] at its upper edge.
    """

    focal_points: tuple
    intervals: tuple

    def __post_init__(self):
        if len(self.focal_points) != len(self.intervals):
            raise ValueError("one interval per focal point required")
        for f, (lo, hi) in zip(self.focal_points, self.intervals):
            if not lo < f < hi:
                raise ValueError("focal point outside its interval")
        by_lo = sorted(self.intervals)
        for (_, hi), (lo, _) in zip(by_lo, by_lo[1:]):
            if hi > lo * (1 + _PLAN_EDGE_RTOL):
                raise ValueError("intervals overlap")

    def __len__(self):
        return len(self.focal_points)


@dataclass(frozen=True)
class ChannelMatrix:
    """Per-element responses, one column per user, rows in row-major
    (x index, y index) element order."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim != 2 or e.shape[1] < 1:
            raise ValueError("entries must be an N x K matrix with K >= 1")
        if not np.all(np.isfinite(e.real)) or not np.all(np.isfinite(e.imag)):
            raise ValueError("channel entries must be finite")

    @property
    def n_elements(self):
        return self.entries.shape[0]

    @property
    def n_users(self):
        return self.entries.shape[1]


@dataclass(frozen=True)
class Precoder:
    """MMSE precoding matrix, scaled so its Frobenius norm is one.

    The scale alpha enforces unit total transmit power; entries already
    include it.
    """

    entries: np.ndarray
    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")


@dataclass(frozen=True)
class MonteCarloResult:
    mean_rate: float
    stderr: float
    n_trials: int


def plan_focal_points(arr: RectArray, region: tuple,
                      max_users: Optional[int] = None) -> PlacementPlan:
    """Greedy far-to-near tiling of a region with half-power intervals.

    Starting from the far edge e, the focal point F = d_FA e/(d_FA + c e)
    with c = 4 a_3dB (1 + eta^2) has its interval's upper edge exactly at e;
    its lower edge becomes the next e.  Stops below the near edge or at
    max_users.
    """
    z_min, z_max = region
    if math.isnan(z_min) or math.isnan(z_max):
        raise ValueError(f"region bounds must be numbers, got {region}")
    if max_users is not None and max_users < 1:
        raise ValueError("max_users must be at least 1")
    if z_min >= z_max:
        return PlacementPlan((), ())
    a3 = solve_a3db(arr.eta)
    dists = characteristic_distances(arr, a3)
    c = 4.0 * a3 * (1.0 + arr.eta ** 2)
    if z_min < dists.d_b * (1 - _PLAN_EDGE_RTOL):
        raise ValueError("region starts below the boundary distance")
    if z_max > dists.d_fa / c * (1 + _PLAN_EDGE_RTOL):
        raise ValueError("region extends beyond the finite-depth limit")
    focals, intervals = [], []
    e = z_max
    while e > z_min and (max_users is None or len(focals) < max_users):
        f = dists.d_fa * e / (dists.d_fa + c * e)
        z_lo = dists.d_fa * f / (dists.d_fa + c * f)
        focals.append(f)
        intervals.append((z_lo, e))
        e = z_lo
    return PlacementPlan(tuple(focals), tuple(intervals))


def _check_users(arr: RectArray, users: Sequence[TxGeometry]):
    if len(users) < 1:
        raise ValueError("at least one user required")
    for k, tx in enumerate(users):
        if tx.dist < REACTIVE_LIMIT_FACTOR * arr.aperture_len:
            raise ValueError(f"user {k} in the reactive near-field "
                             f"(dist {tx.dist:.4g} m)")


def build_channel_matrix(arr: RectArray, users: Sequence[TxGeometry],
                         quad: Optional[QuadratureSpec] = None,
                         model: str = "phase") -> ChannelMatrix:
    """Assemble the N x K channel matrix for a set of users.

    model "phase" (default): unit-modulus entries carrying the quadratic
    phase of the paraxial field at each element center.  model "fresnel":
    the same field including its amplitude, times the element-area square
    root (midpoint rule).  model "exact": per-element quadrature of the
    spherical-wave field.
    """
    _check_users(arr, users)
    if model not in ("phase", "fresnel", "exact"):
        raise ValueError(f"unknown channel model {model!r}")
    xc, yc = element_grid(arr)
    cols = []
    for k, tx in enumerate(users):
        try:
            if model == "exact":
                cols.append(_element_channels(arr, xc, yc, tx,
                                              quad or QuadratureSpec()).ravel())
            else:
                vals = fresnel_field_nonbroadside(tx, xc[:, None], yc[None, :],
                                                  arr.wavelength)
                if model == "phase":
                    vals = vals / np.abs(vals)
                else:
                    vals = vals * math.sqrt(arr.elem_area)
                cols.append(vals.ravel())
        except (ValueError, RuntimeError) as err:
            raise type(err)(f"user {k}: {err}") from err
    return ChannelMatrix(np.column_stack(cols))


def mmse_precoder(h: ChannelMatrix) -> Precoder:
    """W = alpha H (H^H H + I)^{-1} with alpha normalizing ||W||_F to one.

    The K x K Gram system is solved directly; no N x N matrix is formed.
    """
    mat = h.entries
    n, k = mat.shape
    if k > n:
        raise ValueError("more users than elements")
    gram = mat.conj().T @ mat
    unnorm = mat @ np.linalg.solve(gram + np.eye(k), np.eye(k))
    alpha = 1.0 / np.linalg.norm(unnorm)
    if not math.isfinite(alpha):
        raise ValueError("non-finite precoder normalization")
    return Precoder(alpha * unnorm, alpha)


def _signal_table(h: ChannelMatrix, w: Precoder,
                  powers: Sequence[float]) -> tuple:
    p = np.asarray(powers, dtype=float)
    if p.ndim != 1 or p.shape[0] != h.n_users:
        raise ValueError("one power per user required")
    if np.any(p < 0):
        raise ValueError("powers must be non-negative")
    if w.entries.shape != h.entries.shape:
        raise ValueError("precoder shape does not match channel")
    cross = np.abs(h.entries.conj().T @ w.entries) ** 2
    sig = p * np.diag(cross)
    interference = cross @ p - p * np.diag(cross)
    return sig, interference


def user_sinrs(h: ChannelMatrix, w: Precoder,
               powers: Sequence[float]) -> np.ndarray:
    sig, interference = _signal_table(h, w, powers)
    return sig / (interference + 1.0)


def sum_rate(h: ChannelMatrix, w: Precoder, powers: Sequence[float]) -> float:
    """Achievable rate sum over users, treating interference as noise."""
    sig, interference = _signal_table(h, w, powers)
    return float(np.sum(np.log2(1.0 + sig / (interference + 1.0))))


def _phase_gram(arr: RectArray, dists: np.ndarray) -> np.ndarray:
    """Gram matrix of broadside phase-model columns without forming them.

    conj(h_i)^T h_j separates into x and y sums of quadratic phases, so the
    K x K Gram costs O(K^2 n_per_side) instead of O(K^2 N).
    """
    xc, yc = element_grid(arr)
    inv = 1.0 / dists
    curvature = np.subtract.outer(inv, inv)
    sx = np.exp(1j * np.pi / arr.wavelength
                * curvature[:, :, None] * xc[None, None, :] ** 2).sum(axis=2)
    sy = np.exp(1j * np.pi / arr.wavelength
                * curvature[:, :, None] * yc[None, None, :] ** 2).sum(axis=2)
    lead = np.exp(2j * np.pi / arr.wavelength * np.subtract.outer(dists, dists))
    return lead * sx * sy


def _rates_from_gram(gram: np.ndarray, power: float) -> float:
    k = gram.shape[0]
    inv = np.linalg.solve(gram + np.eye(k), np.eye(k))
    cross = gram @ inv
    alpha_sq = 1.0 / np.trace(inv.conj().T @ gram @ inv).real
    table = np.abs(cross) ** 2 * alpha_sq
    sig = power * np.diag(table)
    interference = power * (table.sum(axis=1) - np.diag(table))
    return float(np.sum(np.log2(1.0 + sig / (interference + 1.0))))


def monte_carlo_sum_rate(arr: RectArray, k_users: int, region: tuple,
                         n_trials: int, snr_db: float,
                         seed: int) -> MonteCarloResult:
    """Mean sum rate over random co-directional user drops.

    Distances are drawn uniformly in reciprocal distance over the region
    (matching the roughly curvature-uniform spacing of depth intervals),
    broadside, with a PCG64 generator seeded for reproducibility.  Trials
    are reduced in trial order.
    """
    if k_users < 1:
        raise ValueError("k_users must be at least 1")
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    z_min, z_max = region
    if not (math.isfinite(z_min) and math.isfinite(z_max)):
        raise ValueError(f"region bounds must be finite, got {region}")
    if not 0 < z_min < z_max:
        raise ValueError("region must satisfy 0 < z_min < z_max")
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    power = 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    draws = 1.0 / rng.uniform(1.0 / z_max, 1.0 / z_min, size=(n_trials, k_users))
    rates = np.empty(n_trials)
    for t in range(n_trials):
        rates[t] = _rates_from_gram(_phase_gram(arr, draws[t]), power)
    mean = float(rates.mean())
    stderr = float(rates.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    return MonteCarloResult(mean, stderr, n_trials)
