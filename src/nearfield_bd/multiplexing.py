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

from .array_geometry import (RectArray, TxGeometry, _integer, _one_or_many, _real, _shown,
                             element_grid)
from .beam_depth import bd_rect, finite_bd_limit_rect
from .field_model import SQRT_4PI, QuadratureSpec, _element_channels
from .gain_engine import radiative_floor

_PLAN_EDGE_RTOL = 1e-9

# Monte Carlo trials are evaluated in blocks of at most this many per-user
# phase-table values (trials x users x half the elements per side), and a
# block's pair products reuse buffers no larger than its table; the tables
# are built in chunks of as many values.  So the tables and the pair products
# stay within a fixed size for any trial count, user count and array size;
# what grows with the trial count T is the draws (k_max T floats) and the
# rates (T floats per user count and SNR).  Blocks this small keep the table
# and its pair products in cache: at n_per_side = 200, K = 1-8, the Monte
# Carlo calls ran in 62 ms against 73 ms with 2^16 values.
_GRAM_BLOCK_VALUES = 2 ** 14


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
        if not np.isfinite(e).all():
            raise ValueError("channel entries must be finite")

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
        _real("alpha", self.alpha)


@dataclass(frozen=True)
class MonteCarloResult:
    mean_rate: float
    stderr: float
    n_trials: int


def _region(region) -> tuple:
    """(z_min, z_max): the two finite bounds of ``region``; anything else, one
    or three bounds included, raises a ValueError starting with region.  The
    order each caller needs is its own check."""
    try:   # unpacking other than two entries raises ValueError too
        z_min, z_max = (_real("region bound", z, -math.inf, strict=False)
                        for z in _one_or_many(region)[0])
    except ValueError as err:
        raise ValueError(f"region bounds must be finite numbers (z_min, z_max), "
                         f"got {_shown(region)}") from err
    return z_min, z_max


def plan_focal_points(arr: RectArray, region: tuple,
                      max_users: Optional[int] = None) -> PlacementPlan:
    """Greedy far-to-near tiling of a region with half-power intervals.

    The depth law's lower-edge map x -> d_FA x/(d_FA + c x) also takes an
    upper edge e to the focal point whose interval ends exactly at e, so
    starting from the far edge, F = bd_rect(arr, e).z_lo and the interval's
    lower edge bd_rect(arr, F).z_lo becomes the next e.  Stops below the
    near edge or at max_users; a focus in the reactive near field raises.
    ``region`` is two finite bounds (z_min, z_max); an empty region (z_min ==
    z_max) gets an empty plan, and an inverted one raises.
    """
    z_min, z_max = _region(region)
    if max_users is not None:
        max_users = _integer("max_users", max_users)
    if z_min > z_max:
        raise ValueError(f"region must satisfy z_min <= z_max, got ({z_min!r}, {z_max!r})")
    if z_min == z_max:
        return PlacementPlan((), ())
    if z_min < arr.d_b * (1 - _PLAN_EDGE_RTOL):
        raise ValueError("region starts below the boundary distance")
    if z_max > finite_bd_limit_rect(arr) * (1 + _PLAN_EDGE_RTOL):
        raise ValueError("region extends beyond the finite-depth limit")
    floor = radiative_floor(arr)
    focals, intervals = [], []
    e = z_max
    while e > z_min and (max_users is None or len(focals) < max_users):
        f = bd_rect(arr, e).z_lo
        if f < floor:
            raise ValueError(f"focus {f:.4g} m below the radiative floor {floor:.4g} m")
        z_lo = bd_rect(arr, f).z_lo
        focals.append(f)
        intervals.append((z_lo, e))
        e = z_lo
    return PlacementPlan(tuple(focals), tuple(intervals))


def _check_users(arr: RectArray, users: Sequence[TxGeometry]):
    if len(users) < 1:
        raise ValueError("at least one user required")
    for k, tx in enumerate(users):
        if tx.dist < radiative_floor(arr):
            raise ValueError(f"user {k} in the reactive near-field "
                             f"(dist {tx.dist:.4g} m)")


def build_channel_matrix(arr: RectArray, users: Sequence[TxGeometry],
                         quad: Optional[QuadratureSpec] = None,
                         model: str = "phase") -> ChannelMatrix:
    """Assemble the N x K channel matrix for a set of users.

    model "phase" (default): unit-modulus entries carrying the quadratic
    phase of the paraxial field at each element center.  model "fresnel":
    the same field including its amplitude 1/(sqrt(4 pi) z), times the
    element-area square root (midpoint rule).  model "exact": per-element
    quadrature of the spherical-wave field.

    The paraxial phase d + (x^2 - 2 x x_t)/(2d) + (y^2 - 2 y y_t)/(2d)
    separates, so a "phase" or "fresnel" column is the outer product of two
    per-axis factors exp(-jk(u^2 - 2 u u_t)/(2d)), 2 n_per_side exponentials,
    times one scalar that carries the range phase e^{-jkd} and, for
    "fresnel", the amplitude; for "phase" each factor and the scalar are
    scaled to unit modulus.  Every column is written into one C-contiguous
    (K, n, n) stack, and the entries are its (K, N) reshape transposed: rows
    in row-major (x index, y index) element order, and entries.T a view with
    each user's column contiguous.
    """
    _check_users(arr, users)
    if model not in ("phase", "fresnel", "exact"):
        raise ValueError(f"unknown channel model {model!r}")
    n = arr.n_per_side
    xc, yc = element_grid(arr)
    edges = np.arange(n + 1)
    wavenumber = 2.0 * np.pi / arr.wavelength
    stack = np.empty((len(users), n, n), dtype=complex)
    for k, tx in enumerate(users):
        try:
            if model == "exact":
                stack[k] = _element_channels(arr, edges, edges, tx,
                                             quad or QuadratureSpec())
            else:
                ax = np.exp(-1j * wavenumber
                            * ((xc * xc - 2.0 * xc * tx.x) / (2.0 * tx.dist)))
                ay = np.exp(-1j * wavenumber
                            * ((yc * yc - 2.0 * yc * tx.y) / (2.0 * tx.dist)))
                scale = np.exp(-1j * wavenumber * tx.dist)
                if model == "phase":
                    ax /= np.abs(ax)
                    ay /= np.abs(ay)
                    scale /= abs(scale)
                else:
                    scale *= math.sqrt(arr.elem_area) / (SQRT_4PI * tx.z)
                np.multiply((scale * ax)[:, None], ay, out=stack[k])
        except (ValueError, RuntimeError) as err:
            raise type(err)(f"user {k}: {err}") from err
    return ChannelMatrix(stack.reshape(len(users), n * n).T)


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


def _channel_gram(h: ChannelMatrix) -> np.ndarray:
    """H^H H from numpy's pairwise sums along the contiguous element axis, so
    its bits do not depend on the BLAS thread count.  Only the upper triangle
    is summed, K(K+1)/2 sums over N; the lower triangle is its conjugate and
    the diagonal is kept real, so the result is exactly Hermitian.

    Each first user's conjugate and each pair's product are written into two
    N-length buffers reused for every pair, so the sums need 2 N complex
    values of scratch, not a fresh (K - a) x N product per first user a: in
    a fresh process those temporaries cost more in page faults than the
    products cost in arithmetic."""
    cols = np.ascontiguousarray(h.entries.T)
    k = len(cols)
    gram = np.empty((k, k), dtype=complex)
    conj = np.empty_like(cols[0])
    prod = np.empty_like(conj)
    for a, col in enumerate(cols):
        np.conjugate(col, out=conj)
        for b in range(a, k):
            gram[a, b] = np.multiply(conj, cols[b], out=prod).sum()
    lower = np.tril_indices(k, -1)
    gram[lower] = gram.T[lower].conj()
    np.fill_diagonal(gram, gram.diagonal().real)
    return gram


def _split_diagonal(table: np.ndarray) -> tuple:
    """The diagonal of the table t_kj = |h_k^H w_j|^2, or of each table in a
    (..., K, K) stack, and the table with that diagonal zeroed in place.  User
    k's signal is p_k t_kk and its interference the zeroed row times p:
    subtracting the signal from a full row sum cancels when it dominates."""
    diag = np.arange(table.shape[-1])
    gains = table[..., diag, diag]
    table[..., diag, diag] = 0.0
    return gains, table


def user_sinrs(h: ChannelMatrix, w: Precoder,
               powers: Sequence[float]) -> np.ndarray:
    p = np.asarray(powers, dtype=float)
    if p.shape != (h.n_users,):
        raise ValueError("one power per user required")
    for x in p.tolist():
        _real("power", x, strict=False)
    if w.entries.shape != h.entries.shape:
        raise ValueError("precoder shape does not match channel")
    gains, cross = _split_diagonal(np.abs(h.entries.conj().T @ w.entries) ** 2)
    return p * gains / (cross @ p + 1.0)


def sum_rate(h: ChannelMatrix, w: Precoder, powers: Sequence[float]) -> float:
    """Achievable rate sum over users, treating interference as noise."""
    return float(np.sum(np.log2(1.0 + user_sinrs(h, w, powers))))


def _phase_gram(arr: RectArray, dists: np.ndarray) -> np.ndarray:
    """Gram matrices of broadside phase-model columns without forming them.

    ``dists`` holds K user distances, or a (..., K) stack of them; the result
    is (..., K, K).  The columns leave out the range phase e^{-jkd}, a
    diagonal unitary similarity that changes no MMSE rate and only rounds, so
    conj(h_i)^T h_j is the product of an x and a y sum of quadratic phases
    and a K x K Gram costs O(K n_per_side) sines and cosines and
    O(K^2 n_per_side) products instead of O(K^2 N) exponentials.  Only the
    strict upper triangle is summed, from per-user phase tables (see
    ``_phase_table`` and ``_pair_sums``); the lower triangle is its conjugate
    and the diagonal is exactly N.  Each axis sums over the mirror half of
    the element grid; equal element sides give bit-identical axes, so one
    table serves both.
    """
    dists = np.asarray(dists, dtype=float)
    # users lead the tables, so each pair product reads contiguous rows
    users = np.moveaxis(dists, -1, 0)
    xt = _phase_table(arr, users, 0)
    yt = xt if arr.elem_w == arr.elem_h else _phase_table(arr, users, 1)
    return _table_gram(arr, xt, yt, np.triu_indices(dists.shape[-1], 1))


def _phase_table(arr: RectArray, dists: np.ndarray, axis: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """E_d(u) = e^{i psi_d(u)}, psi_d = pi u^2 / (2 lambda d), over one axis's
    element coordinates u > 0, for each distance d of ``dists``: shape
    dists.shape + (n_per_side // 2,), written into ``out`` when given.  One
    cos/sin pair per distance and half-grid element."""
    half = element_grid(arr)[axis]
    half = half[half > 0]
    psi = np.pi / (2.0 * arr.wavelength) * half ** 2 / dists[..., None]
    table = np.empty(psi.shape, dtype=complex) if out is None else out
    np.cos(psi, out=table.real)
    np.sin(psi, out=table.imag)
    return table


def _pair_sums(table: np.ndarray, n: int) -> np.ndarray:
    """sum over one axis's element coordinates u of exp(i theta), theta =
    pi/lambda (1/d_i - 1/d_j) u^2, for every user pair i < j of the
    ``_phase_table`` ``table`` (K, ..., n // 2) of an axis of n elements,
    users leading; the result is (..., K(K-1)/2), in np.triu_indices order.

    Mirror pairs +-u add 2 cos theta = 2 - 4 s^2 and the centre (odd n) adds
    1, where s = sin(psi_i - psi_j); with c = cos(psi_i - psi_j) the sum is
    n - 4 sum s^2 + 4i sum s c over the u > 0 half.  A pair's q =
    conj(E_i) E_j gives c = Re q and s = -Im q with no further sine.  The
    real part never goes through a rounded cos theta, which loses the
    1 - cos theta of near-collinear users."""
    k = len(table)
    # one buffer each for the pair products and their squares, reused for
    # every first user a of the pairs (a, a+1..K-1)
    q = np.empty_like(table[1:])
    work = np.empty(q.shape)
    deficit = np.empty((k * (k - 1) // 2,) + q.shape[1:-1])
    cross = np.empty_like(deficit)
    start = 0
    for a in range(k - 1):
        m = k - 1 - a
        qa = np.multiply(table[a].conj(), table[a + 1:], out=q[:m])
        np.square(qa.imag, out=work[:m]).sum(-1, out=deficit[start:start + m])
        np.multiply(qa.imag, qa.real, out=work[:m]).sum(-1, out=cross[start:start + m])
        start += m
    return np.moveaxis(n - 4.0 * deficit - 4j * cross, 0, -1)


def _table_gram(arr: RectArray, xt: np.ndarray, yt: np.ndarray,
                pairs: tuple) -> np.ndarray:
    """``_phase_gram`` from its users-leading x and y phase tables (``yt`` is
    ``xt`` on a square array) and the strict upper triangle ``pairs`` =
    np.triu_indices(K, 1): each entry is the product of two axes' pair sums."""
    i, j = pairs
    xs = _pair_sums(xt, arr.n_per_side)
    upper = xs * (xs if yt is xt else _pair_sums(yt, arr.n_per_side))
    k = len(xt)
    gram = np.empty(xt.shape[1:-1] + (k, k), dtype=complex)
    gram[..., i, j] = upper
    gram[..., j, i] = upper.conj()
    diag = np.arange(k)
    gram[..., diag, diag] = arr.n_per_side ** 2
    return gram


def _mmse_table(gram: np.ndarray, identity: Optional[np.ndarray] = None) -> tuple:
    """``_split_diagonal`` of the table |h_k^H w_j|^2 of the unit-power MMSE
    precoder of the channel with K x K Gram matrix ``gram`` (or of each of a
    (..., K, K) stack): H^H W = alpha G (G + I)^{-1}.  The precoder does not
    depend on the SNR, so one table serves every SNR (``_table_rates``).
    ``identity``, np.eye(K) when given, saves rebuilding it per stack.

    With P = G (G + I)^{-1}, the power ||H (G + I)^{-1}||_F^2 =
    trace((G + I)^{-H} P) is the elementwise sum of conj((G + I)^{-1}) P, so
    the one product P serves both the normalization and the table."""
    if identity is None:
        identity = np.eye(gram.shape[-1])
    eye = np.broadcast_to(identity, gram.shape)
    inv = np.linalg.solve(gram + eye, eye)
    prod = gram @ inv
    alpha_sq = 1.0 / (inv.conj() * prod).sum((-2, -1)).real
    return _split_diagonal(np.abs(prod) ** 2 * alpha_sq[..., None, None])


def _snr_power(snr_db: float, name: str = "snr_db") -> float:
    """Linear power 10^(snr_db/10); ValueError naming ``name`` unless finite."""
    try:
        return 10 ** (_real(name, snr_db, -math.inf, strict=False) / 10)
    except OverflowError:
        raise ValueError(f"{name} must give a finite power 10^({name}/10), "
                         f"got {snr_db!r}") from None


def _table_rates(table: tuple, power: float):
    """Sum rate, every user at ``power``, of the ``_mmse_table`` ``table`` of
    one Gram matrix, or of each of a stack."""
    gains, cross = table
    p = np.full(gains.shape[-1], power)
    return np.sum(np.log2(1.0 + p * gains / (cross @ p + 1.0)), axis=-1)


def planned_sum_rate(arr: RectArray, focal_points: Sequence[float], snr_db):
    """Sum rate of broadside users at ``focal_points`` under the unit-power
    MMSE precoder of their phase-model channel, every user at the power of
    ``snr_db``.

    ``focal_points`` is one focal point or a sequence of them.  ``snr_db``
    is one SNR, which returns one rate, or a sequence of them, which returns
    one rate per entry, in order: the precoder does not depend on the SNR,
    so one channel Gram and its MMSE table serve every entry.
    """
    snrs, one_snr = _one_or_many(snr_db)
    powers = [_snr_power(snr) for snr in snrs]
    users = [TxGeometry(_real("focal point", f)) for f in _one_or_many(focal_points)[0]]
    table = _mmse_table(_channel_gram(build_channel_matrix(arr, users)))
    rates = [float(_table_rates(table, power)) for power in powers]
    return rates[0] if one_snr else rates


def monte_carlo_sum_rate(arr: RectArray, k_users, region: tuple,
                         n_trials: int, snr_db, seed: int):
    """Mean sum rate over random co-directional user drops.

    Distances are drawn uniformly in reciprocal distance over the region
    (matching the roughly curvature-uniform spacing of depth intervals),
    broadside, with a PCG64 generator seeded for reproducibility.  Trials
    are reduced in trial order.

    ``k_users`` is one user count or a sequence of them, and ``snr_db`` one
    SNR or a sequence of them.  One of each returns one ``MonteCarloResult``,
    one sequence a result per entry, and two a list per count of results per
    SNR, each equal to its single call.

    Count k's trial t takes the users t k .. t k + k - 1 of one seeded
    stream of k_max T distances, so its draws are those of a (T, k) draw
    alone.  The stream's x (and, for unequal element sides, y) phase tables
    are built once per distance, in chunks of ``_GRAM_BLOCK_VALUES`` values,
    into one buffer that also carries the rows pending trials still need:
    at most one chunk plus one block, whatever T, K and n are.  Each count
    keeps its own blocks of ``_GRAM_BLOCK_VALUES // (k * ((n + 1) // 2))``
    trials, copied users-leading, so its pair sums, Gram, MMSE table and
    rates are the arithmetic of a single-count call on the same values.
    Every SNR sees the same draws, and a block's Gram stack and MMSE table
    (one solve) serve all of them."""
    counts, one_count = _one_or_many(k_users)
    ks = [_integer("k_users", k) for k in counts]
    n_trials = _integer("n_trials", n_trials)
    z_min, z_max = _region(region)
    if not 0 < z_min < z_max:
        raise ValueError("region must satisfy 0 < z_min < z_max")
    floor = radiative_floor(arr)
    if z_min < floor:
        raise ValueError(f"region starts in the reactive near-field "
                         f"(z_min {z_min:.4g} m < {floor:.4g} m)")
    snrs, one_snr = _one_or_many(snr_db)
    powers = [_snr_power(snr) for snr in snrs]
    width = (arr.n_per_side + 1) // 2
    blocks = {k: max(1, _GRAM_BLOCK_VALUES // (k * width)) for k in ks}
    rng = np.random.default_rng(seed)
    dists = 1.0 / rng.uniform(1.0 / z_max, 1.0 / z_min, size=max(blocks) * n_trials)
    axes = (0,) if arr.elem_w == arr.elem_h else (0, 1)
    chunk = max(1, _GRAM_BLOCK_VALUES // width)
    span = max(k * block for k, block in blocks.items())
    half = arr.n_per_side // 2           # elements u > 0 of an axis
    phases = np.empty((len(axes), chunk + span - 1, half), dtype=complex)
    scratch = np.empty((len(axes), span * half), dtype=complex)
    constants = {k: (np.triu_indices(k, 1), np.eye(k)) for k in blocks}
    rates = {k: np.empty((len(powers), n_trials)) for k in blocks}
    done = dict.fromkeys(blocks, 0)      # trials evaluated, per count
    lo = built = 0                       # stream index of the first buffered row; rows built
    while built < len(dists):
        # drop the rows that no pending trial needs
        keep = min(done[k] * k for k in blocks if done[k] < n_trials)
        if keep > lo:
            phases[:, :built - keep] = phases[:, keep - lo:built - lo]
            lo = keep
        stop = min(len(dists), built + chunk)
        for axis, buffered in zip(axes, phases):
            _phase_table(arr, dists[built:stop], axis, out=buffered[built - lo:stop - lo])
        built = stop
        for k, block in blocks.items():
            pairs, identity = constants[k]
            while done[k] < n_trials and min(n_trials, done[k] + block) * k <= built:
                t0, t1 = done[k], min(n_trials, done[k] + block)
                rows = slice(t0 * k - lo, t1 * k - lo)
                users = [_users_leading(buffered[rows], k, out)
                         for buffered, out in zip(phases, scratch)]
                xt, yt = users if len(users) == 2 else users * 2
                table = _mmse_table(_table_gram(arr, xt, yt, pairs), identity)
                for rate, power in zip(rates[k], powers):
                    rate[t0:t1] = _table_rates(table, power)
                done[k] = t1
    results = {k: [MonteCarloResult(
        float(rate.mean()),
        float(rate.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0,
        n_trials) for rate in per_snr] for k, per_snr in rates.items()}
    results = [results[k][0] if one_snr else results[k] for k in ks]
    return results[0] if one_count else results


def _users_leading(rows: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """The (b k, h) phase-table ``rows`` of b consecutive trials of k users,
    copied into the flat buffer ``out`` as a contiguous (k, b, h) table."""
    b, h = len(rows) // k, rows.shape[1]
    table = out[:rows.size].reshape(k, b, h)
    np.copyto(table, rows.reshape(b, k, h).swapaxes(0, 1))
    return table
