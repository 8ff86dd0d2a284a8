"""Distance-domain multiplexing: focal planning, channels, MMSE, sum rate.

Users share one angular direction and are separated purely by distance.
Focal points are planned so their half-power depth intervals tile a region
without overlap; a user's channel is the unit-modulus paraxial phase at
each element centre; the precoder is MMSE with a total transmit-power
normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .array_geometry import (RectArray, TxGeometry, _integer, _one_or_many, _real, _shown,
                             _transmitters, element_grid)
from .beam_depth import bd_rect, finite_bd_limit_rect
from .gain_engine import radiative_floor

_PLAN_EDGE_RTOL = 1e-9

# The Monte Carlo distance stream's phase tables are built, and the pair sums
# every user count shares formed, in windows of at most _WINDOW_VALUES table
# values (stream rows x half the elements per side; whole trials of the
# largest count, one at least), whose conjugates and pair products reuse
# buffers of one window.  Gram stacks, and the MMSE solve on each, hold at
# most _STACK_ENTRIES entries (one trial at least), and a pair sum is kept
# only while a pending stack reads it.  So the tables, pair sums and Grams
# stay within a fixed size for any trial count T; what grows with T is the
# draws (k_max T floats) and the rates (T floats per user count and SNR).
# Of the sizes tried (2^13-2^15 values, 2^11-2^14 entries) these ran the
# K = 1-8 sweep at n_per_side = 200 about fastest, the window's buffers in
# cache and the 2400 Grams of T = 300 in 19 solves.
_WINDOW_VALUES = 2 ** 14
_STACK_ENTRIES = 2 ** 12


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
    for k, tx in enumerate(users):
        if tx.dist < radiative_floor(arr):
            raise ValueError(f"user {k} in the reactive near-field "
                             f"(dist {tx.dist:.4g} m)")


def build_channel_matrix(arr: RectArray,
                         users: TxGeometry | Sequence[TxGeometry]) -> ChannelMatrix:
    """Assemble the N x K channel matrix for a set of users: unit-modulus
    entries carrying the quadratic phase of the paraxial field at each
    element center.

    The paraxial phase d + (x^2 - 2 x x_t)/(2d) + (y^2 - 2 y y_t)/(2d)
    separates, so a column is the outer product of two per-axis factors
    exp(-jk(u^2 - 2 u u_t)/(2d)), 2 n_per_side exponentials, times the range
    phase e^{-jkd}, each factor and the scalar scaled to unit modulus.  Every
    column is written into one C-contiguous (K, n, n) stack, and the entries
    are its (K, N) reshape transposed: rows in row-major (x index, y index)
    element order, and entries.T a view with each user's column contiguous.

    ``users`` is one TxGeometry, a one-user channel, or a sequence of them;
    anything else raises a ValueError starting with tx.
    """
    users = _transmitters(users)[0]
    _check_users(arr, users)
    n = arr.n_per_side
    xc, yc = element_grid(arr)
    wavenumber = 2.0 * np.pi / arr.wavelength
    stack = np.empty((len(users), n, n), dtype=complex)
    for k, tx in enumerate(users):
        ax = np.exp(-1j * wavenumber * ((xc * xc - 2.0 * xc * tx.x) / (2.0 * tx.dist)))
        ay = np.exp(-1j * wavenumber * ((yc * yc - 2.0 * yc * tx.y) / (2.0 * tx.dist)))
        scale = np.exp(-1j * wavenumber * tx.dist)
        ax /= np.abs(ax)
        ay /= np.abs(ay)
        scale /= abs(scale)
        np.multiply((scale * ax)[:, None], ay, out=stack[k])
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
    table serves both.  The stack is the trials of ``_gram_stacks`` for the
    one count K, so it holds the Monte Carlo Grams' bits; an empty stack
    gives an empty (..., K, K) array.
    """
    dists = np.asarray(dists, dtype=float)
    k = dists.shape[-1]
    stream = dists.reshape(-1)
    if not stream.size:
        return np.empty(dists.shape + (k,), dtype=complex)
    grams = [gram for *_, gram in _gram_stacks(arr, stream, [k], len(stream) // k)]
    return np.concatenate(grams).reshape(dists.shape + (k,))


def _phase_table(arr: RectArray, dists: np.ndarray, axis: int,
                 out: np.ndarray) -> np.ndarray:
    """E_d(u) = e^{i psi_d(u)}, psi_d = pi u^2 / (2 lambda d), over one axis's
    element coordinates u > 0, for each distance d of ``dists``, written into
    and returned as ``out``, a complex array of shape dists.shape +
    (n_per_side // 2,).  One cos/sin pair per distance and half-grid element."""
    half = element_grid(arr)[axis]
    half = half[half > 0]
    psi = np.pi / (2.0 * arr.wavelength) * half ** 2 / dists[..., None]
    np.cos(psi, out=out.real)
    np.sin(psi, out=out.imag)
    return out


def _pair_sums(conj_first: np.ndarray, second: np.ndarray, n: int,
               q: np.ndarray) -> np.ndarray:
    """sum over one axis's element coordinates u of exp(i theta), theta =
    pi/lambda (1/d_i - 1/d_j) u^2, for each pair of ``_phase_table`` rows
    (..., n // 2) of an axis of n elements: d_i's rows conjugated in
    ``conj_first`` and d_j's in ``second``; the result is (...).  ``q``, a
    complex buffer of their shape, takes the products.

    Mirror pairs +-u add 2 cos theta = 2 - 4 s^2 and the centre (odd n) adds
    1, where s = sin(psi_i - psi_j); with c = cos(psi_i - psi_j) the sum is
    n - 4 sum s^2 + 4i sum s c over the u > 0 half.  A pair's q =
    conj(E_i) E_j gives c = Re q and s = -Im q with no further sine.  The
    real part never goes through a rounded cos theta, which loses the
    1 - cos theta of near-collinear users."""
    # numpy multiplies complex arrays with a fused multiply-add, but not a lone
    # value in place or broadcast from fewer dimensions, which would round
    # apart; so the operands share their dimensions and q is neither of them
    q = np.multiply(conj_first, second, out=q)
    # s c over c, then s^2 over s: each product is one rounding wherever it lands
    cross = np.multiply(q.imag, q.real, out=q.real).sum(-1)
    deficit = np.square(q.imag, out=q.imag).sum(-1)
    return n - 4.0 * deficit - 4j * cross


def _gram_stacks(arr: RectArray, dists: np.ndarray, ks: Sequence[int], n_trials: int):
    """``_phase_gram``'s Grams of every user count k of ``ks`` over
    ``n_trials`` trials, count k's trial t the users at rows t k .. t k + k - 1
    of the distance stream ``dists`` (max(ks) n_trials rows).  Yields
    (k, t0, t1, grams), the (t1 - t0, k, k) Grams of count k's trials t0 ..
    t1 - 1, each count's in trial order, in stacks of at most
    ``_STACK_ENTRIES`` entries.

    Entry (a, b), a < b, of count k's trial t is the pair sum at offset
    b - a from stream row t k + a, so all counts read one pass of pair sums
    per offset d = 1 .. p - 1, p = max(ks).  The stream is cut into windows
    of whole periods of p rows.  Each row's phase table is built once per
    axis, and the p - 1 rows past a window, which its last pairs reach, are
    carried to the next.  In each period the pass of offset d pairs the
    starts some count reads: the first p - d when p is the only count above
    d, every start otherwise.  A pair sum is kept, as the product of its
    axes' sums, until no pending stack reads it."""
    p = max(ks)
    n, half = arr.n_per_side, arr.n_per_side // 2
    axes = (0,) if arr.elem_w == arr.elem_h else (0, 1)
    lengths = {d: p - d if all(k <= d or k == p for k in ks) else p for d in range(1, p)}
    window = p * max(1, _WINDOW_VALUES // (p * max(1, half)))
    blocks = {k: max(1, _STACK_ENTRIES // (k * k)) for k in ks}   # trials per stack
    entries = {k: (*np.triu_indices(k, 1), np.arange(k)) for k in blocks}
    reach = max(k * block for k, block in blocks.items())
    # rows past the stream's end are never built; zeros keep their unread
    # pair sums finite
    tables = np.zeros((len(axes), window + p - 1, half), dtype=complex)
    conj = np.empty((len(axes), window, half), dtype=complex)
    q = np.empty(window * half, dtype=complex)
    sums = np.empty((p - 1, window + reach), dtype=complex)
    done = dict.fromkeys(blocks, 0)      # trials yielded, per count
    lo = built = 0                       # stream index of sums[:, 0]; rows built
    for w0 in range(0, len(dists), window):
        size = min(window, len(dists) - w0)
        periods = size // p
        ahead = built - w0               # rows built for the previous window's pairs
        tables[:, :ahead] = tables[:, window:window + ahead]
        built = min(len(dists), w0 + window + p - 1)
        for axis, table in zip(axes, tables):
            _phase_table(arr, dists[w0 + ahead:built], axis, out=table[ahead:built - w0])
        np.conjugate(tables[:, :size], out=conj[:, :size])
        # drop the pair sums that no pending stack reads
        keep = min((done[k] * k for k in blocks if 1 < k and done[k] < n_trials), default=w0)
        if keep > lo:
            sums[:, :w0 - keep] = sums[:, keep - lo:w0 - lo]
            lo = keep
        # (period, position) views of the window's starts and of its pair sums
        firsts = conj[:, :size].reshape(len(axes), periods, p, half)
        stored = sums[:, w0 - lo:w0 + size - lo].reshape(p - 1, periods, p)
        for d, length in lengths.items():
            shape = (periods, length, half)
            axis_sums = [_pair_sums(first[:, :length],
                                    table[d:d + size].reshape(periods, p, half)[:, :length],
                                    n, q[:math.prod(shape)].reshape(shape))
                         for first, table in zip(firsts, tables)]
            xs, ys = axis_sums * 2 if len(axis_sums) == 1 else axis_sums
            stored[d - 1, :, :length] = xs * ys
        for k, block in blocks.items():
            i, j, diag = entries[k]
            while done[k] < n_trials and min(n_trials, done[k] + block) * k <= w0 + size:
                t0, t1 = done[k], min(n_trials, done[k] + block)
                upper = sums[j - i - 1, np.arange(t0, t1)[:, None] * k + (i - lo)]
                grams = np.empty((t1 - t0, k, k), dtype=complex)
                grams[:, i, j] = upper
                grams[:, j, i] = upper.conj()
                grams[:, diag, diag] = n * n
                done[k] = t1
                yield k, t0, t1, grams


def _mmse_table(gram: np.ndarray) -> tuple:
    """``_split_diagonal`` of the table |h_k^H w_j|^2 of the unit-power MMSE
    precoder of the channel with K x K Gram matrix ``gram`` (or of each of a
    (..., K, K) stack): H^H W = alpha G (G + I)^{-1}.  The precoder does not
    depend on the SNR, so one table serves every SNR (``_table_rates``).

    With P = G (G + I)^{-1}, the power ||H (G + I)^{-1}||_F^2 =
    trace((G + I)^{-H} P) is the elementwise sum of conj((G + I)^{-1}) P, so
    the one product P serves both the normalization and the table."""
    eye = np.broadcast_to(np.eye(gram.shape[-1]), gram.shape)
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
    alone.  Every count reads one pass of pair sums over the stream: Gram
    entry (a, b) of count k's trial t is the sum at offset b - a from user
    t k + a (see ``_gram_stacks``), formed once however many counts read it.
    The phase tables, pair sums and Gram stacks are fixed-size windows
    whatever T is; what grows with T is the draws and the rates.  Each count's
    Grams, MMSE tables and rates are the arithmetic of its single-count call
    on the same values.  Every SNR sees the same draws, and a Gram stack's
    MMSE table (one solve) serves all of them."""
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
    rates = {k: np.empty((len(powers), n_trials)) for k in ks}
    rng = np.random.default_rng(seed)
    dists = 1.0 / rng.uniform(1.0 / z_max, 1.0 / z_min, size=max(rates) * n_trials)
    for k, t0, t1, grams in _gram_stacks(arr, dists, list(rates), n_trials):
        table = _mmse_table(grams)
        for rate, power in zip(rates[k], powers):
            rate[t0:t1] = _table_rates(table, power)
    results = {k: [MonteCarloResult(
        float(rate.mean()),
        float(rate.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0,
        n_trials) for rate in per_snr] for k, per_snr in rates.items()}
    results = [results[k][0] if one_snr else results[k] for k in ks]
    return results[0] if one_count else results
