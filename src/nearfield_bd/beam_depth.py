"""Half-power beam depth: closed forms, numeric extraction, lobe catalog.

The depth of focus of a focused aperture is the distance interval around the
focal point where the array gain stays above half its peak.  For rectangular
arrays the interval follows from the half-power argument of the broadside
gain curve (solved by ``solve_a3db``); for circular arrays from the
half-power argument of sinc^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .array_geometry import CircArray, RectArray, characteristic_distances
from .gain_engine import GainProfile, analytic_gain_circ, analytic_gain_rect

# Half-power width coefficient of sinc^2, kept at the customary printed
# precision for formula-faithful output; fresnel_core.half_power_width_coeff()
# recomputes it and the test suite checks the two agree to 2e-4.
SINC_HALF_POWER_COEFF = 0.886

STATUS_FINITE = "finite"
STATUS_INFINITE = "infinite"
STATUS_UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class BeamDepthResult:
    """Half-power interval around a focal point.

    ``z_hi`` and ``depth`` are ``inf`` when the gain never drops to half
    beyond the focus, ``nan`` when a numeric search could not bracket the
    crossing.  ``within_validity`` is False when the focus lies below the
    closed form's stated range (it is still computed).
    """

    z_lo: float
    z_hi: float
    depth: float
    finite_limit: float
    status: str = STATUS_FINITE
    within_validity: bool = True

    def __post_init__(self):
        if self.status not in (STATUS_FINITE, STATUS_INFINITE, STATUS_UNDETERMINED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == STATUS_FINITE:
            if not (0.0 < self.z_lo < self.z_hi):
                raise ValueError("finite interval requires 0 < z_lo < z_hi")
            if not math.isfinite(self.depth):
                raise ValueError("finite status with non-finite depth")


@dataclass(frozen=True)
class LobeEntry:
    """One null or sidelobe-peak of the circular-array gain curve.

    ``l_value`` is the dimensionless sinc argument, ``z_eff_value`` the
    effective distance it maps to, ``z_value`` the physical distance resolved
    for the given focus (nulls with z_eff > focus appear twice, once on each
    side of the focus).  ``gain_db`` is -inf at nulls.
    """

    index: int
    kind: str
    l_value: float
    z_eff_value: float
    z_value: float
    gain_db: float


@lru_cache(maxsize=256)
def solve_a3db(eta: float, tol: float = 1e-10) -> float:
    """Smallest positive half-power argument of the broadside gain curve.

    Solves analytic_gain_rect(eta, a) = 0.5 for a with Brent's method.  The
    root scales as 1/(1 + eta^2): the product a_3dB (1 + eta^2) stays within
    [1.738, 2.485] for eta from 1e-6 to 1e6, so the scale-free bracket
    [1, 3]/(1 + eta^2) holds the mainlobe crossing and no sidelobe one.
    """
    if not (eta > 0 and math.isfinite(eta)):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = 1.0 + eta ** 2
    try:
        root = brentq(lambda a: analytic_gain_rect(eta, a) - 0.5,
                      1.0 / scale, 3.0 / scale, xtol=1e-14 / scale, rtol=1e-14)
    except ValueError as err:
        raise RuntimeError("bracketing failure in solve_a3db") from err
    if abs(analytic_gain_rect(eta, root) - 0.5) > tol:
        raise RuntimeError("bracketing failure in solve_a3db")
    return root


def finite_bd_limit_rect(arr: RectArray) -> float:
    """Focal distance beyond which the rectangular-array depth is infinite."""
    return characteristic_distances(arr, solve_a3db(arr.eta)).bd_limit


def _depth_interval(focus: float, k: float, c: float, valid: bool) -> BeamDepthResult:
    """Interval z = kF/(k + cF) .. kF/(k - cF) around the focus F, finite
    below F = k/c and infinite from there on."""
    if not focus > 0:
        raise ValueError(f"focus must be positive, got {focus}")
    limit = k / c
    z_lo = k * focus / (k + c * focus) if math.isfinite(focus) else limit
    if focus >= limit:
        return BeamDepthResult(z_lo, math.inf, math.inf, limit,
                               status=STATUS_INFINITE, within_validity=valid)
    z_hi = k * focus / (k - c * focus)
    return BeamDepthResult(z_lo, z_hi, z_hi - z_lo, limit, within_validity=valid)


def bd_rect(arr: RectArray, focus: float) -> BeamDepthResult:
    """Closed-form half-power depth of a focused rectangular array.

    Finite branch: z_lo = d_FA F/(d_FA + cF), z_hi = d_FA F/(d_FA - cF)
    with c = 4 a_3dB (1 + eta^2); the depth diverges as F approaches
    d_FA/c and is infinite beyond.
    """
    a3 = solve_a3db(arr.eta)
    dists = characteristic_distances(arr, a3)
    return _depth_interval(focus, dists.d_fa, 4.0 * a3 * (1.0 + arr.eta ** 2),
                           focus >= dists.d_b)


def bd_circ(circ: CircArray, focus: float) -> BeamDepthResult:
    """Closed-form half-power depth of a focused circular array.

    Finite branch: z_lo = R^2 F/(R^2 + 0.886 lambda F),
    z_hi = R^2 F/(R^2 - 0.886 lambda F); infinite for
    F >= R^2/(0.886 lambda).  Stated validity starts at twice the
    circumscribing aperture length, i.e. F >= 4R.
    """
    return _depth_interval(focus, circ.radius ** 2,
                           SINC_HALF_POWER_COEFF * circ.wavelength,
                           focus >= 4.0 * circ.radius)


def _crossing(fn: Callable[[float], float], lo: float, hi: float,
              half: float, rel_tol: float) -> float:
    f = lambda x: fn(x) - half
    if not f(lo) * f(hi) <= 0:
        raise ValueError(f"gain_fn does not cross the half-power level "
                         f"between the samples z = {lo} and z = {hi}")
    return brentq(f, lo, hi, xtol=rel_tol * lo)


def numeric_bd(profile: GainProfile,
               gain_fn: Optional[Callable[[float], float]] = None,
               finite_limit: Optional[float] = None,
               rel_tol: float = 1e-4) -> BeamDepthResult:
    """Half-power interval extracted from a sampled gain profile.

    Crossings are bracketed by adjacent samples and refined with Brent's
    method to ``rel_tol`` relative accuracy; ``gain_fn`` supplies the
    continuous curve and defaults to linear interpolation of the samples.
    A ``gain_fn`` that does not cross half the peak between the two samples
    that bracket a crossing raises ``ValueError``.  When the gain never
    falls to half beyond the peak, the result is INFINITE if the grid extends
    past 100x a supplied ``finite_limit`` and undetermined otherwise.
    """
    z = profile.distances
    g = profile.gains
    peak_idx = int(np.argmax(g))
    peak = float(g[peak_idx])
    if peak < 0.9:
        raise ValueError("profile peak below 0.9; not a focused profile")
    half = 0.5 * peak
    if gain_fn is None:
        gain_fn = lambda x: float(np.interp(x, z, g))
    limit_out = finite_limit if finite_limit is not None else math.nan

    z_lo = math.nan
    for i in range(peak_idx - 1, -1, -1):
        if g[i] < half <= g[i + 1]:
            z_lo = _crossing(gain_fn, float(z[i]), float(z[i + 1]), half, rel_tol)
            break

    z_hi = math.nan
    upper_crossed = False
    for j in range(peak_idx + 1, len(g)):
        if g[j] < half <= g[j - 1]:
            z_hi = _crossing(gain_fn, float(z[j - 1]), float(z[j]), half, rel_tol)
            upper_crossed = True
            break

    if not upper_crossed:
        grid_reaches = (finite_limit is not None
                        and float(z[-1]) >= 100.0 * finite_limit)
        if grid_reaches:
            return BeamDepthResult(z_lo if not math.isnan(z_lo) else float(z[0]),
                                   math.inf, math.inf, limit_out,
                                   status=STATUS_INFINITE)
        return BeamDepthResult(z_lo, math.nan, math.nan, limit_out,
                               status=STATUS_UNDETERMINED)
    if math.isnan(z_lo):
        return BeamDepthResult(math.nan, z_hi, math.nan, limit_out,
                               status=STATUS_UNDETERMINED)
    return BeamDepthResult(z_lo, z_hi, z_hi - z_lo, limit_out)


def _resolve_distances(z_eff: float, focus: float) -> list[float]:
    if math.isinf(focus):
        return [z_eff]
    out = [focus * z_eff / (focus + z_eff)]
    if z_eff > focus:
        out.append(focus * z_eff / (z_eff - focus))
    return out


def circ_lobe_catalog(circ: CircArray, focus: float, k_max: int) -> list[LobeEntry]:
    """Nulls and sidelobe peaks of the circular-array gain versus distance.

    Nulls sit at integer sinc arguments l = k; each maps to effective
    distance R^2/(2 lambda k) and from there to one physical distance below
    the focus and, when the effective distance exceeds the focus, a second
    one above it.  Peak locations between consecutive nulls are found
    numerically and their gains reported in dB.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if not focus > 0:
        raise ValueError(f"focus must be positive, got {focus}")
    r_sq = circ.radius ** 2
    entries: list[LobeEntry] = []
    for k in range(1, k_max + 1):
        z_eff = r_sq / (2.0 * circ.wavelength * k)
        for z in _resolve_distances(z_eff, focus):
            entries.append(LobeEntry(k, "null", float(k), z_eff, z, -math.inf))
        if k == k_max:
            continue
        res = minimize_scalar(lambda l: -analytic_gain_circ(l),
                              bounds=(k, k + 1), method="bounded",
                              options={"xatol": 1e-10})
        l_pk = float(res.x)
        gain = analytic_gain_circ(l_pk)
        z_eff_pk = r_sq / (2.0 * circ.wavelength * l_pk)
        for z in _resolve_distances(z_eff_pk, focus):
            entries.append(LobeEntry(k, "lobe-peak", l_pk, z_eff_pk, z,
                                     10.0 * math.log10(gain)))
    entries.sort(key=lambda e: (e.l_value, e.z_value))
    return entries
