"""Fresnel cosine/sine integrals and the unnormalized sinc.

Half-period convention throughout:

    C(x) = int_0^x cos(pi t^2 / 2) dt
    S(x) = int_0^x sin(pi t^2 / 2) dt

Both are odd, bounded by ~0.78 in magnitude, and tend to 0.5 as x -> +inf.
``fresnel_cs`` wraps ``scipy.special.fresnel``, which uses the same
convention but returns (S, C); its absolute accuracy of ~1e-15 is well
beyond the 1e-10 target the gain formulas need.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import fresnel


def fresnel_cs(x):
    """Evaluate (C(x), S(x)) elementwise for scalar or array input."""
    ss, cc = fresnel(np.asarray(x, dtype=float))
    if cc.ndim == 0:
        return float(cc), float(ss)
    return cc, ss


def fresnel_c(x):
    """Fresnel cosine integral C(x)."""
    return fresnel_cs(x)[0]


def fresnel_s(x):
    """Fresnel sine integral S(x)."""
    return fresnel_cs(x)[1]


def sinc(x):
    """Unnormalized sinc: sin(x)/x with the removable singularity sinc(0)=1."""
    arr = np.asarray(x, dtype=float)
    out = np.sinc(arr / np.pi)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def solve_half_power_sinc_arg(tol: float = 1e-12) -> float:
    """Smallest x > 0 with sinc(x)^2 = 1/2, by Brent's method on [1, 2].

    sinc^2 falls monotonically from 1 through the half-power level inside
    [1, 2] (first zero is at pi), so the bracket is safe.
    """
    return brentq(lambda x: sinc(x) ** 2 - 0.5, 1.0, 2.0, xtol=tol)


#: Argument where sinc(x)^2 crosses one half (~1.39156); the circular-array
#: depth constant 0.886 equals 2x/pi to about 2e-4.
HALF_POWER_SINC_ARG = solve_half_power_sinc_arg()


def half_power_width_coeff() -> float:
    """The coefficient 2*HALF_POWER_SINC_ARG/pi used by circular beam depths."""
    return 2.0 * HALF_POWER_SINC_ARG / math.pi
