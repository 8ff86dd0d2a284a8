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
from scipy.special import fresnel


def fresnel_cs(x):
    """Evaluate (C(x), S(x)) elementwise for scalar or array input."""
    x = np.asarray(x, dtype=float)
    ss, cc = fresnel(x)
    # scipy returns NaN for finite |x| past about 1.3e154, where both integrals
    # lie within 1/(pi |x|) of their limit sign(x)/2
    if cc.ndim == 0:
        if math.isnan(cc) and math.isfinite(x):
            cc = ss = math.copysign(0.5, x)
        return float(cc), float(ss)
    # a NaN entry makes the sum of squares NaN (|C| < 1 cannot overflow), and
    # one np.vdot costs less than a mask over a short array
    if math.isnan(np.vdot(cc, cc)):
        far = np.isnan(cc) & np.isfinite(x)
        limit = np.copysign(0.5, x)
        cc, ss = np.where(far, limit, cc), np.where(far, limit, ss)
    return cc, ss


def sinc(x):
    """Unnormalized sinc: sin(x)/x with the removable singularity sinc(0)=1
    and the limit sinc(+-inf)=0."""
    arr = np.asarray(x, dtype=float)
    inf = np.isinf(arr)
    # np.sinc's sin(inf) is NaN, with a RuntimeWarning
    out = np.where(inf, 0.0, np.sinc(np.where(inf, 0.0, arr) / np.pi))
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out

