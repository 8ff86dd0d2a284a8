"""The half-power argument of sinc^2, an oracle for the depth constants.

``beam_depth.SINC_HALF_POWER_COEFF`` keeps the printed 0.886; the tests
recompute it here from the root of sinc(x)^2 = 1/2.
"""

import math

from scipy.optimize import brentq

from nearfield_bd.fresnel_core import sinc


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
