"""Field formulas written out from their definitions, an oracle for the kernel.

``field_model._spherical_wave`` computes the exact field in the form the
quadrature needs; the tests compare it, and every gain it integrates, with
these literal expressions, which share no code with the package.
"""

import math

import numpy as np


def spherical_wave(tx, x, y, wavelength):
    """Field at (x, y, 0) of a unit transmitter ``tx`` (a ``TxGeometry``):
    amplitude sqrt(z ((x - x_t)^2 + z^2)) / (sqrt(4 pi) rho^(5/2)), with rho
    the Euclidean distance, and phase -(2 pi/lambda) rho."""
    x_t, y_t, z = tx.position
    rho = np.sqrt((x - x_t) ** 2 + (y - y_t) ** 2 + z ** 2)
    amp = np.sqrt(z * ((x - x_t) ** 2 + z ** 2)) / (math.sqrt(4.0 * math.pi) * rho ** 2.5)
    return amp * np.exp(-2j * np.pi / wavelength * rho)


def quadratic_focus(focus, x, y, wavelength):
    """Matched-filter factor e^{+j (2 pi/lambda)(x^2 + y^2)/(2F)} that focuses
    a broadside aperture at distance F; identically 1 for F = inf."""
    return np.exp(1j * np.pi / wavelength * (x * x + y * y) / focus)


def exact_distance_channel(arr, focal_points):
    """N x K unit-modulus channel of broadside users at ``focal_points`` from
    the exact distance: column k is e^{-j (2 pi/lambda) sqrt(x^2 + y^2 + F_k^2)}
    at the element centres x = (i - (n + 1)/2) w, y = (j - (n + 1)/2) h,
    i, j = 1 .. n, rows in row-major (i, j) order."""
    offsets = np.arange(1, arr.n_per_side + 1) - (arr.n_per_side + 1) / 2.0
    x, y = offsets[:, None] * arr.elem_w, offsets[None, :] * arr.elem_h
    return np.stack([np.exp(-2j * np.pi / arr.wavelength
                            * np.sqrt(x ** 2 + y ** 2 + f ** 2)).ravel()
                     for f in focal_points], axis=1)
