"""Seeded workload generators: each returns the nearfield-bd CLI configs of
one repetition.

A seed selects one of ``INPUT_SETS`` input sets, ``seed % INPUT_SETS``,
and every draw comes from ``random.Random("<workload>:<input set>")``, so
one seed always yields byte-identical configs and the benchmark never asks
the program for its own grids.  References are stored for every input set
(refs/), so the outputs of any seed are checked.  Sizes are fixed per workload, so the amount of
work does not depend on the seed; only where the work lands does.

Distances are written in ``dF`` units.  For element-diagonal sizing the
radiative floor of the gain kernels (1.2 x aperture length) is
``0.6 * n / diag_wl`` dF, and every exact/steered/projected sweep starts
above it, so the CLI computes every requested point.
"""

from __future__ import annotations

import math
import random

CARRIER_HZ = 3e9
WAVELENGTH = 299792458.0 / CARRIER_HZ

WORKLOADS = ("exact-broadside", "exact-steered", "closed-form", "multiplex")

# Number of distinct input sets per workload; each has stored references.
INPUT_SETS = 128

# Parts of child.calibration_block whose speed each workload follows, so
# its times are scaled by the host speed its dominant layer sees: streaming
# array work for the quadrature kernels, one-element numpy arithmetic for
# the scalar Fresnel closed forms, small dense matrices and channel-sized
# arrays for the Monte Carlo rates.  Chosen by measurement on a host whose
# speed drifts: each choice left the least per-repetition spread of its
# workload's scaled run time.
CALIBRATION = {"exact-broadside": ("stream",), "exact-steered": ("stream",),
               "closed-form": ("dispatch",), "multiplex": ("dense", "stream")}

# Kinds whose gains come from aperture quadrature (tolerance: absolute).
QUADRATURE_KINDS = ("exact", "steered", "projected")

# Sizes per repetition.
N_EXACT_POINTS = 5          # n_per_side=100 exact gains, broadside
N_PROJECTED_POINTS = 2      # projected-array gains
N_EXACT_200_POINTS = 2      # n_per_side=200 exact gains
N_DISK_POINTS = 60          # continuous-disk quadrature gains
N_STEERED_CONFIGS = 2       # each: exact and steered kinds
N_STEERED_POINTS = 3        # per kind and config
N_ETAS = 40                 # shared eta grid of the closed-form experiments
N_ANALYTIC_POINTS = 100     # per analytic profile
N_PHIS = 30                 # distance-error azimuths
K_MAX_LOBES = 6
N_SNRS = 5
N_TRIALS_SNR = 300
K_USERS_SNR = 5
K_MAX_USERS = 8
N_TRIALS_USERS = 300
N_ETAS_RATE = 5


def radiative_floor_df(n_per_side, diag_wl):
    """1.2 x aperture length in units of the element Fraunhofer distance."""
    return 0.6 * n_per_side / diag_wl


def disk_floor_df(radius_wl, ref_diag_wl=0.25):
    """1.2 x disk diameter in units of the reference element's Fraunhofer
    distance 2 d^2 / lambda."""
    return 2.4 * radius_wl / (2.0 * ref_diag_wl ** 2)


def _rect(n_per_side, eta, diag_wl=0.25):
    return {"kind": "rect", "n_per_side": n_per_side, "eta": eta,
            "sizing": {"mode": "element-diag",
                       "value": f"{diag_wl * WAVELENGTH!r} m"},
            "carrier_hz": CARRIER_HZ}


def _circ(radius_wl=12.5):
    return {"kind": "circ", "radius": f"{radius_wl * WAVELENGTH!r} m",
            "carrier_hz": CARRIER_HZ}


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _df(x):
    return f"{x!r} dF"


def _profile(kinds, z_min, z_max, n_points, focus, azimuth=0.0, elevation=0.0):
    sweep = {"z_min": _df(z_min), "z_max": _df(z_max), "n_points": n_points,
             "spacing": "log", "focus": _df(focus), "kinds": list(kinds)}
    if azimuth or elevation:
        sweep["azimuth"] = azimuth
        sweep["elevation"] = elevation
    return sweep


def _cfg(name, geometry, experiment, sweep, rows, cli_seed=None):
    """One CLI call.  ``rows`` maps each output (kind or sizing-mode suffix,
    '' for a single file) to its expected row count, or None when the
    program decides the count (plans, lobe catalogs)."""
    return {"name": name,
            "config": {"geometry": geometry, "experiment": experiment,
                       "sweep": sweep},
            "cli_seed": cli_seed, "rows": rows}


def _signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def exact_broadside(rng):
    floor100 = radiative_floor_df(100, 0.25)
    floor200 = radiative_floor_df(200, 0.25)
    z_min = floor100 * rng.uniform(1.25, 2.5)
    exact = _cfg("profile-exact", _rect(100, _log_uniform(rng, 0.25, 4.0)),
                 "gain-profile",
                 _profile(["exact"], z_min, z_min * rng.uniform(10, 30),
                          N_EXACT_POINTS, _log_uniform(rng, 500, 2000)),
                 {"": N_EXACT_POINTS})
    z_min = floor100 * rng.uniform(1.25, 2.0)
    projected = _cfg("profile-projected",
                     _rect(100, _log_uniform(rng, 0.25, 4.0)), "gain-profile",
                     _profile(["projected"], z_min, z_min * rng.uniform(5, 15),
                              N_PROJECTED_POINTS, _log_uniform(rng, 300, 1000),
                              azimuth=rng.uniform(0.1, 0.8)),
                     {"": N_PROJECTED_POINTS})
    z_min = floor200 * rng.uniform(1.25, 2.0)
    exact200 = _cfg("profile-exact-n200",
                    _rect(200, _log_uniform(rng, 0.25, 4.0)), "gain-profile",
                    _profile(["exact"], z_min, z_min * rng.uniform(2, 6),
                             N_EXACT_200_POINTS, _log_uniform(rng, 800, 3000)),
                    {"": N_EXACT_200_POINTS})
    z_min = disk_floor_df(12.5) * rng.uniform(1.1, 1.6)
    disk = _cfg("disk-exact", _circ(), "circular-gain",
                _profile(["exact"], z_min, z_min * rng.uniform(80, 160),
                         N_DISK_POINTS, _log_uniform(rng, 300, 800)),
                {"": N_DISK_POINTS})
    return [exact, projected, exact200, disk]


def exact_steered(rng):
    floor = radiative_floor_df(100, 0.25)
    configs = []
    for i in range(N_STEERED_CONFIGS):
        z_min = floor * rng.uniform(1.25, 2.5)
        sweep = _profile(["exact", "steered"], z_min,
                         z_min * rng.uniform(5, 20), N_STEERED_POINTS,
                         _log_uniform(rng, 300, 2000),
                         azimuth=_signed(rng, 0.05, 0.4),
                         elevation=_signed(rng, 0.05, 0.3))
        configs.append(_cfg(f"profile-steered-{i}",
                            _rect(100, _log_uniform(rng, 0.25, 4.0)),
                            "gain-profile", sweep,
                            {"exact": N_STEERED_POINTS,
                             "steered": N_STEERED_POINTS}))
    return configs


def closed_form(rng):
    etas = sorted(_log_uniform(rng, 0.1, 10.0) for _ in range(N_ETAS))
    square = _rect(100, 1.0)
    phis = sorted(rng.uniform(0.0, 3 * math.pi / 8) for _ in range(N_PHIS))
    return [
        _cfg("a3db-curve", square, "a3db-curve", {"eta_values": etas},
             {"": N_ETAS}),
        _cfg("bd-vs-eta", square, "bd-vs-eta",
             {"eta_values": etas,
              "sizing_modes": ["aperture-area", "aperture-length"]},
             {"aperture-area": N_ETAS, "aperture-length": N_ETAS}),
        _cfg("finite-limit-curve", square, "finite-limit-curve",
             {"eta_values": etas, "sizing_mode": "aperture-area"},
             {"": N_ETAS}),
        _cfg("analytic-broadside", _rect(100, _log_uniform(rng, 0.25, 4.0)),
             "gain-profile",
             _profile(["analytic"], rng.uniform(30, 60),
                      rng.uniform(5000, 20000), N_ANALYTIC_POINTS,
                      _log_uniform(rng, 300, 2000)),
             {"": N_ANALYTIC_POINTS}),
        _cfg("analytic-slanted", _rect(100, _log_uniform(rng, 0.25, 4.0)),
             "gain-profile",
             _profile(["analytic"], rng.uniform(300, 500),
                      rng.uniform(5000, 20000), N_ANALYTIC_POINTS,
                      _log_uniform(rng, 500, 2000),
                      azimuth=_signed(rng, 0.05, 0.3),
                      elevation=_signed(rng, 0.02, 0.1)),
             {"": N_ANALYTIC_POINTS}),
        _cfg("lobe-catalog", _circ(), "lobe-catalog",
             {"k_max": K_MAX_LOBES, "focus": _df(_log_uniform(rng, 300, 800))},
             {"": None}),
        _cfg("distance-error", _rect(100, _log_uniform(rng, 0.25, 4.0)),
             "distance-error", {"phi_values": phis}, {"": N_PHIS}),
    ]


def multiplex(rng, seed):
    wide = _rect(200, 1.0, diag_wl=0.5)
    snrs = sorted(rng.uniform(0.0, 30.0) for _ in range(N_SNRS))
    etas = sorted(_log_uniform(rng, 0.1, 10.0) for _ in range(N_ETAS_RATE))
    fixed_length = {"kind": "rect", "n_per_side": 200, "eta": 1.0,
                    "sizing": {"mode": "aperture-length",
                               "value": f"{100 * WAVELENGTH!r} m"},
                    "carrier_hz": CARRIER_HZ}
    return [
        _cfg("multiplex-plan", wide, "multiplex-plan", {}, {"": None}, seed),
        _cfg("sum-rate-vs-snr", wide, "sum-rate-vs-snr",
             {"snr_values_db": snrs, "k_users": K_USERS_SNR,
              "n_trials": N_TRIALS_SNR},
             {"": 2 * N_SNRS}, seed),
        _cfg("sum-rate-vs-users", wide, "sum-rate-vs-users",
             {"k_min": 1, "k_max": K_MAX_USERS,
              "snr_db": rng.uniform(10.0, 30.0), "n_trials": N_TRIALS_USERS},
             {"": K_MAX_USERS}, seed),
        _cfg("sum-rate-vs-eta", fixed_length, "sum-rate-vs-eta",
             {"eta_values": etas, "snr_db": rng.uniform(10.0, 30.0),
              "sizing_mode": "aperture-length"},
             {"": N_ETAS_RATE}, seed),
    ]


def input_set(seed):
    """The input set a seed selects."""
    return seed % INPUT_SETS


def generate(workload, seed):
    """The configs of one repetition of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    seed = input_set(seed)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-broadside":
        return exact_broadside(rng)
    if workload == "exact-steered":
        return exact_steered(rng)
    if workload == "closed-form":
        return closed_form(rng)
    return multiplex(rng, seed)


def value_tolerance(cfg, suffix):
    """('abs', 1e-6) for quadrature gains, ('rel', 1e-9) otherwise.

    1e-6 absolute is gain_engine._GAIN_REFINE_ATOL, the convergence contract
    of the aperture quadrature; closed forms and seeded Monte Carlo rates are
    deterministic to far below 1e-9 relative.
    """
    experiment = cfg["config"]["experiment"]
    kinds = cfg["config"]["sweep"].get("kinds", [])
    kind = suffix or (kinds[0] if len(kinds) == 1 else "")
    if experiment in ("gain-profile", "circular-gain") and kind in QUADRATURE_KINDS:
        return ("abs", 1e-6)
    return ("rel", 1e-9)
