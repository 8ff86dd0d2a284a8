"""Experiment runner: JSON config in, reproducible CSV sweeps out.

Each experiment reproduces one study as a CSV artifact.  Distances in
configs carry an explicit unit suffix ("m" or "dF"); presets bundle ready
configurations for the reference figures.  Exit codes: 0 success, 2 config
error, 3 numerical failure (offending sweep indices on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import __version__
from .array_geometry import (
    CircArray,
    FixedApertureArea,
    FixedApertureLength,
    FixedElementDiagonal,
    TxGeometry,
    _integer,
    _real,
    make_rect_array,
    project_array,
    wavelength_from_carrier,
)
from .beam_depth import (
    STATUS_FINITE,
    bd_rect,
    circ_lobe_catalog,
    finite_bd_limit_rect,
    solve_a3db,
)
from .field_model import QuadratureSpec, mean_abs_distance_error
from .gain_engine import (
    SweepEvalError,
    exact_array_gain_steered,
    gain_profile,
    projected_gain_approx,
    radiative_floor,
    run_sweep,
)
from .multiplexing import (
    _channel_gram,
    _rates_from_gram,
    _snr_power,
    build_channel_matrix,
    monte_carlo_sum_rate,
    monte_carlo_sum_rates,
    plan_focal_points,
)

DEFAULT_SEED = 12345

_LEN_RE = re.compile(r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(m|dF)\s*$")
_AREA_RE = re.compile(r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(m2)\s*$")


class ConfigError(Exception):
    pass


def parse_length(value, d_f, field):
    """Length with a mandatory unit suffix: '12.5 m' or '400 dF'."""
    if isinstance(value, (int, float)):
        raise ConfigError(f"{field}: bare number; append a unit ('m' or 'dF')")
    m = _LEN_RE.match(str(value))
    if not m:
        raise ConfigError(f"{field}: cannot parse length {value!r}")
    num = float(m.group(1))
    if m.group(2) == "dF":
        if math.isnan(d_f):
            raise ConfigError(f"{field}: 'dF' units are not available here; use 'm'")
        num *= d_f
    return _finite(num, value, field)


def parse_area(value, field):
    if isinstance(value, (int, float)):
        raise ConfigError(f"{field}: bare number; append the unit 'm2'")
    m = _AREA_RE.match(str(value))
    if not m:
        raise ConfigError(f"{field}: cannot parse area {value!r}")
    return _finite(float(m.group(1)), value, field)


def _finite(num, value, field):
    """``num``, parsed from the unit string ``value``, if it is finite."""
    if not math.isfinite(num):
        raise ConfigError(f"{field}: {value!r} is not a finite number")
    return num


# Config numbers pass the library's input rules, checks (field, value) -> number
# whose ValueError main reports as a config error.
_FINITE = partial(_real, low=-math.inf, strict=False)
_NATURAL = partial(_integer, low=0)


def _snr_db(field, value):
    """An SNR in dB whose linear power is finite."""
    _snr_power(value, field)
    return float(value)


def _require(cfg, key, section):
    if key not in cfg:
        raise ConfigError(f"missing required field {section}.{key}")
    return cfg[key]


def _object(value, field):
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be an object, got {value!r}")
    return value


def _list(sweep, key, default=None):
    """Non-empty list at ``sweep.key``, ``default`` if absent."""
    values = sweep.get(key, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep.{key} must be a non-empty list")
    return values


def _get(cfg, key, default=None, check=_FINITE, section="sweep"):
    """Number at ``section.key`` that passes ``check``, ``default`` if absent
    (required if None)."""
    value = _require(cfg, key, section) if default is None else cfg.get(key, default)
    return check(f"{section}.{key}", value)


def _sizing_from_config(scfg):
    scfg = _object(scfg, "geometry.sizing")
    mode = _require(scfg, "mode", "geometry.sizing")
    value = _require(scfg, "value", "geometry.sizing")
    if mode == "element-diag":
        return FixedElementDiagonal(parse_length(value, math.nan, "sizing.value"))
    if mode == "aperture-length":
        return FixedApertureLength(parse_length(value, math.nan, "sizing.value"))
    if mode == "aperture-area":
        return FixedApertureArea(parse_area(value, "sizing.value"))
    raise ConfigError(f"unknown sizing mode {mode!r}")


def build_geometry(gcfg):
    """Returns (geometry object, reference d_F for unit conversion)."""
    kind = _object(gcfg, "geometry").get("kind", "rect")
    if kind not in ("rect", "circ"):
        raise ConfigError(f"unknown geometry kind {kind!r}")
    lam = wavelength_from_carrier(_get(gcfg, "carrier_hz", None, _real, "geometry"))
    if kind == "rect":
        sizing = _sizing_from_config(_require(gcfg, "sizing", "geometry"))
        arr = make_rect_array(_get(gcfg, "n_per_side", None, _integer, "geometry"),
                              _get(gcfg, "eta", None, _real, "geometry"), sizing, lam)
        return arr, arr.d_f
    radius = parse_length(_require(gcfg, "radius", "geometry"), math.nan,
                          "geometry.radius")
    ref_diag = gcfg.get("ref_elem_diag")
    diag = (parse_length(ref_diag, math.nan, "geometry.ref_elem_diag")
            if ref_diag is not None else lam / 4)
    return CircArray(radius, lam), 2.0 * diag ** 2 / lam


def _length(ctx, key):
    return parse_length(_require(ctx.sweep, key, "sweep"), ctx.d_f, f"sweep.{key}")


def _distance_grid(ctx):
    z_min, z_max = _length(ctx, "z_min"), _length(ctx, "z_max")
    n = _get(ctx.sweep, "n_points", check=_integer)
    if not 0 < z_min < z_max:
        raise ConfigError("sweep requires 0 < z_min < z_max")
    return (np.geomspace if _log_spacing(ctx.sweep) else np.linspace)(z_min, z_max, n)


def _log_spacing(sweep):
    """True for "log" grid spacing (the default), False for "linear"."""
    spacing = sweep.get("spacing", "log")
    if spacing not in ("log", "linear"):
        raise ConfigError(f"unknown spacing {spacing!r}")
    return spacing == "log"


def _scalar_grid(sweep, lo_key, hi_key, values_key, check=_FINITE, space=np.linspace):
    """Listed values, else n_points from lo to hi spaced by ``space``."""
    if values_key in sweep:
        return np.array([check(f"sweep.{values_key}", v)
                         for v in _list(sweep, values_key)])
    lo, hi = _get(sweep, lo_key, check=check), _get(sweep, hi_key, check=check)
    return space(lo, hi, _get(sweep, "n_points", check=_integer))


def _eta_grid(sweep):
    space = np.geomspace if _log_spacing(sweep) else np.linspace
    return _scalar_grid(sweep, "eta_min", "eta_max", "eta_values", _real, space)


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return x


def write_csv(path, experiment, preset, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# nearfield-bd v{__version__} experiment={experiment} "
                 f"preset={preset}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) for c in row])
    return path


def _quad(ctx):
    return QuadratureSpec(order=_get(ctx.sweep, "quad_order", 8, _NATURAL),
                          refinement=_get(ctx.sweep, "refinement", 1, _NATURAL))


def _profile_rows(ctx, kind):
    grid = _distance_grid(ctx)
    focus = _length(ctx, "focus")
    # quadrature kinds evaluate only beyond the reactive near field
    floor = 0.0 if kind == "analytic" else radiative_floor(ctx.geometry)
    pts = grid[grid >= floor]
    if pts.size == 0:
        raise ConfigError(f"sweep range is entirely below the radiative "
                          f"floor for kind {kind!r}")
    if pts.size < grid.size:
        print(f"{ctx.experiment}: kind {kind!r}: dropped {grid.size - pts.size} of "
              f"{grid.size} points below the radiative floor {floor!r} m",
              file=sys.stderr)
    prof = gain_profile(kind, ctx.geometry, pts, focus,
                        azimuth=_get(ctx.sweep, "azimuth", 0.0),
                        elevation=_get(ctx.sweep, "elevation", 0.0),
                        quad=_quad(ctx), threads=ctx.threads)
    return [(z / ctx.d_f, g) for z, g in zip(prof.distances, prof.gains)]


def _rect_for_eta(ctx, eta, sizing_mode):
    base = ctx.geometry
    if sizing_mode == "aperture-area":
        sizing = FixedApertureArea(base.aperture_area)
    elif sizing_mode == "aperture-length":
        sizing = FixedApertureLength(base.aperture_len)
    else:
        raise ConfigError(f"unknown sizing mode {sizing_mode!r}")
    return make_rect_array(base.n_per_side, float(eta), sizing, base.wavelength)


def _depth_row(eta, focus, d_f, res):
    finite = res.status == STATUS_FINITE
    return (eta, focus / d_f, res.depth / d_f if finite else math.inf, int(finite))


def _bd_eta_rows(ctx, mode):
    def one(eta):
        arr = _rect_for_eta(ctx, eta, mode)
        return _depth_row(float(eta), arr.d_b, arr.d_f, bd_rect(arr, arr.d_b))

    return run_sweep(one, _eta_grid(ctx.sweep), ctx.threads)


def _bd_phi_rows(ctx, _):
    phis = _scalar_grid(ctx.sweep, "phi_min", "phi_max", "phi_values")
    focus = _length(ctx, "focus")

    def one(phi):
        proj = project_array(ctx.geometry, float(phi))
        return _depth_row(proj.eta, focus, ctx.d_f, bd_rect(proj, focus))

    return run_sweep(one, phis, ctx.threads)


def _a3db_rows(ctx, _):
    def one(eta):
        a = solve_a3db(float(eta))
        return (float(eta), a, a * (1 + float(eta) ** 2))

    return run_sweep(one, _eta_grid(ctx.sweep), ctx.threads)


def _finite_limit_rows(ctx, _):
    mode = ctx.sweep.get("sizing_mode", "aperture-area")

    def one(eta):
        arr = _rect_for_eta(ctx, eta, mode)
        return (float(eta), finite_bd_limit_rect(arr) / arr.d_f)

    return run_sweep(one, _eta_grid(ctx.sweep), ctx.threads)


def _lobe_rows(ctx, _):
    entries = circ_lobe_catalog(ctx.geometry, _length(ctx, "focus"),
                                _get(ctx.sweep, "k_max", check=_integer))
    return [(e.index, e.kind, e.l_value, e.z_value / ctx.d_f, e.gain_db) for e in entries]


def _distance_error_rows(ctx, _):
    phis = _scalar_grid(ctx.sweep, "phi_min", "phi_max", "phi_values")
    fixed = _length(ctx, "dist") if "dist" in ctx.sweep else None

    def one(phi):
        phi = float(phi)
        dist = fixed if fixed is not None else ctx.geometry.d_b / math.cos(phi)
        tx = TxGeometry(dist, azimuth=phi)
        return (phi, mean_abs_distance_error(ctx.geometry, tx, "direct"),
                mean_abs_distance_error(ctx.geometry, tx, "indirect"))

    return run_sweep(one, phis, ctx.threads)


def _projection_error_rows(ctx, _):
    phis = _scalar_grid(ctx.sweep, "phi_min", "phi_max", "phi_values")
    dist = _length(ctx, "dist")
    focus = _length(ctx, "focus")
    quad = _quad(ctx)

    def one(phi):
        tx = TxGeometry(dist, azimuth=float(phi))
        exact = exact_array_gain_steered(ctx.geometry, tx, focus, quad)
        proj = projected_gain_approx(ctx.geometry, tx, focus, quad)
        return (float(phi), exact, proj, abs(exact - proj))

    return run_sweep(one, phis, ctx.threads)


def _region(ctx):
    """User-distance region: sweep z_min/z_max, else [d_B, d_FA/10]."""
    z_min = _length(ctx, "z_min") if "z_min" in ctx.sweep else ctx.geometry.d_b
    z_max = _length(ctx, "z_max") if "z_max" in ctx.sweep else ctx.geometry.d_fa / 10
    if not 0 < z_min < z_max:
        raise ConfigError("sweep requires 0 < z_min < z_max")
    return z_min, z_max


def _plan_rows(ctx, _):
    max_users = ctx.sweep.get("max_users")
    plan = plan_focal_points(ctx.geometry, _region(ctx), None if max_users is None
                             else _integer("sweep.max_users", max_users))
    return [(k + 1, f / ctx.d_f, lo / ctx.d_f, hi / ctx.d_f)
            for k, (f, (lo, hi)) in enumerate(zip(plan.focal_points,
                                                  plan.intervals))]


def _planned_gram(arr, plan):
    """Channel Gram of broadside users of ``arr`` at the planned focal points."""
    users = [TxGeometry(float(f)) for f in plan.focal_points]
    return _channel_gram(build_channel_matrix(arr, users))


def _planned_row(ctx, gram, snr):
    """Rate row of the planned users with channel Gram ``gram``."""
    return (snr, len(gram), "planned", _rates_from_gram(gram, _snr_power(snr)),
            0.0, 1, ctx.seed)


def _rate_snr_rows(ctx, _):
    snrs = _scalar_grid(ctx.sweep, "snr_min_db", "snr_max_db", "snr_values_db", _snr_db)
    k_users = _get(ctx.sweep, "k_users", 5, _integer)
    n_trials = _get(ctx.sweep, "n_trials", 200, _integer)
    region = _region(ctx)
    gram = _planned_gram(ctx.geometry,
                         plan_focal_points(ctx.geometry, region, max_users=k_users))
    # one pass over the grid: every SNR shares the draws and their Gram stack
    mcs = monte_carlo_sum_rates(ctx.geometry, k_users, region, n_trials, snrs, ctx.seed)
    return [row for snr, mc in zip(map(float, snrs), mcs) for row in (
        _planned_row(ctx, gram, snr),
        (snr, k_users, "random", mc.mean_rate, mc.stderr, mc.n_trials, ctx.seed))]


def _rate_users_rows(ctx, _):
    k_lo = _get(ctx.sweep, "k_min", 1, _integer)
    k_hi = _get(ctx.sweep, "k_max", 8, _integer)
    if not k_lo <= k_hi:
        raise ConfigError("sweep requires 1 <= k_min <= k_max")
    snr = _get(ctx.sweep, "snr_db", 25.0, _snr_db)
    n_trials = _get(ctx.sweep, "n_trials", 500, _integer)
    region = _region(ctx)

    def one(k):
        mc = monte_carlo_sum_rate(ctx.geometry, k, region, n_trials, snr, ctx.seed)
        return (snr, k, "random", mc.mean_rate, mc.stderr, mc.n_trials, ctx.seed)

    return run_sweep(one, range(k_lo, k_hi + 1), ctx.threads)


def _rate_eta_rows(ctx, _):
    snr = _get(ctx.sweep, "snr_db", 25.0, _snr_db)
    mode = ctx.sweep.get("sizing_mode", "aperture-length")
    region = _region(ctx)

    def plan_eta(eta):
        arr = _rect_for_eta(ctx, eta, mode)
        try:
            return float(eta), arr, plan_focal_points(arr, region)
        except ValueError as err:
            # a region a rebuilt array cannot tile is a config fault
            raise ConfigError(f"eta {float(eta)!r}: {err}") from err

    def one(planned):
        eta, arr, plan = planned
        return (eta,) + _planned_row(ctx, _planned_gram(arr, plan), snr)

    return run_sweep(one, run_sweep(plan_eta, _eta_grid(ctx.sweep), ctx.threads),
                     ctx.threads)


def _rate_phi_rows(ctx, _):
    phis = _scalar_grid(ctx.sweep, "phi_min", "phi_max", "phi_values")
    snr = _get(ctx.sweep, "snr_db", 25.0, _snr_db)
    region = _region(ctx)
    k_users = ctx.sweep.get("k_users")
    plan = plan_focal_points(ctx.geometry, region, max_users=None if k_users is None
                             else _integer("sweep.k_users", k_users))

    def one(phi):
        # the users' common linear phase cancels in the Gram matrix; what
        # the azimuth changes is the aperture the users see
        phi = float(phi)
        gram = _planned_gram(project_array(ctx.geometry, phi), plan)
        return (phi,) + _planned_row(ctx, gram, snr)

    return run_sweep(one, phis, ctx.threads)


_PROFILE_HEADER = ["distance_over_dF", "gain"]
_DEPTH_HEADER = ["eta", "F_over_dF", "bd_over_dF", "finite"]
_RATE_HEADER = ["snr_db", "k_users", "placement", "mean_rate", "stderr",
                "n_trials", "seed"]

# experiment -> (geometry kind it needs, None for either; (sweep key, default) listing
# one output file per entry, or None; CSV header; rows function (ctx, entry) -> rows)
_TABLE = {
    "gain-profile": (None, ("kinds", ["exact"]), _PROFILE_HEADER, _profile_rows),
    "bd-vs-eta": ("rect", ("sizing_modes", ["aperture-area"]), _DEPTH_HEADER,
                  _bd_eta_rows),
    "bd-vs-phi": ("rect", None, _DEPTH_HEADER, _bd_phi_rows),
    "a3db-curve": (None, None, ["eta", "a3db", "product"], _a3db_rows),
    "finite-limit-curve": ("rect", None, ["eta", "limit_over_dF"], _finite_limit_rows),
    "circular-gain": ("circ", ("kinds", ["exact"]), _PROFILE_HEADER, _profile_rows),
    "lobe-catalog": ("circ", None, ["k", "kind", "l", "z_over_dF", "gain_db"],
                     _lobe_rows),
    "distance-error": ("rect", None, ["phi", "direct_err_m", "indirect_err_m"],
                       _distance_error_rows),
    "projection-error": ("rect", None, ["phi", "exact_gain", "projected_gain", "abs_err"],
                         _projection_error_rows),
    "multiplex-plan": ("rect", None, ["k", "F_over_dF", "zlo_over_dF", "zhi_over_dF"],
                       _plan_rows),
    "sum-rate-vs-snr": ("rect", None, _RATE_HEADER, _rate_snr_rows),
    "sum-rate-vs-users": ("rect", None, _RATE_HEADER, _rate_users_rows),
    "sum-rate-vs-eta": ("rect", None, ["eta"] + _RATE_HEADER, _rate_eta_rows),
    "sum-rate-vs-phi": ("rect", None, ["phi"] + _RATE_HEADER, _rate_phi_rows),
}

EXPERIMENTS = tuple(_TABLE)


def _square_geometry(n=100, eta=1.0, diag_wl=0.25, carrier=3e9):
    lam = wavelength_from_carrier(carrier)
    return {"kind": "rect", "n_per_side": n, "eta": eta,
            "sizing": {"mode": "element-diag", "value": f"{diag_wl * lam} m"},
            "carrier_hz": carrier}


def _wide_geometry():
    return _square_geometry(n=200, diag_wl=0.5)


def _circ_geometry(radius_wl=12.5, carrier=3e9):
    lam = wavelength_from_carrier(carrier)
    return {"kind": "circ", "radius": f"{radius_wl * lam} m",
            "carrier_hz": carrier}


def build_presets():
    lam = wavelength_from_carrier(3e9)
    return {
        "fig2": {
            "description": "broadside gain profile, exact vs closed form "
                           "(eta=4, F=1000 dF)",
            "geometry": _square_geometry(eta=4.0),
            "experiment": "gain-profile",
            "sweep": {"z_min": "40 dF", "z_max": "10000 dF", "n_points": 200,
                      "spacing": "log", "focus": "1000 dF",
                      "kinds": ["exact", "analytic"]},
        },
        "fig3": {
            "description": "greedy focal-point plan with disjoint half-power "
                           "intervals (200x200 array)",
            "geometry": _wide_geometry(),
            "experiment": "multiplex-plan",
            "sweep": {},
        },
        "fig4": {
            "description": "sum rate vs SNR, planned vs random placement "
                           "(5 users)",
            "geometry": _wide_geometry(),
            "experiment": "sum-rate-vs-snr",
            "sweep": {"snr_min_db": 0.0, "snr_max_db": 30.0, "n_points": 7,
                      "k_users": 5, "n_trials": 200},
        },
        "fig5": {
            "description": "mean sum rate vs number of users at 25 dB",
            "geometry": _wide_geometry(),
            "experiment": "sum-rate-vs-users",
            "sweep": {"k_min": 1, "k_max": 8, "snr_db": 25.0,
                      "n_trials": 500},
        },
        "fig6": {
            "description": "half-power depth vs aspect ratio, fixed-area and "
                           "fixed-length sizing",
            "geometry": _square_geometry(),
            "experiment": "bd-vs-eta",
            "sweep": {"eta_min": 0.1, "eta_max": 10.0, "n_points": 41,
                      "sizing_modes": ["aperture-area", "aperture-length"]},
        },
        "fig8": {
            "description": "mean distance-approximation error vs azimuth at "
                           "the boundary distance",
            "geometry": _square_geometry(),
            "experiment": "distance-error",
            "sweep": {"phi_min": 0.0, "phi_max": 3 * math.pi / 8,
                      "n_points": 49},
        },
        "fig9": {
            "description": "slanted gain profile, exact vs closed form "
                           "(phi=pi/16)",
            "geometry": _square_geometry(),
            "experiment": "gain-profile",
            "sweep": {"z_min": "400 dF", "z_max": "10000 dF", "n_points": 120,
                      "spacing": "log", "focus": "1000 dF",
                      "azimuth": math.pi / 16,
                      "kinds": ["exact", "analytic"]},
        },
        "fig10": {
            "description": "half-power gain argument and its aspect product "
                           "vs eta",
            "geometry": _square_geometry(),
            "experiment": "a3db-curve",
            "sweep": {"eta_min": 0.1, "eta_max": 10.0, "n_points": 81},
        },
        "fig12a": {
            "description": "projected-aperture approximation error vs azimuth "
                           "(d=1000 dF, F=400 dF)",
            "geometry": _square_geometry(),
            "experiment": "projection-error",
            "sweep": {"phi_min": 0.0, "phi_max": 3 * math.pi / 8,
                      "n_points": 25, "dist": "1000 dF", "focus": "400 dF"},
        },
        "fig12b": {
            "description": "steered vs projected gain profiles at phi=pi/4 "
                           "(F=400 dF)",
            "geometry": _square_geometry(),
            "experiment": "gain-profile",
            "sweep": {"z_min": "250 dF", "z_max": "4000 dF", "n_points": 120,
                      "spacing": "log", "focus": "400 dF",
                      "azimuth": math.pi / 4,
                      "kinds": ["steered", "projected"]},
        },
        "fig13": {
            "description": "planned sum rate vs aspect ratio at fixed "
                           "aperture length",
            "geometry": {"kind": "rect", "n_per_side": 200, "eta": 1.0,
                         "sizing": {"mode": "aperture-length",
                                    "value": f"{100 * lam} m"},
                         "carrier_hz": 3e9},
            "experiment": "sum-rate-vs-eta",
            "sweep": {"eta_values": [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0],
                      "snr_db": 25.0, "sizing_mode": "aperture-length"},
        },
        "fig14": {
            "description": "circular-aperture gain profile, exact vs closed "
                           "form (R=12.5 wavelengths, F=50 wavelengths)",
            "geometry": _circ_geometry(),
            "experiment": "circular-gain",
            "sweep": {"z_min": "240 dF", "z_max": "40000 dF", "n_points": 200,
                      "spacing": "log", "focus": "400 dF",
                      "kinds": ["exact", "analytic"]},
        },
        "fig15": {
            "description": "null and sidelobe catalog of the circular "
                           "aperture (deep orders)",
            "geometry": _circ_geometry(),
            "experiment": "lobe-catalog",
            "sweep": {"k_max": 6, "focus": "400 dF"},
        },
        "table1": {
            "description": "null and sidelobe catalog, first three orders",
            "geometry": _circ_geometry(),
            "experiment": "lobe-catalog",
            "sweep": {"k_max": 4, "focus": "400 dF"},
        },
    }


def load_config(args):
    if not args.preset and not args.config:
        raise ConfigError("provide --config and/or --preset")
    cfg = {}
    if args.preset:
        presets = build_presets()
        if args.preset not in presets:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"run 'nearfield-bd presets'")
        cfg = json.loads(json.dumps(presets[args.preset]))
    if args.config:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        for key, val in user.items():
            if key in ("geometry", "sweep") and isinstance(val, dict):
                cfg.setdefault(key, {}).update(val)
            else:
                cfg[key] = val
    return cfg


def resolve_threads(args, cfg):
    if args.threads is not None:
        return _integer("--threads", args.threads)
    env = os.environ.get("NEARFIELD_BD_THREADS")
    if env:
        try:
            env = float(env)
        except ValueError:
            pass  # no number: the count check names the variable
        return _integer("NEARFIELD_BD_THREADS", env)
    return _integer("threads", cfg.get("threads", 1))


def cmd_run(args):
    cfg = load_config(args)
    experiment = cfg.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown or missing experiment {experiment!r}")
    need, files, header, rows = _TABLE[experiment]
    geometry, d_f = build_geometry(_require(cfg, "geometry", "config"))
    if need not in (None, "circ" if isinstance(geometry, CircArray) else "rect"):
        raise ConfigError(f"{experiment} requires a {need} geometry")
    sweep = _object(cfg.get("sweep", {}), "sweep")
    seed = _NATURAL("seed", args.seed if args.seed is not None
                    else cfg.get("seed", DEFAULT_SEED))
    out = args.out or cfg.get("output") or f"{args.preset or experiment}.csv"
    ctx = SimpleNamespace(geometry=geometry, d_f=d_f, sweep=sweep, experiment=experiment,
                          preset=args.preset or "custom", seed=seed,
                          threads=resolve_threads(args, cfg))
    entries = _list(sweep, *files) if files else [None]
    root, ext = os.path.splitext(out)
    paths = []
    try:
        for entry in entries:
            path = out if len(entries) == 1 else f"{root}_{entry}{ext or '.csv'}"
            paths.append(write_csv(path, experiment, ctx.preset, header,
                                   rows(ctx, entry)))
    except OSError as err:
        raise ConfigError(f"cannot write output: {err}") from err
    for p in paths:
        print(p)
    return 0


def cmd_presets(_args):
    presets = build_presets()
    width = max(len(name) for name in presets)
    for name in sorted(presets):
        info = presets[name]
        print(f"{name:<{width}}  {info['experiment']:<18}  "
              f"{info['description']}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nearfield-bd",
        description="Near-field beam-depth experiment runner (CSV output)")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment from a config/preset")
    runp.add_argument("--config", help="JSON config path")
    runp.add_argument("--preset", help="preset name (see 'presets')")
    runp.add_argument("--out", help="output CSV path")
    runp.add_argument("--threads", type=int, help="sweep parallelism")
    runp.add_argument("--seed", type=int, help="PRNG seed override")
    sub.add_parser("presets", help="list available presets")
    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            return cmd_presets(args)
        return cmd_run(args)
    except (ConfigError, ValueError) as err:
        # a point's numerical ValueError arrives inside a SweepEvalError
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SweepEvalError as err:
        for idx, exc in err.failures:
            print(f"sweep index {idx}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
