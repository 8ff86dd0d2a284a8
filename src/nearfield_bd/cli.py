"""Experiment runner: JSON config in, reproducible CSV sweeps out.

Each experiment reproduces one study as a CSV artifact.  Distances in
configs carry an explicit unit suffix ("m" or "dF"); presets bundle ready
configurations for the reference figures.  Exit codes: 0 success, 2 config
error, 3 numerical failure (offending sweep indices on stderr).
"""

from __future__ import annotations

import argparse
import csv
import difflib
import functools
import json
import math
import os
import re
import sys
from types import SimpleNamespace

import numpy as np

from . import __version__
from .array_geometry import (
    CircArray,
    FixedApertureArea,
    FixedApertureLength,
    FixedElementDiagonal,
    TxGeometry,
    _angle,
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
from .field_model import QuadratureSpec, mean_abs_distance_errors
from .gain_engine import (
    _CIRC_KINDS,
    _RECT_KINDS,
    SweepEvalError,
    exact_array_gain_steered,
    gain_profile,
    projected_gain_approx,
    radiative_floor,
    run_sweep,
)
from .multiplexing import (
    _snr_power,
    monte_carlo_sum_rate,
    plan_focal_points,
    planned_sum_rate,
)

DEFAULT_SEED = 12345

_UNIT_RE = re.compile(r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(m2|m|dF)\s*$")


class ConfigError(Exception):
    pass


# A check (field, value, at) -> value returns what the run reads of the config
# value at dotted key ``field``, or raises ConfigError or ValueError naming it.
# ``at`` holds the geometry and its d_F, the unit of 'dF' lengths, once built.
def _quantity(name, *units):
    """Check of a ``name``: a positive number with a mandatory unit, one of
    ``units``; 'dF' only once the geometry is built."""
    def check(field, value, at):
        given = [unit for unit in units if unit != "dF" or at is not None]
        m = _UNIT_RE.match(str(value))
        if not m or m.group(2) not in given:
            raise ConfigError(f"{field}: cannot parse {name} {value!r}; give a number "
                              f"and a unit ({' or '.join(given)})")
        num = float(m.group(1)) * (at.d_f if m.group(2) == "dF" else 1)
        if not math.isfinite(num):
            raise ConfigError(f"{field}: {value!r} is not a finite number")
        return _real(field, num)
    return check


def _number(rule, **limits):
    """Check of a library input rule, whose ValueError main reports."""
    return lambda field, value, _at: rule(field, value, **limits)


def _snr_db(field, value, _at):
    """An SNR in dB whose linear power is finite."""
    _snr_power(value, field)
    return float(value)


def _typed(kind, what, empty=False):
    def check(field, value, _at):
        if not isinstance(value, kind) or not (value or empty):
            raise ConfigError(f"{field} must be {what}, got {value!r}")
        return value
    return check


def _choice(*options):
    def check(field, value, _at):
        if value not in options:
            raise ConfigError(f"{field}: unknown {field.rsplit('.', 1)[-1]} {value!r}; "
                              f"must be one of {', '.join(options)}")
        return value
    return check


def _list_of(check, distinct=False):
    """Check of a non-empty list of ``check`` entries, distinct if ``distinct``."""
    def checked(field, value, at):
        values = [check(field, v, at) for v in _LIST(field, value, at)]
        if distinct and len(set(values)) < len(values):
            raise ConfigError(f"{field}: {value!r} names an entry twice")
        return values
    return checked


def _experiment(field, value, _at):
    if value not in EXPERIMENTS:
        raise ConfigError(f"unknown or missing experiment {value!r}")
    return value


def _kinds(field, value, at):
    """Gain kinds of the geometry, one output file each."""
    kinds = _CIRC_KINDS if isinstance(at.geometry, CircArray) else _RECT_KINDS
    return _list_of(_choice(*kinds), distinct=True)(field, value, at)


_REAL, _COUNT = _number(_real), _number(_integer)
_FINITE, _NATURAL = _number(_real, low=-math.inf, strict=False), _number(_integer, low=0)
_OBJECT, _TEXT = _typed(dict, "an object", empty=True), _typed(str, "a non-empty string")
_LIST, _LENGTH = _typed(list, "a non-empty list"), _quantity("length", "m", "dF")
# sizing mode -> (sizing class, check of its value, the RectArray property a
# sweep holds fixed when it rebuilds the array at another eta, or None)
_SIZINGS = {
    "element-diag": (FixedElementDiagonal, _LENGTH, None),
    "aperture-area": (FixedApertureArea, _quantity("area", "m2"), "aperture_area"),
    "aperture-length": (FixedApertureLength, _LENGTH, "aperture_len"),
}
_REBUILT = _choice(*(mode for mode, (_, _, held) in _SIZINGS.items() if held))
_SPACINGS = {"log": np.geomspace, "linear": np.linspace}

# config key -> its check, in every section that declares the key
_CHECKS = {
    "experiment": _experiment, "description": _TEXT, "output": _TEXT, "kinds": _kinds,
    "kind": _choice("rect", "circ"), "mode": _choice(*_SIZINGS),
    # geometry.sizing.value is checked in the unit of its mode by build_geometry
    "value": lambda field, value, _at: value, "spacing": _choice(*_SPACINGS),
    "sizing_mode": _REBUILT, "sizing_modes": _list_of(_REBUILT, distinct=True),
    "eta_values": _list_of(_REAL), "phi_values": _list_of(_FINITE),
    "snr_values_db": _list_of(_snr_db), "quad_order": _number(_integer, low=2),
    **dict.fromkeys(["geometry", "sweep", "sizing"], _OBJECT),
    **dict.fromkeys(["carrier_hz", "eta", "eta_min", "eta_max"], _REAL),
    **dict.fromkeys(["azimuth", "elevation"], _number(_angle)),
    **dict.fromkeys(["phi_min", "phi_max"], _FINITE),
    **dict.fromkeys(["snr_db", "snr_min_db", "snr_max_db"], _snr_db),
    **dict.fromkeys(["seed", "refinement"], _NATURAL),
    **dict.fromkeys(["n_per_side", "n_points", "k_min", "k_max", "k_users", "max_users",
                     "n_trials"], _COUNT),
    **dict.fromkeys(["radius", "ref_elem_diag", "z_min", "z_max", "focus", "dist"],
                    _LENGTH),
}

# Each config key is declared once, in the declarations of the sections that
# take it, which map it to its default: _REQUIRED if the key must be given, None
# if its absence means something the run works out.  Other keys are refused.
_REQUIRED = object()
_TOP = {"experiment": _REQUIRED, "description": None, "geometry": _REQUIRED,
        "sweep": {}, "seed": DEFAULT_SEED, "output": None}
_KIND = {"kind": "rect"}
_GEOMETRY = {
    "rect": _KIND | {"carrier_hz": _REQUIRED, "n_per_side": _REQUIRED, "eta": _REQUIRED,
                     "sizing": _REQUIRED},
    "circ": _KIND | {"carrier_hz": _REQUIRED, "radius": _REQUIRED, "ref_elem_diag": None},
}
_SIZING = {"mode": _REQUIRED, "value": _REQUIRED}


def _resolve(section, keys, prefix, at=None):
    """Checked values, else defaults, of the keys ``keys`` declares for ``section``."""
    for key in keys:
        if keys[key] is _REQUIRED and key not in section:
            raise ConfigError(f"missing required field {prefix}{key}")
    return SimpleNamespace(**{key: _CHECKS[key](prefix + key, section[key], at)
                              if key in section else default
                              for key, default in keys.items()})


def _refuse_unknown(sections):
    """Refuse each key of the (config object, declared keys, dotted prefix)
    ``sections`` not declared for its object, naming the closest declared key."""
    unknown = [prefix + key + "".join(f" (did you mean {prefix}{near}?)" for near in
                                      difflib.get_close_matches(key, keys, n=1))
               for section, keys, prefix in sections if isinstance(section, dict)
               for key in section if key not in keys]
    if unknown:
        raise ConfigError(f"unknown key{'s' * (len(unknown) > 1)} {', '.join(unknown)}")


def build_geometry(g):
    """Returns (geometry object, reference d_F for unit conversion) of section ``g``."""
    lam = wavelength_from_carrier(g.carrier_hz)
    if g.kind == "circ":
        diag = lam / 4 if g.ref_elem_diag is None else g.ref_elem_diag
        return CircArray(g.radius, lam), 2.0 * diag ** 2 / lam
    sizing = _resolve(g.sizing, _SIZING, "geometry.sizing.")
    cls, check, _ = _SIZINGS[sizing.mode]
    arr = make_rect_array(g.n_per_side, g.eta,
                          cls(check("geometry.sizing.value", sizing.value, None)), lam)
    return arr, arr.d_f


def _scalar_grid(ctx, pattern):
    """The sweep's values of ``pattern`` as a list, else n_points from min to max,
    spaced as the sweep's spacing where the experiment takes one, else linearly."""
    listed, *span = [pattern.format(p) for p in ("values", "min", "max")] + ["n_points"]
    given = [key for key in span if getattr(ctx, key) is not None]
    if getattr(ctx, listed) is not None:
        if given:
            raise ConfigError(f"sweep.{listed} and sweep.{', sweep.'.join(given)} both "
                              f"set the grid; give the list or the range")
        return np.array(getattr(ctx, listed))
    for key in span:
        if key not in given:
            raise ConfigError(f"missing required field sweep.{key}")
    return _SPACINGS[getattr(ctx, "spacing", "linear")](*(getattr(ctx, k) for k in span))


def write_csv(path, experiment, preset, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# nearfield-bd v{__version__} experiment={experiment} "
                 f"preset={preset}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(c)) if isinstance(c, (float, np.floating))
                             else c for c in row])
    return path


def _profile_rows(ctx, kind):
    # checked for the first kind, before any file is written
    if "projected" in ctx.kinds and ctx.elevation:
        raise ConfigError(f"sweep.elevation: projected gains take an azimuth only, "
                          f"got {ctx.elevation!r}")
    grid = _SPACINGS[ctx.spacing](*_region(ctx), ctx.n_points)
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
    prof = gain_profile(kind, ctx.geometry, pts, ctx.focus, azimuth=ctx.azimuth,
                        elevation=ctx.elevation,
                        quad=QuadratureSpec(ctx.quad_order, ctx.refinement))
    return [(z / ctx.d_f, g) for z, g in zip(prof.distances, prof.gains)]


def _rect_for_eta(ctx, eta, sizing_mode):
    base = ctx.geometry
    cls, _, held = _SIZINGS[sizing_mode]
    return make_rect_array(base.n_per_side, float(eta), cls(getattr(base, held)),
                           base.wavelength)


def _depth_row(eta, focus, d_f, res):
    finite = res.status == STATUS_FINITE
    return (eta, focus / d_f, res.depth / d_f if finite else math.inf, int(finite))


def _points(pattern, row):
    """Rows function of ``row(ctx, entry, x)`` at every x of the grid ``pattern``."""
    return lambda ctx, entry: run_sweep(lambda x: row(ctx, entry, x),
                                        _scalar_grid(ctx, pattern))


def _bd_eta_row(ctx, mode, eta):
    arr = _rect_for_eta(ctx, eta, mode)
    return _depth_row(float(eta), arr.d_b, arr.d_f, bd_rect(arr, arr.d_b))


def _bd_phi_row(ctx, _, phi):
    proj = project_array(ctx.geometry, float(phi))
    return _depth_row(proj.eta, ctx.focus, ctx.d_f, bd_rect(proj, ctx.focus))


def _a3db_row(_ctx, _, eta):
    a = solve_a3db(float(eta))
    return (float(eta), a, a * (1 + float(eta) ** 2))


def _finite_limit_row(ctx, _, eta):
    arr = _rect_for_eta(ctx, eta, ctx.sizing_mode)
    return (float(eta), finite_bd_limit_rect(arr) / arr.d_f)


def _lobe_rows(ctx, _):
    entries = circ_lobe_catalog(ctx.geometry, ctx.focus, ctx.k_max)
    return [(e.index, e.kind, e.l_value, e.z_value / ctx.d_f, e.gain_db) for e in entries]


def _distance_error_row(ctx, _, phi):
    # the azimuth is read before d_B / cos(phi) turns a bad one into a distance
    phi = _angle("azimuth", phi)
    dist = ctx.geometry.d_b / math.cos(phi) if ctx.dist is None else ctx.dist
    tx = TxGeometry(dist, azimuth=phi)
    return (phi, *mean_abs_distance_errors(ctx.geometry, tx))


def _projection_error_rows(ctx, _):
    """Steered and projected gains of every azimuth, one batched call of
    each; an azimuth out of range fails at its index before either runs."""
    phis = [float(phi) for phi in _scalar_grid(ctx, "phi_{}")]
    txs = run_sweep(lambda phi: TxGeometry(ctx.dist, azimuth=phi), phis)
    quad = QuadratureSpec(ctx.quad_order, ctx.refinement)
    exact = exact_array_gain_steered(ctx.geometry, txs, ctx.focus, quad)
    proj = projected_gain_approx(ctx.geometry, txs, ctx.focus, quad)
    return [(phi, e, p, abs(e - p)) for phi, e, p in zip(phis, exact, proj)]


def _region(ctx):
    """Distance region of the sweep: z_min to z_max, by default d_B to d_FA/10."""
    z_min = ctx.geometry.d_b if ctx.z_min is None else ctx.z_min
    z_max = ctx.geometry.d_fa / 10 if ctx.z_max is None else ctx.z_max
    if not 0 < z_min < z_max:
        raise ConfigError("sweep requires 0 < z_min < z_max")
    return z_min, z_max


def _plan_rows(ctx, _):
    plan = plan_focal_points(ctx.geometry, _region(ctx), ctx.max_users)
    return [(k + 1, f / ctx.d_f, lo / ctx.d_f, hi / ctx.d_f)
            for k, (f, (lo, hi)) in enumerate(zip(plan.focal_points,
                                                  plan.intervals))]


def _k_user_plan(ctx, region):
    """Focal plan of the geometry over ``region``, of sweep.k_users points
    where the sweep gives it; a region that fits fewer is a config fault."""
    plan = plan_focal_points(ctx.geometry, region, max_users=ctx.k_users)
    if ctx.k_users is not None and len(plan) < ctx.k_users:
        lo, hi = (z / ctx.d_f for z in region)
        raise ConfigError(f"sweep.k_users: {ctx.k_users} users asked for, but the region "
                          f"{lo:.6g} dF to {hi:.6g} dF ({region[0]:.6g} m to "
                          f"{region[1]:.6g} m) fits {len(plan)}")
    return plan


def _planned_row(ctx, plan, snr, rate):
    """Rate row of the planned users of ``plan`` at one SNR."""
    return (snr, len(plan), "planned", rate, 0.0, 1, ctx.seed)


def _rate_snr_rows(ctx, _):
    snrs = [float(snr) for snr in _scalar_grid(ctx, "snr_{}_db")]
    region = _region(ctx)
    plan = _k_user_plan(ctx, region)
    # one table serves every SNR of the planned rows, and one pass over the
    # grid every SNR of the random rows: they share the draws, their Gram
    # stack and its MMSE table
    rates = planned_sum_rate(ctx.geometry, plan.focal_points, snrs)
    mcs = monte_carlo_sum_rate(ctx.geometry, ctx.k_users, region, ctx.n_trials, snrs,
                               ctx.seed)
    return [row for snr, rate, mc in zip(snrs, rates, mcs) for row in (
        _planned_row(ctx, plan, snr, rate),
        (snr, ctx.k_users, "random", mc.mean_rate, mc.stderr, mc.n_trials, ctx.seed))]


def _rate_users_rows(ctx, _):
    if not ctx.k_min <= ctx.k_max:
        raise ConfigError("sweep requires 1 <= k_min <= k_max")
    ks = range(ctx.k_min, ctx.k_max + 1)
    # one pass for every count: one seeded draw and one phase table per user
    mcs = monte_carlo_sum_rate(ctx.geometry, ks, _region(ctx), ctx.n_trials, ctx.snr_db,
                               ctx.seed)
    return [(ctx.snr_db, k, "random", mc.mean_rate, mc.stderr, mc.n_trials, ctx.seed)
            for k, mc in zip(ks, mcs)]


def _rate_eta_rows(ctx, _):
    region = _region(ctx)

    def plan_eta(eta):
        arr = _rect_for_eta(ctx, eta, ctx.sizing_mode)
        try:
            return float(eta), arr, plan_focal_points(arr, region)
        except ValueError as err:
            # a region a rebuilt array cannot tile is a config fault
            raise ConfigError(f"eta {float(eta)!r}: {err}") from err

    def one(planned):
        eta, arr, plan = planned
        rate = planned_sum_rate(arr, plan.focal_points, ctx.snr_db)
        return (eta,) + _planned_row(ctx, plan, ctx.snr_db, rate)

    return run_sweep(one, run_sweep(plan_eta, _scalar_grid(ctx, "eta_{}")), ctx.threads)


def _rate_phi_rows(ctx, _):
    plan = _k_user_plan(ctx, _region(ctx))

    def one(phi):
        # the users' common linear phase cancels in the Gram matrix; what
        # the azimuth changes is the aperture the users see
        phi = float(phi)
        rate = planned_sum_rate(project_array(ctx.geometry, phi), plan.focal_points,
                                ctx.snr_db)
        return (phi,) + _planned_row(ctx, plan, ctx.snr_db, rate)

    return run_sweep(one, _scalar_grid(ctx, "phi_{}"), ctx.threads)


_PROFILE_HEADER = ["distance_over_dF", "gain"]
_DEPTH_HEADER = ["eta", "F_over_dF", "bd_over_dF", "finite"]
_RATE_HEADER = ["snr_db", "k_users", "placement", "mean_rate", "stderr",
                "n_trials", "seed"]

# sweep keys several experiments take, with their defaults
_QUAD = {"quad_order": 8, "refinement": 1}
_PROFILE = {"z_min": _REQUIRED, "z_max": _REQUIRED, "n_points": _REQUIRED,
            "spacing": "log", "focus": _REQUIRED, "azimuth": 0.0, "elevation": 0.0,
            "kinds": ["exact"]} | _QUAD
_ETAS = {"eta_values": None, "eta_min": None, "eta_max": None, "n_points": None,
         "spacing": "log"}
_PHIS = {"phi_values": None, "phi_min": None, "phi_max": None, "n_points": None}
_SNRS = {"snr_values_db": None, "snr_min_db": None, "snr_max_db": None, "n_points": None}
_REGION = {"z_min": None, "z_max": None}
_RATE = {"snr_db": 25.0} | _REGION

# experiment -> (geometry kind it needs, None for either; sweep key listing one
# output file per entry, or None; CSV header; rows function (ctx, entry) -> rows;
# its sweep keys and their defaults)
_TABLE = {
    "gain-profile": (None, "kinds", _PROFILE_HEADER, _profile_rows, _PROFILE),
    "bd-vs-eta": ("rect", "sizing_modes", _DEPTH_HEADER, _points("eta_{}", _bd_eta_row),
                  _ETAS | {"sizing_modes": ["aperture-area"]}),
    "bd-vs-phi": ("rect", None, _DEPTH_HEADER, _points("phi_{}", _bd_phi_row),
                  _PHIS | {"focus": _REQUIRED}),
    "a3db-curve": (None, None, ["eta", "a3db", "product"], _points("eta_{}", _a3db_row),
                   _ETAS),
    "finite-limit-curve": ("rect", None, ["eta", "limit_over_dF"],
                           _points("eta_{}", _finite_limit_row),
                           _ETAS | {"sizing_mode": "aperture-area"}),
    "circular-gain": ("circ", "kinds", _PROFILE_HEADER, _profile_rows, _PROFILE),
    "lobe-catalog": ("circ", None, ["k", "kind", "l", "z_over_dF", "gain_db"],
                     _lobe_rows, {"focus": _REQUIRED, "k_max": _REQUIRED}),
    "distance-error": ("rect", None, ["phi", "direct_err_m", "indirect_err_m"],
                       _points("phi_{}", _distance_error_row), _PHIS | {"dist": None}),
    "projection-error": ("rect", None, ["phi", "exact_gain", "projected_gain", "abs_err"],
                         _projection_error_rows,
                         _PHIS | {"dist": _REQUIRED, "focus": _REQUIRED} | _QUAD),
    "multiplex-plan": ("rect", None, ["k", "F_over_dF", "zlo_over_dF", "zhi_over_dF"],
                       _plan_rows, _REGION | {"max_users": None}),
    "sum-rate-vs-snr": ("rect", None, _RATE_HEADER, _rate_snr_rows,
                        _SNRS | {"k_users": 5, "n_trials": 200} | _REGION),
    "sum-rate-vs-users": ("rect", None, _RATE_HEADER, _rate_users_rows,
                          {"k_min": 1, "k_max": 8, "n_trials": 500} | _RATE),
    "sum-rate-vs-eta": ("rect", None, ["eta"] + _RATE_HEADER, _rate_eta_rows,
                        _ETAS | {"sizing_mode": "aperture-length"} | _RATE),
    "sum-rate-vs-phi": ("rect", None, ["phi"] + _RATE_HEADER, _rate_phi_rows,
                        _PHIS | {"k_users": None} | _RATE),
}

EXPERIMENTS = tuple(_TABLE)


def _square_geometry(n=100, eta=1.0, diag_wl=0.25, carrier=3e9):
    lam = wavelength_from_carrier(carrier)
    return {"kind": "rect", "n_per_side": n, "eta": eta,
            "sizing": {"mode": "element-diag", "value": f"{diag_wl * lam} m"},
            "carrier_hz": carrier}


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
            "geometry": _square_geometry(n=200, diag_wl=0.5),
            "experiment": "multiplex-plan",
        },
        "fig4": {
            "description": "sum rate vs SNR, planned vs random placement "
                           "(5 users)",
            "geometry": _square_geometry(n=200, diag_wl=0.5),
            "experiment": "sum-rate-vs-snr",
            "sweep": {"snr_min_db": 0.0, "snr_max_db": 30.0, "n_points": 7,
                      "k_users": 5, "n_trials": 200},
        },
        "fig5": {
            "description": "mean sum rate vs number of users at 25 dB",
            "geometry": _square_geometry(n=200, diag_wl=0.5),
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
        _OBJECT("config root", user, None)
        # a config that switches experiment or geometry kind keeps none of the
        # preset's sweep or geometry keys, which the new one may not take
        if user.get("experiment", cfg.get("experiment")) != cfg.get("experiment"):
            cfg.pop("sweep", None)
        kind = cfg.get("geometry", {}).get("kind")
        if (isinstance(user.get("geometry"), dict)
                and user["geometry"].get("kind", kind) != kind):
            cfg.pop("geometry", None)
        for key, val in user.items():
            if key in ("geometry", "sweep") and isinstance(val, dict):
                cfg.setdefault(key, {}).update(val)
            else:
                cfg[key] = val
    return cfg


def cmd_run(args):
    cfg = load_config(args)
    # every key is checked before any row runs, also where an override wins
    top = _resolve(cfg, _TOP, "")
    need, files, header, rows, sweep_keys = _TABLE[top.experiment]
    geometry_keys = _GEOMETRY[_resolve(top.geometry, _KIND, "geometry.").kind]
    _refuse_unknown([(cfg, _TOP, ""), (top.geometry, geometry_keys, "geometry."),
                     (top.geometry.get("sizing"), _SIZING, "geometry.sizing."),
                     (top.sweep, sweep_keys, "sweep.")])
    geometry, d_f = build_geometry(_resolve(top.geometry, geometry_keys, "geometry."))
    if need not in (None, "circ" if isinstance(geometry, CircArray) else "rect"):
        raise ConfigError(f"{top.experiment} requires a {need} geometry")
    seed = top.seed if args.seed is None else _integer("--seed", args.seed, low=0)
    ctx = SimpleNamespace(geometry=geometry, d_f=d_f, experiment=top.experiment,
                          preset=args.preset or "custom", seed=seed,
                          threads=_integer("--threads", args.threads))
    # the rows read the run and its resolved sweep keys from one namespace
    vars(ctx).update(vars(_resolve(top.sweep, sweep_keys, "sweep.", ctx)))
    out = args.out or top.output or f"{args.preset or top.experiment}.csv"
    entries = getattr(ctx, files) if files else [None]
    root, ext = os.path.splitext(out)
    # every output's rows before any file, so a failing one leaves none behind
    outputs = [(out if len(entries) == 1 else f"{root}_{entry}{ext or '.csv'}",
                rows(ctx, entry)) for entry in entries]
    try:
        paths = [write_csv(path, ctx.experiment, ctx.preset, header, table)
                 for path, table in outputs]
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


@functools.cache
def _parser():
    """The CLI's argument parser, built once per process: building one costs
    about ten times what a parse does.  A parse reads the parser and never
    changes it, so calls share no state."""
    parser = argparse.ArgumentParser(
        prog="nearfield-bd",
        description="Near-field beam-depth experiment runner (CSV output)")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment from a config/preset")
    runp.add_argument("--config", help="JSON config path")
    runp.add_argument("--preset", help="preset name (see 'presets')")
    runp.add_argument("--out", help="output CSV path")
    runp.add_argument("--threads", type=int, default=1,
                      help="worker threads over the rows of sum-rate-vs-eta "
                           "and sum-rate-vs-phi")
    runp.add_argument("--seed", type=int, help="PRNG seed override")
    sub.add_parser("presets", help="list available presets")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
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
