"""In-memory span tracing of the nearfield_bd layers, from outside the package.

``instrument`` wraps every public function of each layer module and rebinds
the wrapper at every module (and module-level dict, such as the CLI's
runner table) that holds the original, because the package imports names
with ``from .x import y``.  Each call adds to a per-function table; a
call's self time is its duration minus the durations of the wrapped calls
it made.

Spans nest on one stack, as the benchmark runs the CLI at ``--threads 1``.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "gain_engine", "fresnel_core", "beam_depth", "multiplexing",
          "field_model", "array_geometry")

CLOSED_FORM_FUNCTIONS = ("rect_gain_broadside", "rect_gain_slanted",
                         "circ_gain_broadside", "analytic_gain_rect",
                         "analytic_gain_nonbroadside", "analytic_gain_circ")


class Tracer:
    """Per-function table of calls, inclusive and self seconds and work
    units.  ``_children`` holds, for every open span, the time its
    finished child spans took; a span's self time is its duration minus
    that sum."""

    def __init__(self):
        self.table = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "units": 0.0})
        self._children = []

    def wrap(self, name, fn, units=None):
        table, children = self.table, self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = children.pop()
                if children:
                    children[-1] += duration
                row = table[name]
                row["calls"] += 1
                row["total_s"] += duration
                row["self_s"] += duration - child
            if units is not None:
                row["units"] += units(args, kwargs, result)
            return result

        return traced


def _points(args, kwargs, result):
    x = args[0] if args else next(iter(kwargs.values()))
    return int(getattr(x, "size", 1))


def _bound_arg(fn, name):
    sig = inspect.signature(fn)
    return lambda args, kwargs, result: sig.bind(*args, **kwargs).arguments[name]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(result)


def _units_for(layer, name, fn):
    if layer == "fresnel_core" and name in ("fresnel_cs", "sinc"):
        return _points
    if layer == "multiplexing" and name == "monte_carlo_sum_rate":
        return _bound_arg(fn, "n_trials")
    if layer == "cli" and name == "write_csv":
        return _file_bytes
    return None


def public_functions(module):
    """Public functions (lru_cache wrappers included) defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def instrument(modules, tracer):
    """Wrap each layer's public functions wherever they are bound.

    ``modules`` maps layer name to module.  Returns the number of bindings
    replaced.
    """
    wrappers = {}
    for layer, module in modules.items():
        for name, fn in public_functions(module):
            wrapped = tracer.wrap(f"{layer}.{name}", fn,
                                  _units_for(layer, name, fn))
            wrappers[id(fn)] = (fn, wrapped)

    def replacement(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    replaced = 0
    for module in modules.values():
        for key, value in list(vars(module).items()):
            new = replacement(value)
            if new is not None:
                setattr(module, key, new)
                replaced += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    new = replacement(v)
                    if new is not None:
                        value[k] = new
                        replaced += 1
    return replaced


def _sum(table, names, field):
    return sum(table[n][field] for n in names if n in table)


def _layer_names(table, layer):
    return [n for n in table if n.split(".", 1)[0] == layer]


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def unit_of(metric):
    """Unit of a per-layer metric, from the last part of its name."""
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    return {"ms_per_call": "ms", "us_per_point": "us", "us_per_trial": "us",
            "bytes": "B", "hit_ratio": "ratio"}.get(last, "count")


def layer_metrics(table, a3db_cache):
    """The per-layer metrics of one traced repetition.

    ``a3db_cache`` is ``(hits, misses)`` of ``beam_depth.solve_a3db``'s
    lru_cache at the end of the repetition (it starts empty).
    """
    m = {}
    for key, fn in (("exact", "exact_array_gain"),
                    ("steered", "exact_array_gain_steered"),
                    ("projected", "projected_gain_approx"),
                    ("disk", "disk_gain_exact")):
        name = [f"gain_engine.{fn}"]
        calls = _sum(table, name, "calls")
        m[f"gain_engine.{key}.calls"] = calls
        if key in ("exact", "steered"):
            m[f"gain_engine.{key}.self_s"] = _sum(table, name, "self_s")
        m[f"gain_engine.{key}.ms_per_call"] = _ratio(
            _sum(table, name, "total_s"), calls, 1e3)
    closed = [f"gain_engine.{fn}" for fn in CLOSED_FORM_FUNCTIONS]
    m["gain_engine.closed_form.calls"] = _sum(table, closed, "calls")
    m["gain_engine.closed_form.self_s"] = _sum(table, closed, "self_s")

    fresnel = _layer_names(table, "fresnel_core")
    points = _sum(table, fresnel, "units")
    fresnel_self = _sum(table, fresnel, "self_s")
    m["fresnel_core.calls"] = _sum(table, fresnel, "calls")
    m["fresnel_core.points"] = points
    m["fresnel_core.self_s"] = fresnel_self
    m["fresnel_core.us_per_point"] = _ratio(fresnel_self, points, 1e6)

    hits, misses = a3db_cache
    a3db = ["beam_depth.solve_a3db"]
    m["beam_depth.solve_a3db.calls"] = _sum(table, a3db, "calls")
    m["beam_depth.solve_a3db.misses"] = misses
    m["beam_depth.solve_a3db.hit_ratio"] = _ratio(hits, hits + misses)
    m["beam_depth.solve_a3db.self_s"] = _sum(table, a3db, "self_s")
    m["beam_depth.self_s"] = _sum(table, _layer_names(table, "beam_depth"),
                                  "self_s")

    mc = ["multiplexing.monte_carlo_sum_rate"]
    trials = _sum(table, mc, "units")
    m["multiplexing.mc.calls"] = _sum(table, mc, "calls")
    m["multiplexing.mc.trials"] = trials
    m["multiplexing.mc.us_per_trial"] = _ratio(_sum(table, mc, "total_s"),
                                               trials, 1e6)
    m["multiplexing.plan.calls"] = _sum(
        table, ["multiplexing.plan_focal_points"], "calls")
    m["multiplexing.channel.calls"] = _sum(
        table, ["multiplexing.build_channel_matrix"], "calls")
    m["multiplexing.self_s"] = _sum(table, _layer_names(table, "multiplexing"),
                                    "self_s")

    for layer in ("field_model", "array_geometry"):
        names = _layer_names(table, layer)
        m[f"{layer}.calls"] = _sum(table, names, "calls")
        m[f"{layer}.self_s"] = _sum(table, names, "self_s")

    write = ["cli.write_csv"]
    m["cli.write_csv.calls"] = _sum(table, write, "calls")
    m["cli.write_csv.bytes"] = _sum(table, write, "units")
    m["cli.write_csv.self_s"] = _sum(table, write, "self_s")
    m["cli.self_s"] = _sum(
        table, [n for n in _layer_names(table, "cli") if n not in write],
        "self_s")
    return m
