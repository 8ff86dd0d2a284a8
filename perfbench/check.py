"""Correctness of the CSVs one repetition wrote.

A row is good when every key column matches exactly and every value column
is within tolerance of the stored reference (row count, comment line,
header and key columns exactly).  The reference-free checks (row counts,
key columns against the generated grid, finite in-range values) gate what
make_refs.py stores; a benchmark run always compares to a stored
reference.
"""

from __future__ import annotations

import csv
import math

# Columns the program computes; every other column is a key or label and
# must match exactly.
VALUE_COLUMNS = frozenset({
    "gain", "a3db", "product", "F_over_dF", "bd_over_dF", "limit_over_dF",
    "l", "z_over_dF", "gain_db", "direct_err_m", "indirect_err_m",
    "zlo_over_dF", "zhi_over_dF", "mean_rate", "stderr",
})

GAIN_CEILING = 1.0 + 1e-6   # GainProfile's own upper bound
DISTANCE_RTOL = 1e-12       # generated log grid vs the CLI's geomspace


def parse(text):
    """(comment line, header, rows) of a nearfield-bd CSV."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# nearfield-bd "):
        raise ValueError("not a nearfield-bd CSV")
    table = list(csv.reader(lines[1:]))
    return lines[0], table[0], table[1:]


def row_count(text):
    try:
        return len(parse(text)[2])
    except ValueError:
        return 0


def _deviation(got, ref, kind):
    """Deviation of two numeric cells; inf when they cannot be compared."""
    try:
        g, r = float(got), float(ref)
    except ValueError:
        return math.inf
    if not (math.isfinite(g) and math.isfinite(r)):
        return 0.0 if g == r else math.inf
    if kind == "abs":
        return abs(g - r)
    return abs(g - r) / abs(r) if r else (0.0 if g == 0.0 else math.inf)


def against_reference(text, ref_text, tolerance):
    """(good rows, largest finite deviation) of ``text`` against the stored
    ``ref_text``; ``tolerance`` is ('abs' | 'rel', limit)."""
    kind, limit = tolerance
    try:
        head, header, rows = parse(text)
    except ValueError:
        return 0, 0.0
    ref_head, ref_header, ref_rows = parse(ref_text)
    if head != ref_head or header != ref_header or len(rows) != len(ref_rows):
        return 0, 0.0
    good, worst = 0, 0.0
    for row, ref_row in zip(rows, ref_rows):
        ok = len(row) == len(ref_row)
        for col, got, ref in zip(header, row, ref_row):
            if got == ref:
                continue
            if col not in VALUE_COLUMNS:
                ok = False
                continue
            dev = _deviation(got, ref, kind)
            if math.isfinite(dev):
                worst = max(worst, dev)
            ok = ok and dev <= limit
        good += ok
    return good, worst


def log_grid(lo, hi, n):
    if n == 1:
        return [lo]
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def expected_keys(config, suffix):
    """Key columns the generator fixed: column -> (values, exact?)."""
    sweep = config["sweep"]
    experiment = config["experiment"]
    keys = {}
    if experiment in ("gain-profile", "circular-gain"):
        lo = float(sweep["z_min"].split()[0])
        hi = float(sweep["z_max"].split()[0])
        keys["distance_over_dF"] = (log_grid(lo, hi, sweep["n_points"]), False)
    if "eta_values" in sweep:
        keys["eta"] = (sweep["eta_values"], True)
    if "phi_values" in sweep:
        keys["phi"] = (sweep["phi_values"], True)
    return keys


def _key_ok(cell, want, exact):
    if exact:
        return cell == repr(float(want))
    try:
        return abs(float(cell) - want) <= DISTANCE_RTOL * abs(want)
    except ValueError:
        return False


def _value_ok(col, cell):
    try:
        v = float(cell)
    except ValueError:
        return False
    if math.isnan(v):
        return False
    if col == "gain":
        return 0.0 <= v <= GAIN_CEILING
    return True


def without_reference(text, config, suffix, n_rows):
    """Good rows by reference-free checks; ``n_rows`` is the requested row
    count, or None when the program decides it."""
    try:
        _, header, rows = parse(text)
    except ValueError:
        return 0
    if n_rows is not None and len(rows) != n_rows:
        return 0
    keys = expected_keys(config, suffix)
    good = 0
    for i, row in enumerate(rows):
        ok = len(row) == len(header)
        for col, cell in zip(header, row):
            if col in keys:
                values, exact = keys[col]
                ok = ok and i < len(values) and _key_ok(cell, values[i], exact)
            elif col in VALUE_COLUMNS:
                ok = ok and _value_ok(col, cell)
        good += ok
    return good
