import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import nearfield_bd
from nearfield_bd import __version__, cli, gain_engine
from nearfield_bd.array_geometry import (
    FixedApertureArea,
    FixedApertureLength,
    FixedElementDiagonal,
    TxGeometry,
    make_rect_array,
    wavelength_from_carrier,
)
from nearfield_bd.beam_depth import finite_bd_limit_rect
from nearfield_bd.cli import EXPERIMENTS, build_presets, main
from nearfield_bd.gain_engine import SweepEvalError, rect_gain_slanted

LAM = wavelength_from_carrier(3e9)

TINY_GEOM = {
    "kind": "rect",
    "n_per_side": 8,
    "eta": 1.0,
    "sizing": {"mode": "element-diag", "value": "0.025 m"},
    "carrier_hz": 3e9,
}

CIRC_GEOM = {"kind": "circ", "radius": "0.5 m", "carrier_hz": 3e9}

SMALL_WIDE_GEOM = {
    "kind": "rect",
    "n_per_side": 20,
    "eta": 1.0,
    "sizing": {"mode": "element-diag", "value": f"{0.5 * LAM} m"},
    "carrier_hz": 3e9,
}

SQUARE_GEOM = {
    "kind": "rect",
    "n_per_side": 100,
    "eta": 1.0,
    "sizing": {"mode": "element-diag", "value": f"{0.25 * LAM} m"},
    "carrier_hz": 3e9,
}


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith(f"# nearfield-bd v{__version__} experiment=")
    assert " preset=" in lines[0]
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def tiny_d_f():
    arr = make_rect_array(8, 1.0, FixedElementDiagonal(0.025), LAM)
    return arr.d_f


def test_presets_command_lists_everything(capsys):
    assert run_cli("presets") == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == sorted(build_presets())
    assert len(names) == 14
    for line in out.strip().splitlines():
        assert line.split()[1] in EXPERIMENTS


def test_presets_all_reference_known_experiments(tmp_path, monkeypatch):
    # rows that compute nothing: each run below only resolves its preset
    for experiment, entry in cli._TABLE.items():
        monkeypatch.setitem(cli._TABLE, experiment,
                            entry[:3] + (lambda ctx, _: [],) + entry[4:])
    for name, preset in build_presets().items():
        assert preset["experiment"] in EXPERIMENTS, name
        assert preset["description"]
        # every key the preset gives is declared, and every value passes its check
        out = str(tmp_path / "x.csv")
        assert run_cli("run", "--preset", name, "--out", out) == 0, name


def test_a3db_preset_output(tmp_path, capsys):
    out = tmp_path / "a3db.csv"
    assert run_cli("run", "--preset", "fig10", "--out", str(out)) == 0
    assert capsys.readouterr().out.strip() == str(out)
    header, rows = read_rows(out)
    assert header == ["eta", "a3db", "product"]
    assert len(rows) == 81
    first = [float(c) for c in rows[0]]
    last = [float(c) for c in rows[-1]]
    assert first[0] == pytest.approx(0.1)
    assert last[0] == pytest.approx(10.0)
    assert first[1] == pytest.approx(1.7378934540683, rel=1e-9)
    # eta and 1/eta share the same product of a3db with (1 + eta^2)
    assert first[2] == pytest.approx(last[2], rel=1e-9)


def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("run", "--preset", "fig10", "--out", str(a)) == 0
    assert run_cli("run", "--preset", "fig10", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_lobe_catalog_preset(tmp_path):
    out = tmp_path / "t1.csv"
    assert run_cli("run", "--preset", "table1", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == ["k", "kind", "l", "z_over_dF", "gain_db"]
    nulls = [r for r in rows if r[1] == "null"]
    assert sorted({float(r[2]) for r in nulls}) == [1.0, 2.0, 3.0, 4.0]
    assert all(r[4] == "-inf" for r in nulls)
    peaks = sorted({float(r[2]) for r in rows if r[1] == "lobe-peak"})
    assert peaks[0] == pytest.approx(1.4302966532641812, abs=1e-9)
    assert len(peaks) == 3


def test_plan_preset_matches_greedy_tiling(tmp_path):
    out = tmp_path / "plan.csv"
    assert run_cli("run", "--preset", "fig3", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == ["k", "F_over_dF", "zlo_over_dF", "zhi_over_dF"]
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
    assert float(rows[0][1]) == pytest.approx(2006.2936529596273, rel=1e-9)
    assert float(rows[0][3]) == pytest.approx(4000.0, rel=1e-9)
    # consecutive intervals touch without overlap
    for prev, cur in zip(rows, rows[1:]):
        assert float(cur[3]) == pytest.approx(float(prev[2]), rel=1e-9)


def test_gain_profile_config_writes_one_file_per_kind(tmp_path):
    d_f = tiny_d_f()
    cfg = {
        "geometry": TINY_GEOM,
        "experiment": "gain-profile",
        "sweep": {"z_min": "2 m", "z_max": "8 m", "n_points": 7,
                  "spacing": "log", "focus": "4 m",
                  "kinds": ["exact", "analytic"], "quad_order": 6,
                  "refinement": 0},
    }
    out = tmp_path / "prof.csv"
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(out)) == 0
    exact = tmp_path / "prof_exact.csv"
    analytic = tmp_path / "prof_analytic.csv"
    assert exact.exists() and analytic.exists()
    _, arows = read_rows(analytic)
    assert len(arows) == 7
    zs = np.array([float(r[0]) for r in arows]) * d_f
    gains = np.array([float(r[1]) for r in arows])
    assert zs[0] == pytest.approx(2.0, rel=1e-12)
    assert np.argmax(gains) == np.argmin(np.abs(zs - 4.0))
    _, erows = read_rows(exact)
    assert len(erows) == 7
    for (za,), (ze,) in zip([r[:1] for r in arows], [r[:1] for r in erows]):
        assert za == ze


@pytest.mark.parametrize("experiment, geometry, floor, d_f", [
    ("gain-profile", TINY_GEOM,
     1.2 * make_rect_array(8, 1.0, FixedElementDiagonal(0.025), LAM).aperture_len,
     tiny_d_f()),
    # circular apertures: 1.2 x the diameter; d_F of the default lambda/4
    # reference element
    ("circular-gain", CIRC_GEOM, 1.2 * (2 * 0.5), LAM / 8),
], ids=["gain-profile", "circular-gain"])
def test_gain_profile_clamps_reactive_points(tmp_path, capsys, experiment,
                                             geometry, floor, d_f):
    cfg = {
        "geometry": geometry,
        "experiment": experiment,
        "sweep": {"z_min": "0.1 m", "z_max": "4 m", "n_points": 12,
                  "spacing": "log", "focus": "2 m", "kinds": ["exact"],
                  "quad_order": 4, "refinement": 0},
    }
    out = tmp_path / "clamp.csv"
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert 0 < len(rows) < 12
    assert all(float(r[0]) * d_f >= floor * (1 - 1e-12) for r in rows)
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"{experiment}: kind 'exact': dropped {12 - len(rows)} of "
                   f"12 points below the radiative floor {floor!r} m"]


def test_slanted_analytic_profile_through_its_focus(tmp_path):
    """The middle point of this linear grid lies an ulp or so off the focus,
    where the slanted closed form once cancelled to a written gain of 0.0.  It
    now writes the d_eff = inf limit, to within 5e-14 relative (measured
    7.8e-15: the near-limit form rounds x v apart from the limit's p q)."""
    diag = 0.02498270483333333   # a quarter wavelength at 3 GHz
    geometry = dict(SQUARE_GEOM, sizing={"mode": "element-diag", "value": f"{diag} m"})
    cfg = {"geometry": geometry, "experiment": "gain-profile",
           "sweep": {"z_min": "100 dF", "z_max": "1000 dF", "n_points": 3,
                     "spacing": "linear", "focus": "550 dF", "kinds": ["analytic"],
                     "azimuth": 0.3}}
    out = tmp_path / "near_focus.csv"
    assert run_cli("run", "--config", write_config(tmp_path, cfg), "--out", str(out)) == 0
    _, rows = read_rows(out)
    arr = make_rect_array(100, 1.0, FixedElementDiagonal(diag), LAM)
    focus = 550 * arr.d_f
    limit = rect_gain_slanted(arr, TxGeometry(focus, azimuth=0.3), focus)
    assert rows[1][0] == "550.0"
    assert float(rows[1][1]) == pytest.approx(limit, rel=5e-14)


def test_circular_gain_honours_quadrature_keys(tmp_path, capsys):
    """The disk's exact kind integrates at the configured order: a coarse
    rule writes other gains, (8, 0) the default's order-16 gains, and a rule
    whose doublings still disagree at 122 wavelengths, just above the floor
    of a 50 lambda disk, fails numerically."""
    cfg = {
        "geometry": {"kind": "circ", "radius": f"{50 * LAM} m", "carrier_hz": 3e9},
        "experiment": "circular-gain",
        "sweep": {"z_min": f"{122 * LAM} m", "z_max": f"{1600 * LAM} m", "n_points": 5,
                  "focus": f"{1200 * LAM} m", "kinds": ["exact"]},
    }

    def gains(name, **quad):
        cfg["sweep"].update(quad)
        out = tmp_path / f"{name}.csv"
        assert run_cli("run", "--config", write_config(tmp_path, cfg, f"{name}.json"),
                       "--out", str(out)) == 0
        return np.array([float(r[1]) for r in read_rows(out)[1]])

    default = gains("default")
    coarse = gains("coarse", quad_order=2, refinement=0)
    assert 0 < np.max(np.abs(coarse - default)) < 1e-3
    npt.assert_array_equal(gains("fixed", quad_order=8, refinement=0), default)
    cfg["sweep"].update(quad_order=2, refinement=1)
    assert run_cli("run", "--config", write_config(tmp_path, cfg, "fail.json"),
                   "--out", str(tmp_path / "fail.csv")) == 3
    err = capsys.readouterr().err
    assert "sweep index 0: aperture quadrature did not converge" in err


def test_unit_suffixes_are_equivalent(tmp_path):
    d_f = tiny_d_f()
    base = {
        "geometry": TINY_GEOM,
        "experiment": "gain-profile",
        "sweep": {"n_points": 5, "spacing": "log", "focus": "4 m",
                  "kinds": ["analytic"]},
    }
    meters = json.loads(json.dumps(base))
    meters["sweep"].update({"z_min": f"{2 * d_f} m", "z_max": f"{40 * d_f} m"})
    ratios = json.loads(json.dumps(base))
    ratios["sweep"].update({"z_min": "2 dF", "z_max": "40 dF"})
    out_m = tmp_path / "m.csv"
    out_r = tmp_path / "r.csv"
    assert run_cli("run", "--config", write_config(tmp_path, meters, "m.json"),
                   "--out", str(out_m)) == 0
    assert run_cli("run", "--config", write_config(tmp_path, ratios, "r.json"),
                   "--out", str(out_r)) == 0
    assert out_m.read_bytes() == out_r.read_bytes()


def test_bare_number_distance_rejected(tmp_path, capsys):
    cfg = {
        "geometry": TINY_GEOM,
        "experiment": "gain-profile",
        "sweep": {"z_min": 2.0, "z_max": "8 m", "n_points": 3,
                  "focus": "4 m", "kinds": ["analytic"]},
    }
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "x.csv")) == 2
    assert "unit" in capsys.readouterr().err


@pytest.mark.parametrize("patch, fragment", [
    ({"experiment": "no-such-experiment"}, "unknown or missing experiment"),
    ({"sweep": {"eta_min": 0.5, "eta_max": 2.0, "n_points": 0}}, "n_points"),
    ({"sweep": {"eta_values": []}}, "empty"),
    ({"experiment": "sum-rate-vs-users", "geometry": SMALL_WIDE_GEOM,
      "sweep": {"k_max": 2, "n_trials": 0}}, "n_trials"),
    ({"sweep": {"eta_min": 0.5, "eta_max": 2.0, "n_points": 3, "spacing": "lgo"}},
     "unknown spacing 'lgo'"),
    ({"experiment": "sum-rate-vs-eta", "geometry": SMALL_WIDE_GEOM,
      "sweep": {"eta_values": [0.5, 1.0], "z_min": "1 dF"}},
     "eta 0.5: region starts below the boundary distance"),
    ({"experiment": "sum-rate-vs-users", "geometry": SMALL_WIDE_GEOM,
      "sweep": {"k_max": 2, "n_trials": 3, "z_max": "1e999 dF"}},
     "sweep.z_max: '1e999 dF' is not a finite number"),
    # one Monte Carlo pass serves every user count, so a region inside the
    # reactive near field is refused once, as sum-rate-vs-snr refuses it
    ({"experiment": "sum-rate-vs-users", "geometry": SMALL_WIDE_GEOM,
      "sweep": {"k_max": 2, "n_trials": 3, "z_min": "10 dF", "z_max": "150 dF"}},
     "region starts in the reactive near-field"),
    ({"geometry": dict(TINY_GEOM, sizing={"mode": "element-diag", "value": "1e999 m"})},
     "sizing.value: '1e999 m' is not a finite number"),
    ({"geometry": dict(TINY_GEOM, sizing={"mode": "aperture-area", "value": "1e999 m2"})},
     "sizing.value: '1e999 m2' is not a finite number"),
    # malformed numbers name their field instead of escaping as a traceback
    ({"geometry": dict(CIRC_GEOM, radius="1e m")}, "geometry.radius: cannot parse"),
    ({"geometry": dict(TINY_GEOM, n_per_side="abc")},
     "geometry.n_per_side: 'abc' is not a finite number"),
    ({"geometry": dict(TINY_GEOM, carrier_hz="x")},
     "geometry.carrier_hz: 'x' is not a finite number"),
    ({"geometry": dict(TINY_GEOM, sizing={"mode": "element-diag", "value": "- m"})},
     "sizing.value: cannot parse"),
    ({"sweep": {"eta_min": 0.5, "eta_max": 2.0, "n_points": None}},
     "sweep.n_points: None is not a finite number"),
    ({"experiment": "gain-profile",
      "sweep": {"z_min": "2 m", "z_max": "8 m", "n_points": 3, "focus": "4 m",
                "kinds": ["analytic"], "azimuth": [1]}},
     "sweep.azimuth: [1] is not a finite number"),
    # a profile's angle is one setting all its points share: refused once
    ({"experiment": "gain-profile",
      "sweep": {"z_min": "2 m", "z_max": "8 m", "n_points": 3, "focus": "4 m",
                "kinds": ["analytic"], "azimuth": 2.0}},
     "config error: sweep.azimuth must lie in (-pi/2, pi/2), got 2.0"),
    # projected gains take an azimuth only: no kind runs under an elevation
    ({"experiment": "gain-profile",
      "sweep": {"z_min": "2 m", "z_max": "8 m", "n_points": 3, "focus": "4 m",
                "kinds": ["steered", "projected"], "azimuth": 0.5, "elevation": 0.3}},
     "config error: sweep.elevation: projected gains take an azimuth only, got 0.3"),
    # non-finite sweep values are config errors, not numerical failures
    ({"experiment": "bd-vs-eta", "sweep": {"eta_values": [math.nan]}},
     "sweep.eta_values: nan is not a finite number"),
    ({"experiment": "bd-vs-phi", "sweep": {"phi_values": [math.nan], "focus": "4 m"}},
     "sweep.phi_values: nan is not a finite number"),
    ({"experiment": "sum-rate-vs-users", "geometry": SMALL_WIDE_GEOM,
      "sweep": {"k_max": 2, "n_trials": 3, "snr_db": math.nan}},
     "sweep.snr_db: nan is not a finite number"),
    ({"experiment": "sum-rate-vs-snr", "geometry": SMALL_WIDE_GEOM,
      "sweep": {"snr_values_db": [math.nan], "k_users": 2, "n_trials": 3}},
     "sweep.snr_values_db: nan is not a finite number"),
    # config values of the wrong shape name their field instead of crashing
    ({"geometry": 5}, "geometry must be an object, got 5"),
    ({"geometry": dict(TINY_GEOM, sizing=5)}, "geometry.sizing must be an object, got 5"),
    ({"experiment": "gain-profile",
      "sweep": {"z_min": "2 m", "z_max": "8 m", "n_points": 3, "focus": "4 m",
                "kinds": "exact"}},
     "sweep.kinds must be a non-empty list"),
    # integer fields refuse fractions instead of truncating them
    ({"sweep": {"eta_min": 0.5, "eta_max": 2.0, "n_points": 2.7}},
     "sweep.n_points must be an integer, got 2.7"),
    ({"geometry": dict(TINY_GEOM, n_per_side=4.5)},
     "geometry.n_per_side must be an integer, got 4.5"),
    ({"experiment": "lobe-catalog", "geometry": CIRC_GEOM,
      "sweep": {"k_max": 2.5, "focus": "4 m"}},
     "sweep.k_max must be an integer, got 2.5"),
    ({"experiment": "gain-profile",
      "sweep": {"z_min": "2 m", "z_max": "8 m", "n_points": 3, "focus": "4 m",
                "kinds": ["exact"], "quad_order": 2.5}},
     "sweep.quad_order must be an integer, got 2.5"),
    # an SNR whose linear power overflows is a config error, not a traceback
    ({"experiment": "sum-rate-vs-users", "geometry": SMALL_WIDE_GEOM,
      "sweep": {"k_max": 2, "n_trials": 3, "snr_db": 4000}},
     "sweep.snr_db must give a finite power"),
    ({"experiment": "sum-rate-vs-snr", "geometry": SMALL_WIDE_GEOM,
      "sweep": {"snr_values_db": [10.0, 4000], "k_users": 2, "n_trials": 3}},
     "sweep.snr_values_db must give a finite power"),
    ({"experiment": "multiplex-plan", "geometry": SMALL_WIDE_GEOM,
      "sweep": {"z_min": "150 dF", "z_max": "100 dF"}}, "sweep requires 0 < z_min < z_max"),
    ({"experiment": "sum-rate-vs-users", "geometry": SMALL_WIDE_GEOM,
      "sweep": {"k_min": 3, "k_max": 2, "n_trials": 3}}, "sweep requires 1 <= k_min <= k_max"),
])
def test_config_validation_failures(tmp_path, capsys, patch, fragment):
    cfg = {
        "geometry": TINY_GEOM,
        "experiment": "a3db-curve",
        "sweep": {"eta_min": 0.5, "eta_max": 2.0, "n_points": 3},
    }
    cfg.update(patch)
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "x.csv")) == 2
    assert fragment in capsys.readouterr().err


# a misspelt optional key at each level, which no run ever read
TYPOS = {"bogus_top": 1, "geometry": {"etaa": 5}, "sweep": {"spacingg": "linear"}}
TYPO_FRAGMENTS = ["bogus_top", "geometry.etaa (did you mean geometry.eta?)",
                  "sweep.spacingg (did you mean sweep.spacing?)"]


def test_misspelt_keys_are_refused_with_suggestions(tmp_path, capsys):
    cfg = {"geometry": dict(TINY_GEOM, **TYPOS["geometry"]), "experiment": "a3db-curve",
           "sweep": {"eta_min": 0.5, "eta_max": 2.0, "n_points": 3, **TYPOS["sweep"]},
           "bogus_top": 1}
    out = tmp_path / "x.csv"
    assert run_cli("run", "--config", write_config(tmp_path, cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert all(fragment in err for fragment in TYPO_FRAGMENTS), err
    assert not out.exists()


def test_misspelt_keys_over_a_preset_are_refused(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli("run", "--preset", "fig6", "--config", write_config(tmp_path, TYPOS),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert all(fragment in err for fragment in TYPO_FRAGMENTS), err
    assert not out.exists()


def test_config_switching_a_presets_experiment_drops_its_keys(tmp_path, capsys):
    """A config naming another experiment replaces the preset's sweep, and one
    naming another geometry kind its geometry: fig14's circular geometry and
    profile sweep do not reach an a3db-curve run on a rectangular array."""
    cfg = {"geometry": TINY_GEOM, "experiment": "a3db-curve",
           "sweep": {"eta_min": 0.5, "eta_max": 2.0, "n_points": 3}}
    out = tmp_path / "switched.csv"
    assert run_cli("run", "--preset", "fig14", "--config", write_config(tmp_path, cfg),
                   "--out", str(out)) == 0, capsys.readouterr().err
    header, rows = read_rows(out)
    assert header == ["eta", "a3db", "product"] and len(rows) == 3


PROFILE_SWEEP = {"z_min": "2 m", "z_max": "8 m", "n_points": 3, "focus": "4 m"}


@pytest.mark.parametrize("patch, argv, fragment", [
    ({"output": 5}, [], "output must be a non-empty string, got 5"),
    ({"seed": -1}, ["--seed", "3"], "seed must be at least 0, got -1"),
    ({"sweep": {"eta_values": [1.0], "eta_min": 0.5, "eta_max": 2.0, "n_points": 3}}, [],
     "sweep.eta_values and sweep.eta_min, sweep.eta_max, sweep.n_points both set"),
    ({"experiment": "bd-vs-phi",
      "sweep": {"phi_values": [0.1], "phi_max": 0.5, "focus": "4 m"}}, [],
     "sweep.phi_values and sweep.phi_max both set"),
    ({"experiment": "sum-rate-vs-snr", "geometry": SMALL_WIDE_GEOM,
      "sweep": {"snr_values_db": [10.0], "n_points": 2}}, [],
     "sweep.snr_values_db and sweep.n_points both set"),
    ({"experiment": "gain-profile",
      "sweep": dict(PROFILE_SWEEP, kinds=["analytic", "bogus"])}, [],
     "sweep.kinds: unknown kinds 'bogus'"),
    ({"experiment": "gain-profile", "geometry": CIRC_GEOM,
      "sweep": dict(PROFILE_SWEEP, kinds=["analytic", "steered"])}, [],
     "unknown kinds 'steered'; must be one of exact, analytic"),
    ({"experiment": "bd-vs-eta",
      "sweep": {"eta_values": [1.0], "sizing_modes": ["aperture-area", "aperture-area"]}},
     [], "sweep.sizing_modes: ['aperture-area', 'aperture-area'] names an entry twice"),
    ({"experiment": "finite-limit-curve",
      "sweep": {"eta_values": [1.0], "sizing_mode": "element-diag"}}, [],
     "sweep.sizing_mode: unknown sizing_mode 'element-diag'; "
     "must be one of aperture-area, aperture-length"),
    # a length must be positive: refused once, naming its key
    ({"experiment": "circular-gain", "geometry": dict(CIRC_GEOM, ref_elem_diag="-0.025 m"),
      "sweep": dict(PROFILE_SWEEP, kinds=["analytic"])}, [],
     "geometry.ref_elem_diag must be > 0, got -0.025"),
    ({"experiment": "gain-profile", "sweep": dict(PROFILE_SWEEP, focus="-5 dF",
                                                  kinds=["analytic"])}, [],
     "sweep.focus must be > 0, got -"),
    ({"experiment": "projection-error",
      "sweep": {"phi_values": [0.1], "dist": "-1000 dF", "focus": "4 m"}}, [],
     "sweep.dist must be > 0, got -"),
    ({"experiment": "distance-error", "sweep": {"phi_values": [0.1], "dist": "-1000 dF"}},
     [], "sweep.dist must be > 0, got -"),
], ids=["output-not-a-string", "seed-overridden", "eta-list-and-range",
        "phi-list-and-range", "snr-list-and-range", "unknown-kind",
        "kind-of-another-geometry", "sizing-mode-twice", "sizing-mode-not-rebuilt",
        "negative-ref-elem-diag", "negative-focus", "negative-projection-dist",
        "negative-distance-error-dist"])
def test_config_refused_before_any_row(tmp_path, monkeypatch, capsys, patch, argv,
                                       fragment):
    monkeypatch.chdir(tmp_path)
    cfg = {"geometry": TINY_GEOM, "experiment": "a3db-curve",
           "sweep": {"eta_min": 0.5, "eta_max": 2.0, "n_points": 3}}
    cfg.update(patch)
    assert run_cli("run", "--config", write_config(tmp_path, cfg), *argv) == 2
    assert fragment in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_readme_lists_each_experiments_sweep_keys():
    """The README's sweep keys column names each declared key with its default:
    `key` required, `key=value` a JSON default, `key?` optional."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = {}
    for line in readme.split("### Experiments", 1)[1].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].strip("`") in EXPERIMENTS:
            keys = {}
            for key in re.findall(r"`([^`]+)`", cells[2]):
                name, _, default = key.partition("=")
                keys[name.rstrip("?")] = (json.loads(default) if default
                                          else None if name.endswith("?") else "required")
            listed[cells[0].strip("`")] = keys
    assert listed == {name: {key: "required" if default is cli._REQUIRED else default
                             for key, default in entry[4].items()}
                      for name, entry in cli._TABLE.items()}


@pytest.mark.parametrize("drop, fragment", [
    (("geometry",), "missing required field geometry"),
    (("experiment",), "missing required field experiment"),
    (("geometry", "sizing", "value"), "missing required field geometry.sizing.value"),
    # a range grid needs all three of its keys
    (("sweep", "n_points"), "missing required field sweep.n_points"),
    (("sweep", "eta_min"), "missing required field sweep.eta_min"),
])
def test_missing_required_fields(tmp_path, capsys, drop, fragment):
    cfg = {"geometry": json.loads(json.dumps(TINY_GEOM)), "experiment": "a3db-curve",
           "sweep": {"eta_min": 0.5, "eta_max": 2.0, "n_points": 3}}
    section = cfg
    for key in drop[:-1]:
        section = section[key]
    del section[drop[-1]]
    out = tmp_path / "x.csv"
    assert run_cli("run", "--config", write_config(tmp_path, cfg), "--out", str(out)) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_config_path(tmp_path, capsys):
    assert run_cli("run", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "x.csv")) == 2
    assert "config error: cannot read config: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_unwritable_output_path(tmp_path, capsys):
    cfg = {"geometry": TINY_GEOM, "experiment": "a3db-curve",
           "sweep": {"eta_min": 0.5, "eta_max": 2.0, "n_points": 3}}
    out = tmp_path / "no-such-dir" / "x.csv"
    assert run_cli("run", "--config", write_config(tmp_path, cfg), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert "config error: cannot write output: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("experiment, sweep", [
    ("sum-rate-vs-snr", {"snr_values_db": [10.0, 20.0], "n_trials": 2}),
    ("sum-rate-vs-phi", {"phi_values": [0.0, 0.3]}),
])
def test_planned_rows_never_take_fewer_users_than_k_users(tmp_path, capsys, experiment,
                                                          sweep):
    """On a 100x100 half-wavelength array the region 200.5-202 dF fits one
    focal point: asked for 3 users, the run is refused before any file is
    written, instead of writing planned rows of 1 user."""
    cfg = {"geometry": dict(SMALL_WIDE_GEOM, n_per_side=100), "experiment": experiment,
           "sweep": dict(sweep, k_users=3, z_min="200.5 dF", z_max="202 dF")}
    out = tmp_path / "x.csv"
    assert run_cli("run", "--config", write_config(tmp_path, cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "config error: sweep.k_users: 3 users asked for, but the region 200.5 dF to " \
           "202 dF (" in err
    assert err.rstrip().endswith(") fits 1")
    assert not out.exists()


def test_failing_kind_leaves_no_output_of_an_earlier_kind(tmp_path, monkeypatch, capsys):
    """Every output's rows are computed before any file is opened: a later
    kind that exits 2 (no point beyond the radiative floor) or 3 (a failing
    point) leaves no file of the kinds before it."""
    geometry = dict(SQUARE_GEOM, sizing={"mode": "element-diag", "value": "0.025 m"})
    cfg = {"geometry": geometry, "experiment": "gain-profile",
           "sweep": {"z_min": "10 dF", "z_max": "50 dF", "n_points": 5, "focus": "30 dF",
                     "kinds": ["analytic", "exact"]}}
    out = tmp_path / "out" / "x.csv"
    out.parent.mkdir()
    path = write_config(tmp_path, cfg)
    assert run_cli("run", "--config", path, "--out", str(out)) == 2
    assert "sweep range is entirely below the radiative floor for kind 'exact'" in \
        capsys.readouterr().err
    assert os.listdir(out.parent) == []

    profile = cli.gain_profile

    def failing(kind, *args, **kwargs):
        if kind == "exact":
            raise SweepEvalError([(2, ValueError("boom"))])
        return profile(kind, *args, **kwargs)

    monkeypatch.setattr(cli, "gain_profile", failing)
    cfg["sweep"].update(z_min="2 m", z_max="8 m", focus="4 m")
    assert run_cli("run", "--config", write_config(tmp_path, cfg), "--out", str(out)) == 3
    assert "sweep index 2: boom" in capsys.readouterr().err
    assert os.listdir(out.parent) == []


@pytest.mark.parametrize("mode, sizing", [("aperture-area", FixedApertureArea),
                                          ("aperture-length", FixedApertureLength)])
def test_finite_limit_curve_rows(tmp_path, mode, sizing):
    """Each row is finite_bd_limit_rect / d_F of the array rebuilt at its eta
    with the base array's aperture area or length held fixed."""
    etas = [0.2, 1.0, 3.0]
    cfg = {"geometry": SQUARE_GEOM, "experiment": "finite-limit-curve",
           "sweep": {"eta_values": etas, "sizing_mode": mode}}
    out = tmp_path / "limit.csv"
    assert run_cli("run", "--config", write_config(tmp_path, cfg), "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == ["eta", "limit_over_dF"]
    base = make_rect_array(100, 1.0, FixedElementDiagonal(0.25 * LAM), LAM)
    held = base.aperture_area if mode == "aperture-area" else base.aperture_len
    expected = []
    for eta in etas:
        arr = make_rect_array(100, eta, sizing(held), LAM)
        expected.append([repr(eta), repr(finite_bd_limit_rect(arr) / arr.d_f)])
    assert rows == expected


def test_run_without_config_or_preset(capsys):
    assert run_cli("run") == 2
    assert "config" in capsys.readouterr().err


def test_unknown_preset(capsys):
    assert run_cli("run", "--preset", "nope") == 2
    assert "unknown preset" in capsys.readouterr().err


def test_malformed_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("run", "--config", str(path)) == 2
    assert "JSON" in capsys.readouterr().err


# experiment -> (geometry kind it needs, a sweep it would otherwise accept)
KIND_BOUND = {
    "lobe-catalog": ("circ", {"k_max": 3, "focus": "4 m"}),
    "circular-gain": ("circ", {"z_min": "2 m", "z_max": "8 m",
                               "n_points": 3, "focus": "4 m",
                               "kinds": ["analytic"]}),
    "bd-vs-eta": ("rect", {"eta_values": [1.0]}),
    "bd-vs-phi": ("rect", {"phi_values": [0.1], "focus": "4 m"}),
    "finite-limit-curve": ("rect", {"eta_values": [1.0]}),
    "distance-error": ("rect", {"phi_values": [0.1]}),
    "projection-error": ("rect", {"phi_values": [0.1], "dist": "4 m",
                                  "focus": "4 m"}),
    "multiplex-plan": ("rect", {}),
    "sum-rate-vs-snr": ("rect", {"snr_values_db": [10.0], "n_trials": 2}),
    "sum-rate-vs-users": ("rect", {"k_max": 2, "n_trials": 2}),
    "sum-rate-vs-eta": ("rect", {"eta_values": [1.0]}),
    "sum-rate-vs-phi": ("rect", {"phi_values": [0.1]}),
}


@pytest.mark.parametrize("experiment", list(KIND_BOUND))
def test_geometry_kind_mismatch(tmp_path, capsys, experiment):
    need, sweep = KIND_BOUND[experiment]
    cfg = {
        "geometry": TINY_GEOM if need == "circ" else CIRC_GEOM,
        "experiment": experiment,
        "sweep": sweep,
    }
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "x.csv")) == 2
    assert f"{experiment} requires a {need} geometry" in capsys.readouterr().err


def test_numerical_failure_reports_sweep_indices(tmp_path, capsys):
    cfg = {
        "geometry": TINY_GEOM,
        "experiment": "projection-error",
        "sweep": {"phi_values": [0.0, 0.3], "dist": "0.05 m",
                  "focus": "4 m"},
    }
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "x.csv")) == 3
    err = capsys.readouterr().err
    assert "sweep index 0" in err
    assert "sweep index 1" in err


@pytest.mark.parametrize("experiment, sweep", [
    ("bd-vs-phi", {"focus": "4 m"}),
    # read as an azimuth before d_B / cos(phi) makes it a negative distance
    ("distance-error", {}),
    # read before the batched steered and projected gains of every azimuth
    ("projection-error", {"dist": "4 m", "focus": "4 m"}),
])
def test_swept_azimuth_out_of_range_fails_at_its_index(tmp_path, capsys, experiment,
                                                        sweep):
    """A swept azimuth is one point's input: an entry outside (-pi/2, pi/2)
    fails alone, with its sweep index, as a swept eta does."""
    cfg = {"geometry": TINY_GEOM, "experiment": experiment,
           "sweep": dict(sweep, phi_values=[0.1, 2.0])}
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "x.csv")) == 3
    err = capsys.readouterr().err
    assert "sweep index 1: azimuth must lie in (-pi/2, pi/2), got 2.0" in err
    assert "sweep index 0" not in err


BEYOND = "is beyond the phase-resolution range"


@pytest.mark.parametrize("geometry, experiment, sweep, failed, message", [
    (TINY_GEOM, "gain-profile",
     {"z_min": "1 m", "z_max": "1e300 m", "n_points": 3, "focus": "4 m"}, [1, 2], BEYOND),
    (CIRC_GEOM, "circular-gain",
     {"z_min": "2 m", "z_max": "1e300 m", "n_points": 3, "focus": "4 m"}, [1, 2], BEYOND),
    (TINY_GEOM, "projection-error",
     {"phi_values": [0.0, 0.3], "dist": "1e160 m", "focus": "4 m"}, [0, 1], BEYOND),
    (TINY_GEOM, "distance-error", {"phi_values": [0.0, 0.3], "dist": "1e160 m"}, [0, 1],
     "tx: squared distances overflow at 1e+160 m"),
])
def test_far_transmitters_fail_at_their_indices(tmp_path, capsys, geometry, experiment,
                                                sweep, failed, message):
    """A transmitter too far for float64 fails its point with a ValueError, not
    a traceback or a quadrature fault, and no RuntimeWarning escapes."""
    cfg = {"geometry": geometry, "experiment": experiment, "sweep": sweep}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("run", "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path / "x.csv")) == 3
    lines = capsys.readouterr().err.splitlines()
    assert [int(line.split(":")[0].split()[-1]) for line in lines] == failed
    assert all(message in line for line in lines)


def test_planning_failure_reports_sweep_index(tmp_path, capsys):
    """No array has eta = 1e200, where 1 + eta^2 overflows to zero-width
    elements: the point fails alone, with its sweep index.  The array is
    100x100 because on 20x20 every region between d_B and the finite-depth
    limit puts a focus in the reactive near field."""
    cfg = {
        "geometry": dict(SMALL_WIDE_GEOM, n_per_side=100),
        "experiment": "sum-rate-vs-eta",
        "sweep": {"eta_values": [1.0, 1e200], "z_min": "200.5 dF",
                  "z_max": "202 dF"},
    }
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "x.csv")) == 3
    err = capsys.readouterr().err
    assert "sweep index 1: eta 1e+200: element side must be > 0" in err
    assert "sweep index 0" not in err


@pytest.mark.parametrize("experiment", ["multiplex-plan", "sum-rate-vs-eta"])
def test_reactive_plan_is_a_config_error(tmp_path, capsys, experiment):
    """On a 20x20 half-wavelength array this region plans a focus at 1.005 m,
    inside the 1.2 m radiative floor."""
    sweep = {"z_min": "40.05 dF", "z_max": "40.2 dF"}
    if experiment == "sum-rate-vs-eta":
        sweep["eta_values"] = [1.0, 2.0]
    cfg = {"geometry": SMALL_WIDE_GEOM, "experiment": experiment, "sweep": sweep}
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "x.csv")) == 2
    err = capsys.readouterr().err
    assert "below the radiative floor" in err
    assert "sweep index" not in err


def test_config_merges_over_preset(tmp_path):
    override = {"sweep": {"n_points": 5}}
    out = tmp_path / "merged.csv"
    assert run_cli("run", "--preset", "fig10",
                   "--config", write_config(tmp_path, override),
                   "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert len(rows) == 5
    assert float(rows[0][0]) == pytest.approx(0.1)
    assert float(rows[-1][0]) == pytest.approx(10.0)
    # a descending range keeps its order under either spacing
    for spacing, middle in (("log", 1.0), ("linear", 5.05)):
        override = {"sweep": {"eta_min": 10.0, "eta_max": 0.1, "n_points": 3,
                              "spacing": spacing}}
        assert run_cli("run", "--preset", "fig10",
                       "--config", write_config(tmp_path, override),
                       "--out", str(out)) == 0
        _, rows = read_rows(out)
        assert [float(r[0]) for r in rows] == pytest.approx([10.0, middle, 0.1])


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", "--preset", "fig10") == 0
    assert (tmp_path / "fig10.csv").exists()


def test_seed_override_lands_in_rows(tmp_path):
    cfg = {
        "geometry": {"kind": "rect", "n_per_side": 20, "eta": 1.0,
                     "sizing": {"mode": "element-diag",
                                "value": f"{0.5 * LAM} m"},
                     "carrier_hz": 3e9},
        "experiment": "sum-rate-vs-users",
        "sweep": {"k_min": 1, "k_max": 2, "snr_db": 10.0, "n_trials": 4,
                  "z_min": "40 dF", "z_max": "150 dF"},
    }
    path = write_config(tmp_path, cfg)
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert run_cli("run", "--config", path, "--out", str(out1),
                   "--seed", "7") == 0
    assert run_cli("run", "--config", path, "--out", str(out2),
                   "--seed", "8") == 0
    _, rows1 = read_rows(out1)
    _, rows2 = read_rows(out2)
    assert all(r[-1] == "7" for r in rows1)
    assert all(r[-1] == "8" for r in rows2)
    assert [r[3] for r in rows1] != [r[3] for r in rows2]


def test_main_parses_with_one_parser_and_no_carried_state(tmp_path, monkeypatch, capsys):
    """Repeated main calls build one argument parser, on the first call, and
    no parse carries over to the next: a --seed given to one run is absent
    from the next, and presets followed by run still runs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    try:
        cfg = {"geometry": SMALL_WIDE_GEOM, "experiment": "sum-rate-vs-users",
               "sweep": {"k_min": 1, "k_max": 2, "snr_db": 10.0, "n_trials": 4,
                         "z_min": "40 dF", "z_max": "150 dF"}}
        path = write_config(tmp_path, cfg)
        seeded, unseeded, after = (tmp_path / f"{n}.csv" for n in ("a", "b", "c"))
        assert run_cli("run", "--config", path, "--out", str(seeded), "--seed", "7") == 0
        assert run_cli("run", "--config", path, "--out", str(unseeded)) == 0
        assert run_cli("presets") == 0
        assert "fig2" in capsys.readouterr().out
        assert run_cli("run", "--config", path, "--out", str(after)) == 0
    finally:
        cli._parser.cache_clear()
    assert built.count("nearfield-bd") == 1
    assert {r[-1] for r in read_rows(seeded)[1]} == {"7"}
    assert {r[-1] for r in read_rows(unseeded)[1]} == {str(cli.DEFAULT_SEED)}
    assert read_rows(after) == read_rows(unseeded)


PROFILE_AT = {"z_min": "2 m", "z_max": "8 m", "n_points": 6, "focus": "4 m",
              "quad_order": 4, "refinement": 0}
# name -> (geometry, experiment, sweep, worker pools a threaded run opens)
THREAD_POLICY = {
    **{f"gain-profile-{kind}": (TINY_GEOM, "gain-profile",
                                dict(PROFILE_AT, azimuth=0.2, kinds=[kind]), 0)
       for kind in ("exact", "steered", "projected", "analytic")},
    "circular-gain": (CIRC_GEOM, "circular-gain",
                      dict(PROFILE_AT, kinds=["exact", "analytic"]), 0),
    "bd-vs-eta": (TINY_GEOM, "bd-vs-eta", {"eta_values": [0.5, 1.0, 2.0]}, 0),
    "a3db-curve": (TINY_GEOM, "a3db-curve",
                   {"eta_min": 0.2, "eta_max": 5.0, "n_points": 9}, 0),
    "projection-error": (TINY_GEOM, "projection-error",
                         {"phi_values": [0.0, 0.2, 0.4], "dist": "4 m", "focus": "4 m",
                          "quad_order": 4, "refinement": 0}, 0),
    "distance-error": (TINY_GEOM, "distance-error", {"phi_values": [0.0, 0.2, 0.4]}, 0),
    # random rows take one pass over the SNR grid, not one thread per SNR;
    # 100x100, since no region of the 20x20 array plans outside its floor,
    # over a region that plans the k_users 3 (200.5-202 dF plans 1)
    "sum-rate-vs-snr": (dict(SMALL_WIDE_GEOM, n_per_side=100), "sum-rate-vs-snr",
                        {"snr_values_db": [0.0, 10.0, 20.0], "k_users": 3,
                         "n_trials": 4, "z_min": "200.5 dF", "z_max": "1000 dF"}, 0),
    # every user count takes one pass over one seeded draw, not one thread
    # per count
    "sum-rate-vs-users": (SMALL_WIDE_GEOM, "sum-rate-vs-users",
                          {"k_min": 1, "k_max": 4, "snr_db": 10.0, "n_trials": 4,
                           "z_min": "40 dF", "z_max": "150 dF"}, 0),
    "sum-rate-vs-eta": (dict(SMALL_WIDE_GEOM, n_per_side=100), "sum-rate-vs-eta",
                        {"eta_values": [1.0, 2.0], "z_min": "200.5 dF",
                         "z_max": "202 dF"}, 1),
    "sum-rate-vs-phi": (dict(SMALL_WIDE_GEOM, n_per_side=60), "sum-rate-vs-phi",
                        {"phi_values": [0.0, 0.6]}, 1),
}


@pytest.mark.parametrize("name", list(THREAD_POLICY))
def test_threads_split_only_the_rate_rows(tmp_path, monkeypatch, name):
    """--threads opens one worker pool, over the rows of the planned rate
    sweeps (eta and phi); every gain, depth, error and Monte Carlo sweep runs
    in the calling thread at any count. Either way the run writes the bytes of
    --threads 1."""
    geometry, experiment, sweep, pools = THREAD_POLICY[name]
    opened = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(gain_engine, "ThreadPoolExecutor", CountingPool)
    path = write_config(tmp_path, {"geometry": geometry, "experiment": experiment,
                                   "sweep": sweep})
    threads = "2" if pools else "4"
    written = []
    for count in ("1", threads):
        opened.clear()
        out = tmp_path / count / "out.csv"
        out.parent.mkdir()
        assert run_cli("run", "--config", path, "--out", str(out),
                       "--threads", count) == 0
        assert len(opened) == (pools if count == threads else 0)
        written.append(sorted((p.name, p.read_bytes()) for p in out.parent.iterdir()))
    assert written[0] == written[1]


def test_thread_count_must_be_a_positive_integer(tmp_path, capsys):
    cfg = {"geometry": TINY_GEOM, "experiment": "a3db-curve",
           "sweep": {"eta_min": 0.5, "eta_max": 2.0, "n_points": 3}}
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "x.csv"), "--threads", "0") == 2
    assert "--threads must be at least 1, got 0" in capsys.readouterr().err


def test_config_threads_key_refused(tmp_path, capsys):
    """The thread count comes from --threads alone: a config key naming it is
    refused as unknown, also where --threads is given."""
    cfg = {"geometry": TINY_GEOM, "experiment": "a3db-curve", "threads": 2,
           "sweep": {"eta_min": 0.5, "eta_max": 2.0, "n_points": 3}}
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "x.csv"), "--threads", "1") == 2
    assert "unknown key threads" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_sum_rate_falls_with_common_azimuth(tmp_path):
    """Planned users at one azimuth see the projected aperture: the common
    linear phase cancels, the compressed width does not, so the rate falls."""
    phis = [0.0, 0.3, 0.6, 1.0, 1.3]
    cfg = {
        "geometry": dict(SMALL_WIDE_GEOM, n_per_side=60),
        "experiment": "sum-rate-vs-phi",
        "sweep": {"phi_values": phis},
    }
    out = tmp_path / "phi.csv"
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert [float(r[0]) for r in rows] == phis
    assert all(r[2] == "2" for r in rows)
    rates = [float(r[4]) for r in rows]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    npt.assert_allclose(rates, [38.0703, 38.0205, 37.8494, 37.5368, 37.4439],
                        rtol=0, atol=1e-4)


def test_distance_error_config(tmp_path):
    cfg = {
        "geometry": TINY_GEOM,
        "experiment": "distance-error",
        "sweep": {"phi_values": [0.0, 0.2, 0.4]},
    }
    out = tmp_path / "derr.csv"
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == ["phi", "direct_err_m", "indirect_err_m"]
    assert len(rows) == 3
    for row in rows:
        direct, indirect = float(row[1]), float(row[2])
        assert math.isfinite(direct) and direct >= 0
        assert indirect <= direct * (1 + 1e-9) + 1e-18


def test_bd_vs_eta_dual_sizing_files(tmp_path):
    cfg = {
        "geometry": SQUARE_GEOM,
        "experiment": "bd-vs-eta",
        "sweep": {"eta_values": [0.5, 1.0, 2.0],
                  "sizing_modes": ["aperture-area", "aperture-length"]},
    }
    out = tmp_path / "bd.csv"
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(out)) == 0
    for suffix in ("aperture-area", "aperture-length"):
        path = tmp_path / f"bd_{suffix}.csv"
        header, rows = read_rows(path)
        assert header == ["eta", "F_over_dF", "bd_over_dF", "finite"]
        assert [float(r[0]) for r in rows] == [0.5, 1.0, 2.0]
        assert all(r[3] == "1" for r in rows)
    area = read_rows(tmp_path / "bd_aperture-area.csv")[1]
    # fixed-area sizing keeps the eta <-> 1/eta symmetry exact
    assert float(area[0][2]) == pytest.approx(float(area[2][2]), rel=1e-9)


def test_module_entrypoint_runs():
    # the child imports the same package as this test, also under a bare pytest
    src = os.path.dirname(os.path.dirname(nearfield_bd.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "nearfield_bd.cli", "presets"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "fig2" in proc.stdout


@pytest.mark.parametrize("preset", ["fig4", "fig5", "fig13"])
def test_rate_rows_independent_of_blas_threads(tmp_path, preset):
    """Sum-rate presets (planned rows in fig4 and fig13, Monte Carlo rows in
    fig4 and fig5) write the same bytes with BLAS pinned to one and to two
    threads."""
    src = os.path.dirname(os.path.dirname(nearfield_bd.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{preset}-{threads}.csv"
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "nearfield_bd.cli", "run",
                               "--preset", preset, "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
