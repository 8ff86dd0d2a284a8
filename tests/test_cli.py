import json
import math
import subprocess
import sys

import numpy as np
import pytest

from nearfield_bd import __version__
from nearfield_bd.array_geometry import (
    FixedElementDiagonal,
    characteristic_distances,
    make_rect_array,
    wavelength_from_carrier,
)
from nearfield_bd.cli import EXPERIMENTS, build_presets, main

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
    return characteristic_distances(arr, 1.25).d_f


def test_presets_command_lists_everything(capsys):
    assert run_cli("presets") == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == sorted(build_presets())
    assert len(names) == 14
    for line in out.strip().splitlines():
        assert line.split()[1] in EXPERIMENTS


def test_presets_all_reference_known_experiments():
    for name, preset in build_presets().items():
        assert preset["experiment"] in EXPERIMENTS, name
        assert preset["description"]


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


def test_gain_profile_clamps_reactive_points(tmp_path, capsys):
    cfg = {
        "geometry": TINY_GEOM,
        "experiment": "gain-profile",
        "sweep": {"z_min": "0.1 m", "z_max": "4 m", "n_points": 12,
                  "spacing": "log", "focus": "2 m", "kinds": ["exact"],
                  "quad_order": 4, "refinement": 0},
    }
    out = tmp_path / "clamp.csv"
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(out)) == 0
    _, rows = read_rows(out)
    floor = 1.2 * make_rect_array(8, 1.0, FixedElementDiagonal(0.025),
                                  LAM).aperture_len
    assert 0 < len(rows) < 12
    assert all(float(r[0]) * tiny_d_f() >= floor * (1 - 1e-12) for r in rows)
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"gain-profile: kind 'exact': dropped {12 - len(rows)} of "
                   f"12 points below the radiative floor {floor!r} m"]


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
    ({"geometry": dict(TINY_GEOM, sizing={"mode": "element-diag", "value": "1e999 m"})},
     "sizing.value: '1e999 m' is not a finite number"),
    ({"geometry": dict(TINY_GEOM, sizing={"mode": "aperture-area", "value": "1e999 m2"})},
     "sizing.value: '1e999 m2' is not a finite number"),
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


def test_planning_failure_reports_sweep_index(tmp_path, capsys):
    """solve_a3db cannot bracket eta = 1e7: a numerical fault, not a config one."""
    cfg = {
        "geometry": SMALL_WIDE_GEOM,
        "experiment": "sum-rate-vs-eta",
        "sweep": {"eta_values": [1.0, 1e7], "z_min": "40.05 dF",
                  "z_max": "40.2 dF"},
    }
    assert run_cli("run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "x.csv")) == 3
    err = capsys.readouterr().err
    assert "sweep index 1: bracketing failure" in err
    assert "sweep index 0" not in err


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


def test_threads_env_and_flag(tmp_path, monkeypatch):
    configs = [{
        "geometry": TINY_GEOM,
        "experiment": "gain-profile",
        "sweep": {"z_min": "2 m", "z_max": "8 m", "n_points": 6,
                  "spacing": "log", "focus": "4 m", "kinds": ["exact"],
                  "quad_order": 4, "refinement": 0},
    }, {
        "geometry": TINY_GEOM,
        "experiment": "a3db-curve",
        "sweep": {"eta_min": 0.2, "eta_max": 5.0, "n_points": 9},
    }, {
        "geometry": SMALL_WIDE_GEOM,
        "experiment": "sum-rate-vs-users",
        "sweep": {"k_min": 1, "k_max": 4, "snr_db": 10.0, "n_trials": 4,
                  "z_min": "40 dF", "z_max": "150 dF"},
    }]
    for cfg in configs:
        name = cfg["experiment"]
        path = write_config(tmp_path, cfg, f"{name}.json")
        serial = tmp_path / f"{name}-serial.csv"
        flag = tmp_path / f"{name}-flag.csv"
        env = tmp_path / f"{name}-env.csv"
        monkeypatch.delenv("NEARFIELD_BD_THREADS", raising=False)
        assert run_cli("run", "--config", path, "--out", str(serial)) == 0
        assert run_cli("run", "--config", path, "--out", str(flag),
                       "--threads", "2") == 0
        monkeypatch.setenv("NEARFIELD_BD_THREADS", "3")
        assert run_cli("run", "--config", path, "--out", str(env)) == 0
        assert serial.read_bytes() == flag.read_bytes() == env.read_bytes()


def test_bad_threads_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NEARFIELD_BD_THREADS", "many")
    assert run_cli("run", "--preset", "fig10",
                   "--out", str(tmp_path / "x.csv")) == 2
    assert "NEARFIELD_BD_THREADS" in capsys.readouterr().err


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
    proc = subprocess.run([sys.executable, "-m", "nearfield_bd.cli",
                           "presets"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fig2" in proc.stdout
