"""Tests of the benchmark's own logic (not part of the package test suite).

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_always_generates_identical_configs(workload):
    first = json.dumps(workloads.generate(workload, 7), sort_keys=True)
    again = json.dumps(workloads.generate(workload, 7), sort_keys=True)
    assert first == again


def _grids(configs):
    """Every drawn number of a workload's configs, in order."""
    out = []
    for cfg in configs:
        for key, value in sorted(cfg["config"]["sweep"].items()):
            if isinstance(value, list) and value and isinstance(value[0], float):
                out.extend(value)
            elif isinstance(value, (float, str)) and key != "spacing":
                out.append(value)
        out.append(cfg["config"]["geometry"].get("eta"))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_generate_different_grids(workload):
    grids = [_grids(workloads.generate(workload, seed)) for seed in range(5)]
    for i in range(len(grids)):
        for j in range(i + 1, len(grids)):
            assert grids[i] != grids[j]


def test_workloads_do_not_share_draws():
    a = workloads.generate("exact-broadside", 3)[0]["config"]["geometry"]["eta"]
    b = workloads.generate("exact-steered", 3)[0]["config"]["geometry"]["eta"]
    assert a != b


def test_closed_form_grids_are_log_uniform_in_range():
    for seed in range(20):
        etas = workloads.generate("closed-form", seed)[0]["config"]["sweep"]["eta_values"]
        assert len(set(etas)) == workloads.N_ETAS
        assert all(0.1 <= e <= 10.0 for e in etas)
        assert etas == sorted(etas)


@pytest.mark.parametrize("seed", range(30))
def test_quadrature_sweeps_start_above_the_radiative_floor(seed):
    for workload in ("exact-broadside", "exact-steered"):
        for cfg in workloads.generate(workload, seed):
            geometry = cfg["config"]["geometry"]
            sweep = cfg["config"]["sweep"]
            z_min = float(sweep["z_min"].split()[0])
            if geometry["kind"] == "circ":
                floor = workloads.disk_floor_df(12.5)
            else:
                floor = workloads.radiative_floor_df(geometry["n_per_side"], 0.25)
            assert z_min > floor
            assert float(sweep["z_max"].split()[0]) > z_min


def test_steered_workload_angles_are_both_nonzero():
    for seed in range(30):
        for cfg in workloads.generate("exact-steered", seed):
            sweep = cfg["config"]["sweep"]
            assert abs(sweep["azimuth"]) >= 0.05
            assert abs(sweep["elevation"]) >= 0.05


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_duration_minus_wrapped_children(monkeypatch):
    # root runs 1 s, calls a, runs 2 s, calls b, runs 1 s; a runs 3 s and
    # calls c (1 s); b runs 2 s and calls c (1 s).
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", clock)
    tracer = spans.Tracer()

    def leaf():
        clock.advance(1.0)

    c = tracer.wrap("c", leaf)

    def body_a():
        clock.advance(3.0)
        c()

    def body_b():
        clock.advance(2.0)
        c()

    a, b = tracer.wrap("a", body_a), tracer.wrap("b", body_b)

    def body_root():
        clock.advance(1.0)
        a()
        clock.advance(2.0)
        b()
        clock.advance(1.0)

    tracer.wrap("root", body_root)()
    table = tracer.table
    assert table["root"]["total_s"] == pytest.approx(11.0)
    assert table["root"]["self_s"] == pytest.approx(4.0)
    assert table["a"]["total_s"] == pytest.approx(4.0)
    assert table["a"]["self_s"] == pytest.approx(3.0)
    assert table["b"]["self_s"] == pytest.approx(2.0)
    assert table["c"]["calls"] == 2
    assert table["c"]["self_s"] == pytest.approx(2.0)
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(11.0)


def test_self_time_survives_an_exception_in_a_child(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", clock)
    tracer = spans.Tracer()

    def fail():
        clock.advance(2.0)
        raise ValueError("boom")

    child = tracer.wrap("child", fail)

    def body():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            child()

    tracer.wrap("root", body)()
    assert tracer.table["root"]["self_s"] == pytest.approx(1.0)
    assert tracer.table["child"]["calls"] == 1


def test_layer_metrics_sum_calls_self_time_and_units(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", clock)
    tracer = spans.Tracer()

    def fresnel(x):
        clock.advance(0.5 * len(x))

    fresnel_cs = tracer.wrap("fresnel_core.fresnel_cs", fresnel,
                             lambda args, kwargs, result: len(args[0]))

    def main():
        clock.advance(1.0)
        fresnel_cs([0.1])
        fresnel_cs([0.1, 0.2])

    tracer.wrap("cli.main", main)()
    metrics = spans.layer_metrics(dict(tracer.table), (5, 1))
    assert metrics["fresnel_core.calls"] == 2
    assert metrics["fresnel_core.points"] == 3
    assert metrics["fresnel_core.self_s"] == pytest.approx(1.5)
    assert metrics["fresnel_core.us_per_point"] == pytest.approx(0.5e6)
    assert metrics["beam_depth.solve_a3db.hit_ratio"] == pytest.approx(5 / 6)
    assert metrics["cli.self_s"] == pytest.approx(1.0)
    assert metrics["gain_engine.exact.ms_per_call"] == 0.0


def test_instrument_wraps_names_bound_by_from_imports():
    core = types.ModuleType("pkg.core")
    exec("def double(x):\n    return 2 * x\n", core.__dict__)
    user = types.ModuleType("pkg.user")
    user.double = core.double                 # as `from .core import double`
    user.TABLE = {"d": core.double}           # as a runner table
    exec("def quad(x):\n    return double(double(x))\n", user.__dict__)

    tracer = spans.Tracer()
    replaced = spans.instrument({"core": core, "user": user}, tracer)
    assert replaced == 4
    assert user.quad(1) == 4
    assert user.TABLE["d"](1) == 2
    assert {name: row["calls"] for name, row in tracer.table.items()} == {
        "user.quad": 1, "core.double": 3}


def test_seed_without_references_is_refused_not_passed(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(run, "load_refs",
                        lambda workload: {"commit": None, "seeds": {}})
    monkeypatch.setattr(run, "WORK", tmp_path)

    def no_children(*args, **kwargs):
        raise AssertionError("an unchecked seed must not be measured")

    monkeypatch.setattr(run, "run_child", no_children)
    with pytest.raises(run.BenchError, match="no stored references"):
        run.run_workload("closed-form", 5, 1, False)
    assert run.main(["--workload", "closed-form", "--seed", "5",
                     "--seconds", "1"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_references_are_stored_for_every_input_set(workload):
    seeds = run.load_refs(workload)["seeds"]
    assert sorted(map(int, seeds)) == list(range(workloads.INPUT_SETS))
    for inputs, entry in seeds.items():
        configs = workloads.generate(workload, int(inputs))
        assert entry["configs"] == run.config_digest(configs)


@pytest.mark.parametrize("seed", [128, 1000, 2**31 - 1, -5])
def test_any_seed_selects_a_stored_input_set(seed):
    inputs = workloads.input_set(seed)
    assert 0 <= inputs < workloads.INPUT_SETS
    assert (workloads.generate("multiplex", seed)
            == workloads.generate("multiplex", inputs))


HEADER = "# nearfield-bd v0.1.0 experiment=gain-profile preset=custom\n"


def _csv(rows):
    return HEADER + "distance_over_dF,gain\n" + "".join(
        f"{d!r},{g!r}\n" for d, g in rows)


def test_reference_check_tolerances_and_keys():
    ref = _csv([(300.0, 0.5), (600.0, 0.25)])
    assert check.against_reference(ref, ref, ("abs", 1e-6)) == (2, 0.0)
    near = _csv([(300.0, 0.5 + 5e-7), (600.0, 0.25)])
    good, dev = check.against_reference(near, ref, ("abs", 1e-6))
    assert good == 2 and dev == pytest.approx(5e-7)
    assert check.against_reference(near, ref, ("rel", 1e-9))[0] == 1
    moved_key = _csv([(300.0000001, 0.5), (600.0, 0.25)])
    assert check.against_reference(moved_key, ref, ("abs", 1e-6))[0] == 1
    short = _csv([(300.0, 0.5)])
    assert check.against_reference(short, ref, ("abs", 1e-6))[0] == 0


def test_reference_free_check_uses_the_generated_grid():
    config = {"experiment": "gain-profile",
              "sweep": {"z_min": "300.0 dF", "z_max": "1200.0 dF",
                        "n_points": 3}}
    text = _csv([(300.0, 0.9), (600.0, 1.0), (1200.0, 0.4)])
    assert check.without_reference(text, config, "", 3) == 3
    assert check.without_reference(text, config, "", 4) == 0
    wrong = _csv([(300.0, 0.9), (601.0, 1.0), (1200.0, 1.5)])
    assert check.without_reference(wrong, config, "", 3) == 1


def test_value_tolerance_follows_the_kind():
    exact, projected, n200, disk = workloads.generate("exact-broadside", 0)
    assert workloads.value_tolerance(exact, "") == ("abs", 1e-6)
    assert workloads.value_tolerance(disk, "") == ("abs", 1e-6)
    steered = workloads.generate("exact-steered", 0)[0]
    assert workloads.value_tolerance(steered, "steered") == ("abs", 1e-6)
    for cfg in workloads.generate("closed-form", 0):
        for suffix in cfg["rows"]:
            assert workloads.value_tolerance(cfg, suffix) == ("rel", 1e-9)


def test_speed_scale_takes_wall_times_to_the_nominal_speed():
    ref = run.CAL_REF_S
    slow_stream = {part: (2 if part == "stream" else 1) * t
                   for part, t in ref.items()}
    rep = {"calibration_s": [slow_stream, slow_stream]}
    assert run.speed_scale(rep, ("stream",)) == pytest.approx(0.5)
    assert run.speed_scale(rep, ("dispatch",)) == pytest.approx(1.0)
    both = (ref["dense"] + ref["stream"]) / (ref["dense"] + 2 * ref["stream"])
    assert run.speed_scale(rep, ("dense", "stream")) == pytest.approx(both)


def test_every_workload_names_known_calibration_parts():
    assert set(workloads.CALIBRATION) == set(workloads.WORKLOADS)
    for parts in workloads.CALIBRATION.values():
        assert parts and set(parts) <= set(run.CAL_REF_S)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    emitted = list(spans.layer_metrics({}, (0, 0))) + ["trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == emitted
    assert all(m["unit"] == spans.unit_of(m["name"]) for m in bench["per_layer"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
