#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the nearfield-bd CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/nearfield_bd``.  Each
repetition is a fresh interpreter (child.py) that imports
``nearfield_bd.cli`` and calls ``cli.main`` once per generated config at
``--threads 1`` with BLAS pinned to one thread.  Repetitions repeat until
``--seconds`` is used up (at least three).  Every repetition's CSVs are
checked against the references stored for the seed's input set
(``workloads.input_set``) and must be byte-identical to the first
repetition's.  An input set without stored references is refused: the run
exits 1 without a result.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``run_s`` and ``setup_s`` are wall times scaled to a nominal host speed:
times the reference time over the mean measured time of the calibration
block parts the workload follows (``workloads.CALIBRATION``), which the
child runs between its calls (see child.py).  The raw wall times are in
the summary and the run record.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every output is correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans
import workloads
from refs import load_refs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

THREADS = 1
MIN_REPS = 3
BUDGET_S = 160.0    # cap on a run's repetitions, so a run ends within 180 s
# Median seconds of each part of child.calibration_block on the host the
# benchmark was tuned on (2-vCPU x86-64 VM, numpy with OpenBLAS at one
# thread).
CAL_REF_S = {"dispatch": 0.020, "dense": 0.011, "stream": 0.050}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Layers that must record calls on the workload built to exercise them.
REQUIRED_CALLS = {
    "exact-broadside": ("gain_engine.exact.calls", "gain_engine.projected.calls",
                        "gain_engine.disk.calls"),
    "exact-steered": ("gain_engine.exact.calls", "gain_engine.steered.calls"),
    "closed-form": ("fresnel_core.calls", "beam_depth.solve_a3db.calls",
                    "gain_engine.closed_form.calls", "field_model.calls"),
    "multiplex": ("multiplexing.mc.calls", "multiplexing.plan.calls",
                  "multiplexing.channel.calls"),
}
ALWAYS_CALLED = ("cli.write_csv.calls", "array_geometry.calls")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env.pop("NEARFIELD_BD_THREADS", None)
    return env


def config_digest(configs):
    return hashlib.sha256(json.dumps(configs, sort_keys=True).encode()).hexdigest()


def output_paths(out_dir, cfg):
    """Expected CSV path per output suffix, as the CLI names them."""
    return {s: str(out_dir / (f"{cfg['name']}_{s}.csv" if s else f"{cfg['name']}.csv"))
            for s in cfg["rows"]}


def write_plans(work, configs):
    calls = []
    for cfg in configs:
        cfg_path = work / f"{cfg['name']}.json"
        cfg_path.write_text(json.dumps(cfg["config"], indent=1))
        argv = ["run", "--config", str(cfg_path),
                "--out", str(work / f"{cfg['name']}.csv"),
                "--threads", str(THREADS)]
        if cfg["cli_seed"] is not None:
            argv += ["--seed", str(cfg["cli_seed"])]
        calls.append({"name": cfg["name"], "argv": argv,
                      "outputs": output_paths(work, cfg)})
    plans = {}
    for traced in (False, True):
        path = work / f"plan-{'traced' if traced else 'untraced'}.json"
        path.write_text(json.dumps({"trace": traced, "calls": calls}))
        plans[traced] = path
    return plans


def run_child(plan, timeout):
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(plan)],
                              capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"repetition exceeded {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"repetition exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def measure(plans, seconds, trace):
    """Repetitions until ``seconds`` is used up; traced runs alternate."""
    order = (False, True) if trace else (False,)
    min_reps = MIN_REPS + 1 if trace else MIN_REPS
    start = time.monotonic()
    reps, walls = [], []
    while True:
        traced = order[len(reps) % len(order)]
        t0 = time.monotonic()
        rep = run_child(plans[traced], BUDGET_S - (t0 - start))
        walls.append(time.monotonic() - t0)
        rep["traced"] = traced
        reps.append(rep)
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and elapsed + statistics.median(walls) > seconds:
            break
        if elapsed + max(walls) > BUDGET_S:
            break
    return reps


def speed_scale(rep, parts):
    """Factor that takes a repetition's wall times to the nominal speed,
    from the calibration ``parts`` its workload follows."""
    measured = statistics.fmean(sum(block[p] for p in parts)
                                for block in rep["calibration_s"])
    return sum(CAL_REF_S[p] for p in parts) / measured


def evaluate(configs, reps, ref_seed):
    """Attempted and failed sweep points over all repetitions, and the
    largest deviation from the reference per tolerance kind."""
    attempted = failed = 0
    worst = {"abs": 0.0, "rel": 0.0}
    first = {}
    notes = []
    for i, rep in enumerate(reps):
        warm = rep["a3db_cache_at_start"] != 0
        if warm:
            notes.append(f"rep {i}: solve_a3db cache not empty at start")
        for cfg, call in zip(configs, rep["calls"]):
            if call["code"] != 0:
                notes.append(f"rep {i} {cfg['name']}: exit {call['code']}: "
                             f"{call['stderr'].strip()[:300]}")
            for suffix, n_rows in cfg["rows"].items():
                key = f"{cfg['name']}|{suffix}"
                text = call["outputs"].get(suffix)
                ref_text = ref_seed[key]
                if n_rows is None:
                    n_rows = check.row_count(ref_text)
                attempted += n_rows
                good = 0
                if text is not None and not warm:
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    if digest != first.setdefault(key, digest):
                        notes.append(f"rep {i} {key}: CSV differs from the "
                                     f"first repetition's")
                    else:
                        tol = workloads.value_tolerance(cfg, suffix)
                        good, dev = check.against_reference(text, ref_text, tol)
                        worst[tol[0]] = max(worst[tol[0]], dev)
                bad = n_rows - min(good, n_rows)
                if bad and text is not None:
                    notes.append(f"rep {i} {key}: {bad} of {n_rows} rows failed")
                failed += bad
    return attempted, failed, worst, notes


def tail_note(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"n={n}; no percentile has ten samples beyond it below n=11"
    k = n - 10
    return f"n={n}; p{100 * k // n} {sorted(values)[k - 1]:.6g}"


def git_sha():
    unknown = "unknown (not a git checkout)"
    if not (ROOT / ".git").exists():
        return unknown
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or unknown


def run_record(workload, seed, seconds, trace, reps):
    return {"workload": workload, "seed": seed,
            "input_set": workloads.input_set(seed), "seconds": seconds,
            "trace": trace, "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": reps[0]["versions"]["numpy"],
            "scipy": reps[0]["versions"]["scipy"],
            "blas": reps[0]["versions"]["blas"],
            "blas_threads": THREADS, "cli_threads": THREADS,
            "nproc": os.cpu_count(), "repetitions": len(reps)}


def run_workload(workload, seed, seconds, trace):
    configs = workloads.generate(workload, seed)
    refs = load_refs(workload)
    inputs = workloads.input_set(seed)
    ref_seed = refs["seeds"].get(str(inputs))
    if ref_seed is None:
        raise BenchError(f"no stored references for input set {inputs} of "
                         f"{workload} (seed {seed}; stored: "
                         f"{len(refs['seeds'])} sets); its outputs cannot be "
                         f"checked, so it is not run")
    if ref_seed["configs"] != config_digest(configs):
        raise BenchError(f"stored references for input set {inputs} were "
                         f"made from other configs; regenerate them with "
                         f"make_refs.py")
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        reps = measure(write_plans(work, configs), seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, worst, notes = evaluate(configs, reps,
                                               ref_seed["outputs"])
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    parts = workloads.CALIBRATION[workload]
    samples = {"run_s": [r["run_s"] * speed_scale(r, parts) for r in plain],
               "setup_s": [r["setup_s"] * speed_scale(r, parts)
                           for r in plain],
               "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
    wall = {"run_s": [r["run_s"] for r in plain],
            "setup_s": [r["setup_s"] for r in plain]}

    metrics = {}
    if trace:
        names = list(traced[0]["layers"])
        for name in names:
            values = [r["layers"][name] for r in traced]
            metrics[name] = {"value": float(statistics.median(values)),
                             "unit": spans.unit_of(name)}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["run_s"] * speed_scale(r, parts)
                                       for r in traced)
            - statistics.median(samples["run_s"]), "unit": "s"}
        missing = [m for m in REQUIRED_CALLS[workload] + ALWAYS_CALLED
                   if metrics[m]["value"] == 0]
        if missing:
            raise BenchError(f"traced run recorded no calls for: "
                             f"{', '.join(missing)}")
    else:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(samples[name]),
                             "unit": unit}

    record = run_record(workload, seed, seconds, trace, reps)
    record["samples"] = samples
    record["wall_samples"] = wall
    record["functions"] = traced[-1]["functions"] if traced else None
    print(f"perfbench {workload} seed={seed} trace={int(trace)} "
          f"repetitions={len(reps)} (untraced {len(plain)}) threads={THREADS}")
    for name, values in samples.items():
        print(f"  {name:<12} median {statistics.median(values):.6g} "
              f"{END_TO_END[name]}  ({tail_note(values)})")
    for name, values in wall.items():
        print(f"  {name:<12} unscaled wall median "
              f"{statistics.median(values):.6g} s")
    print(f"  failed_ratio {failed}/{attempted} sweep points = "
          f"{failed / attempted:.6g}")
    print(f"  references   checked against the stored references of "
          f"input set {inputs}")
    print(f"  deviation    max abs (quadrature) {worst['abs']:.3g}, "
          f"max rel (closed form, Monte Carlo) {worst['rel']:.3g}")
    if trace:
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    for note in notes[:20]:
        print(f"  ! {note}")
    print(f"  record       {json.dumps({k: v for k, v in record.items() if k not in ('functions', 'samples', 'wall_samples')})}")
    WORK.mkdir(exist_ok=True)
    (WORK / f"record-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return {"correct": failed == 0 and not notes, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "nearfield_bd" / "cli.py").is_file():
        print(f"perfbench: no nearfield_bd sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
