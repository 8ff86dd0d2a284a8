"""One repetition in a fresh interpreter: import the CLI, run its configs.

Usage: python3 child.py PLAN.json  (PLAN is written by run.py)

Prints one JSON object: import time, per-call wall time and exit code,
captured stderr, the text of each expected output CSV that exists after the
call, the interpreter's own peak RSS, the times of each calibration
block, and, when traced, the per-layer metrics of this repetition.

A calibration block times three fixed pieces of numpy work that do not
touch the package.  One runs before the first call and one after each
call, so the blocks sample the host's speed while the calls run.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def run_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the repetition goes on; the call counts as failed
            code = "exception"
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
    return wall, code, err.getvalue()


def calibration_block(np, buffers):
    """Seconds taken by each of three fixed pieces of numpy work that do
    not touch the package:

    - ``dispatch``: arithmetic on a one-element array in an interpreter
      loop, the way fresnel_core evaluates scalars;
    - ``dense``: products, exponentials and sorts of a 160 x 160 matrix;
    - ``stream``: complex exponentials over an array larger than the CPU
      caches, as the quadrature kernels do.

    It writes only into ``buffers``, allocated once, so it adds nothing to
    the peak RSS after the first block."""
    one, matrix, samples, work = buffers
    start = time.perf_counter()
    x = one.copy()
    for k in range(1, 1500):
        x *= -0.5 / (k * (k + 1.0))
        small = np.all(np.abs(x) + np.abs(one) < 0.0)
        phase = (1.0 - 1j * one) * x
    dispatched = time.perf_counter()
    for _ in range(6):
        product = matrix @ matrix
        phase = np.exp(1j * matrix).sum()
        ordered = np.sort(matrix.ravel())
    dense = time.perf_counter()
    for scale in (1.0, 1.3, 1.7):
        np.multiply(samples, 1j * scale, out=work)
        np.exp(work, out=work)
    streamed = time.perf_counter()
    del small, phase, product, ordered
    return {"dispatch": dispatched - start, "dense": dense - dispatched,
            "stream": streamed - dense}


def versions():
    import numpy
    import scipy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except TypeError:  # numpy < 1.26: show_config has no mode argument
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


def main():
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)

    start = time.perf_counter()
    import nearfield_bd.cli as cli
    setup_s = time.perf_counter() - start

    from nearfield_bd import beam_depth
    solve_a3db = beam_depth.solve_a3db
    cache_at_start = solve_a3db.cache_info().currsize

    tracer = None
    if plan["trace"]:
        import importlib
        import spans
        tracer = spans.Tracer()
        modules = {layer: importlib.import_module(f"nearfield_bd.{layer}")
                   for layer in spans.LAYERS}
        spans.instrument(modules, tracer)

    import numpy as np
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(400_000)
    buffers = (np.array([0.7]), rng.standard_normal((160, 160)), samples,
               np.empty(samples.size, complex))
    calibration = [calibration_block(np, buffers)]
    calls = []
    for call in plan["calls"]:
        for path in call["outputs"].values():
            if os.path.exists(path):
                os.remove(path)
        wall, code, err = run_call(cli, call["argv"])
        calls.append({"name": call["name"], "wall_s": wall, "code": code,
                      "stderr": err})
        calibration.append(calibration_block(np, buffers))
    run_s = sum(c["wall_s"] for c in calls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for call, c in zip(plan["calls"], calls):
        c["outputs"] = {}
        for suffix, path in call["outputs"].items():
            if os.path.exists(path):
                with open(path) as fh:
                    c["outputs"][suffix] = fh.read()

    result = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
              "a3db_cache_at_start": cache_at_start, "calls": calls,
              "calibration_s": calibration,
              "versions": versions()}
    if tracer is not None:
        info = solve_a3db.cache_info()
        table = dict(tracer.table)
        result["layers"] = spans.layer_metrics(table, (info.hits, info.misses))
        result["functions"] = table
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
