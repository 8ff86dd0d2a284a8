#!/usr/bin/env python3
"""Generate the stored reference outputs of the benchmark.

    python3 perfbench/make_refs.py

Runs one untraced repetition per workload and input set (every one of
``workloads.INPUT_SETS``) at the current commit
and stores every CSV it wrote, with a digest of the generated configs so a
later change to a generator cannot be checked against stale references.
A seed is stored only when every call exits 0 and every row passes the
reference-free checks (requested row counts, key columns on the generated
grid, finite in-range values).  Every workload's file is written afresh,
so its one commit field holds for every input set.  Repetitions run on as many worker threads as the host has CPUs.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import check
import run
import workloads
from refs import save_refs


def reference_for(workload, seed):
    """(seed, stored entry) or (seed, error message)."""
    configs = workloads.generate(workload, seed)
    work = run.WORK / f"refs-{workload}-{seed}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        rep = run.run_child(run.write_plans(work, configs)[False],
                            run.BUDGET_S)
    except run.BenchError as err:
        return seed, str(err)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outputs = {}
    for cfg, call in zip(configs, rep["calls"]):
        if call["code"] != 0:
            return seed, f"{cfg['name']} exited {call['code']}: {call['stderr']}"
        for suffix, n_rows in cfg["rows"].items():
            text = call["outputs"].get(suffix)
            if text is None:
                return seed, f"{cfg['name']}: no output for {suffix!r}"
            want = n_rows if n_rows is not None else check.row_count(text)
            good = check.without_reference(text, cfg["config"], suffix, n_rows)
            if good != want:
                return seed, f"{cfg['name']}|{suffix}: {want - good} bad rows"
            outputs[f"{cfg['name']}|{suffix}"] = text
    return seed, {"configs": run.config_digest(configs), "outputs": outputs}


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    seeds = range(workloads.INPUT_SETS)
    sha = run.git_sha()
    errors = 0
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        for workload in workloads.WORKLOADS:
            refs = {"commit": sha, "seeds": {}}
            for seed, entry in pool.map(
                    functools.partial(reference_for, workload), seeds):
                if isinstance(entry, str):
                    print(f"{workload} seed {seed}: {entry}", file=sys.stderr)
                    errors += 1
                else:
                    refs["seeds"][str(seed)] = entry
            save_refs(workload, refs)
            print(f"{workload}: {len(refs['seeds'])} seeds stored")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
