"""Regenerate ``reference.json``: the outputs and counts runs must match.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py [--workload NAME ...]

For figure2 (no randomness, one entry for every seed) and for chaos at
the default and held-out seeds, it runs a plain, a traced and a
profiled pass twice each, refuses to write anything unless both
repetitions agree exactly, and records the merged-payload digest, the
report (figure2), the per-run counts and the traced/profiled counts.
Only regenerate when the program's results are meant to change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import bench
import workloads


def _entry(workload: str, seed: int) -> dict:
    workdir = bench.prepare_workdir(workload)
    run = bench.Run(workload=workload, seed=seed, size="full",
                    workdir=workdir,
                    deadline=time.perf_counter() + 3600.0,
                    use_reference=False)
    workers = workloads.TRACE_WORKERS[workload]
    try:
        passes = [run.run_pass(mode, 1) if mode == "profile"
                  else run.run_pass(mode, workers, workers > 1)
                  for mode in ("plain", "traced", "profile") * 2]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.problems:
        raise SystemExit(f"{workload} seed {seed}: {run.problems}")
    pinned = {}
    for result in passes:
        for name, value in bench.trace_counts(result).items():
            if pinned.setdefault(name, value) != value:
                raise SystemExit(f"{workload} seed {seed}: {name} is not "
                                 f"reproducible ({pinned[name]} vs {value})")
    entry = {"digest": run.digest, "counts": run.counts,
             "trace_counts": pinned}
    if workload == "figure2":
        entry["report"] = passes[0]["report"].rstrip("\n").split("\n")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=workloads.NAMES)
    args = parser.parse_args(argv)
    reference = bench.load_reference()
    reference["default_seed"] = workloads.DEFAULT_SEED
    reference["held_out_seed"] = workloads.HELD_OUT_SEED
    for workload in args.workload or workloads.NAMES:
        seeds = ([("any", workloads.DEFAULT_SEED)] if workload == "figure2"
                 else [(str(seed), seed) for seed in
                       (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)])
        section = reference.setdefault(workload, {})
        for key, seed in seeds:
            print(f"{workload} seed {key}...", flush=True)
            section[key] = _entry(workload, seed)
    bench.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                               encoding="utf-8")
    print(f"wrote {bench.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
