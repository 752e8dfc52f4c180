"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figure2 --seed 7 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: as many measured passes
as fit ``--seconds`` at the workload's nominal pass length, at least two
(each a fresh interpreter running the workload's ``python -m repro``
command to its merged report), plus set-up-only passes; medians carry
every metric.  ``--trace 1``
runs one plain pass, one traced pass (layer spans) and one profiled
pass (self time and call counts by module), and reports the per-layer
metrics.  Every pass's outputs are checked.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--size small`` runs reduced workloads for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import bench
import workloads


def _spec():
    path = bench.ROOT / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _plain(run: bench.Run, seconds: float):
    count = workloads.pass_count(run.workload, run.size, seconds)
    passes = [run.run_pass("plain", 1) for _ in range(count)]
    setup_samples = [bench.setup_s(result) for result in passes]
    for _ in range(bench.SETUP_PROBES):
        setup_samples.append(
            bench.setup_s(run.run_pass("setup", 1)))
    metrics, notes = bench.end_to_end(passes, setup_samples)
    return metrics, notes


def _traced(run: bench.Run):
    workers = workloads.TRACE_WORKERS[run.workload]
    journal = workers > 1
    plain = run.run_pass("plain", workers, journal)
    traced = run.run_pass("traced", workers, journal)
    # Serial, so the profiler sees every run; its payloads must equal
    # those of the pooled passes.
    profile = run.run_pass("profile", 1)
    metrics = bench.per_layer(plain, traced, profile,
                              bench.import_seconds(), workers,
                              run.attempted, run.failed)
    lanes = bench.layer_self_times(traced)
    return metrics, {"layers": lanes,
                     "trace_counts": {**bench.trace_counts(traced),
                                      **bench.trace_counts(profile)}}


def _print_layers(lanes, wall):
    print(f"traced wall {wall:.4f} s = main-process self times + "
          f"unattributed:")
    main = lanes["main"]
    for name, value in sorted(main.items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {value:10.4f} s  {value / wall:7.2%}")
    unattributed = wall - sum(main.values())
    print(f"  {'unattributed':28s} {unattributed:10.4f} s  "
          f"{unattributed / wall:7.2%}")
    if lanes["workers"]:
        busy = sum(lanes["workers"].values())
        print(f"worker processes, {busy:.4f} s of self time in all:")
        for name, value in sorted(lanes["workers"].items(),
                                  key=lambda kv: -kv[1]):
            print(f"  {name:28s} {value:10.4f} s  {value / busy:7.2%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int,
                        default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (bench.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {bench.SRC}", file=sys.stderr)
        return 2
    try:
        spec = _spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    host = bench.host_metadata()
    host["loadavg_1m_start"] = os.getloadavg()[0]
    workdir = bench.prepare_workdir(args.workload)
    run = bench.Run(workload=args.workload, seed=args.seed,
                    size=args.size, workdir=workdir,
                    deadline=started + bench.RUN_BUDGET_S)
    try:
        if args.trace:
            values, notes = _traced(run)
            declared = spec["per_layer"]
        else:
            values, notes = _plain(run, args.seconds)
            declared = spec["end_to_end"]
    except bench.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            bench.WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    host["loadavg_1m_end"] = os.getloadavg()[0]

    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {run.attempted} runs attempted, "
          f"{run.failed} failed")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        _print_layers(notes["layers"], values["trace.wall.s"])
    else:
        print(f"{notes['passes']} measured passes, {notes['runs']} runs; "
              f"run_s_tail is p{notes['tail_percentile']} of "
              f"{notes['runs']} runs; setup_s is the median of "
              f"{notes['setup_samples']} samples")
    if set(values) != {entry["name"] for entry in declared}:
        print("error: computed metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {}
    for entry in declared:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:30s} {value!r:>24} {entry['unit']}")
    print(json.dumps({"host": host, "notes": notes}))
    correct = not run.problems and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
