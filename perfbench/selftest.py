"""Self-test of the benchmark itself, on reduced workloads.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

For every workload, a ``--size small`` run with ``--trace 0`` and one
with ``--trace 1`` must pass its output checks and print exactly the
metric names (and units) ``BENCHMARK.json`` declares for that mode.  A
traced run's main-process self times plus its unattributed remainder
must equal its traced wall time, with no negative self time.  Finally
the benchmark, copied alone into an empty directory (no program
source), must fail without printing a result.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import bench
import workloads


def _run(args, cwd=bench.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return proc


def _check_traced(notes, metrics, failures, label):
    main = notes["layers"]["main"]
    wall = metrics["trace.wall.s"]["value"]
    unattributed = metrics["trace.unattributed.s"]["value"]
    negative = [name for name, value in
                list(main.items()) + list(notes["layers"]["workers"].items())
                if value < 0]
    if negative:
        failures.append(f"{label}: negative self time in {negative}")
    if unattributed < 0:
        failures.append(f"{label}: spans cover more than the wall time")
    if abs(sum(main.values()) + unattributed - wall) > 1e-9 * max(wall, 1):
        failures.append(f"{label}: self times + unattributed != wall")


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace {trace}"
            proc = _run(["--workload", workload, "--seed",
                         str(workloads.DEFAULT_SEED), "--seconds", "1",
                         "--trace", str(trace), "--size", "small"])
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr[-400:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            notes = json.loads(lines[-2])["notes"]
            declared = {entry["name"]: entry["unit"] for entry in spec[key]}
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            if printed != declared:
                failures.append(f"{label}: printed metrics differ from "
                                f"BENCHMARK.json {key}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: output checks failed")
            if trace:
                _check_traced(notes, result["metrics"], failures, label)
            print(f"ok   {label}: {len(printed)} metrics, "
                  f"{result['attempted']} runs")

    bare = bench.WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    proc = _run(["--workload", "chaos", "--seed", "7", "--seconds", "1",
                 "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bench.WORK_ROOT.rmdir()
    except OSError:
        pass  # a benchmark run is using it
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("without program source the benchmark did not fail")
    else:
        print("ok   fails without program source")

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
