"""One measured pass of a workload, in a fresh interpreter.

Started by ``run.py`` as::

    python perfbench/pass_main.py '<json config>'

with config keys ``workload``, ``seed``, ``size``, ``workers``,
``journal`` (whether the command writes a run journal),
``mode`` and ``src`` (the checkout's ``src`` directory) and
``workdir`` (a scratch directory inside the checkout).  ``mode`` is

* ``plain``   — light instrumentation only (end-to-end metrics),
* ``traced``  — plus layer spans (per-layer self times),
* ``profile`` — plain, under ``cProfile`` (self time and exact call
  counts by module),
* ``setup``   — stops at the first campaign entry (a set-up sample).

The last line of stdout is one JSON object of raw measurements.
Timestamps are ``time.perf_counter()`` readings: on Linux that is
``CLOCK_MONOTONIC``, shared by every process, so the parent can subtract
its own spawn time from them.
"""

import time

T_MAIN = time.perf_counter()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import instrument  # noqa: E402
import workloads  # noqa: E402


def _profile_by_module(profiler, src: str):
    """Self time and call counts of the profiled pass, by repro module."""
    import pstats
    stats = pstats.Stats(profiler).stats
    package = os.path.join(src, "repro") + os.sep
    total_s = 0.0
    modules = {}
    for (filename, _line, _name), (_prim, calls, self_s, _cum,
                                   _callers) in stats.items():
        total_s += self_s
        if not filename.startswith(package):
            continue
        module = filename[len(package):-len(".py")].replace(os.sep, ".")
        entry = modules.setdefault(module, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += self_s
        entry["calls"] += calls
    return {"total_self_s": total_s, "modules": modules}


def main() -> int:
    config = json.loads(sys.argv[1])
    workload = config["workload"]
    mode = config["mode"]
    workdir = config["workdir"]
    calibrate = mode in ("plain", "setup")
    # Host speed at the start of set-up; another probe ends it.
    setup_probes = [instrument.calibration_kernel()] if calibrate else []
    sys.path.insert(0, config["src"])
    for module in workloads.MODULES[workload]:
        importlib.import_module(module)
    t_imported = time.perf_counter()
    import repro
    if not os.path.abspath(repro.__file__).startswith(config["src"]):
        print(f"imported repro from {repro.__file__}, not from "
              f"{config['src']}", file=sys.stderr)
        return 2
    from repro import cli

    recorder = instrument.Recorder(
        traced=mode == "traced", setup_only=mode == "setup",
        worker_dir=workdir, setup_probes=setup_probes,
        probe_every_s=(instrument.probe_interval(config["workers"])
                       if mode == "plain" else None),
        probe_clock=(time.process_time
                     if instrument.uses_cpu_time(config["workers"])
                     else time.perf_counter))
    instrument.install(recorder, workload)
    t_installed = time.perf_counter()
    journal = (os.path.join(workdir, "journal.jsonl")
               if config["journal"] else None)
    argv = workloads.cli_argv(workload, config["seed"], config["size"],
                              config["workers"], journal)
    profiler = None
    if mode == "profile":
        import cProfile
        profiler = cProfile.Profile()
    report = io.StringIO()
    try:
        with contextlib.redirect_stdout(report):
            if profiler is not None:
                profiler.enable()
            try:
                exit_code = cli.main(argv)
            finally:
                if profiler is not None:
                    profiler.disable()
    except instrument.SetupReached:
        print(json.dumps({"t_main": T_MAIN, "t_setup": recorder.t_setup,
                          "setup_probes": setup_probes}))
        return 0
    t_report = time.perf_counter()

    recorder.merge_workers()
    recorder.fold_counts()
    campaign = recorder.campaign or {"digest": "", "payloads": []}
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "t_main": T_MAIN,
        "t_imported": t_imported,
        "t_installed": t_installed,
        "t_setup": recorder.t_setup,
        "setup_probes": setup_probes,
        "t_report": t_report,
        "exit_code": exit_code,
        "report": report.getvalue(),
        "digest": campaign["digest"],
        "summary": workloads.summarize(workload, campaign["payloads"]),
        "runs": recorder.runs,
        "counts": recorder.counts,
        "traffic_packets": recorder.traffic_packets,
        "probes": recorder.probes,
        "calls": dict(recorder.calls),
        "self_s": dict(recorder.self_s),
        "worker_self_s": dict(recorder.worker_self_s),
        "peak_rss_kb": max(own, children),
        "journal_bytes": (os.path.getsize(journal)
                          if journal and os.path.exists(journal) else 0),
    }
    if profiler is not None:
        result["profile"] = _profile_by_module(profiler, config["src"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
