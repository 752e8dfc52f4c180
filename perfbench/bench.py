"""Orchestration, output checks and metrics of one benchmark run.

A run spawns measured passes (``pass_main.py``), each a fresh
interpreter executing one workload command end to end, and turns their
raw timestamps and counts into the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import bisect
import compileall
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import instrument
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PASS_SCRIPT = HERE / "pass_main.py"
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"

#: Set-up samples taken by set-up-only passes, besides each pass's own.
SETUP_PROBES = 3
#: A run must end within this many seconds of starting.
RUN_BUDGET_S = 170.0
#: Modules whose cProfile self-time share the traced run reports.
SHARE_MODULES = ("sim.engine", "sim.events", "sim.nfinstance",
                 "sim.network", "sim.queues", "sim.latency",
                 "devices.pcie", "traffic.generators", "traffic.patterns")
#: Modules whose exact cProfile call counts the traced run reports.
CALL_MODULES = ("sim.nfinstance", "sim.network", "devices.pcie")


class BenchError(Exception):
    """A pass crashed or timed out: the run has no result."""


@dataclass
class Run:
    """State shared by the passes of one benchmark run."""

    workload: str
    seed: int
    size: str
    workdir: Path
    deadline: float
    #: Compare with reference.json (off while regenerating it).
    use_reference: bool = True
    passes: int = 0
    #: Output-check failures, one line each.
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: Optional[str] = None
    counts: Optional[Dict[str, int]] = None

    def run_pass(self, mode: str, workers: int,
                 journal: bool = False) -> Dict[str, object]:
        """Spawn one measured pass and return its raw measurements."""
        self.passes += 1
        workdir = self.workdir / f"pass-{self.passes}"
        workdir.mkdir(parents=True)
        config = {"workload": self.workload, "seed": self.seed,
                  "size": self.size, "workers": workers,
                  "journal": journal, "mode": mode,
                  "src": str(SRC), "workdir": str(workdir)}
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        if mode == "profile":
            # Exact call counts must not depend on string-hash order.
            env["PYTHONHASHSEED"] = "0"
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("run budget exhausted before a pass")
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(PASS_SCRIPT), json.dumps(config)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            raise BenchError(f"{mode} pass exceeded the run budget")
        finally:
            # Pool workers live in the pass's session; none may outlive it.
            _kill_group(proc.pid)
        if err:
            sys.stderr.write(err)
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited with {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        result["t_spawn"] = t_spawn
        result["mode"] = mode
        result["workers"] = workers
        if mode != "setup":
            if not result["runs"]:
                raise BenchError(f"{mode} pass recorded no simulation run "
                                 f"(pool workers must start by fork)")
            self.check(result)
        return result

    def check(self, result: Dict[str, object]) -> None:
        """Output checks of one pass; a failure fails all its runs."""
        runs = len(result["runs"])
        problems = []
        if result["exit_code"] != 0:
            problems.append(f"command exited with {result['exit_code']}")
        if not result["digest"]:
            problems.append("no campaign result was captured")
        if self.digest is None:
            self.digest = result["digest"]
            self.counts = result["counts"]
        else:
            if result["digest"] != self.digest:
                problems.append(
                    f"{result['mode']} pass (workers={result['workers']}) "
                    f"payloads differ from the first pass")
            if result["counts"] != self.counts:
                problems.append(f"{result['mode']} pass counts "
                                f"{result['counts']} != {self.counts}")
        if self.use_reference:
            problems.extend(reference_problems(self.workload, self.seed,
                                               self.size, result))
        if self.workload == "figure2" and self.size == "full":
            bad = workloads.gap_failures(result["summary"]["gaps"])
            if bad:
                problems.append("PAM vs naive outside -19%..-15% at "
                                + ", ".join(bad))
        self.attempted += runs
        if problems:
            self.failed += runs
            self.problems.extend(problems)
        else:
            self.failed += int(result["summary"]["violating_runs"])
            if result["summary"]["violating_runs"]:
                self.problems.append(
                    f"{result['summary']['violating_runs']} run(s) "
                    f"violated an invariant")


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def load_reference() -> Dict[str, object]:
    """The committed reference outputs and pinned counts."""
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def reference_key(workload: str, seed: int, size: str) -> Optional[str]:
    """Which reference entry pins this run, if any.

    figure2 draws no randomness, so one entry pins every seed; the
    seeded workloads are pinned at the default and held-out seeds.
    """
    if size != "full":
        return None
    if workload == "figure2":
        return "any"
    if seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        return str(seed)
    return None


def reference_problems(workload: str, seed: int, size: str,
                       result: Dict[str, object]) -> List[str]:
    """Mismatches between a pass and the committed reference."""
    key = reference_key(workload, seed, size)
    entry = load_reference().get(workload, {}).get(key) if key else None
    if entry is None:
        return []
    problems = []
    if result["digest"] != entry["digest"]:
        problems.append(f"payload digest {result['digest'][:16]} != "
                        f"reference {entry['digest'][:16]}")
    if "report" in entry and result["report"] != "\n".join(
            entry["report"]) + "\n":
        problems.append("report differs from the committed reference")
    if result["counts"] != entry["counts"]:
        problems.append(f"counts {result['counts']} != pinned "
                        f"{entry['counts']}")
    pinned = entry.get("trace_counts", {})
    measured = trace_counts(result)
    for name in sorted(set(pinned) & set(measured)):
        if measured[name] != pinned[name]:
            problems.append(f"{name} = {measured[name]} != pinned "
                            f"{pinned[name]}")
    return problems


def trace_counts(result: Dict[str, object]) -> Dict[str, int]:
    """Deterministic counts only a traced or profiled pass yields."""
    counts: Dict[str, int] = {}
    if result["mode"] == "traced":
        calls = result["calls"]
        counts["traffic.packets"] = result["traffic_packets"]
        for name, layer in (("harness.build.n", "harness.build"),
                            ("controller.ticks", "controller.tick"),
                            ("checkpoint.journal.records",
                             "checkpoint.journal.append")):
            counts[name] = calls.get(layer, 0)
    elif result["mode"] == "profile":
        modules = result["profile"]["modules"]
        for module in CALL_MODULES:
            counts[f"{module}.calls"] = modules.get(
                module, {}).get("calls", 0)
    return counts


# -- metrics ------------------------------------------------------------------

def run_seconds(result) -> List[float]:
    """Seconds of each simulation run of a pass: CPU time of the worker
    that ran it in a pool, wall time otherwise
    (:func:`instrument.uses_cpu_time`)."""
    if instrument.uses_cpu_time(result["workers"]):
        return [cpu for _pid, _start, _end, cpu in result["runs"]]
    return [end - start for _pid, start, end, _cpu in result["runs"]]


def wall_s(result) -> float:
    """Process start to merged report, less the time the calibration
    probes held it back (run probes over the worker count)."""
    probes_s = sum(probe[2] for probe in result.get("probes", ()))
    return (result["t_report"] - result["t_spawn"]
            - probes_s / result["workers"]
            - sum(result.get("setup_probes", ())))


def measured_setup_s(result) -> float:
    """Process start until the first campaign run begins, as measured
    (less the set-up probe taken before the imports)."""
    probes = result.get("setup_probes") or [0.0]
    return result["t_setup"] - result["t_spawn"] - probes[0]


def setup_s(result) -> float:
    """:func:`measured_setup_s` at the reference host speed: divided by
    the mean of the two probes bracketing set-up over
    :data:`instrument.REFERENCE_KERNEL_S`."""
    probes = result.get("setup_probes") or []
    if len(probes) != 2:
        return measured_setup_s(result)
    return measured_setup_s(result) / (statistics.mean(probes)
                                       / instrument.REFERENCE_KERNEL_S)


def calibrated(result):
    """Run times and post-set-up busy time at the reference host speed.

    Plain passes probe the host's speed with the calibration kernel
    between runs, in the process that runs them.  Each run is divided
    by its slowdown: the mean of the last probe before it and the first
    after it, over :data:`instrument.REFERENCE_KERNEL_S`.  The busy time
    after set-up is scaled by the same overall ratio as the runs.
    """
    raw = run_seconds(result)
    busy = wall_s(result) - measured_setup_s(result)
    by_pid: Dict[int, List[list]] = {}
    for pid, at, seconds in sorted(result.get("probes", ()),
                                   key=lambda probe: probe[1]):
        times, values = by_pid.setdefault(pid, ([], []))
        times.append(at)
        values.append(seconds)
    if not by_pid:
        return raw, busy
    scaled = []
    for (pid, start, end, _cpu), seconds in zip(result["runs"], raw):
        times, values = by_pid[pid]
        before = bisect.bisect_right(times, start)
        after = bisect.bisect_left(times, end)
        near = values[max(before - 1, 0):before] + values[after:after + 1]
        factor = statistics.mean(near) / instrument.REFERENCE_KERNEL_S
        scaled.append(seconds / factor)
    return scaled, busy * sum(scaled) / sum(raw)


def tail(samples: List[float]):
    """(percentile, value): the highest whole percentile with at least
    ten samples beyond it, by nearest rank; (100, max) below 11."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    percentile = (100 * (n - 10)) // n
    rank = max(1, math.ceil(percentile * n / 100))
    return percentile, ordered[rank - 1]


def end_to_end(passes: List[dict], setup_samples: List[float]
               ) -> Dict[str, float]:
    """The end-to-end metrics over a run's plain passes.

    Times after set-up come from :func:`calibrated`; ``setup_s`` and
    ``peak_rss_mb`` are as measured.
    """
    runs, walls, events, packets = [], [], [], []
    for result in passes:
        scaled, busy = calibrated(result)
        runs.extend(scaled)
        walls.append(setup_s(result) + busy)
        events.append(result["counts"]["events"] / busy)
        packets.append(result["counts"]["packets"] / busy)
    percentile, tail_s = tail(runs)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_samples),
        "run_s_p50": statistics.median(runs),
        "run_s_tail": tail_s,
        "events_per_s": statistics.median(events),
        "packets_per_s": statistics.median(packets),
        "peak_rss_mb": statistics.median(
            r["peak_rss_kb"] / 1024.0 for r in passes),
    }, {"passes": len(passes), "runs": len(runs),
        "tail_percentile": percentile,
        "setup_samples": len(setup_samples),
        "measured_wall_s": [wall_s(r) for r in passes],
        "measured_run_s_p50": statistics.median(
            run for r in passes for run in run_seconds(r))}


def layer_self_times(traced: dict) -> Dict[str, Dict[str, float]]:
    """Self time per layer of a traced pass, main process and workers.

    The main process's layers and its unattributed remainder sum to the
    pass's wall time; worker self times are extra lanes of work done in
    parallel with the main process's wait inside ``exec.campaign``.
    """
    main = {"startup": traced["t_main"] - traced["t_spawn"],
            "import": traced["t_imported"] - traced["t_main"],
            "instrument": traced["t_installed"] - traced["t_imported"]}
    for name, value in traced["self_s"].items():
        main[name] = main.get(name, 0.0) + value
    return {"main": main, "workers": dict(traced["worker_self_s"])}


def per_layer(plain: dict, traced: dict, profile: dict, import_s: float,
              workers: int, attempted: int, failed: int
              ) -> Dict[str, float]:
    """The per-layer metrics of a traced run."""
    lanes = layer_self_times(traced)
    selfs: Dict[str, float] = {}
    for lane in lanes.values():
        for name, value in lane.items():
            selfs[name] = selfs.get(name, 0.0) + value
    traced_wall = wall_s(traced)
    counts = traced["counts"]
    events = counts["events"]
    attempts = counts["migration_attempts"]
    plain_runs = run_seconds(plain)
    plain_busy = wall_s(plain) - measured_setup_s(plain)
    shares = profile["profile"]
    metrics = {
        "sim.engine.run.s": selfs.get("sim.engine.run", 0.0),
        "sim.engine.ns_per_event":
            selfs.get("sim.engine.run", 0.0) / events * 1e9,
        "sim.engine.events": events,
        "sim.events_per_packet": events / counts["packets"],
        **{f"{module}.self_share":
           shares["modules"].get(module, {}).get("self_s", 0.0)
           / shares["total_self_s"] for module in SHARE_MODULES},
        **trace_counts(traced),
        **trace_counts(profile),
        "traffic.gen.s": selfs.get("traffic.gen", 0.0),
        "sim.network.inject.s": selfs.get("sim.network.inject", 0.0),
        "harness.build.s": selfs.get("harness.build", 0.0),
        "controller.tick.s": selfs.get("controller.tick", 0.0),
        "migration.attempts": attempts,
        "migration.succeeded": counts["migration_succeeded"],
        "migration.success_ratio":
            counts["migration_succeeded"] / attempts if attempts else 0.0,
        "chaos.invariants.s": selfs.get("chaos.invariants", 0.0),
        "sim.runner.collect.s": selfs.get("sim.runner.collect", 0.0),
        "checkpoint.journal.append.s":
            selfs.get("checkpoint.journal.append", 0.0),
        "checkpoint.journal.bytes": traced["journal_bytes"],
        "exec.overhead.s": plain_busy - sum(plain_runs) / workers,
        "exec.busy_frac": sum(plain_runs) / (workers * plain_busy),
        "exec.runs": len(plain_runs),
        "import.s": import_s,
        "sim.delivered": counts["delivered"],
        "sim.dropped": counts["dropped"],
        "devices.pcie.crossings": counts["pcie_crossings"],
        "trace.wall.s": traced_wall,
        "trace.unattributed.s":
            traced_wall - sum(lanes["main"].values()),
        "trace.overhead_frac": traced_wall / wall_s(plain) - 1.0,
        "failed_frac": failed / attempted,
    }
    return metrics


def import_seconds(samples: int = 3) -> float:
    """``repro``'s cumulative import time from ``-X importtime``, the
    median of ``samples`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    values = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr[-500:]}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "repro" \
                    and not parts[2].startswith("  "):
                values.append(int(parts[1]) / 1e6)
                break
        else:
            raise BenchError("import probe printed no line for repro")
    return statistics.median(values)


# -- host metadata ------------------------------------------------------------

def source_digest() -> str:
    """SHA-256 over ``src/`` — the commit identity in a checkout that
    is not a git repository."""
    import hashlib
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_metadata() -> Dict[str, object]:
    """Where and on what the numbers were measured."""
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except Exception:  # numpy is optional for the program
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit,
            "src_sha256": source_digest(),
            "platform": platform.platform()}


def prepare_workdir(workload: str) -> Path:
    """A fresh scratch directory for this run, inside the checkout."""
    # Compile once so no measured pass pays for writing bytecode.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    workdir = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir
