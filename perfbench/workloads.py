"""The workloads: which CLI command each runs, and its checks.

Each workload is one ``python -m repro`` command line, executed through
``repro.cli.main`` inside a measured pass so that what is timed is what
a user waits for.

* ``figure2`` — the paper's Figure 2 sweep at CLI defaults (six packet
  sizes, noop/naive/PAM, latency and saturation loads), serial, no
  journal.  It draws no randomness: the seed is accepted and recorded
  but changes nothing.
* ``chaos`` — a 32-run chaos campaign at CLI defaults (0.04 s runs),
  serial, no journal.  Its traced run (``--trace 1``) runs the same
  campaign journaled on two workers, so that the journal and the
  worker fan-out are measured too.
"""

from __future__ import annotations

from typing import Dict, List, Optional

DEFAULT_SEED = 7
HELD_OUT_SEED = 101
NAMES = ("figure2", "chaos")
SIZES = ("full", "small")

#: Modules a pass imports before the command starts: the CLI, plus the
#: package the subcommand would import lazily.
MODULES = {
    "figure2": ("repro.cli",),
    "chaos": ("repro.cli", "repro.chaos"),
}

#: Worker processes of a traced run's plain and traced passes (the
#: ``--trace 0`` passes and the profiled pass are serial); a pass with
#: more than one also journals.
TRACE_WORKERS = {"figure2": 1, "chaos": 2}

#: Nominal seconds of one pass: a run makes as many as fit --seconds.
#: Fixed rather than timed, so the number of samples, and with it the
#: percentile ``run_s_tail`` reports, does not follow the host's speed.
NOMINAL_PASS_S = {"figure2": 12.0, "chaos": 12.0}
SMALL_PASS_S = 0.5

#: Figure 2 acceptance band for PAM against naive, at every size.
FIGURE2_GAP_RANGE = (-0.19, -0.15)


def cli_argv(workload: str, seed: int, size: str, workers: int,
             journal: Optional[str]) -> List[str]:
    """The ``python -m repro`` arguments of one pass."""
    small = size == "small"
    if workload == "figure2":
        if small:
            return ["figure2", "--sizes", "64", "1500",
                    "--duration", "0.002"]
        return ["figure2"]
    argv = ["chaos", "--runs", "4" if small else "32",
            "--seed", str(seed)]
    if small:
        argv += ["--duration", "0.01"]
    if workers > 1:
        argv += ["--workers", str(workers)]
    return argv + (["--journal", journal] if journal else [])


def pass_count(workload: str, size: str, seconds: float) -> int:
    """Measured passes of a plain run: those that fit, at least two."""
    nominal = NOMINAL_PASS_S[workload] if size == "full" else SMALL_PASS_S
    return max(2, int(seconds // nominal))


def summarize(workload: str, payloads: List[Dict[str, object]]
              ) -> Dict[str, object]:
    """What the output checks need from a pass's merged payloads.

    ``violating_runs`` counts runs with an invariant violation or a
    scenario-error; ``gaps`` is PAM's latency change against naive per
    packet size (figure2 only).
    """
    if workload == "figure2":
        gaps = {}
        for point in payloads:
            outcomes = point["outcomes"]
            naive = outcomes["naive"]["mean_latency_s"]
            pam = outcomes["pam"]["mean_latency_s"]
            gaps[str(point["size"])] = (pam - naive) / naive
        return {"violating_runs": 0, "gaps": gaps}
    return {"violating_runs": sum(1 for payload in payloads
                                  if payload["violations"]),
            "gaps": {}}


def gap_failures(gaps: Dict[str, float]) -> List[str]:
    """Sizes whose PAM-vs-naive change falls outside the paper's band."""
    low, high = FIGURE2_GAP_RANGE
    return [f"{size} B: {gap:+.2%}" for size, gap in gaps.items()
            if not low <= gap <= high]
