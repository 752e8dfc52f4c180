"""SIGKILL-and-resume check: the chaos journal survives a dead process.

This automates the scenario the write-ahead journal exists for: a
campaign process dies without warning (SIGKILL — no ``atexit``, no
``finally``), leaving the journal with a possibly torn trailing record,
and a fresh process resumes from it.  The check passes only if the
merged report renders **bit-exact** against an uninterrupted campaign —
the property ``python -m repro crash-resume`` asserts in CI.

The torn tail is additionally forced deterministically (a half-written
record is appended after the kill) so the tolerance path is exercised
on every check, not just when the kill happens to land mid-write.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from ..checkpoint import read_journal
from ..errors import CheckpointError
from .runner import ChaosConfig, ChaosRunner

#: Seconds between journal polls while the campaign subprocess runs.
#: The bounded retry count caps total waiting — no wall-clock deadline
#: arithmetic, so the check stays deterministic in what it *does* even
#: though the kill's landing point depends on scheduling.
_POLL_INTERVAL_S = 0.05
_MAX_POLLS = 1200

#: Campaign kinds this harness can kill and resume (the CLI validates
#: its ``--campaign`` flag against this, not the full kind registry).
SUPPORTED_CAMPAIGNS = ("chaos", "reliability", "soak")


@dataclass
class CrashResumeOutcome:
    """What the crash-resume check observed."""

    runs: int
    seed: int
    #: Campaign kind the check exercised (one of
    #: :data:`SUPPORTED_CAMPAIGNS`).
    campaign: str
    #: run-result records intact in the journal when the kill landed.
    journaled_before_kill: int
    #: Whether the subprocess was actually SIGKILLed mid-flight (False
    #: when it finished before the poll caught it — the resume then
    #: replays every run, which still must match).
    killed: bool
    #: Runs the resumed campaign replayed from the journal.
    replayed_runs: int
    #: Rendered report of the resumed campaign.
    resumed: str
    #: Rendered report of the uninterrupted reference campaign.
    reference: str

    @property
    def match(self) -> bool:
        """Whether the merged report is bit-exact vs the reference."""
        return self.resumed == self.reference

    def render(self) -> str:
        """One-line verdict for the CLI."""
        verdict = "bit-exact" if self.match else "MISMATCH"
        how = "SIGKILLed" if self.killed else "finished before the kill"
        return (f"crash-resume[{self.campaign}]: {self.runs} runs "
                f"(seed {self.seed}); "
                f"campaign {how} with {self.journaled_before_kill} "
                f"journaled run(s); resume replayed {self.replayed_runs} "
                f"and re-ran {self.runs - self.replayed_runs}; "
                f"merged report {verdict} vs uninterrupted reference")


def _count_run_results(journal_path: str) -> int:
    """Intact run-result records currently in the journal."""
    if not os.path.exists(journal_path):
        return 0
    return len(read_journal(journal_path,
                            tolerate_torn_tail=True).of_kind("run-result"))


def _campaign_command(campaign: str, runs: int, seed: int,
                      duration_s: float, journal_path: str,
                      workers: int) -> list:
    """The subprocess argv that journals one campaign of ``campaign``."""
    if campaign == "chaos":
        subcommand = ["chaos"]
    elif campaign == "reliability":
        # Single-policy grid: `runs` keeps its meaning of total runs.
        subcommand = ["reliability", "--scenario", "device-kill",
                      "--policies", "joint"]
    elif campaign == "soak":
        # No shrinking in the subprocess: the kill must land mid-grid,
        # not mid-shrink, and the resume compares grid reports only.
        subcommand = ["soak", "--no-shrink"]
    else:
        known = ", ".join(SUPPORTED_CAMPAIGNS)
        raise CheckpointError(
            f"crash-resume does not support campaign {campaign!r} "
            f"(known: {known})")
    return [sys.executable, "-m", "repro", *subcommand,
            "--runs", str(runs), "--seed", str(seed),
            "--duration", str(duration_s),
            "--workers", str(workers),
            "--journal", journal_path, "--checkpoint-every", "1"]


def _resume_and_reference(campaign: str, runs: int, seed: int,
                          duration_s: float, journal_path: str,
                          workers: int):
    """Resume the journal in-process; also run the serial reference.

    Returns ``(replayed_runs, resumed_report, reference_report)`` —
    both reports rendered, ready for the bit-exact comparison.
    """
    if campaign == "chaos":
        config = ChaosConfig(duration_s=duration_s)
        resumer = ChaosRunner(runs=runs, seed=seed, config=config,
                              resume_from=journal_path,
                              checkpoint_every=1, workers=workers)
        resumed = resumer.run().render()
        reference = ChaosRunner(runs=runs, seed=seed,
                                config=config).run().render()
        return resumer.replayed_runs, resumed, reference
    if campaign == "soak":
        # The space must match the subprocess's exactly or the journal
        # fingerprint check refuses the resume — both sides build it
        # through default_space(duration).
        from ..soak import SoakRunner, default_space, render_payloads
        space = default_space(duration_s)
        resumer = SoakRunner(runs=runs, seed=seed, space=space,
                             resume_from=journal_path,
                             checkpoint_every=1, workers=workers)
        resumed = render_payloads(resumer.run().payloads)
        reference = render_payloads(SoakRunner(
            runs=runs, seed=seed, space=space).run().payloads)
        return resumer.replayed_runs, resumed, reference
    from ..exec import make_executor, run_campaign
    from ..reliability import ReliabilityCampaign, render_payloads

    def build() -> ReliabilityCampaign:
        return ReliabilityCampaign(scenario="device-kill",
                                   policies=("joint",), runs=runs,
                                   seed=seed, duration_s=duration_s)

    outcome = run_campaign(build(),
                           executor=make_executor(workers),
                           resume_from=journal_path,
                           checkpoint_every=1)
    reference = run_campaign(build())
    return (outcome.replayed, render_payloads(outcome.payloads),
            render_payloads(reference.payloads))


def run_crash_resume_check(runs: int = 6, seed: int = 7,
                           duration_s: float = 0.02,
                           journal_path: str = "crash-resume-journal.jsonl",
                           kill_after_runs: int = 2,
                           workers: int = 1,
                           campaign: str = "chaos") -> CrashResumeOutcome:
    """SIGKILL a campaign subprocess mid-flight and resume its journal.

    Launches ``python -m repro <campaign> --journal ...`` as a
    subprocess, polls the journal until ``kill_after_runs`` run-results
    are intact, SIGKILLs it, deterministically appends a torn record,
    resumes the campaign in-process from the journal, and compares the
    merged report against an uninterrupted reference campaign.

    ``campaign`` selects the campaign kind under test (``chaos``, a
    single-policy ``reliability`` grid, or a shrink-free ``soak``
    fuzz) — the kill/resume machinery is identical because every
    campaign shares the journal protocol.

    ``workers`` applies to the killed campaign and the resume; the
    reference always runs serially, so with ``workers > 1`` the check
    additionally proves the parallel merged report is bit-exact against
    the serial one.  A parallel journal's run-results may land out of
    index order — the merge is by index, so resume handles the gaps.
    """
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = _campaign_command(campaign, runs, seed, duration_s,
                                journal_path, workers)
    process = subprocess.Popen(command, env=env,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
    killed = False
    try:
        for _ in range(_MAX_POLLS):
            if _count_run_results(journal_path) >= kill_after_runs:
                break
            if process.poll() is not None:
                break
            time.sleep(_POLL_INTERVAL_S)
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
            killed = True
    finally:
        process.wait()
    if not os.path.exists(journal_path):
        raise CheckpointError(
            f"campaign subprocess exited (code {process.returncode}) "
            f"without writing {journal_path}")
    journaled = _count_run_results(journal_path)
    # Force the torn-write path: whatever state the kill left the file
    # in, the resume must shrug off a half-written final record.
    with open(journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"crc": 0, "record": {"kind": "run-res')
    with warnings.catch_warnings():
        # The torn tail we just planted warns by design.
        warnings.simplefilter("ignore", RuntimeWarning)
        replayed, resumed, reference = _resume_and_reference(
            campaign, runs, seed, duration_s, journal_path, workers)
    return CrashResumeOutcome(
        runs=runs, seed=seed, campaign=campaign,
        journaled_before_kill=journaled,
        killed=killed, replayed_runs=replayed,
        resumed=resumed, reference=reference)
