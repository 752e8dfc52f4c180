"""Wiring one drawn :class:`SoakCase` into a runnable scenario.

The case goes through :meth:`~repro.chaos.scenario.FaultScenario.wire`,
the one builder chaos runs use too, driven entirely by the case's
explicit fields (duration, packet size, spike shape, policy, failure
rate, fault list) — an edited case (the shrinker's candidates) replays
exactly what it says.

On top of that wiring the soak view adds two things.  The
:class:`~repro.soak.invariants.InvariantEngine` attaches before
``prepare()``, so invariants observe the run from the first event.  A
case with a planted bug applies its corruption in ``collect()`` iff a
fault of the trigger kind is present — see
:class:`~repro.chaos.scenario.PlantedBug`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..chaos.invariants import Violation
from ..chaos.scenario import (BUG_CONSERVATION, BUG_PROTECTED_SHED,
                              FaultScenario, SoakCase, run_guarded)
from ..errors import ConfigurationError
from ..migration.executor import OUTCOME_SUCCEEDED
from .invariants import InvariantEngine


@dataclass
class SoakScenario(FaultScenario):
    """One wired case: faults applied, invariants attached, not run."""

    invariants: InvariantEngine

    def _apply_planted(self) -> None:
        """Corrupt the end state iff the planted bug's trigger fired."""
        planted = self.case.planted
        if planted is None:
            return
        triggered = any(fault.kind == planted.trigger_kind
                        for fault in self.case.faults)
        if not triggered:
            return
        if planted.bug == BUG_CONSERVATION:
            # Un-record one delivered packet: conservation now sees one
            # injected packet with no fate.
            if self.sim.network.delivered:
                self.sim.network.delivered.pop()
        elif planted.bug == BUG_PROTECTED_SHED:
            shedder = self.resilient.shedder
            for cls in shedder.classes:
                if not cls.sheddable:
                    shedder.counters[cls.name].shed_packets += 1
                    break

    def collect(self) -> Dict[str, object]:
        """Apply any planted corruption, finalize invariants, report."""
        if self.result is None:
            raise ConfigurationError("collect() before run()")
        self._apply_planted()
        violations = self.invariants.finalize()
        network = self.sim.network
        records = (self.hardened.executor.records
                   if self.hardened.executor else [])
        return {
            "seed": self.case.seed,
            "case": self.case.to_dict(),
            "violations": [v.to_dict() for v in violations],
            "injected": self.result.injected,
            "delivered": len(network.delivered),
            "dropped": len(network.dropped),
            "filtered": len(network.filtered),
            "shed": len(network.shed),
            "migrations": len([r for r in records
                               if r.outcome == OUTCOME_SUCCEEDED]),
            "recoveries": (len(self.resilient.recoveries)
                           if self.resilient else 0),
            "ticks": self.invariants.ticks_checked,
            "events": self.sim.engine.events_processed,
        }


def build_case_scenario(case: SoakCase) -> SoakScenario:
    """Wire one case, faults applied and invariants attached."""
    scenario = SoakScenario.wire(case, invariants=InvariantEngine())
    scenario.invariants.attach(scenario.sim, hardened=scenario.hardened,
                               resilient=scenario.resilient)
    return scenario


def error_case_payload(case: SoakCase,
                       violation: Violation) -> Dict[str, object]:
    """A zeroed payload for a case whose scenario never finished."""
    return {
        "seed": case.seed,
        "case": case.to_dict(),
        "violations": [violation.to_dict()],
        "injected": 0, "delivered": 0, "dropped": 0, "filtered": 0,
        "shed": 0, "migrations": 0, "recoveries": 0,
        "ticks": 0, "events": 0,
    }


def run_case(case: SoakCase) -> Dict[str, object]:
    """Build → prepare → run → collect; crashes become payloads."""
    return run_guarded(lambda: build_case_scenario(case),
                       lambda violation: error_case_payload(case,
                                                            violation))
