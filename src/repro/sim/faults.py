"""Failure injection for the simulated data plane.

Production NFV control planes are judged by how they behave when things
break, so the test suite (and the :mod:`repro.chaos` harness) injects
faults:

* **NF crash** — a station fails at a chosen time; packets reaching it
  are dropped (a crashed NF forwards nothing) until a restart after
  ``downtime_s``.  Restart discards whatever sat in the queue, like a
  process respawn.  The crash is explicit station state
  (:attr:`NFStation.crash`), so the same NF can crash and restart any
  number of times, and overlapping crash windows extend the downtime
  rather than stacking.
* **Random loss** — Bernoulli packet loss at ingress (a flaky optic or
  overrun RX ring), seeded for reproducibility.  Installing it twice on
  one network is rejected — stacked wrappers would silently compound
  the loss probability.
* **Device brownout** — a temporary capacity reduction on the SmartNIC
  or CPU (thermal throttling, partial hardware failure): every hosted
  NF's effective service rate scales down for the window.
* **PCIe link flap** — a latency spike (or, with a large spike, an
  unavailability window) on every NIC<->CPU transfer, including
  migration state DMAs — which is how a flap mid-migration can push an
  attempt past its timeout and force a rollback.
* **Telemetry dropout** — the monitor's load sample freezes for a
  window; the runner keeps reporting the last reading with a growing
  ``telemetry_age_s`` so hardened controllers can suppress planning on
  stale data.
* **Device kill** — a *permanent* whole-device failure (NPU or core
  complex dies): the queues of every hosted station are lost, the
  device stops serving forever, and — unlike a brownout — nothing ever
  restores it.  Recovery is the resilience layer's job: evacuate the
  hosted NFs to the survivor (:mod:`repro.resilience`).

Faults compose with controllers: a crash on an overloaded NIC looks to
the monitor like load relief, and the tests pin down that the planner
does not misread it (utilisation is computed from *offered* load, not
from the survivors).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..chain.nf import DeviceKind
from ..checkpoint.snapshot import rng_state_from_json, rng_state_to_json
from ..errors import ConfigurationError
from ..sim.engine import Engine
from ..sim.network import ChainNetwork
from ..traffic.packet import Packet


@dataclass
class FaultEvent:
    """One injected fault, for post-run inspection."""

    kind: str
    nf_name: Optional[str]
    at_s: float
    until_s: Optional[float] = None
    packets_lost: int = 0
    #: Device the fault targets (brownouts and link flaps).
    device: Optional[str] = None
    #: Fault-specific magnitude: brownout capacity scale or flap extra
    #: latency in seconds.
    magnitude: float = 0.0


class FaultInjector:
    """Schedules crashes, brownouts, flaps, and loss against one network."""

    def __init__(self, network: ChainNetwork, engine: Engine,
                 seed: int = 99) -> None:
        self.network = network
        self.engine = engine
        self.rng = random.Random(seed)
        self.events: List[FaultEvent] = []
        #: Latest restart time per NF, so overlapping crash windows
        #: extend downtime instead of restoring early.
        self._down_until: Dict[str, float] = {}
        self._loss_installed = False
        #: Latest brownout end per device kind.
        self._brownout_until: Dict[DeviceKind, float] = {}
        #: Devices killed permanently (brownout expiry must not revive
        #: them; the restored-faults invariant exempts them).
        self._dead_devices: set = set()
        #: Latest flap end on the PCIe link.
        self._flap_until_s = 0.0
        #: Frozen (arrived_bytes, sample_time) during a telemetry
        #: dropout; ``None`` while telemetry is live.
        self._frozen_sample: Optional[Tuple[int, float]] = None
        self._dropout_until_s = 0.0
        self._telemetry_tapped = False

    # -- NF crash ------------------------------------------------------------

    def crash_nf(self, nf_name: str, at_s: float,
                 downtime_s: float) -> FaultEvent:
        """Crash ``nf_name`` at ``at_s``; restart after ``downtime_s``.

        May be called repeatedly for the same NF, including overlapping
        windows (the NF stays down until the latest restart time).
        """
        if nf_name not in self.network.stations:
            raise ConfigurationError(f"no station named {nf_name!r}")
        if downtime_s <= 0:
            raise ConfigurationError("downtime must be positive")
        event = FaultEvent(kind="crash", nf_name=nf_name, at_s=at_s,
                           until_s=at_s + downtime_s)
        self.events.append(event)
        self.engine.at(at_s, lambda: self._fail(nf_name, event),
                       control=True)
        self.engine.at(at_s + downtime_s, lambda: self._restore(nf_name),
                       control=True)
        return event

    def _fail(self, nf_name: str, event: FaultEvent) -> None:
        until = event.until_s if event.until_s is not None else 0.0
        self._down_until[nf_name] = max(self._down_until.get(nf_name, 0.0),
                                        until)
        station = self.network.stations[nf_name]
        already_down = station.crash is not None
        # The latest crash receives the drop accounting from now on.
        station.crash = event
        if already_down:
            # Overlapping windows: the new event just extends the
            # outage, no queue left to lose.
            return
        # A crash loses the queue contents: drain and count them lost.
        lost = station.queue.drain()
        for packet, __ in lost:
            packet.dropped_at = nf_name
            self.network.dropped.append(packet)
        event.packets_lost += len(lost)

    def _restore(self, nf_name: str) -> None:
        if self.engine.now_s < self._down_until.get(nf_name, 0.0) - 1e-12:
            return  # a later overlapping crash still holds the NF down
        self.network.stations[nf_name].crash = None

    def is_failed(self, nf_name: str) -> bool:
        """Whether ``nf_name`` is currently down."""
        return self.network.stations[nf_name].crash is not None

    # -- random loss ------------------------------------------------------------

    def random_loss(self, probability: float) -> FaultEvent:
        """Drop each arriving packet with ``probability`` at ingress."""
        if not (0.0 < probability < 1.0):
            raise ConfigurationError("loss probability must be in (0, 1)")
        if self._loss_installed:
            raise ConfigurationError(
                "random loss is already installed on this network; a "
                "second wrapper would compound the drop probability")
        self._loss_installed = True
        event = FaultEvent(kind="loss", nf_name=None, at_s=0.0)
        self.events.append(event)
        original_ingress = self.network._ingress

        def lossy_ingress(packet: Packet) -> None:
            if self.rng.random() < probability:
                packet.dropped_at = "wire"
                self.network.arrived_bytes += packet.size_bytes
                self.network.dropped.append(packet)
                event.packets_lost += 1
                return
            original_ingress(packet)

        self.network._ingress = lossy_ingress  # type: ignore[method-assign]
        # Injection is scheduled by action id: repoint the id too so
        # already-queued arrivals dispatch into the lossy wrapper.
        self.engine.rebind_action(self.network._ingress_id, lossy_ingress)
        return event

    # -- device kill (permanent) --------------------------------------------------

    def kill_device(self, device: DeviceKind, at_s: float) -> FaultEvent:
        """Kill ``device`` permanently at ``at_s``.

        The failure domain is the *processing* complex: the wire and the
        PCIe/DMA engines survive (they are separate silicon), which is
        what lets the resilience layer evacuate the hosted NFs over PCIe
        afterwards.  At kill time the queues of every hosted, non-paused
        station are lost (counted on the event), and from then on
        stations still bound to the corpse refuse arrivals.
        Killing an already-dead device is a no-op beyond the record.
        """
        event = FaultEvent(kind="device-kill", nf_name=None, at_s=at_s,
                           device=device.value)
        self.events.append(event)
        dev = self.network.server.device(device)

        def kill() -> None:
            if device in self._dead_devices:
                return
            self._dead_devices.add(device)
            dev.fail()
            for station in self.network.stations.values():
                if station.device is not dev or station.paused:
                    continue
                lost = station.queue.drain()
                for packet, __ in lost:
                    packet.dropped_at = station.profile.name
                    self.network.dropped.append(packet)
                event.packets_lost += len(lost)

        self.engine.at(at_s, kill, control=True)
        return event

    def is_device_dead(self, device: DeviceKind) -> bool:
        """Whether ``device`` has been permanently killed."""
        return device in self._dead_devices

    # -- device brownout ---------------------------------------------------------

    def brownout(self, device: DeviceKind, at_s: float, duration_s: float,
                 capacity_scale: float) -> FaultEvent:
        """Derate ``device`` to ``capacity_scale`` for the window.

        Overlapping brownouts on the same device compose by taking the
        deepest derate and the latest end time.
        """
        if duration_s <= 0:
            raise ConfigurationError("brownout duration must be positive")
        if not (0.0 < capacity_scale < 1.0):
            raise ConfigurationError("capacity scale must be in (0, 1)")
        event = FaultEvent(kind="brownout", nf_name=None, at_s=at_s,
                           until_s=at_s + duration_s, device=device.value,
                           magnitude=capacity_scale)
        self.events.append(event)
        dev = self.network.server.device(device)

        def start() -> None:
            self._brownout_until[device] = max(
                self._brownout_until.get(device, 0.0), at_s + duration_s)
            dev.set_derate(min(dev.derate, capacity_scale))

        def end() -> None:
            if dev.is_failed:
                # Fault composition: the device died while the brownout
                # was in force.  Expiring the brownout must not
                # "restore" capacity on a corpse.
                return
            if self.engine.now_s >= \
                    self._brownout_until.get(device, 0.0) - 1e-12:
                dev.set_derate(1.0)

        self.engine.at(at_s, start, control=True)
        self.engine.at(at_s + duration_s, end, control=True)
        return event

    # -- PCIe link flap ----------------------------------------------------------

    def pcie_flap(self, at_s: float, duration_s: float,
                  extra_latency_s: float) -> FaultEvent:
        """Spike every PCIe transfer by ``extra_latency_s`` for the window.

        A large spike approximates link unavailability.  Overlapping
        flaps take the worst spike and the latest end time.
        """
        if duration_s <= 0:
            raise ConfigurationError("flap duration must be positive")
        if extra_latency_s <= 0:
            raise ConfigurationError("flap extra latency must be positive")
        event = FaultEvent(kind="pcie-flap", nf_name=None, at_s=at_s,
                           until_s=at_s + duration_s, device="pcie",
                           magnitude=extra_latency_s)
        self.events.append(event)
        link = self.network.server.pcie

        def start() -> None:
            self._flap_until_s = max(self._flap_until_s, at_s + duration_s)
            link.set_fault(max(link.fault_extra_latency_s, extra_latency_s))

        def end() -> None:
            if self.engine.now_s >= self._flap_until_s - 1e-12:
                link.clear_fault()

        self.engine.at(at_s, start, control=True)
        self.engine.at(at_s + duration_s, end, control=True)
        return event

    # -- telemetry dropout -------------------------------------------------------

    def telemetry_dropout(self, at_s: float, duration_s: float) -> FaultEvent:
        """Freeze the monitor's load sample for the window.

        During the dropout :meth:`ChainNetwork.telemetry_sample` keeps
        returning the last pre-dropout reading with its old timestamp,
        so the runner's ``telemetry_age_s`` grows and stale-aware
        controllers stop planning on it.
        """
        if duration_s <= 0:
            raise ConfigurationError("dropout duration must be positive")
        event = FaultEvent(kind="telemetry-dropout", nf_name=None, at_s=at_s,
                           until_s=at_s + duration_s)
        self.events.append(event)
        self._tap_telemetry()

        def start() -> None:
            self._dropout_until_s = max(self._dropout_until_s,
                                        at_s + duration_s)
            if self._frozen_sample is None:
                self._frozen_sample = (self.network.arrived_bytes,
                                       self.engine.now_s)

        def end() -> None:
            if self.engine.now_s >= self._dropout_until_s - 1e-12:
                self._frozen_sample = None

        self.engine.at(at_s, start, control=True)
        self.engine.at(at_s + duration_s, end, control=True)
        return event

    def _tap_telemetry(self) -> None:
        if self._telemetry_tapped:
            return
        self._telemetry_tapped = True
        original_sample = self.network.telemetry_sample

        def sample() -> Tuple[int, float]:
            if self._frozen_sample is not None:
                return self._frozen_sample
            return original_sample()

        self.network.telemetry_sample = sample  # type: ignore[method-assign]

    @property
    def total_lost(self) -> int:
        """Packets destroyed by all injected faults so far."""
        return sum(event.packets_lost for event in self.events)

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Injector state for :mod:`repro.checkpoint`.

        The RNG state is authoritative (random loss must continue its
        exact Bernoulli sequence); window bookkeeping is restored as
        scalars; the fault-event list is a verify-only summary — the
        events themselves (and their scheduled start/stop closures) are
        rebuilt by replaying the same schedule.
        """
        return {
            "rng": list(rng_state_to_json(self.rng.getstate())),
            "failed": sorted(name for name, station
                             in self.network.stations.items()
                             if station.crash is not None),
            "down_until": dict(sorted(self._down_until.items())),
            "brownout_until": {kind.value: until for kind, until in
                               sorted(self._brownout_until.items(),
                                      key=lambda item: item[0].value)},
            "dead_devices": [kind.value for kind in DeviceKind
                             if kind in self._dead_devices],
            "flap_until_s": self._flap_until_s,
            "frozen_sample": list(self._frozen_sample)
            if self._frozen_sample is not None else None,
            "dropout_until_s": self._dropout_until_s,
            "events": [[e.kind, e.at_s, e.packets_lost]
                       for e in self.events],
        }

    def restore_state(self, state: dict) -> None:
        """Re-impose RNG and fault-window state after replay."""
        self.rng.setstate(rng_state_from_json(state["rng"]))
        failed = set(state["failed"])
        for name, station in self.network.stations.items():
            if name not in failed:
                station.crash = None
            elif station.crash is None:
                # Down at capture, with no replayed crash to charge.
                station.crash = FaultEvent(kind="crash", nf_name=name,
                                           at_s=self.engine.now_s)
        self._down_until = dict(state["down_until"])
        self._brownout_until = {DeviceKind(kind): until for kind, until
                                in state["brownout_until"].items()}
        self._dead_devices = {DeviceKind(kind)
                              for kind in state["dead_devices"]}
        self._flap_until_s = float(state["flap_until_s"])
        frozen = state["frozen_sample"]
        self._frozen_sample = (None if frozen is None
                               else (int(frozen[0]), float(frozen[1])))
        self._dropout_until_s = float(state["dropout_until_s"])
