"""Simulated NF instance: a single-server FIFO queueing station.

Each NF in the chain is one station: a bounded ingress queue feeding a
server whose per-packet service time comes from the hosting device
(``device.service_time`` — capacity-derived work stretched by the
device's processor-sharing slowdown, plus the NF's fixed pipeline
latency).

Stations support **pausing** for migrations: while paused, arriving
packets accumulate in an unbounded side buffer (OpenNF's loss-free
buffering), and :meth:`resume` re-admits them in order on the new
device.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..chain.nf import NFProfile
from ..devices.device import Device
from ..errors import MigrationError, SimulationError
from ..traffic.packet import Packet
from .engine import Engine
from .queues import PacketQueue

if TYPE_CHECKING:
    from .faults import FaultEvent

#: Signature of the completion callback the network installs:
#: (packet, nf_name, completion_time_s) -> None
CompletionFn = Callable[[Packet, str, float], None]


def _filter_token(nf_name: str, seq: int) -> float:
    """Deterministic per-(NF, packet) uniform variate in [0, 1).

    CRC-based so filtering decisions are stable across processes and
    runs (unlike the built-in ``hash``, which is salted per process).
    """
    digest = zlib.crc32(f"{nf_name}:{seq}".encode())
    return digest / 0x1_0000_0000


class NFStation:
    """One NF's queue + server, bound to whichever device hosts it."""

    def __init__(self, profile: NFProfile, device: Device,
                 engine: Engine, on_complete: CompletionFn,
                 on_filtered: Optional[CompletionFn] = None,
                 on_dropped: Optional[CompletionFn] = None) -> None:
        self.profile = profile
        self.device = device
        self.engine = engine
        self.on_complete = on_complete
        self.on_filtered = on_filtered
        #: Called when a replayed pause-buffer packet overflows the new
        #: queue — the network's accounting path for drops the normal
        #: accept() return value cannot report.
        self.on_dropped = on_dropped
        self.queue = PacketQueue(device.queue_capacity_packets,
                                 name=f"{profile.name}@{device.name}")
        self._busy = False
        self._paused = False
        #: True while a paced resume is replaying the pause buffer: the
        #: station still buffers new arrivals (order preservation) but
        #: the server is allowed to run on already-readmitted packets.
        self._draining = False
        self._pause_buffer: List[Tuple[Packet, float]] = []
        #: The crash holding this NF down, or ``None`` while it runs: a
        #: crashed station refuses every packet and charges it to the
        #: crash's ``packets_lost`` (set by
        #: :class:`~repro.sim.faults.FaultInjector`).
        self.crash: Optional[FaultEvent] = None
        self.served_packets: int = 0
        self.served_bytes: int = 0
        self.filtered_packets: int = 0
        # Pre-registered engine action ids for the two completions every
        # served packet schedules (see Engine.register_action).  The
        # pass rate is profile-constant, so a station that never
        # filters gets the emit variant without the filter-token check.
        self._free_server_id = engine.register_action(self._free_server)
        emit = self._emit if profile.pass_rate < 1.0 else self._emit_pass
        self._emit_id = engine.register_action(emit)
        self._call_after_pair = engine.call_after_id_pair

    # -- state inspection ---------------------------------------------------

    @property
    def busy(self) -> bool:
        """Whether the server is mid-service."""
        return self._busy

    @property
    def paused(self) -> bool:
        """Whether the station is paused for migration."""
        return self._paused

    @property
    def buffered(self) -> int:
        """Packets held in the migration pause buffer."""
        return len(self._pause_buffer)

    # -- data path -----------------------------------------------------------

    def accept(self, packet: Packet) -> bool:
        """Packet arrives at this NF now.  Returns False when dropped.

        The one admission decision for the station: a packet is refused
        while the NF is crashed or while its hosting device is dead and
        nobody has paused the station for evacuation yet (paused
        stations buffer loss-free while the migration runs).
        """
        crash = self.crash
        if crash is not None or self.device._failed:
            if self.device._failed and not self._paused:
                # The hosting device died: the packet has nowhere to go.
                packet.dropped_at = self.profile.name
                return False
            if crash is not None:
                # A crashed NF forwards nothing.
                packet.dropped_at = self.profile.name
                crash.packets_lost += 1
                return False
        now = self.engine.now_s
        if self._paused:
            # Loss-free migration: buffer instead of dropping.
            self._pause_buffer.append((packet, now))
            return True
        queue = self.queue
        if not self._busy and not queue._size:
            # Idle fast path: the packet would be enqueued and then
            # immediately dequeued by the service start it triggers.
            # Fuse the two, keeping the queue counters exactly as the
            # enqueue/dequeue pair would have left them (zero waiting
            # time contributes nothing to the packet's queueing).
            stats = queue.stats
            stats.enqueued += 1
            stats.dequeued += 1
            if not stats.peak_depth:
                stats.peak_depth = 1
            rate = self.device._rate_cache.get(self.profile.name)
            if rate is not None:
                occupancy = (packet.size_bytes * 8.0) / rate
            else:
                occupancy = self.device.occupancy_time(self.profile,
                                                       packet.size_bytes)
            delay = occupancy + self.profile.base_latency_s
            if delay < 0.0:
                raise SimulationError(
                    f"negative latency contribution for packet "
                    f"{packet.seq} at station {self.profile.name}")
            packet.processing += delay
            self._busy = True
            self._call_after_pair(occupancy, self._free_server_id,
                                  delay, self._emit_id, packet)
            return True
        if not queue.enqueue(packet, now):
            packet.dropped_at = self.profile.name
            return False
        # Not paused here (handled above), so the only start-service
        # gate left is a busy server — checked inline to skip the call.
        if not self._busy:
            self._try_start_service()
        return True

    def _try_start_service(self) -> None:
        if self._busy or (self._paused and not self._draining):
            return
        if self.device._failed:
            # A dead device serves nothing: packets sit queued until the
            # recovery planner pauses the station, rebinds it to a
            # survivor, and resumes it there (or abandons it and drains
            # the queue into the drop accounting).
            return
        item = self.queue.dequeue()
        if item is None:
            return
        packet, enqueued_at = item
        engine = self.engine
        waited = engine.now_s - enqueued_at
        # Occupancy gates throughput (the server frees after it); the
        # NF's fixed pipeline latency delays the packet further without
        # blocking the next one — NFs are pipelined (see Device docs).
        # The effective-rate cache is peeked directly (the device owns
        # and invalidates it); only a cache miss pays the method call.
        rate = self.device._rate_cache.get(self.profile.name)
        if rate is not None:
            occupancy = (packet.size_bytes * 8.0) / rate
        else:
            occupancy = self.device.occupancy_time(self.profile,
                                                   packet.size_bytes)
        delay = occupancy + self.profile.base_latency_s
        if waited < 0.0 or delay < 0.0:
            raise SimulationError(
                f"negative latency contribution for packet {packet.seq} "
                f"at station {self.profile.name}")
        packet.queueing += waited
        packet.processing += delay
        self._busy = True
        self._call_after_pair(occupancy, self._free_server_id,
                              delay, self._emit_id, packet)

    def _free_server(self) -> None:
        if not self._busy:
            raise SimulationError(
                f"server-free fired on idle station {self.profile.name}")
        self._busy = False
        # An empty queue makes _try_start_service a no-op; the length
        # gate skips the call (and its futile dequeue) on the common
        # uncongested cycle.
        if self.queue._size:
            self._try_start_service()

    def _emit_pass(self, packet: Packet) -> None:
        """:meth:`_emit` for stations with ``pass_rate == 1.0``: no
        packet can be filtered, so the token check is skipped."""
        self.served_packets += 1
        self.served_bytes += packet.size_bytes
        self.on_complete(packet, self.profile.name, self.engine.now_s)

    def _emit(self, packet: Packet) -> None:
        self.served_packets += 1
        self.served_bytes += packet.size_bytes
        name = self.profile.name
        pass_rate = self.profile.pass_rate
        if pass_rate < 1.0 and _filter_token(name, packet.seq) >= pass_rate:
            # Policy decision, not a loss: consume the packet here.
            packet.filtered_at = name
            self.filtered_packets += 1
            if self.on_filtered is not None:
                self.on_filtered(packet, name, self.engine.now_s)
            return
        self.on_complete(packet, name, self.engine.now_s)

    # -- checkpointing -------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Station state for :mod:`repro.checkpoint`.

        Queue and pause-buffer *contents* are verify-only lengths — the
        packets are reconstructed by deterministic replay — while the
        served counters and mode flags are restored authoritatively.
        """
        return {
            "device": self.device.name,
            "busy": self._busy,
            "paused": self._paused,
            "draining": self._draining,
            "queued": len(self.queue),
            "buffered": len(self._pause_buffer),
            "served_packets": self.served_packets,
            "served_bytes": self.served_bytes,
            "filtered_packets": self.filtered_packets,
        }

    def restore_state(self, state: dict) -> None:
        """Re-impose checkpointed counters and mode flags."""
        self._busy = bool(state["busy"])
        self._paused = bool(state["paused"])
        self._draining = bool(state["draining"])
        self.served_packets = int(state["served_packets"])
        self.served_bytes = int(state["served_bytes"])
        self.filtered_packets = int(state["filtered_packets"])

    # -- migration support ----------------------------------------------------

    def pause(self) -> List[Tuple[Packet, float]]:
        """Stop admitting packets; return queued work for the move.

        The in-flight packet (if any) finishes on the old device — real
        migrations drain the pipeline before moving state.  Queued
        packets are handed back so the executor can re-buffer them.
        """
        if self._paused:
            raise MigrationError(f"station {self.profile.name} already paused")
        self._paused = True
        drained = self.queue.drain()
        self._pause_buffer = drained + self._pause_buffer
        return drained

    def rebind(self, device: Device) -> None:
        """Attach the station to its new hosting device (while paused)."""
        if not self._paused:
            raise MigrationError(
                f"station {self.profile.name} must be paused to rebind")
        if self._busy:
            raise MigrationError(
                f"station {self.profile.name} still serving; drain first")
        self.device = device
        # A new queue bound to the new device's capacity; stats of the
        # old queue remain with the old object for post-run inspection.
        self.queue = PacketQueue(device.queue_capacity_packets,
                                 name=f"{self.profile.name}@{device.name}")

    def resume(self, paced_rate_bps: Optional[float] = None) -> None:
        """Re-admit buffered packets in arrival order and restart service.

        With ``paced_rate_bps`` unset, the whole buffer re-enqueues
        instantly — which is what an unpaced OpenNF replay does, and
        which can overflow *downstream* queues after a long pause (the
        FPGA-reconfiguration case).  A paced resume spaces the replayed
        packets at the given bit rate, trading a slightly longer
        transient for loss-freedom end to end.
        """
        if not self._paused:
            raise MigrationError(f"station {self.profile.name} is not paused")
        if paced_rate_bps is not None and paced_rate_bps <= 0:
            raise MigrationError("paced replay rate must be positive")
        if paced_rate_bps is None:
            self._paused = False
            buffered, self._pause_buffer = self._pause_buffer, []
            for packet, buffered_at in buffered:
                self._readmit(packet, buffered_at)
            self._try_start_service()
        else:
            # Stay in buffering mode (new arrivals keep queueing behind
            # the replayed ones, preserving order) and drain the buffer
            # one packet per pacing interval until it is empty.
            self._draining = True
            self._drain_tick(paced_rate_bps)

    def _drain_tick(self, paced_rate_bps: float) -> None:
        if not self._pause_buffer:
            self._paused = False
            self._draining = False
            self._try_start_service()
            return
        packet, buffered_at = self._pause_buffer.pop(0)
        self._readmit(packet, buffered_at)
        self.engine.after((packet.size_bytes * 8.0) / paced_rate_bps,
                          lambda: self._drain_tick(paced_rate_bps))

    def _readmit(self, packet: Packet, buffered_at: float) -> None:
        """Move one packet from the migration buffer into the queue."""
        now = self.engine.now_s
        # Waiting in the migration buffer is queueing time.
        waited = now - buffered_at
        if waited < 0:
            raise SimulationError(
                f"negative latency contribution {waited} to queueing")
        packet.queueing += waited
        if not self.queue.enqueue(packet, now):
            packet.dropped_at = self.profile.name
            if self.on_dropped is not None:
                self.on_dropped(packet, self.profile.name, now)
            return
        self._try_start_service()
