"""NFStation: queueing, service, pipelining, pause/resume."""

import pytest

from repro.chain import catalog
from repro.devices.cpu import CPU
from repro.devices.smartnic import SmartNIC
from repro.errors import MigrationError
from repro.sim.engine import Engine
from repro.sim.nfinstance import NFStation
from repro.traffic.packet import Packet
from repro.units import gbps


class Harness:
    """One station on one device plus a completion collector."""

    def __init__(self, nf_name="monitor", device=None):
        self.engine = Engine()
        self.device = device or SmartNIC("nic")
        self.profile = catalog.get(nf_name)
        self.device.host(self.profile)
        self.completed = []
        self.station = NFStation(self.profile, self.device, self.engine,
                                 self._on_complete)

    def _on_complete(self, packet, nf_name, now_s):
        self.completed.append((packet.seq, now_s))

    def inject(self, seq, at_s, size=256):
        packet = Packet(seq=seq, size_bytes=size, arrival_s=at_s)
        self.engine.at(at_s, lambda: self.station.accept(packet))
        return packet


class TestService:
    def test_single_packet_latency_components(self):
        h = Harness()
        packet = h.inject(0, at_s=0.0)
        h.engine.run()
        assert len(h.completed) == 1
        expected = h.device.occupancy_time(h.profile, 256) + \
            h.profile.base_latency_s
        assert packet.processing == pytest.approx(expected)
        assert packet.queueing == 0.0

    def test_completion_time_is_occupancy_plus_pipeline(self):
        h = Harness()
        h.inject(0, at_s=0.0)
        h.engine.run()
        _, when = h.completed[0]
        assert when == pytest.approx(
            h.device.occupancy_time(h.profile, 256) + h.profile.base_latency_s)

    def test_back_to_back_packets_queue(self):
        h = Harness()
        h.inject(0, at_s=0.0)
        second = h.inject(1, at_s=0.0)
        h.engine.run()
        assert second.queueing > 0.0

    def test_pipelining_not_head_of_line_blocked_by_base_latency(self):
        # Two packets arriving together must both finish within one
        # base-latency window plus two occupancy slots: the pipeline
        # delay does not serialise.
        h = Harness()
        h.inject(0, at_s=0.0)
        h.inject(1, at_s=0.0)
        h.engine.run()
        occupancy = h.device.occupancy_time(h.profile, 256)
        last = max(t for _, t in h.completed)
        assert last == pytest.approx(2 * occupancy + h.profile.base_latency_s)

    def test_completion_order_fifo(self):
        h = Harness()
        for i in range(5):
            h.inject(i, at_s=0.0)
        h.engine.run()
        assert [seq for seq, _ in h.completed] == list(range(5))

    def test_served_counters(self):
        h = Harness()
        h.inject(0, at_s=0.0, size=100)
        h.inject(1, at_s=0.0, size=200)
        h.engine.run()
        assert h.station.served_packets == 2
        assert h.station.served_bytes == 300


class TestDrops:
    def test_drop_marks_packet(self):
        device = SmartNIC("nic", queue_capacity_packets=1)
        h = Harness(device=device)
        accepted = []
        # Fill: one being served is dequeued immediately, so we need
        # 1 (serving) + 1 (queued) + 1 (dropped).
        packets = [Packet(seq=i, size_bytes=256, arrival_s=0.0)
                   for i in range(3)]
        h.engine.at(0.0, lambda: accepted.extend(
            h.station.accept(p) for p in packets))
        h.engine.run()
        assert accepted == [True, True, False]
        assert packets[2].dropped_at == "monitor"


class TestPauseResume:
    def test_paused_station_buffers(self):
        h = Harness()
        h.engine.at(0.0, h.station.pause)
        h.inject(0, at_s=0.001)
        h.engine.run()
        assert h.completed == []
        assert h.station.buffered == 1

    def test_resume_replays_in_order(self):
        h = Harness()
        h.engine.at(0.0, h.station.pause)
        h.inject(0, at_s=0.001)
        h.inject(1, at_s=0.002)
        h.engine.at(0.005, h.station.resume)
        h.engine.run()
        assert [seq for seq, _ in h.completed] == [0, 1]

    def test_buffer_wait_counts_as_queueing(self):
        h = Harness()
        h.engine.at(0.0, h.station.pause)
        packet = h.inject(0, at_s=0.001)
        h.engine.at(0.005, h.station.resume)
        h.engine.run()
        assert packet.queueing >= 0.004 - 1e-12

    def test_pause_drains_queue_into_buffer(self):
        h = Harness()
        h.inject(0, at_s=0.0)
        h.inject(1, at_s=0.0)
        h.inject(2, at_s=0.0)
        # Pause right after the first service starts: 0 is in service,
        # 1 and 2 are queued and must be carried to the buffer.
        h.engine.at(1e-9, h.station.pause)
        h.engine.run()
        assert h.station.buffered == 2
        assert len(h.completed) == 1  # in-flight packet drains

    def test_double_pause_rejected(self):
        h = Harness()
        h.station.pause()
        with pytest.raises(MigrationError):
            h.station.pause()

    def test_resume_without_pause_rejected(self):
        h = Harness()
        with pytest.raises(MigrationError):
            h.station.resume()


class TestRebind:
    def test_rebind_switches_device(self):
        h = Harness(nf_name="logger")
        cpu = CPU("cpu")
        cpu.host(h.profile)
        h.station.pause()
        h.station.rebind(cpu)
        h.station.resume()
        assert h.station.device is cpu

    def test_rebind_requires_pause(self):
        h = Harness()
        cpu = CPU("cpu")
        with pytest.raises(MigrationError):
            h.station.rebind(cpu)

    def test_service_rate_changes_after_rebind(self):
        # Logger: 4 Gbps on NIC (figure-1 catalog has 2 on TABLE1),
        # 4 Gbps on CPU per Table 1 — use monitor: 3.2 NIC vs 10 CPU.
        h = Harness(nf_name="monitor")
        cpu = CPU("cpu")
        cpu.host(h.profile)
        nic_occupancy = h.device.occupancy_time(h.profile, 256)
        h.station.pause()
        h.station.rebind(cpu)
        cpu_occupancy = h.station.device.occupancy_time(h.profile, 256)
        assert cpu_occupancy < nic_occupancy  # monitor is faster on CPU


class TestPacedResume:
    def _paused_with_backlog(self, count=5):
        h = Harness()
        h.engine.at(0.0, h.station.pause)
        for i in range(count):
            h.inject(i, at_s=0.001 + i * 1e-6)
        h.engine.run(until_s=0.002)
        return h

    def test_paced_resume_preserves_order(self):
        h = self._paused_with_backlog()
        h.engine.at(0.003, lambda: h.station.resume(paced_rate_bps=1e9))
        h.engine.run()
        assert [seq for seq, _ in h.completed] == list(range(5))

    def test_paced_resume_spreads_admissions(self):
        h = self._paused_with_backlog()
        h.engine.at(0.003, lambda: h.station.resume(paced_rate_bps=1e8))
        h.engine.run()
        # 256B at 100 Mbps = 20.48 us between releases; the last packet
        # cannot complete before 4 pacing gaps have elapsed.
        last_done = max(t for _, t in h.completed)
        assert last_done >= 0.003 + 4 * (2048 / 1e8)

    def test_arrivals_during_drain_stay_behind_backlog(self):
        h = self._paused_with_backlog(count=3)
        # A new packet arrives mid-drain; it must complete after the
        # three buffered ones.
        h.inject(99, at_s=0.0031)
        h.engine.at(0.003, lambda: h.station.resume(paced_rate_bps=1e8))
        h.engine.run()
        assert [seq for seq, _ in h.completed] == [0, 1, 2, 99]

    def test_station_unpauses_after_drain(self):
        h = self._paused_with_backlog(count=2)
        h.engine.at(0.003, lambda: h.station.resume(paced_rate_bps=1e9))
        h.engine.run()
        assert not h.station.paused
        assert h.station.buffered == 0

    def test_invalid_rate_rejected(self):
        h = self._paused_with_backlog(count=1)
        with pytest.raises(MigrationError):
            h.station.resume(paced_rate_bps=0.0)
