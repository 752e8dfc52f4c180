"""Latency decomposition: the four components carried on each packet."""

import pytest

from repro.chain import catalog
from repro.devices.smartnic import SmartNIC
from repro.errors import SimulationError
from repro.harness.scenarios import figure1
from repro.sim.engine import Engine
from repro.sim.latency import COMPONENTS, component_means
from repro.sim.network import ChainNetwork
from repro.sim.nfinstance import NFStation
from repro.traffic.packet import Packet
from repro.units import gbps


def _packet(seq=0, **components):
    packet = Packet(seq=seq, size_bytes=256, arrival_s=0.0)
    for name, seconds in components.items():
        setattr(packet, name, seconds)
    return packet


class TestRecord:
    def test_add_accumulates(self):
        packet = Packet(seq=0, size_bytes=256, arrival_s=0.0)
        assert all(getattr(packet, c) == 0.0 for c in COMPONENTS)
        packet.pcie += 1e-5
        packet.pcie += 2e-5
        assert packet.pcie == pytest.approx(3e-5)

    def test_total_is_component_sum(self):
        # Closely spaced arrivals queue, so every component is exercised.
        server = figure1().build_server()
        server.refresh_demand(gbps(1.0))
        engine = Engine()
        network = ChainNetwork(server, engine)
        for i in range(50):
            network.inject(Packet(seq=i, size_bytes=1500,
                                  arrival_s=i * 1e-7))
        engine.run()
        assert len(network.delivered) == 50
        assert any(p.queueing > 0.0 for p in network.delivered)
        for packet in network.delivered:
            total = (packet.wire + packet.processing + packet.queueing
                     + packet.pcie)
            assert packet.latency_s == pytest.approx(total)

    def test_unknown_component_rejected(self):
        # Slotted: a misspelt component cannot silently become a field.
        with pytest.raises(AttributeError):
            Packet(seq=0, size_bytes=256, arrival_s=0.0).teleport = 1e-6

    def test_negative_contribution_rejected(self):
        # A pause-buffer entry stamped after "now" would make _readmit
        # charge negative queueing time.
        engine = Engine()
        device = SmartNIC("nic")
        profile = catalog.get("monitor")
        device.host(profile)
        station = NFStation(profile, device, engine,
                            lambda packet, name, now_s: None)
        station.pause()
        station._pause_buffer.append((_packet(), 1e-3))
        with pytest.raises(SimulationError, match="negative latency"):
            station.resume()


class TestLedger:
    def test_component_means(self):
        means = component_means([_packet(0, pcie=2e-5),
                                 _packet(1, pcie=4e-5)])
        assert means["pcie"] == pytest.approx(3e-5)
        assert means["wire"] == 0.0

    def test_component_means_subset(self):
        packets = [_packet(0, pcie=2e-5), _packet(1, pcie=8e-5)]
        means = component_means(packets[1:])
        assert means["pcie"] == pytest.approx(8e-5)

    def test_component_means_empty(self):
        means = component_means([])
        assert list(means) == list(COMPONENTS)
        assert all(v == 0.0 for v in means.values())

    def test_component_means_sum_in_iteration_order(self):
        values = [0.1, 1e16, -1e16, 0.2]
        means = component_means(_packet(i, wire=v)
                                for i, v in enumerate(values))
        expected = 0.0
        for value in values:
            expected += value
        assert means["wire"] == expected / len(values)
