"""Telemetry export: CSV series, JSONL packet dumps."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.scenarios import figure1
from repro.sim.engine import Engine
from repro.sim.latency import COMPONENTS
from repro.sim.network import ChainNetwork
from repro.telemetry.export import (load_packets_jsonl, packets_to_jsonl,
                                    series_to_csv)
from repro.telemetry.recorder import TimeSeriesRecorder
from repro.traffic.packet import Packet
from repro.units import gbps


@pytest.fixture
def run_network():
    server = figure1().build_server()
    server.refresh_demand(gbps(1.0))
    engine = Engine()
    network = ChainNetwork(server, engine)
    for i in range(20):
        network.inject(Packet(seq=i, size_bytes=256, arrival_s=i * 2e-6))
    engine.run()
    return network


class TestSeriesCsv:
    def test_writes_all_series(self, tmp_path):
        recorder = TimeSeriesRecorder()
        recorder.record("nic", 0.0, 0.5)
        recorder.record("nic", 1.0, 0.9)
        recorder.record("cpu", 0.0, 0.2)
        path = tmp_path / "series.csv"
        rows = series_to_csv(recorder, path)
        assert rows == 3
        lines = path.read_text().splitlines()
        assert lines[0] == "series,time_s,value"
        assert any(line.startswith("cpu,") for line in lines[1:])

    def test_empty_recorder_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            series_to_csv(TimeSeriesRecorder(), tmp_path / "x.csv")

    def test_values_roundtrip_exactly(self, tmp_path):
        recorder = TimeSeriesRecorder()
        recorder.record("nic", 1 / 3, 2 / 7)
        path = tmp_path / "series.csv"
        series_to_csv(recorder, path)
        __, time_s, value = path.read_text().splitlines()[1].split(",")
        assert float(time_s) == 1 / 3
        assert float(value) == 2 / 7


class TestPacketsJsonl:
    def test_dump_and_load(self, tmp_path, run_network):
        path = tmp_path / "packets.jsonl"
        count = packets_to_jsonl(run_network.delivered, path)
        assert count == 20
        rows = load_packets_jsonl(path)
        assert len(rows) == 20
        assert rows[0]["seq"] == 0
        assert rows[0]["latency_s"] > 0

    def test_component_columns_sum_to_latency(self, tmp_path, run_network):
        path = tmp_path / "packets.jsonl"
        packets_to_jsonl(run_network.delivered, path)
        for packet, row in zip(run_network.delivered,
                               load_packets_jsonl(path)):
            for component in COMPONENTS:
                # JSON floats round-trip exactly.
                assert row[f"latency_{component}_s"] == \
                    getattr(packet, component)
            component_sum = sum(row[f"latency_{c}_s"] for c in COMPONENTS)
            assert component_sum == pytest.approx(row["latency_s"])

    def test_undelivered_packet_has_zero_components(self, tmp_path):
        path = tmp_path / "packets.jsonl"
        packets_to_jsonl([Packet(seq=3, size_bytes=64, arrival_s=0.0)], path)
        row = load_packets_jsonl(path)[0]
        assert row["latency_s"] is None
        assert all(row[f"latency_{c}_s"] == 0.0 for c in COMPONENTS)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            packets_to_jsonl([], tmp_path / "x.jsonl")

    def test_corrupt_file_located(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 1}\nnot-json\n')
        with pytest.raises(ConfigurationError, match=":2"):
            load_packets_jsonl(path)
