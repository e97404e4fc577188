"""Unit tests for the INT and sFlow collectors' bookkeeping."""

import numpy as np
import pytest

from repro.int_telemetry import IntCollector, TelemetryReport
from repro.int_telemetry.metadata import HopMetadata
from repro.sflow import FlowSample, SFlowCollector, SFlowDatagram


def make_report(ts=100, src=1, length=64, hops=2):
    stack = tuple(
        HopMetadata(switch_id=k + 1, ingress_ts=ts + k * 10,
                    egress_ts=ts + k * 10 + 5, queue_occupancy=k)
        for k in range(hops)
    )
    return TelemetryReport(
        ts_report=ts, src_ip=src, dst_ip=2, src_port=3, dst_port=4,
        protocol=6, tcp_flags=2, length=length, hop_stack=stack,
    )


class TestTelemetryReport:
    def test_summary_properties(self):
        r = make_report(ts=100, hops=3)
        assert r.hops == 3
        assert r.ingress_ts == 100            # first hop
        assert r.egress_ts == 100 + 20 + 5    # last hop egress
        assert r.queue_occupancy == 2         # max along the path
        assert r.hop_latency_ns == 15         # 3 hops x 5 ns

    def test_wrap_aware_hop_latency(self):
        h = HopMetadata(1, 2**32 - 3, 2, 0)  # egress wrapped past zero
        r = make_report()
        r = TelemetryReport(
            ts_report=0, src_ip=1, dst_ip=2, src_port=3, dst_port=4,
            protocol=6, tcp_flags=0, length=64, hop_stack=(h,),
        )
        assert r.hop_latency_ns == 5


class TestIntCollector:
    def test_ingest_and_export(self):
        col = IntCollector()
        for i in range(10):
            col.ingest(make_report(ts=i * 100, src=i))
        rec = col.to_records()
        assert rec.shape == (10,)
        assert rec["src_ip"].tolist() == list(range(10))
        assert col.reports_ingested == 10

    def test_clear(self):
        col = IntCollector(keep_stacks=True)
        col.ingest(make_report())
        col.clear()
        assert len(col) == 0
        assert col.stacks == []
        assert col.reports_ingested == 0

    def test_keep_stacks(self):
        col = IntCollector(keep_stacks=True)
        col.ingest(make_report(hops=3))
        assert len(col.stacks[0]) == 3

    def test_view_is_zero_copy_until_growth(self):
        col = IntCollector()
        col.ingest(make_report(src=42))
        v = col.view()
        assert v["src_ip"][0] == 42
        snap = col.to_records()
        snap["src_ip"][0] = 7  # owning copy: must not affect the buffer
        assert col.view()["src_ip"][0] == 42


class TestSFlowCollectorMore:
    def sample(self, i=0, agent=1):
        return FlowSample(ts_sample=i, src_ip=i, dst_ip=2, src_port=3,
                          dst_port=4, protocol=6, tcp_flags=0, length=100,
                          sampling_rate=512, sample_pool=i, agent_id=agent)

    def test_multi_agent_datagrams(self):
        col = SFlowCollector()
        col.ingest_datagram(SFlowDatagram(1, 0, [self.sample(0, agent=1)]), 10)
        col.ingest_datagram(
            SFlowDatagram(2, 0, [self.sample(1, agent=2), self.sample(2, agent=2)]),
            20,
        )
        rec = col.to_records()
        assert col.datagrams_received == 2
        assert rec["agent_id"].tolist() == [1, 2, 2]
        assert rec["ts_collector"].tolist() == [10, 20, 20]

    def test_clear(self):
        col = SFlowCollector()
        col.ingest_datagram(SFlowDatagram(1, 0, [self.sample()]), 0)
        col.clear()
        assert len(col) == 0
        assert col.samples_received == 0
