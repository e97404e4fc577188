"""Tests for sFlow sampling, agent batching, and collector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import Packet, Protocol, int_path_topology
from repro.sflow import (
    PacketCountSampler,
    SFlowAgent,
    SFlowCollector,
    TimeBasedSampler,
)


class TestPacketCountSampler:
    def test_deterministic_every_nth(self):
        s = PacketCountSampler(4, deterministic=True)
        hits = [s.offer() for _ in range(12)]
        assert hits == [False, False, False, True] * 3

    def test_rate_one_samples_everything(self):
        s = PacketCountSampler(1)
        assert all(s.offer() for _ in range(10))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PacketCountSampler(0)

    def test_random_mode_mean_rate(self):
        s = PacketCountSampler(64, seed=7)
        n = 200_000
        sampled = sum(s.offer() for _ in range(n))
        # mean gap is `rate`; expect n/rate samples within 10%
        assert sampled == pytest.approx(n / 64, rel=0.10)

    def test_sample_pool_counts_all_observed(self):
        s = PacketCountSampler(10, deterministic=True)
        for _ in range(25):
            s.offer()
        assert s.sample_pool == 25

    @given(rate=st.integers(min_value=1, max_value=512), seed=st.integers(0, 2**16))
    @settings(max_examples=50)
    def test_gaps_bounded(self, rate, seed):
        """Random skip gaps never exceed 2*rate-1 packets."""
        s = PacketCountSampler(rate, seed=seed)
        gap = 0
        max_gap = 0
        for _ in range(5000):
            if s.offer():
                max_gap = max(max_gap, gap)
                gap = 0
            else:
                gap += 1
        assert max_gap <= 2 * rate - 1


class TestTimeBasedSampler:
    def test_first_packet_sampled(self):
        s = TimeBasedSampler(1000)
        assert s.offer(500) is True

    def test_one_sample_per_interval(self):
        s = TimeBasedSampler(1000)
        hits = [s.offer(t) for t in range(0, 3000, 100)]
        assert sum(hits) == 3

    def test_burst_after_idle_yields_single_sample(self):
        s = TimeBasedSampler(1000)
        assert s.offer(0) is True
        # long idle gap, then a burst in one interval
        results = [s.offer(50_000 + i) for i in range(5)]
        assert results == [True, False, False, False, False]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            TimeBasedSampler(0)


def drive_traffic(topo, n_packets, spacing_ns=1_000):
    client, server = topo.hosts["client"], topo.hosts["server"]
    for i in range(n_packets):
        pkt = Packet(
            src_ip=client.ip,
            dst_ip=server.ip,
            src_port=40000,
            dst_port=80,
            protocol=int(Protocol.TCP),
            length=500,
            flow_seq=i,
        )
        client.send_at(i * spacing_ns, pkt)
    topo.run()


class TestSFlowAgentIntegration:
    def test_sampling_on_switch(self):
        topo = int_path_topology()
        collector = SFlowCollector()
        agent = SFlowAgent(
            1, collector, sampler=PacketCountSampler(10, deterministic=True),
            samples_per_datagram=4,
        )
        agent.attach(topo.switches["source_sw"])
        drive_traffic(topo, 100)
        agent.flush(topo.clock.now)
        assert len(collector) == 10
        rec = collector.to_records()
        assert (rec["sampling_rate"] == 10).all()
        assert rec["agent_id"].tolist() == [1] * 10

    def test_datagram_batching(self):
        topo = int_path_topology()
        collector = SFlowCollector()
        agent = SFlowAgent(
            1, collector, sampler=PacketCountSampler(1),
            samples_per_datagram=8,
        )
        agent.attach(topo.switches["source_sw"])
        drive_traffic(topo, 16)
        assert collector.datagrams_received == 2
        assert len(collector) == 16

    def test_final_flush_recovers_partial_datagram(self):
        topo = int_path_topology()
        collector = SFlowCollector()
        agent = SFlowAgent(
            1, collector, sampler=PacketCountSampler(1), samples_per_datagram=100,
        )
        agent.attach(topo.switches["source_sw"])
        drive_traffic(topo, 5)
        assert len(collector) == 0  # still pending
        agent.flush(topo.clock.now)
        assert len(collector) == 5

    def test_sample_timestamps_monotone(self):
        topo = int_path_topology()
        collector = SFlowCollector()
        agent = SFlowAgent(1, collector, sampler=PacketCountSampler(1))
        agent.attach(topo.switches["source_sw"])
        drive_traffic(topo, 50)
        agent.flush(topo.clock.now)
        rec = collector.to_records()
        assert np.all(np.diff(rec["ts_sample"].astype(np.int64)) >= 0)
        assert np.all(rec["ts_collector"] >= rec["ts_sample"])
