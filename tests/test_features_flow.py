"""Tests for FlowRecord / FlowTable update semantics (paper §III-2)."""

import numpy as np
import pytest

from repro.core.database import FlowDatabase
from repro.core.processor import DataProcessor
from repro.features import FEATURE_ORDER, FlowRecord, FlowTable, feature_names
from repro.int_telemetry import WRAP_PERIOD_NS

from .test_batch_equivalence import fold_packet

KEY = (1, 2, 3, 4, 6)
A, B, C = ((i, 2, 3, 4, 6) for i in (11, 12, 13))


class TestFlowRecord:
    def test_first_packet_defaults(self):
        """Flow-level values are 'mostly 0 at initiation'."""
        rec = FlowRecord(KEY)
        rec.update(now_ns=100, ingress_ts32=1000, length=500, protocol=6)
        assert rec.n_packets == 1
        assert rec.inter_arrival_s == 0.0
        assert rec.duration_s == 0.0
        assert rec.iat_stats.n == 0
        assert rec.packet_size == 500

    def test_packet_level_replaced(self):
        rec = FlowRecord(KEY)
        rec.update(0, 0, 500, 6, queue_occupancy=2)
        rec.update(10, 1_000_000, 800, 6, queue_occupancy=7)
        assert rec.packet_size == 800
        assert rec.queue_occupancy == 7
        assert rec.n_packets == 2

    def test_flow_level_aggregated(self):
        rec = FlowRecord(KEY)
        rec.update(0, 0, 500, 6)
        rec.update(10, 1_000_000_000, 300, 6)  # 1s gap
        rec.update(20, 3_000_000_000, 200, 6)  # 2s gap
        assert rec.n_packets == 3
        assert rec.total_bytes == 1000
        assert rec.duration_s == pytest.approx(3.0)
        assert rec.iat_stats.mean == pytest.approx(1.5)

    def test_wrap_aware_inter_arrival(self):
        rec = FlowRecord(KEY, wrap_aware=True)
        rec.update(0, WRAP_PERIOD_NS - 100, 100, 6)
        rec.update(10, 100, 100, 6)  # 200 ns later, across the wrap
        assert rec.inter_arrival_s == pytest.approx(200e-9)

    def test_naive_mode_clamps_wrap_to_zero(self):
        rec = FlowRecord(KEY, wrap_aware=False)
        rec.update(0, WRAP_PERIOD_NS - 100, 100, 6)
        rec.update(10, 100, 100, 6)
        assert rec.inter_arrival_s == 0.0  # the §V error mode

    def test_feature_vector_matches_names(self):
        rec = FlowRecord(KEY)
        rec.update(0, 0, 500, 6, queue_occupancy=3)
        rec.update(10, 2_000_000, 700, 6, queue_occupancy=5)
        names = feature_names("int")
        assert set(names) <= set(FEATURE_ORDER)
        d = dict(zip(FEATURE_ORDER, rec.feature_row()))
        assert d["protocol"] == 6
        assert d["packet_size"] == 700
        assert d["packet_size_cum"] == 1200
        assert d["n_packets"] == 2
        assert d["queue_occupancy"] == 5
        assert d["queue_occupancy_avg"] == pytest.approx(4.0)

    def test_rates(self):
        rec = FlowRecord(KEY)
        rec.update(0, 0, 1000, 17)
        rec.update(10, 2_000_000_000, 1000, 17)  # 2 s later
        d = dict(zip(FEATURE_ORDER, rec.feature_row()))
        pps, bps = d["packets_per_second"], d["bytes_per_second"]
        assert pps == pytest.approx(1.0)  # 2 packets / 2 s
        assert bps == pytest.approx(1000.0)

    def test_unknown_feature_raises(self):
        """A schema name outside FEATURE_ORDER is rejected when the Data
        Processor is built, not at the first poll."""
        with pytest.raises(ValueError, match="nope"):
            DataProcessor(FlowDatabase(), list(feature_names("int")) + ["nope"])


class TestFlowTable:
    def test_creates_and_reuses(self):
        ft = FlowTable()
        s1 = fold_packet(ft, KEY, 0, 0, 100, 6)
        n1 = ft.get(KEY).n_packets
        s2 = fold_packet(ft, KEY, 10, 1000, 200, 6)
        # the fold returns the flow's slot: the second packet lands in the
        # same row, not in a new flow
        assert s1 == s2
        assert (n1, ft.get(KEY).n_packets) == (1, 2)
        assert len(ft) == 1
        assert ft.created == 1

    def test_distinct_flows(self):
        ft = FlowTable()
        fold_packet(ft, (1, 2, 3, 4, 6), 0, 0, 100, 6)
        fold_packet(ft, (1, 2, 3, 5, 6), 0, 0, 100, 6)
        assert len(ft) == 2

    def test_lru_eviction_under_flood(self):
        """A flood of unique flow keys must not grow the table past cap."""
        ft = FlowTable(max_flows=100)
        for i in range(1000):
            fold_packet(ft, (i, 2, 3, 4, 6), i, i, 64, 6)
        assert len(ft) == 100
        assert ft.evicted == 900
        # most recent keys survive
        assert (999, 2, 3, 4, 6) in ft
        assert (0, 2, 3, 4, 6) not in ft

    def test_update_refreshes_lru_position(self):
        ft = FlowTable(max_flows=2)
        fold_packet(ft, A, 0, 0, 1, 6)
        fold_packet(ft, B, 1, 0, 1, 6)
        fold_packet(ft, A, 2, 0, 1, 6)  # refresh A
        fold_packet(ft, C, 3, 0, 1, 6)  # evicts B, not A
        assert A in ft
        assert B not in ft

    def test_get_does_not_refresh_lru_position(self):
        """Reads are LRU-neutral: only updates change eviction order.

        The sketch gate probes residency for every flow in every slice;
        if ``get`` refreshed recency, enabling the gate would silently
        reshuffle which flows a ``max_flows`` cap evicts.
        """
        ft = FlowTable(max_flows=2)
        fold_packet(ft, A, 0, 0, 1, 6)
        fold_packet(ft, B, 1, 0, 1, 6)
        assert ft.get(A) is not None  # read must NOT move A back
        assert A in ft  # __contains__ is read-only too
        fold_packet(ft, C, 2, 0, 1, 6)  # evicts A: still the LRU flow
        assert A not in ft
        assert B in ft and C in ft

    def test_idle_expiry(self):
        ft = FlowTable(idle_timeout_ns=1_000)
        fold_packet(ft, A, 0, 0, 1, 6)  # goes stale
        fold_packet(ft, B, 5_000, 0, 1, 6)
        n = ft.expire_idle(now_ns=5_500)
        assert n == 1
        assert B in ft and A not in ft

    def test_expire_noop_without_timeout(self):
        ft = FlowTable()
        fold_packet(ft, A, 0, 0, 1, 6)
        assert ft.expire_idle(10**12) == 0

    def test_invalid_max_flows(self):
        with pytest.raises(ValueError):
            FlowTable(max_flows=0)
