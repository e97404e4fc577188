"""Tests for vectorized bulk extraction, incl. equivalence with the
streaming FlowRecord path — the two implementations check each other."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import FEATURE_ORDER, FlowTable, extract_features, feature_names
from repro.features.extract import _segmented_cumsum
from repro.int_telemetry import REPORT_DTYPE, WRAP_PERIOD_NS
from repro.sflow import SAMPLE_DTYPE


def make_int_records(rows):
    """rows: list of (ts, src, dst, sport, dport, proto, length, occ)."""
    rec = np.zeros(len(rows), dtype=REPORT_DTYPE)
    for i, (ts, src, dst, sport, dport, proto, length, occ) in enumerate(rows):
        rec[i] = (
            ts, src, dst, sport, dport, proto, 0, length,
            ts % WRAP_PERIOD_NS, ts % WRAP_PERIOD_NS, occ, 1000, 3,
        )
    return rec


class TestSegmentedCumsum:
    def test_single_group(self):
        x = np.array([1.0, 2.0, 3.0])
        mask = np.array([True, False, False])
        assert _segmented_cumsum(x, mask).tolist() == [1.0, 3.0, 6.0]

    def test_restarts_at_groups(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        mask = np.array([True, False, True, False])
        assert _segmented_cumsum(x, mask).tolist() == [1.0, 3.0, 3.0, 7.0]

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=100),
        st.integers(0, 2**16),
    )
    @settings(max_examples=100)
    def test_matches_python_loop(self, xs, seed):
        rng = np.random.default_rng(seed)
        x = np.array(xs)
        mask = rng.random(x.size) < 0.3
        mask[0] = True
        out = _segmented_cumsum(x, mask)
        acc, expected = 0.0, []
        for xi, m in zip(x, mask):
            acc = xi if m else acc + xi
            expected.append(acc)
        assert np.allclose(out, expected)


class TestExtractFeatures:
    def test_empty(self):
        fm = extract_features(np.empty(0, dtype=REPORT_DTYPE), source="int")
        assert len(fm) == 0
        assert fm.n_flows == 0

    def test_single_flow_counts(self):
        rows = [(i * 10**9, 1, 2, 3, 4, 6, 100, 0) for i in range(5)]
        fm = extract_features(make_int_records(rows), source="int")
        d = dict(zip(fm.names, fm.X.T))
        assert d["n_packets"].tolist() == [1, 2, 3, 4, 5]
        assert d["packet_size_cum"].tolist() == [100, 200, 300, 400, 500]
        assert fm.n_flows == 1
        assert fm.is_first.tolist() == [True, False, False, False, False]

    def test_interleaved_flows_kept_separate(self):
        rows = [
            (0, 1, 2, 3, 4, 6, 100, 0),
            (1000, 9, 2, 3, 4, 6, 999, 0),
            (2000, 1, 2, 3, 4, 6, 100, 0),
        ]
        fm = extract_features(make_int_records(rows), source="int")
        d = dict(zip(fm.names, fm.X.T))
        assert d["n_packets"].tolist() == [1, 1, 2]
        assert fm.flow_index[0] == fm.flow_index[2]
        assert fm.flow_index[0] != fm.flow_index[1]

    def test_inter_arrival_seconds(self):
        rows = [(0, 1, 2, 3, 4, 6, 100, 0), (2 * 10**9, 1, 2, 3, 4, 6, 100, 0)]
        fm = extract_features(make_int_records(rows), source="int")
        d = dict(zip(fm.names, fm.X.T))
        assert d["inter_arrival"].tolist() == [0.0, 2.0]
        assert d["inter_arrival_cum"].tolist() == [0.0, 2.0]

    def test_wrap_aware_vs_naive(self):
        t0 = WRAP_PERIOD_NS - 100
        t1 = WRAP_PERIOD_NS + 100  # 200 ns later, across the wrap
        rows = [(t0, 1, 2, 3, 4, 6, 100, 0), (t1, 1, 2, 3, 4, 6, 100, 0)]
        rec = make_int_records(rows)
        aware = extract_features(rec, source="int", wrap_mode="aware")
        naive = extract_features(rec, source="int", wrap_mode="naive")
        ia_col = aware.names.index("inter_arrival")
        assert aware.X[1, ia_col] == pytest.approx(200e-9)
        assert naive.X[1, ia_col] == 0.0

    def test_sflow_source_has_no_queue_features(self):
        rec = np.zeros(3, dtype=SAMPLE_DTYPE)
        rec["ts_sample"] = [0, 1000, 2000]
        rec["ts_collector"] = [0, 1000, 2000]
        rec["src_ip"] = 1
        rec["dst_ip"] = 2
        rec["protocol"] = 6
        rec["length"] = 100
        fm = extract_features(rec, source="sflow")
        assert "queue_occupancy" not in fm.names
        assert len(fm.names) == 12

    def test_int_source_has_15_features(self):
        rows = [(0, 1, 2, 3, 4, 6, 100, 0)]
        fm = extract_features(make_int_records(rows), source="int")
        assert len(fm.names) == 15  # the paper's testbed feature count

    def test_hop_latency_optional(self):
        rows = [(0, 1, 2, 3, 4, 6, 100, 0)]
        fm = extract_features(
            make_int_records(rows), source="int", include_hop_latency=True
        )
        assert "hop_latency" in fm.names
        assert len(fm.names) == 16

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            extract_features(np.empty(0, dtype=REPORT_DTYPE), source="netflow")
        with pytest.raises(ValueError):
            extract_features(np.empty(0, dtype=REPORT_DTYPE), wrap_mode="bogus")


@given(
    n_flows=st.integers(1, 6),
    n_packets=st.integers(1, 60),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_vectorized_equals_streaming(n_flows, n_packets, seed):
    """The bulk extractor must reproduce the online FlowRecord exactly."""
    rng = np.random.default_rng(seed)
    flows = [(int(rng.integers(1, 100)), 2, int(rng.integers(1, 1000)), 80, 6)
             for _ in range(n_flows)]
    rows = []
    t = 0
    for _ in range(n_packets):
        t += int(rng.integers(1, 10**9))
        f = flows[int(rng.integers(0, n_flows))]
        rows.append((t, *f[:2], *f[2:4], f[4], int(rng.integers(60, 1500)),
                     int(rng.integers(0, 50))))
    rec = make_int_records(rows)
    fm = extract_features(rec, source="int")

    names = feature_names("int")
    ft = FlowTable()
    for i, r in enumerate(rec):
        key = (int(r["src_ip"]), int(r["dst_ip"]), int(r["src_port"]),
               int(r["dst_port"]), int(r["protocol"]))
        frec = ft.update(key, int(r["ts_report"]), int(r["ingress_ts"]),
                         float(r["length"]), int(r["protocol"]),
                         float(r["queue_occupancy"]), float(r["hop_latency"]))
        v = np.asarray(frec.feature_row())[[FEATURE_ORDER.index(n) for n in names]]
        np.testing.assert_allclose(v, fm.X[i], rtol=1e-6, atol=1e-7)
