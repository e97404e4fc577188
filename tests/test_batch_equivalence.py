"""Batch-vs-scalar equivalence: the vectorized hot path must be
*bit-identical* to the paper-faithful scalar pipeline.

The batched mode exists purely for throughput — every observable
artifact (flow-record contents, Welford states, LRU order, pending-
update order, votes, sliding-window decisions, counters, and — under a
deterministic injected clock — even the wall stamps inside every stored
:class:`PredictionEntry`) must match the scalar path exactly.  These
tests replay identical telemetry through both modes and compare
everything, clean and under the PR 1 chaos schedule.
"""

import gc
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AutomatedDDoSDetector, pretrain
from repro.core.prediction import PredictionUnavailableError
from repro.features import FlowRecord, Welford, extract_features, flow_table
from repro.features.batch import group_by_flow
from repro.features.flow_table import FlowTable
from repro.features.keys import canonical_flow_key, canonical_key_arrays
from repro.int_telemetry import REPORT_DTYPE
from repro.ml import GaussianNB, RandomForestClassifier
from repro.resilience.chaos import ChaosSchedule

# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


def synthetic_records(n_flows=30, pkts_per_flow=6, attack=False, t0=0):
    rows = []
    t = t0
    for f in range(n_flows):
        sport = 1000 + f
        for _ in range(pkts_per_flow):
            t += 50_000 if attack else 2_000_000
            length = 64 if attack else 1200
            src = 0x01000000 + f if attack else 0xAC100000 + f
            rows.append((t, src, 0x0A0A0050, sport, 80, 6, 2, length,
                         t % 2**32, t % 2**32, 0, 500, 3))
    rec = np.zeros(len(rows), dtype=REPORT_DTYPE)
    for i, row in enumerate(rows):
        rec[i] = row
    return rec


@pytest.fixture(scope="module")
def bundle():
    ben = synthetic_records(attack=False)
    atk = synthetic_records(attack=True, t0=10**9)
    records = np.concatenate([ben, atk])
    fm = extract_features(records, source="int")
    y = np.array([0] * len(ben) + [1] * len(atk))
    # RF + GNB panel: threshold/elementwise models whose batched
    # prediction is bit-identical to per-row prediction.
    return pretrain(
        fm.X, y, fm.names,
        panel={
            "rf": lambda: RandomForestClassifier(n_estimators=5, max_depth=6, seed=0),
            "gnb": lambda: GaussianNB(),
        },
    )


@pytest.fixture(scope="module")
def stream():
    ben = synthetic_records(attack=False)
    atk = synthetic_records(attack=True, t0=10**9)
    records = np.concatenate([ben, atk])
    return records[np.random.default_rng(7).permutation(len(records))]


def counter_clock():
    c = itertools.count()
    return lambda: next(c)


def run_detector(bundle, stream, batched, chaos=None, fast_poll=False,
                 poll_every=37, cycle_budget=50, **kwargs):
    det = AutomatedDDoSDetector(
        bundle,
        fast_poll=fast_poll,
        clock=counter_clock(),
        chaos=chaos,
        chaos_seed=123,
        batched=batched,
        **kwargs,
    )
    db = det.run_stream(stream, poll_every=poll_every, cycle_budget=cycle_budget)
    return det, db


def assert_tables_equal(a: FlowTable, b: FlowTable) -> None:
    items_a = [(k, a.get(k)) for k in a.keys()]
    items_b = [(k, b.get(k)) for k in b.keys()]
    keys = [k for k, _ in items_a]
    assert keys == [k for k, _ in items_b]  # incl. LRU order
    # The stored feature rows are the decoded records' feature_row, bit
    # for bit, on both sides.
    for table, items in ((a, items_a), (b, items_b)):
        rows, resident = table.feature_rows(keys)
        assert resident.all()
        decoded = np.array([r.feature_row() for _, r in items], dtype=np.float64)
        assert rows.tobytes() == decoded.tobytes()
    for (_, ra), (_, rb) in zip(items_a, items_b):
        assert ra.feature_row() == rb.feature_row()
        assert ra.size_stats.state() == rb.size_stats.state()
        assert ra.iat_stats.state() == rb.iat_stats.state()
        assert ra.occ_stats.state() == rb.occ_stats.state()
        assert (ra.created_ns, ra.updated_ns, ra.n_packets, ra.total_bytes,
                ra.duration_s, ra.updates) == \
               (rb.created_ns, rb.updated_ns, rb.n_packets, rb.total_bytes,
                rb.duration_s, rb.updates)
    assert (a.created, a.evicted) == (b.created, b.evicted)


# ---------------------------------------------------------------------------
# end-to-end replay equivalence
# ---------------------------------------------------------------------------

CHAOS = ChaosSchedule(
    drop_rate=0.05, burst_p=0.02, burst_r=0.3, burst_loss=0.8,
    duplicate_rate=0.03, reorder_rate=0.04, reorder_depth=3,
    corrupt_rate=0.02,
)


class TestRunStreamEquivalence:
    @pytest.mark.parametrize("fast_poll", [False, True])
    @pytest.mark.parametrize("chaos", [None, CHAOS], ids=["clean", "chaos"])
    def test_full_replay_identical(self, bundle, stream, chaos, fast_poll):
        det_s, db_s = run_detector(bundle, stream, False, chaos, fast_poll)
        det_b, db_b = run_detector(bundle, stream, True, chaos, fast_poll)
        # Every stored entry — key, votes, label, windowed decision, and
        # (under the counter clock) both wall stamps — must be equal.
        assert db_s.predictions == db_b.predictions
        assert len(db_s.predictions) > 0
        assert_tables_equal(db_s.flows, db_b.flows)
        stats_s, stats_b = det_s.stats(), det_b.stats()
        # The paper-faithful poll scan is the one counter the batched
        # mode legitimately shares (same polls, same resident flows).
        assert stats_s == stats_b

    def test_counters_track_replay(self, bundle, stream):
        det_b, db = run_detector(bundle, stream, True)
        stats = det_b.stats()
        assert stats["reports_consumed"] == stream.shape[0]
        assert stats["packets_processed"] == stream.shape[0]
        assert stats["updates_registered"] == stream.shape[0]
        assert stats["predictions_stored"] == len(db.predictions)

    def test_max_flows_pressure_identical(self, bundle, stream):
        # Tight table cap forces the batched ingest onto its scalar
        # eviction fallback mid-run; results must still match.
        _, db_s = run_detector(bundle, stream, False, max_flows=7)
        det_b, db_b = run_detector(bundle, stream, True, max_flows=7)
        assert db_s.predictions == db_b.predictions
        assert_tables_equal(db_s.flows, db_b.flows)
        assert det_b.db.flows.evicted > 0

    def test_sflow_source_identical(self, bundle, stream):
        from repro.sflow import SAMPLE_DTYPE

        samples = np.zeros(stream.shape[0], dtype=SAMPLE_DTYPE)
        for name in ("src_ip", "dst_ip", "src_port", "dst_port",
                     "protocol", "length"):
            samples[name] = stream[name]
        samples["ts_collector"] = stream["ts_report"]
        samples["ts_sample"] = stream["ts_report"] % 2**32
        det_s = AutomatedDDoSDetector(bundle, source="sflow", clock=counter_clock())
        db_s = det_s.run_stream(samples, poll_every=37, cycle_budget=50)
        det_b = AutomatedDDoSDetector(bundle, source="sflow", clock=counter_clock(),
                                      batched=True)
        db_b = det_b.run_stream(samples, poll_every=37, cycle_budget=50)
        assert db_s.predictions == db_b.predictions
        assert_tables_equal(db_s.flows, db_b.flows)


# ---------------------------------------------------------------------------
# batched dispatch resilience semantics
# ---------------------------------------------------------------------------


class TestBatchedDispatchResilience:
    def _fed_detector(self, bundle, n_records=130):
        det = AutomatedDDoSDetector(
            bundle, fast_poll=True, clock=counter_clock(), batched=True
        )
        records = synthetic_records(n_flows=n_records, pkts_per_flow=1)
        det.collection.feed_batch(records)
        return det, n_records

    def test_deadline_sheds_before_dispatch(self, bundle):
        det, n = self._fed_detector(bundle)
        det.central.deadline_ns = 0  # counter clock: poll alone exceeds it
        assert det.central.cycle(max_updates=None) == n
        stats = det.central.stats()
        assert stats["updates_shed"] == n
        assert stats["updates_dispatched"] == 0
        assert stats["deadline_hits"] == 1

    def test_deadline_sheds_between_chunks(self, bundle):
        det, n = self._fed_detector(bundle)
        chunk = det.central.BATCH_SHED_CHUNK
        # The scatter loop reads the clock once per update; a budget of
        # chunk+1 ticks admits exactly one chunk, then sheds the rest.
        det.central.deadline_ns = chunk + 1
        assert det.central.cycle(max_updates=None) == n
        stats = det.central.stats()
        assert stats["updates_dispatched"] == chunk
        assert stats["updates_shed"] == n - chunk
        assert stats["deadline_hits"] == 1
        assert len(det.db.predictions) == chunk

    def test_prediction_unavailable_sheds_batch(self, bundle):
        det, n = self._fed_detector(bundle)

        def boom(X):
            raise PredictionUnavailableError("all members quarantined")

        det.prediction.predict_batch = boom
        assert det.central.cycle(max_updates=None) == n
        stats = det.central.stats()
        assert stats["updates_shed"] == n
        assert det.watchdog.snapshot()["prediction"] == "FAILED"

    def test_evicted_flows_skipped(self, bundle):
        # Eviction *between* poll and dispatch (the poll itself already
        # drops pending updates of flows evicted earlier).
        det, n = self._fed_detector(bundle)
        updates = det.db.poll_updates()
        flows = det.db.flows
        victims = sorted(set(updates["slot"][:3].tolist()))
        for slot in victims:  # simulate flood-pressure eviction
            flows._slot.pop(tuple(flows.key_col[slot].tolist()))
            flows._release([slot])
        gone = int(np.isin(updates["slot"], victims).sum())
        assert gone >= 3
        det.central._dispatch_batched(updates, None, 0)
        stats = det.central.stats()
        assert stats["skipped_evicted"] == gone
        assert stats["updates_dispatched"] == n - gone
        assert len(det.db.predictions) == n - gone


# ---------------------------------------------------------------------------
# FlowTable.update_batch property tests
# ---------------------------------------------------------------------------


def _random_records(rng: np.random.Generator, n: int) -> np.ndarray:
    """Records drawn from tiny endpoint pools, so one batch is dense
    with duplicate keys (and both flow directions of the same key)."""
    rec = np.zeros(n, dtype=REPORT_DTYPE)
    rec["src_ip"] = rng.integers(1, 5, n)
    rec["dst_ip"] = rng.integers(1, 5, n)
    rec["src_port"] = rng.integers(1, 4, n)
    rec["dst_port"] = rng.integers(1, 4, n)
    rec["protocol"] = rng.choice([6, 17], n)
    rec["ts_report"] = np.cumsum(rng.integers(1, 2**31, n))
    rec["ingress_ts"] = rec["ts_report"] % 2**32
    rec["length"] = rng.integers(40, 1500, n)
    rec["queue_occupancy"] = rng.integers(0, 1000, n)
    rec["hop_latency"] = rng.integers(0, 10**6, n)
    return rec


def _scalar_table(records, max_flows=None):
    table = FlowTable(max_flows=max_flows)
    for i in range(records.shape[0]):
        r = records[i]
        key = canonical_flow_key(
            int(r["src_ip"]), int(r["dst_ip"]),
            int(r["src_port"]), int(r["dst_port"]), int(r["protocol"]),
        )
        table.update(key, int(r["ts_report"]), int(r["ingress_ts"]),
                     float(r["length"]), int(r["protocol"]),
                     float(r["queue_occupancy"]), float(r["hop_latency"]))
    return table


def _batched_table(records, cuts, max_flows=None):
    table = FlowTable(max_flows=max_flows)
    bounds = [0] + sorted(cuts) + [records.shape[0]]
    for a, b in zip(bounds[:-1], bounds[1:]):
        chunk = records[a:b]
        if chunk.shape[0] == 0:
            continue
        batch = group_by_flow(*canonical_key_arrays(chunk))
        table.update_batch(
            batch,
            chunk["ts_report"].astype(np.int64),
            chunk["ingress_ts"].astype(np.int64),
            chunk["length"].astype(np.float64),
            chunk["protocol"].astype(np.int64),
            chunk["queue_occupancy"].astype(np.float64),
            chunk["hop_latency"].astype(np.float64),
        )
    return table


class TestUpdateBatchProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 80),
        n_cuts=st.integers(0, 5),
    )
    def test_duplicate_keys_in_one_batch(self, seed, n, n_cuts):
        rng = np.random.default_rng(seed)
        records = _random_records(rng, n)
        cuts = rng.integers(0, n + 1, n_cuts).tolist()
        assert_tables_equal(
            _scalar_table(records), _batched_table(records, cuts)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 80),
        max_flows=st.integers(1, 5),
    )
    # A flow resident at slice start is evicted, then re-created by a
    # later record of the same slice: two incarnations, two slots.
    @example(seed=4, n=16, max_flows=3)
    # More new flows in one slice than max_flows: a flow is created and
    # evicted inside the slice.
    @example(seed=0, n=12, max_flows=2)
    def test_max_flows_eviction_mid_batch(self, seed, n, max_flows):
        rng = np.random.default_rng(seed)
        records = _random_records(rng, n)
        cuts = rng.integers(0, n + 1, 2).tolist()
        assert_tables_equal(
            _scalar_table(records, max_flows),
            _batched_table(records, cuts, max_flows),
        )

    def test_single_flow_repeated_in_batch(self):
        rng = np.random.default_rng(0)
        records = _random_records(rng, 32)
        for name in ("src_ip", "dst_ip", "src_port", "dst_port", "protocol"):
            records[name] = records[name][0]
        assert_tables_equal(
            _scalar_table(records), _batched_table(records, [])
        )

    def test_empty_and_singleton_slices(self):
        rng = np.random.default_rng(1)
        records = _random_records(rng, 10)
        cuts = [0, 1, 1, 5, 10]
        assert_tables_equal(
            _scalar_table(records), _batched_table(records, cuts)
        )


class TestColumnarTable:
    def test_update_batch_is_one_fold(self):
        """The batched fold never replays the scalar path, and the table
        no longer moves state through per-record Welford objects."""
        fold = inspect.getsource(FlowTable.update_batch)
        assert "self.update(" not in fold
        assert "FlowRecord(" not in fold
        module = inspect.getsource(flow_table)
        assert ".state()" not in module
        assert "set_state(" not in module

    def test_no_flow_objects_survive_a_run(self, bundle, stream):
        """Flow state lives in columns: after a run under eviction
        pressure no FlowRecord or Welford is left on the heap."""
        det, _ = run_detector(bundle, stream, True, max_flows=7)
        assert det.db.flows.evicted > 0
        gc.collect()
        assert not [
            o for o in gc.get_objects() if isinstance(o, (FlowRecord, Welford))
        ]

    def test_decision_windows_gauge(self, bundle, stream):
        det, _ = run_detector(bundle, stream, True, max_flows=7)
        stats = det.stats()
        assert det.db.flows.evicted > 0
        # A window is freed with its flow's slot: at most one per
        # resident flow.
        assert 0 < stats["decision_windows"] <= len(det.db.flows)


class TestExpireIdleFastScan:
    def test_stops_at_first_fresh_record(self):
        table = FlowTable(idle_timeout_ns=100)
        for f in range(10):
            table.update((f, 0, 0, 0, 6), now_ns=f * 50, ingress_ts32=0,
                         length=100.0, protocol=6)
        # cutoff = 450 - 100 = 350: flows updated at 0..300 are stale.
        assert table.expire_idle(450) == 7
        assert list(table.keys()) == [(f, 0, 0, 0, 6) for f in (7, 8, 9)]
        assert table.expired == 7
        assert table.expire_idle(450) == 0

    def test_noop_without_timeout(self):
        table = FlowTable()
        table.update((1, 0, 0, 0, 6), now_ns=0, ingress_ts32=0, length=1.0,
                     protocol=6)
        assert table.expire_idle(10**12) == 0
        assert len(table) == 1
