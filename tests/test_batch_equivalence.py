"""Batch equivalence: the vectorized pipeline must be *bit-identical*
to the paper-faithful per-record walk.

``run_stream`` ingests one slice per poll interval and predicts one
block per cycle, purely for throughput — every observable artifact
(flow-record contents, Welford states, LRU order, pending-update order,
votes, sliding-window decisions, counters, and — under a deterministic
injected clock — even the wall stamps inside every stored
:class:`PredictionEntry`) must match a drive that feeds the same
records one at a time.  That per-record drive lives only here, as the
oracle: :func:`oracle_stream` for ingest and the run loop,
:func:`oracle_dispatch` for one cycle's predict-and-store.  These tests
replay identical telemetry both ways and compare everything, clean and
under the mixed fault schedule ``CHAOS``.
"""

import gc
import inspect
import itertools
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AutomatedDDoSDetector, pretrain
from repro.core.prediction import PredictionUnavailableError
from repro.features import (
    FEATURE_ORDER, FlowRecord, Welford, extract_features, flow_table,
)
from repro.features.batch import group_by_flow
from repro.features.flow_table import FlowTable
from repro.features.keys import canonical_flow_key, canonical_key_arrays
from repro.int_telemetry import REPORT_DTYPE
from repro.int_telemetry.timestamps import delta32_signed, naive_delta32
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


def oracle_stream(det, records, poll_every=37, cycle_budget=50):
    """The per-record reference for ``run_stream``: every offered record
    goes through the fault injector (if any) on its own, every delivered
    row through ``feed_batch`` as a one-row slice, and one ``step``
    follows every ``poll_every`` offered records; then the injector's
    held rows, then ``finish``."""
    injector = det.fault_injector

    def ingest_rows(delivered):
        for j in range(delivered.shape[0]):
            det.collection.feed_batch(delivered[j : j + 1])

    for i in range(records.shape[0]):
        delivered = records[i : i + 1]
        if injector is not None:
            delivered = injector.transform_batch(delivered)
        ingest_rows(delivered)
        if (i + 1) % poll_every == 0:
            det.step(cycle_budget)
    if injector is not None:
        ingest_rows(injector.transform_flush(records.dtype))
    return det.finish(cycle_budget)


def oracle_dispatch(det):
    """The per-row reference for one ``central.cycle``: poll one block,
    then feature row → panel votes → stored result, one row at a time."""
    updates = det.db.poll_updates()
    for i in range(len(updates)):
        update = updates[i : i + 1]
        X, valid = det.processor.features_matrix(update)
        if valid[0]:
            det.processor.receive_predictions_batch(
                update, det.prediction.predict_batch(X),
                epoch=det.prediction.panel_epoch,
            )
    return len(updates)


def run_detector(bundle, stream, oracle=False, chaos=None, fast_poll=False,
                 poll_every=37, cycle_budget=50, **kwargs):
    det = AutomatedDDoSDetector(
        bundle,
        fast_poll=fast_poll,
        clock=counter_clock(),
        chaos=chaos,
        chaos_seed=123,
        **kwargs,
    )
    drive = oracle_stream if oracle else AutomatedDDoSDetector.run_stream
    db = drive(det, stream, poll_every=poll_every, cycle_budget=cycle_budget)
    return det, db


def assert_tables_equal(a, b: FlowTable) -> None:
    """``a`` (a :class:`FlowTable` or the :class:`ReferenceFlowTable`
    model) and ``b`` hold the same flows, records and counters."""
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
        det_s, db_s = run_detector(
            bundle, stream, oracle=True, chaos=chaos, fast_poll=fast_poll
        )
        det_b, db_b = run_detector(bundle, stream, chaos=chaos, fast_poll=fast_poll)
        # Every stored entry — key, votes, label, windowed decision, and
        # (under the counter clock) both wall stamps — must be equal.
        assert db_s.predictions == db_b.predictions
        assert len(db_s.predictions) > 0
        assert_tables_equal(db_s.flows, db_b.flows)
        # Counters too, the modelled poll scan cost included (same polls,
        # same resident flows).
        assert det_s.stats() == det_b.stats()

    def test_counters_track_replay(self, bundle, stream):
        det_b, db = run_detector(bundle, stream)
        stats = det_b.stats()
        assert stats["reports_consumed"] == stream.shape[0]
        assert stats["packets_processed"] == stream.shape[0]
        assert stats["updates_registered"] == stream.shape[0]
        assert stats["predictions_stored"] == len(db.predictions)

    def test_max_flows_pressure_identical(self, bundle, stream):
        # A tight table cap evicts flows inside the slices of the
        # vectorized fold; results must still match.
        _, db_s = run_detector(bundle, stream, oracle=True, max_flows=7)
        det_b, db_b = run_detector(bundle, stream, max_flows=7)
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
        db_s = oracle_stream(det_s, samples)
        det_b = AutomatedDDoSDetector(bundle, source="sflow", clock=counter_clock())
        db_b = det_b.run_stream(samples, poll_every=37, cycle_budget=50)
        assert db_s.predictions == db_b.predictions
        assert len(db_s.predictions) > 0
        assert_tables_equal(db_s.flows, db_b.flows)
        assert det_s.stats() == det_b.stats()


class TestCycleEquivalence:
    @pytest.mark.parametrize("max_flows", [None, 40])
    def test_block_dispatch_matches_row_by_row(self, bundle, stream, max_flows):
        """One polled block through ``cycle`` stores exactly what the
        same rows stored one at a time do, wall stamps included."""
        dets = [
            AutomatedDDoSDetector(bundle, clock=counter_clock(), max_flows=max_flows)
            for _ in range(2)
        ]
        for det in dets:
            det.collection.feed_batch(stream)
        block, rows = dets
        assert block.central.cycle() == oracle_dispatch(rows)
        assert len(block.db.predictions) > 0
        assert block.db.predictions == rows.db.predictions
        assert block.prediction.predictions_served == \
            rows.prediction.predictions_served
        # the block is larger than one deadline chunk
        assert len(block.db.predictions) > block.central.BATCH_SHED_CHUNK


# ---------------------------------------------------------------------------
# dispatch resilience semantics
# ---------------------------------------------------------------------------


class TestBatchedDispatchResilience:
    def _fed_detector(self, bundle, n_records=130):
        det = AutomatedDDoSDetector(bundle, fast_poll=True, clock=counter_clock())
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
        flows = det.db.flows
        poll = det.db.poll_updates
        gone_per_poll = []

        def poll_then_evict(limit=None):
            updates = poll(limit=limit)
            victims = sorted(set(updates["slot"][:3].tolist()))
            for slot in victims:  # simulate flood-pressure eviction
                flows._slot.pop(tuple(flows.key_col[slot].tolist()))
                flows._release([slot])
            gone_per_poll.append(int(np.isin(updates["slot"], victims).sum()))
            return updates

        det.db.poll_updates = poll_then_evict
        assert det.central.cycle() == n
        gone = gone_per_poll[0]
        assert gone >= 3
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


class ReferenceFlowTable:
    """Pure-Python model of :class:`FlowTable`: an ``OrderedDict`` of
    :class:`FlowRecord` in LRU order, :meth:`FlowRecord.update` once per
    packet with a move to the back, and the least recently updated flow
    evicted past ``max_flows``, every record differencing stamps the way
    ``wrap_aware`` says.  Reads the way :func:`assert_tables_equal` reads a
    table."""

    def __init__(self, max_flows=None, wrap_aware=True):
        self.max_flows = max_flows
        self.wrap_aware = wrap_aware
        self.records = OrderedDict()
        self.created = 0
        self.evicted = 0

    def update(self, key, *packet):
        rec = self.records.get(key)
        if rec is None:
            rec = self.records[key] = FlowRecord(key, self.wrap_aware)
            self.created += 1
            if self.max_flows is not None and len(self.records) > self.max_flows:
                self.records.popitem(last=False)
                self.evicted += 1
        else:
            self.records.move_to_end(key)
        rec.update(*packet)

    def keys(self):
        return iter(self.records)

    def get(self, key):
        return self.records.get(key)

    def feature_rows(self, keys):
        rows = np.array([self.records[k].feature_row() for k in keys])
        return rows.reshape(len(keys), len(FEATURE_ORDER)), np.ones(len(keys), bool)


def _scalar_table(records, max_flows=None, wrap_aware=True):
    table = ReferenceFlowTable(max_flows=max_flows, wrap_aware=wrap_aware)
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


def fold_packet(table, key, now_ns, ingress_ts32, length, protocol,
                queue_occupancy=0.0, hop_latency_ns=0.0):
    """One packet of flow ``key`` into ``table`` through
    :meth:`FlowTable.update_batch` as a one-record slice; returns the
    flow's slot."""
    batch = group_by_flow(*(np.array([v]) for v in key))
    slots, _ = table.update_batch(
        batch, [now_ns], [ingress_ts32], [length], [protocol],
        [queue_occupancy], [hop_latency_ns],
    )
    return int(slots[0])


def _batched_table(records, cuts, max_flows=None, wrap_aware=True):
    table = FlowTable(max_flows=max_flows, wrap_aware=wrap_aware)
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


def assert_fold_matches(records, cuts, max_flows=None):
    """The sliced fold equals the per-record reference, with wrap-aware
    and with naive stamp differencing."""
    for wrap_aware in (True, False):
        assert_tables_equal(
            _scalar_table(records, max_flows, wrap_aware),
            _batched_table(records, cuts, max_flows, wrap_aware),
        )


def _skewed_slices(rng: np.random.Generator, n_slices: int, pool: int):
    """Slices that cross the fold's hand-over to its plain-float tail.

    Each slice opens 1 to ``3 * _TAIL_WIDTH`` flows from a pool of
    ``pool`` keys (so flows stay resident across slices, and fresh ones
    come in), with cubed-uniform lengths of 1 to 60 packets, interleaved:
    wide slices run vectorized steps first and leave the long flows to
    the tail mid-flow, narrow ones go to the tail at step 0.  Ingress
    stamps mostly advance by under 10 ms, now and then by just under or
    over half the 32-bit period, or step back a little: stamps wrap, and
    both differencing modes see negative gaps.  Returns records and cuts.
    """
    width = flow_table._TAIL_WIDTH
    slices = []
    for _ in range(n_slices):
        keys = rng.choice(pool, rng.integers(1, 3 * width + 1), replace=False)
        lengths = 1 + (60 * rng.random(keys.shape[0]) ** 3).astype(np.int64)
        slices.append(rng.permutation(np.repeat(keys, lengths)))
    flows = np.concatenate(slices)
    cuts = np.cumsum([s.shape[0] for s in slices])[:-1].tolist()
    n = flows.shape[0]
    step = rng.integers(0, 10**7, n)
    jump = rng.random(n)
    half, back = jump < 0.06, jump > 0.94
    step[half] = 2**31 + rng.integers(-10**6, 10**6, half.sum())
    step[back] = 2**32 - rng.integers(1, 10**6, back.sum())
    rec = np.zeros(n, dtype=REPORT_DTYPE)
    rec["src_ip"] = 1 + flows
    rec["dst_ip"] = 0x0A000001
    rec["src_port"] = 1000
    rec["dst_port"] = 80
    rec["protocol"] = 6
    rec["ts_report"] = np.cumsum(rng.integers(1, 10**6, n))
    rec["ingress_ts"] = np.cumsum(step) % 2**32
    rec["length"] = rng.integers(40, 1500, n)
    rec["queue_occupancy"] = rng.integers(0, 1000, n)
    rec["hop_latency"] = rng.integers(0, 10**6, n)
    return rec, cuts


class TestUpdateBatchProperties:
    # Example counts come from the hypothesis profile (tests/conftest.py):
    # 40 in tier-1, ten times that with ``--hypothesis-profile=deep``.
    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 80),
        n_cuts=st.integers(0, 5),
    )
    def test_duplicate_keys_in_one_batch(self, seed, n, n_cuts):
        rng = np.random.default_rng(seed)
        records = _random_records(rng, n)
        cuts = rng.integers(0, n + 1, n_cuts).tolist()
        assert_fold_matches(records, cuts)

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_slices=st.integers(1, 4),
        pool=st.integers(3 * flow_table._TAIL_WIDTH, 6 * flow_table._TAIL_WIDTH),
        max_flows=st.one_of(st.none(), st.integers(2, 2 * flow_table._TAIL_WIDTH)),
    )
    @example(seed=0, n_slices=3, pool=24, max_flows=None)
    @example(seed=1, n_slices=3, pool=24, max_flows=6)
    def test_tail_handover_matches_reference(self, seed, n_slices, pool, max_flows):
        rng = np.random.default_rng(seed)
        records, cuts = _skewed_slices(rng, n_slices, pool)
        assert_fold_matches(records, cuts, max_flows)

    def test_skewed_slices_cross_the_handover(self, monkeypatch):
        """The drawn streams reach every case the tail handles: a
        hand-over mid-flow, fresh flows at step 0, per-flow stamps that
        wrap or step back, and a flow re-created inside a slice under
        ``max_flows``."""
        tails, walks = [], []
        fold_tail, walk = flow_table._fold_tail, FlowTable._walk

        def spy_tail(c, a, j, *args):
            tails.append((j, bool((c["n_packets"][:a] == 0).any())))
            return fold_tail(c, a, j, *args)

        def spy_walk(table, batch):
            out = walk(table, batch)
            walks.append(len(out[1]) > batch.n_groups)  # a key lived twice
            return out

        monkeypatch.setattr(flow_table, "_fold_tail", spy_tail)
        monkeypatch.setattr(FlowTable, "_walk", spy_walk)
        records, cuts = _skewed_slices(np.random.default_rng(1), 3, 24)
        table = _batched_table(records, cuts, max_flows=6)
        assert any(j > 0 for j, _ in tails)
        assert any(j == 0 and fresh for j, fresh in tails)
        assert any(walks) and table.evicted > 0
        by_flow = np.lexsort((np.arange(records.shape[0]), records["src_ip"]))
        ts = records["ingress_ts"][by_flow].astype(np.int64)
        same = records["src_ip"][by_flow][1:] == records["src_ip"][by_flow][:-1]
        assert (naive_delta32(ts[1:], ts[:-1])[same] < -2**31).any()  # wraps
        assert (delta32_signed(ts[1:], ts[:-1])[same] < 0).any()  # steps back

    @settings(deadline=None)
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
        assert_fold_matches(records, cuts, max_flows)

    def test_single_flow_repeated_in_batch(self):
        rng = np.random.default_rng(0)
        records = _random_records(rng, 32)
        for name in ("src_ip", "dst_ip", "src_port", "dst_port", "protocol"):
            records[name] = records[name][0]
        assert_fold_matches(records, [])

    def test_empty_and_singleton_slices(self):
        rng = np.random.default_rng(1)
        records = _random_records(rng, 10)
        cuts = [0, 1, 1, 5, 10]
        assert_fold_matches(records, cuts)


class TestColumnarTable:
    def test_update_batch_is_one_fold(self):
        """The batched fold never replays per-record ``update``, and the
        table no longer moves state through per-record Welford objects."""
        fold = inspect.getsource(FlowTable.update_batch)
        assert "self.update(" not in fold
        assert "FlowRecord(" not in fold
        module = inspect.getsource(flow_table)
        assert ".state()" not in module
        assert "set_state(" not in module

    def test_no_flow_objects_survive_a_run(self, bundle, stream):
        """Flow state lives in columns: after a run under eviction
        pressure no FlowRecord or Welford is left on the heap."""
        det, _ = run_detector(bundle, stream, max_flows=7)
        assert det.db.flows.evicted > 0
        gc.collect()
        assert not [
            o for o in gc.get_objects() if isinstance(o, (FlowRecord, Welford))
        ]

    def test_decision_windows_gauge(self, bundle, stream):
        det, _ = run_detector(bundle, stream, max_flows=7)
        stats = det.stats()
        assert det.db.flows.evicted > 0
        # A window is freed with its flow's slot: at most one per
        # resident flow.
        assert 0 < stats["decision_windows"] <= len(det.db.flows)


class TestExpireIdleFastScan:
    def test_stops_at_first_fresh_record(self):
        table = FlowTable(idle_timeout_ns=100)
        for f in range(10):
            fold_packet(table, (f, 0, 0, 0, 6), now_ns=f * 50, ingress_ts32=0,
                        length=100.0, protocol=6)
        # cutoff = 450 - 100 = 350: flows updated at 0..300 are stale.
        assert table.expire_idle(450) == 7
        assert list(table.keys()) == [(f, 0, 0, 0, 6) for f in (7, 8, 9)]
        assert table.expired == 7
        assert table.expire_idle(450) == 0

    def test_noop_without_timeout(self):
        table = FlowTable()
        fold_packet(table, (1, 0, 0, 0, 6), now_ns=0, ingress_ts32=0,
                    length=1.0, protocol=6)
        assert table.expire_idle(10**12) == 0
        assert len(table) == 1
