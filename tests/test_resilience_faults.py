"""Resilience layer: fault injection + graceful degradation.

Covers the chaos injector's fault models (drop, burst, duplication,
bounded reordering, corruption, outages) and their bookkeeping, the
property that duplicated/reordered telemetry keeps flow features sane
through DataProcessor/FlowTable (no double-registered records, IAT and
counts finite and non-negative), and the degradation machinery:
per-model quarantine with adjusted quorum, CentralServer deadline
shedding and poll retry/backoff, and watchdog health transitions.
"""

import numpy as np
import pytest

from repro.core.central import CentralServer
from repro.core.collection import IntDataCollection
from repro.core.database import FlowDatabase
from repro.core.mechanism import AutomatedDDoSDetector
from repro.core.prediction import PredictionModule, PredictionUnavailableError
from repro.core.processor import DataProcessor
from repro.core.training import TrainedBundle
from repro.features.flow_table import FlowTable
from repro.int_telemetry.report import REPORT_DTYPE
from repro.ml.scaler import StandardScaler
from repro.resilience import (
    ChaosSchedule,
    FaultInjector,
    HealthLogSink,
    ModuleHealth,
    Watchdog,
    retry_with_backoff,
)

# ----------------------------------------------------------------------
# fixtures and helpers
# ----------------------------------------------------------------------

FEATURES = (
    "protocol",
    "packet_size",
    "inter_arrival",
    "inter_arrival_avg",
    "inter_arrival_std",
    "n_packets",
    "packets_per_second",
)


def make_records(n=400, n_flows=5, seed=0, gap_ns=1_000_000):
    """Synthetic REPORT_DTYPE rows: round-robin flows, increasing ts."""
    rng = np.random.default_rng(seed)
    a = np.zeros(n, dtype=REPORT_DTYPE)
    a["ts_report"] = np.arange(n, dtype=np.int64) * gap_ns
    a["src_ip"] = 0x0A00_0001 + (np.arange(n) % n_flows)
    a["dst_ip"] = 0x0A00_00FF
    a["src_port"] = 40_000 + (np.arange(n) % n_flows)
    a["dst_port"] = 80
    a["protocol"] = 6
    a["length"] = rng.integers(60, 1500, n)
    a["ingress_ts"] = a["ts_report"] % (2**32)
    return a


class _RecordingSink:
    """Inner collection stub that records what the injector forwards."""

    def __init__(self):
        self.rows = []

    def feed_record(self, row):
        self.rows.append(row.copy())


class _ConstModel:
    def __init__(self, value):
        self.value = value

    def predict(self, X):
        return np.full(np.asarray(X).shape[0], self.value)


class _RaisingModel:
    def predict(self, X):
        raise RuntimeError("boom")


class _NaNModel:
    def predict(self, X):
        return np.full(np.asarray(X).shape[0], np.nan)


def make_prediction_module(models, n_features=len(FEATURES), **kw):
    rng = np.random.default_rng(0)
    scaler = StandardScaler().fit(rng.normal(size=(50, n_features)))
    return PredictionModule(scaler, models, FEATURES[:n_features], **kw)


def make_pipeline(clock=None, **central_kw):
    db = FlowDatabase(FlowTable())
    processor = DataProcessor(db, FEATURES, emit_partial=True, clock=clock)
    prediction = make_prediction_module({"a": _ConstModel(1), "b": _ConstModel(0),
                                         "c": _ConstModel(1)})
    central = CentralServer(db, processor, prediction, clock=clock, **central_kw)
    return db, processor, prediction, central


# ----------------------------------------------------------------------
# ChaosSchedule
# ----------------------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(ValueError):
        ChaosSchedule(drop_rate=1.5)
    with pytest.raises(ValueError):
        ChaosSchedule(reorder_depth=0)
    with pytest.raises(ValueError):
        ChaosSchedule(burst_p=0.1)  # absorbing bad state
    with pytest.raises(ValueError):
        ChaosSchedule(outages_ns=((5, 5),))
    assert ChaosSchedule().is_noop
    assert not ChaosSchedule(drop_rate=0.1).is_noop
    # hashable (used as an experiment cache key)
    assert hash(ChaosSchedule(drop_rate=0.1)) == hash(ChaosSchedule(drop_rate=0.1))


def test_schedule_expected_loss_combines_processes():
    s = ChaosSchedule(drop_rate=0.1, burst_p=0.1, burst_r=0.4, burst_loss=1.0)
    burst = 0.1 / 0.5
    assert s.expected_loss == pytest.approx(1 - 0.9 * (1 - burst))
    assert "drop" in s.describe() and "burst" in s.describe()
    assert ChaosSchedule().describe() == "clean"


# ----------------------------------------------------------------------
# FaultInjector: fault models and bookkeeping
# ----------------------------------------------------------------------

def test_noop_schedule_is_identity():
    rec = make_records(100)
    out, idx = FaultInjector(ChaosSchedule(), seed=1).apply(rec)
    assert out.shape[0] == 100
    assert (idx == np.arange(100)).all()
    assert (out == rec).all()


def test_uniform_drop_bookkeeping_and_determinism():
    rec = make_records(1000)
    inj1 = FaultInjector(ChaosSchedule(drop_rate=0.3), seed=42)
    out1, idx1 = inj1.apply(rec)
    assert inj1.stats.offered == 1000
    assert inj1.stats.delivered == out1.shape[0]
    assert inj1.stats.dropped_uniform == 1000 - out1.shape[0]
    assert 0.2 < inj1.stats.loss_fraction < 0.4

    # same seed, same outcome — chaos runs are reproducible
    out2, idx2 = FaultInjector(ChaosSchedule(drop_rate=0.3), seed=42).apply(rec)
    assert (idx1 == idx2).all()
    # the vectorized fast path and the generic path agree on counts
    inj3 = FaultInjector(ChaosSchedule(drop_rate=0.3), seed=42)
    out3, _ = inj3.apply(rec, vectorized=False)
    assert abs(out3.shape[0] - out1.shape[0]) < 100


def test_burst_loss_is_bursty_and_counted():
    rec = make_records(3000)
    inj = FaultInjector(
        ChaosSchedule(burst_p=0.02, burst_r=0.2, burst_loss=1.0), seed=3
    )
    out, idx = inj.apply(rec)
    s = inj.stats
    assert s.dropped_burst > 0
    assert s.delivered + s.dropped == s.offered == 3000
    # burstiness: losses cluster — there is at least one run of >= 3
    # consecutive lost reports, which iid loss at this rate rarely gives
    lost = np.setdiff1d(np.arange(3000), idx)
    runs = np.split(lost, np.flatnonzero(np.diff(lost) != 1) + 1)
    assert max(len(r) for r in runs) >= 3


def test_outage_window_drops_by_timestamp():
    rec = make_records(300, gap_ns=1_000_000)  # ts 0 .. 299e6
    window = (100_000_000, 200_000_000)
    inj = FaultInjector(ChaosSchedule(outages_ns=(window,)), seed=0)
    out, idx = inj.apply(rec)
    assert inj.stats.dropped_outage == 100
    ts = out["ts_report"]
    assert not ((ts >= window[0]) & (ts < window[1])).any()


def test_corruption_touches_payload_not_flow_id():
    rec = make_records(200)
    inj = FaultInjector(
        ChaosSchedule(corrupt_rate=1.0, corrupt_fields=("length",)), seed=5
    )
    out, idx = inj.apply(rec)
    assert inj.stats.corrupted == 200
    for f in ("src_ip", "dst_ip", "src_port", "dst_port", "protocol"):
        assert (out[f] == rec[idx][f]).all(), f
    # scrambled lengths differ from the originals for most rows
    assert (out["length"] != rec[idx]["length"]).mean() > 0.5


def test_reordering_is_bounded_and_lossless():
    rec = make_records(500)
    depth = 4
    inj = FaultInjector(
        ChaosSchedule(reorder_rate=0.5, reorder_depth=depth), seed=9
    )
    out, idx = inj.apply(rec)
    # lossless permutation of the input...
    assert sorted(idx.tolist()) == list(range(500))
    # ...with bounded displacement
    displacement = np.abs(idx - np.arange(500))
    assert displacement.max() <= depth
    assert inj.stats.reordered > 0


def test_streaming_matches_batch_generic_path():
    rec = make_records(600)
    sched = ChaosSchedule(
        drop_rate=0.1, duplicate_rate=0.2, reorder_rate=0.3, reorder_depth=5,
        corrupt_rate=0.1,
    )
    sink = _RecordingSink()
    streaming = FaultInjector(sched, inner=sink, seed=7)
    for i in range(rec.shape[0]):
        streaming.feed_record(rec[i])
    streaming.flush()
    batch = FaultInjector(sched, seed=7)
    out, _ = batch.apply(rec, vectorized=False)
    assert len(sink.rows) == out.shape[0]
    assert all(sink.rows[i] == out[i] for i in range(out.shape[0]))
    assert streaming.stats.as_dict() == batch.stats.as_dict()


def test_streaming_requires_inner():
    inj = FaultInjector(ChaosSchedule(), seed=0)
    with pytest.raises(RuntimeError):
        inj.feed_record(make_records(1)[0])


# ----------------------------------------------------------------------
# duplicated / reordered telemetry through DataProcessor + FlowTable
# ----------------------------------------------------------------------

def _feed_through_processor(records, schedule, seed=0):
    db = FlowDatabase(FlowTable())
    processor = DataProcessor(db, FEATURES, emit_partial=True)
    collection = IntDataCollection(processor)
    inj = FaultInjector(schedule, inner=collection, seed=seed)
    for i in range(records.shape[0]):
        inj.feed_record(records[i])
    inj.flush()
    return db, processor, inj


def test_duplicates_do_not_double_register_flows():
    n_flows = 5
    rec = make_records(300, n_flows=n_flows)
    db, processor, inj = _feed_through_processor(
        rec, ChaosSchedule(duplicate_rate=1.0)
    )
    # every report delivered twice...
    assert inj.stats.duplicated == 300
    assert processor.packets_processed == 600
    # ...but the flow table still holds exactly one record per Flow ID
    assert len(db.flows) == n_flows
    for flow in map(db.flows.get, db.flows.keys()):
        # duplicate reports carry identical timestamps: IAT must clamp
        # to zero, never go negative, and counts must match deliveries
        assert flow.iat_stats.mean >= 0.0
        assert np.isfinite(flow.iat_stats.std)
        assert flow.n_packets == 600 // n_flows
        assert np.isfinite(flow.feature_row()).all()


def test_reordered_reports_keep_features_sane():
    n_flows = 4
    rec = make_records(400, n_flows=n_flows)
    db, processor, inj = _feed_through_processor(
        rec, ChaosSchedule(reorder_rate=0.6, reorder_depth=6), seed=11
    )
    assert inj.stats.reordered > 0
    assert processor.packets_processed == 400
    assert len(db.flows) == n_flows
    for flow in map(db.flows.get, db.flows.keys()):
        # wrap-aware signed differencing clamps out-of-order gaps at 0
        assert flow.inter_arrival_s >= 0.0
        assert flow.iat_stats.mean >= 0.0
        assert flow.duration_s >= 0.0
        assert np.isfinite(flow.feature_row()).all()
        assert flow.n_packets == 400 // n_flows


def test_chaos_mix_property(subtests=None):
    """Property-style sweep: across seeds and schedules, the invariants
    hold — conservation of reports, one record per flow, finite sane
    features."""
    rec = make_records(250, n_flows=3)
    schedules = [
        ChaosSchedule(drop_rate=0.2),
        ChaosSchedule(duplicate_rate=0.3, reorder_rate=0.3),
        ChaosSchedule(drop_rate=0.1, burst_p=0.05, burst_r=0.3,
                      duplicate_rate=0.1, reorder_rate=0.2, corrupt_rate=0.1),
    ]
    for seed in (1, 2, 3):
        for sched in schedules:
            db, processor, inj = _feed_through_processor(rec, sched, seed=seed)
            s = inj.stats
            assert s.offered == 250
            assert s.delivered == 250 - s.dropped + s.duplicated
            assert processor.packets_processed == s.delivered
            assert len(db.flows) <= 3
            for flow in map(db.flows.get, db.flows.keys()):
                assert np.isfinite(flow.feature_row()).all()
                assert flow.iat_stats.mean >= 0.0


# ----------------------------------------------------------------------
# PredictionModule quarantine
# ----------------------------------------------------------------------

def test_quarantine_after_consecutive_failures():
    events = []
    pm = make_prediction_module(
        {"good": _ConstModel(1), "bad": _RaisingModel()},
        failure_threshold=3,
        on_quarantine=lambda name, reason, left: events.append((name, left)),
    )
    x = np.zeros(len(FEATURES))
    for _ in range(3):
        votes = pm.predict_one(x)
        # the misbehaving member is excluded from this update's quorum
        assert votes.tolist() == [1]
    assert pm.quarantined.keys() == {"bad"}
    assert events == [("bad", 1)]
    assert pm.active_model_names == ["good"]
    # quarantined member stays out of later votes without new strikes
    assert pm.predict_one(x).tolist() == [1]


def test_success_resets_strike_count():
    flaky_calls = {"n": 0}

    class _Flaky:
        def predict(self, X):
            flaky_calls["n"] += 1
            if flaky_calls["n"] % 2 == 1:
                raise RuntimeError("transient")
            return np.ones(np.asarray(X).shape[0])

    pm = make_prediction_module(
        {"flaky": _Flaky(), "good": _ConstModel(0)}, failure_threshold=3
    )
    x = np.zeros(len(FEATURES))
    for _ in range(10):  # alternating fail/succeed never quarantines
        pm.predict_one(x)
    assert not pm.quarantined


def test_non_binary_votes_count_as_failures():
    pm = make_prediction_module(
        {"nan": _NaNModel(), "good": _ConstModel(1)}, failure_threshold=2
    )
    x = np.zeros(len(FEATURES))
    pm.predict_one(x)
    pm.predict_one(x)
    assert "nan" in pm.quarantined
    assert "non-binary" in pm.quarantined["nan"]


def test_all_models_quarantined_raises_unavailable():
    pm = make_prediction_module({"bad": _RaisingModel()}, failure_threshold=1)
    x = np.zeros(len(FEATURES))
    with pytest.raises(PredictionUnavailableError):
        pm.predict_one(x)  # strike -> quarantine -> nobody voted
    with pytest.raises(PredictionUnavailableError):
        pm.predict_one(x)  # empty quorum from the start
    pm.reinstate("bad")
    assert pm.active_model_names == ["bad"]


def test_predict_batch_drops_failed_member_column():
    pm = make_prediction_module({"good": _ConstModel(1), "bad": _RaisingModel()})
    X = np.zeros((4, len(FEATURES)))
    votes = pm.predict_batch(X)
    assert votes.shape == (4, 1)
    assert "bad" in pm.quarantined


# ----------------------------------------------------------------------
# CentralServer: counters, deadline shedding, poll retry
# ----------------------------------------------------------------------

def _ingest(processor, n=6, n_flows=2):
    rec = make_records(n, n_flows=n_flows)
    for i in range(n):
        row = rec[i]
        processor.ingest_packet(
            (int(row["src_ip"]), int(row["dst_ip"]), int(row["src_port"]),
             int(row["dst_port"]), int(row["protocol"])),
            ts_sim_ns=int(row["ts_report"]),
            ingress_ts32=int(row["ingress_ts"]),
            length=float(row["length"]),
            protocol=int(row["protocol"]),
        )


def test_skipped_evicted_counter_surfaces_shedding():
    db, processor, prediction, central = make_pipeline()
    _ingest(processor, n=4)
    # simulate flows evicted between poll and dispatch
    processor.features_for = lambda key: None
    central.cycle()
    assert central.skipped_evicted == 4
    assert central.updates_dispatched == 0
    assert central.stats()["skipped_evicted"] == 4


def test_deadline_budget_sheds_backlog():
    ticker = {"now": 0}

    def clock():
        ticker["now"] += 1_000_000  # 1 ms per observation
        return ticker["now"]

    watchdog = Watchdog(clock=lambda: 0)
    db, processor, prediction, central = make_pipeline(
        clock=clock, deadline_ns=2_500_000, watchdog=watchdog
    )
    _ingest(processor, n=20, n_flows=4)
    central.cycle()
    assert central.updates_shed > 0
    assert central.deadline_hits == 1
    assert central.updates_dispatched + central.updates_shed <= 20
    assert watchdog.state("central") == ModuleHealth.DEGRADED
    # drain still terminates under a permanently tight deadline
    central.drain(batch=8)
    assert db.pending_updates == 0


def test_poll_retry_with_backoff_recovers():
    db, processor, prediction, central = make_pipeline()
    watchdog = Watchdog(clock=lambda: 0)
    central.watchdog = watchdog
    sleeps = []
    central.sleep = sleeps.append
    _ingest(processor, n=2)

    real_poll = db.poll_updates
    state = {"fails": 2}

    def flaky_poll(limit=None):
        if state["fails"] > 0:
            state["fails"] -= 1
            raise ConnectionError("transient store hiccup")
        return real_poll(limit=limit)

    db.poll_updates = flaky_poll
    central.cycle()
    assert central.poll_retries == 2
    assert sleeps == [0.005, 0.01]  # exponential backoff
    assert central.updates_dispatched == 2
    # recovered: degradation was reported, then cleared
    states = [(a.module, a.state) for a in watchdog.alerts]
    assert ("database", ModuleHealth.DEGRADED) in states
    assert watchdog.state("database") == ModuleHealth.HEALTHY


def test_poll_failure_exhausts_retries_and_raises():
    db, processor, prediction, central = make_pipeline(poll_attempts=2)
    watchdog = Watchdog(clock=lambda: 0)
    central.watchdog = watchdog
    central.sleep = lambda s: None

    def dead_poll(limit=None):
        raise ConnectionError("store down")

    db.poll_updates = dead_poll
    with pytest.raises(ConnectionError):
        central.cycle()
    assert central.poll_failures == 1
    assert watchdog.state("database") == ModuleHealth.FAILED


def test_prediction_unavailable_sheds_not_crashes():
    db = FlowDatabase(FlowTable())
    processor = DataProcessor(db, FEATURES, emit_partial=True)
    prediction = make_prediction_module(
        {"bad": _RaisingModel()}, failure_threshold=1
    )
    watchdog = Watchdog(clock=lambda: 0)
    central = CentralServer(db, processor, prediction, watchdog=watchdog)
    _ingest(processor, n=3)
    central.cycle()  # must not raise
    assert central.updates_shed == 3
    assert watchdog.state("prediction") == ModuleHealth.FAILED
    central.drain()  # terminates
    assert db.pending_updates == 0


def test_retry_with_backoff_propagates_unlisted_exceptions():
    calls = {"n": 0}

    def fn():
        calls["n"] += 1
        raise KeyError("not retryable")

    with pytest.raises(KeyError):
        retry_with_backoff(fn, attempts=5, retry_on=(ValueError,),
                           sleep=lambda s: None)
    assert calls["n"] == 1


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------

def test_watchdog_emits_only_on_transition():
    sink = HealthLogSink()
    wd = Watchdog(sinks=[sink], clock=lambda: 123)
    assert wd.state("x") == ModuleHealth.HEALTHY
    assert wd.degraded("x", "first") is not None
    assert wd.degraded("x", "again") is None  # coalesced
    assert wd.failed("x") is not None
    assert wd.healthy("x").is_recovery
    assert [a.state for a in sink.alerts] == [
        ModuleHealth.DEGRADED, ModuleHealth.FAILED, ModuleHealth.HEALTHY
    ]
    assert wd.transitions == 3
    assert sink.alerts[0].ts_ns == 123


def test_watchdog_worst_and_snapshot():
    wd = Watchdog()
    assert wd.worst == ModuleHealth.HEALTHY
    wd.degraded("a")
    wd.failed("b")
    assert wd.worst == ModuleHealth.FAILED
    assert wd.snapshot() == {"a": "DEGRADED", "b": "FAILED"}


# ----------------------------------------------------------------------
# end-to-end: the assembled mechanism under chaos
# ----------------------------------------------------------------------

def make_stub_bundle(models=None):
    rng = np.random.default_rng(0)
    scaler = StandardScaler().fit(rng.normal(size=(60, len(FEATURES))))
    if models is None:
        models = {"a": _ConstModel(1), "b": _ConstModel(1), "c": _ConstModel(0)}
    return TrainedBundle(scaler=scaler, models=models,
                         feature_names=list(FEATURES))


def test_detector_runs_under_chaos_and_reports_stats():
    rec = make_records(500, n_flows=6)
    sched = ChaosSchedule(drop_rate=0.1, duplicate_rate=0.1,
                          reorder_rate=0.2, reorder_depth=6)
    det = AutomatedDDoSDetector(make_stub_bundle(), chaos=sched, chaos_seed=3)
    db = det.run_stream(rec, poll_every=32, cycle_budget=64)
    assert len(db.predictions) > 0
    stats = det.stats()
    assert stats["faults"]["offered"] == 500
    assert stats["faults"]["delivered"] == stats["packets_processed"]
    assert stats["overall_health"] == "HEALTHY"
    assert stats["skipped_evicted"] == 0
    # identical seed → identical chaos outcome
    det2 = AutomatedDDoSDetector(make_stub_bundle(), chaos=sched, chaos_seed=3)
    det2.run_stream(rec, poll_every=32, cycle_budget=64)
    assert det2.stats()["faults"] == stats["faults"]


def test_detector_noop_chaos_is_not_wrapped():
    det = AutomatedDDoSDetector(make_stub_bundle(), chaos=ChaosSchedule())
    assert det.fault_injector is None
    assert "faults" not in det.stats()


def test_detector_quarantines_poisoned_member_and_survives():
    calls = {"n": 0}

    class _Poisoned:
        def predict(self, X):
            calls["n"] += 1
            if calls["n"] > 10:
                raise RuntimeError("poisoned")
            return np.ones(np.asarray(X).shape[0])

    bundle = make_stub_bundle(
        {"a": _ConstModel(1), "b": _ConstModel(1), "p": _Poisoned()}
    )
    rec = make_records(300, n_flows=4)
    det = AutomatedDDoSDetector(bundle)
    db = det.run_stream(rec)  # must not crash
    stats = det.stats()
    assert "p" in stats["quarantined_models"]
    assert stats["health"]["prediction"] == "DEGRADED"
    assert len(db.predictions) > 0
    # votes narrowed from 3 members to 2 after quarantine
    assert any(len(e.votes) == 2 for e in db.predictions)


def test_detector_live_attach_rejected_under_chaos():
    det = AutomatedDDoSDetector(
        make_stub_bundle(), chaos=ChaosSchedule(drop_rate=0.5)
    )
    with pytest.raises(RuntimeError):
        det.attach_live(object())
