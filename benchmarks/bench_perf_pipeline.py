"""Performance benchmarks: the hot paths of the pipeline.

Not paper reproductions — these keep regressions measurable for the
computational cores: the discrete-event engine, bulk feature extraction,
model training/inference, and the live detector's per-record throughput
(the paper's §V scaling concern in micro form).

This module is also the **perf-trajectory harness**: every test records
its throughput into a module-level scoreboard, which is written to
``benchmarks/BENCH_pipeline.json`` at teardown.  The committed copy of
that file is the baseline; :func:`test_perf_detector_batched_vs_scalar`
fails when the batched/scalar speedup ratio regresses more than
``REGRESSION_TOLERANCE`` below it (the ratio, unlike absolute records/s,
is machine-independent, so the gate works on any CI runner).

``PERF_PROFILE=quick`` shrinks workloads for CI; the committed baseline
is produced by a quick run so CI compares like with like.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import AutomatedDDoSDetector, pretrain
from repro.dataplane import EventQueue
from repro.features import extract_features
from repro.features.flow_table import FlowTable
from repro.int_telemetry import REPORT_DTYPE
from repro.ml import GaussianNB, RandomForestClassifier

PROFILE = os.environ.get("PERF_PROFILE", "full")
QUICK = PROFILE == "quick"

N_EVENTS = 20_000 if QUICK else 100_000
N_EXTRACT = 20_000 if QUICK else 100_000
N_TRAIN = 10_000 if QUICK else 50_000
N_PREDICT = 20_000 if QUICK else 100_000
N_DETECTOR = 6_000 if QUICK else 20_000
# Shard scaling needs enough stream for per-worker compute to dominate
# process startup, or the scaling curve measures fork latency.
N_SHARD = 40_000 if QUICK else 100_000

#: Worker counts for the shard-scaling bench (CI overrides via env).
SHARD_COUNTS = [
    int(c) for c in os.environ.get("SHARD_COUNTS", "1,2,4").split(",") if c.strip()
]

BENCH_PATH = Path(__file__).parent / "BENCH_pipeline.json"
#: Allowed relative drop of the batched/scalar speedup vs the baseline.
REGRESSION_TOLERANCE = 0.20
#: The tentpole's floor: batched end-to-end must beat scalar by this much.
MIN_SPEEDUP = 5.0

#: Floor for the 4-worker sharded speedup over 1-worker sharded —
#: asserted only where >= 4 *usable* CPUs exist to scale onto.
MIN_SHARD_SPEEDUP_4X = 1.6

#: Ceiling for 1-worker sharded wall time over the batched reference —
#: the frame-protocol overhead bound.  Needs >= 2 usable CPUs: with one
#: core, coordinator and worker serialize and wall time measures the
#: scheduler, not the protocol.
MAX_SHARD_1_OVERHEAD = 1.15

#: Sentinel recorded in place of a ratio whose gate had too few usable
#: CPUs to be meaningful — an honest "could not measure" instead of a
#: number that looks like a regression (or a vacuous pass).
SKIPPED = "skipped_insufficient_cpus"


def usable_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host; containers and CI runners pin
    processes to a subset via affinity masks, and a scaling ratio
    measured against CPUs we cannot schedule onto is fiction.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1

#: name -> records/s, filled by the tests, dumped at module teardown.
RATES = {}
#: Shard-scaling curve of this run (worker count -> rate, CPU count).
SHARD_SCALING = {}


@pytest.fixture(scope="module", autouse=True)
def perf_scoreboard():
    yield
    if not RATES:
        return
    payload = {
        "profile": PROFILE,
        "rates_per_s": {k: round(v, 1) for k, v in sorted(RATES.items())},
    }
    if "detector_scalar" in RATES and "detector_batched" in RATES:
        payload["detector_speedup"] = round(
            RATES["detector_batched"] / RATES["detector_scalar"], 2
        )
    if SHARD_SCALING:
        payload["shard_scaling"] = SHARD_SCALING
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {BENCH_PATH}")


def _baseline_speedup():
    if not BENCH_PATH.exists():
        return None
    try:
        return json.loads(BENCH_PATH.read_text()).get("detector_speedup")
    except (ValueError, OSError):
        return None


def _rate(n, seconds):
    return n / seconds if seconds > 0 else float("inf")


def _timed(benchmark, fn, *args):
    """Run through pytest-benchmark when enabled, else one timed call
    (so ``--benchmark-disable`` runs still feed the scoreboard)."""
    if getattr(benchmark, "enabled", True):
        result = benchmark(fn, *args)
        return result, benchmark.stats["mean"]
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def test_perf_event_engine(benchmark):
    """Schedule + drain chained events."""

    def run():
        eq = EventQueue()
        remaining = [N_EVENTS]

        def tick(_):
            remaining[0] -= 1
            if remaining[0] > 0:
                eq.schedule_in(10, tick)

        eq.schedule(0, tick)
        eq.run()
        return eq.processed

    processed, mean_s = _timed(benchmark, run)
    assert processed == N_EVENTS
    RATES["event_engine"] = _rate(N_EVENTS, mean_s)


@pytest.fixture(scope="module")
def synth_records():
    rng = np.random.default_rng(0)
    n = 100_000
    rec = np.zeros(n, dtype=REPORT_DTYPE)
    ts = np.sort(rng.integers(0, 10**10, size=n))
    rec["ts_report"] = ts
    rec["ingress_ts"] = ts % 2**32
    rec["egress_ts"] = ts % 2**32
    rec["src_ip"] = rng.integers(1, 5000, size=n)
    rec["dst_ip"] = 42
    rec["src_port"] = rng.integers(1024, 65535, size=n)
    rec["dst_port"] = 80
    rec["protocol"] = 6
    rec["length"] = rng.integers(40, 1500, size=n)
    return rec


def test_perf_feature_extraction(benchmark, synth_records):
    """Vectorized per-packet features over a record slice."""
    sub = synth_records[:N_EXTRACT]
    fm, mean_s = _timed(benchmark, extract_features, sub, "int")
    assert fm.X.shape == (N_EXTRACT, 15)
    RATES["extraction"] = rate = _rate(N_EXTRACT, mean_s)
    print(f"\nextraction throughput: {rate / 1e6:.2f} M records/s")


def test_perf_flow_ingest_batch_vs_scalar(synth_records):
    """FlowTable fold: per-packet ``update`` vs ``update_batch`` slices."""
    from repro.core.collection import IntDataCollection
    from repro.core.database import FlowDatabase
    from repro.core.processor import DataProcessor
    from repro.features import feature_names

    sub = synth_records[:N_DETECTOR]
    names = feature_names("int")

    def build():
        db = FlowDatabase(FlowTable(), fast_poll=True)
        return IntDataCollection(DataProcessor(db, names)), db

    coll_s, db_s = build()
    t0 = time.perf_counter()
    for i in range(sub.shape[0]):
        coll_s.feed_record(sub[i])
    scalar_s = time.perf_counter() - t0

    coll_b, db_b = build()
    t0 = time.perf_counter()
    for start in range(0, sub.shape[0], 128):
        coll_b.feed_batch(sub[start : start + 128])
    batch_s = time.perf_counter() - t0

    assert db_s.flows.created == db_b.flows.created
    assert db_s.updates_registered == db_b.updates_registered
    RATES["ingest_scalar"] = _rate(sub.shape[0], scalar_s)
    RATES["ingest_batch"] = _rate(sub.shape[0], batch_s)
    print(
        f"\ningest scalar {RATES['ingest_scalar']:,.0f} rec/s, "
        f"batch {RATES['ingest_batch']:,.0f} rec/s "
        f"({scalar_s / batch_s:.1f}x)"
    )
    assert batch_s < scalar_s, "batched ingest slower than scalar"


def test_perf_rf_train(benchmark):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(N_TRAIN, 15))
    y = (X[:, 0] + X[:, 3] > 0).astype(int)

    def run():
        return RandomForestClassifier(
            n_estimators=10, max_depth=10, max_samples=N_TRAIN // 2, seed=0
        ).fit(X, y)

    model, mean_s = _timed(benchmark, run)
    assert model.score(X[:5000], y[:5000]) > 0.9
    RATES["rf_train"] = _rate(N_TRAIN, mean_s)


def test_perf_rf_predict(benchmark):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20_000, 15))
    y = (X[:, 0] > 0).astype(int)
    model = RandomForestClassifier(n_estimators=10, max_depth=10, seed=0).fit(X, y)
    Xq = rng.normal(size=(N_PREDICT, 15))
    preds, mean_s = _timed(benchmark, model.predict, Xq)
    assert preds.shape == (N_PREDICT,)
    RATES["rf_predict"] = _rate(N_PREDICT, mean_s)


@pytest.fixture(scope="module")
def detector_bundle(synth_records):
    sub = synth_records[:N_DETECTOR]
    fm = extract_features(sub, source="int")
    y = (fm.X[:, fm.names.index("packet_size")] < 200).astype(int)
    return pretrain(
        fm.X, y, fm.names,
        panel={"rf": lambda: RandomForestClassifier(n_estimators=5, max_depth=8, seed=0),
               "gnb": lambda: GaussianNB()},
    )


def test_perf_detector_stream(benchmark, synth_records, detector_bundle):
    """Live mechanism throughput, batched hot path (records/second)."""
    sub = synth_records[:N_DETECTOR]

    def run():
        det = AutomatedDDoSDetector(detector_bundle, fast_poll=True, batched=True)
        db = det.run_stream(sub, poll_every=128, cycle_budget=256)
        return len(db.predictions)

    n, mean_s = _timed(benchmark, run)
    assert n == N_DETECTOR
    rate = _rate(n, mean_s)
    print(f"\ndetector throughput (batched): {rate:,.0f} records/s")


def test_perf_detector_batched_vs_scalar(synth_records, detector_bundle):
    """The tentpole gate: batched end-to-end must beat the scalar path
    by :data:`MIN_SPEEDUP` in the *same* run, on identical output, and
    must not regress vs the committed baseline ratio."""
    sub = synth_records[:N_DETECTOR]
    baseline = _baseline_speedup()  # read before the scoreboard overwrites

    def run(batched, repeats=3):
        # Best-of-N: a single lap on a shared single-core runner can be
        # 2x off (GC, noisy neighbours); the min is the honest rate.
        best, db = None, None
        for _ in range(repeats):
            det = AutomatedDDoSDetector(detector_bundle, fast_poll=True,
                                        batched=batched)
            t0 = time.perf_counter()
            db = det.run_stream(sub, poll_every=128, cycle_budget=256)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best, db

    run(True, repeats=1)  # warm both code paths / allocator
    scalar_s, db_s = run(False)
    batch_s, db_b = run(True)

    # Identical work, not just similar: same predictions, same decisions.
    assert len(db_b.predictions) == len(db_s.predictions) == N_DETECTOR
    assert all(
        (a.key, a.label, a.votes, a.final_decision)
        == (b.key, b.label, b.votes, b.final_decision)
        for a, b in zip(db_s.predictions, db_b.predictions)
    )

    RATES["detector_scalar"] = _rate(N_DETECTOR, scalar_s)
    RATES["detector_batched"] = _rate(N_DETECTOR, batch_s)
    speedup = scalar_s / batch_s
    print(
        f"\ndetector scalar {RATES['detector_scalar']:,.0f} rec/s, "
        f"batched {RATES['detector_batched']:,.0f} rec/s ({speedup:.1f}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched path only {speedup:.1f}x over scalar (need {MIN_SPEEDUP}x)"
    )
    if baseline is not None:
        floor = baseline * (1.0 - REGRESSION_TOLERANCE)
        assert speedup >= floor, (
            f"batched/scalar speedup {speedup:.1f}x regressed below "
            f"{floor:.1f}x (baseline {baseline:.1f}x - {REGRESSION_TOLERANCE:.0%})"
        )


def test_perf_knn_query():
    """KNN kd-tree lookup: monolithic single-worker query (the
    pre-optimization path) vs the parallel chunked ``_query``.  The
    before/after note lands in the bench output; identity of the results
    is asserted (worker count only partitions query rows)."""
    from repro.ml.knn import KNeighborsClassifier

    rng = np.random.default_rng(0)
    n_train = 20_000 if QUICK else 50_000
    n_query = 10_000 if QUICK else 50_000
    X = rng.normal(size=(n_train, 8))
    y = (X[:, 0] > 0).astype(int)
    model = KNeighborsClassifier(n_neighbors=5).fit(X, y)
    Xq = rng.normal(size=(n_query, 8))

    model._query(Xq[:256])  # warm both paths
    t0 = time.perf_counter()
    dist_before, idx_before = model._tree.query(Xq, k=5)
    before_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    dist_after, idx_after = model._query(Xq)
    after_s = time.perf_counter() - t0

    assert np.array_equal(idx_before, idx_after)
    assert np.array_equal(dist_before, dist_after)
    RATES["knn_query_serial"] = _rate(n_query, before_s)
    RATES["knn_query_parallel"] = _rate(n_query, after_s)
    print(
        f"\nknn query ({n_query} rows, k=5): before (1 worker) "
        f"{before_s * 1e3:.1f} ms, after (workers=-1, chunked) "
        f"{after_s * 1e3:.1f} ms ({before_s / after_s:.2f}x, "
        f"{os.cpu_count()} cpus)"
    )
    # Tolerant floor: on a 1-core box the two are equivalent; the win
    # appears with cores.  Guard only against the parallel path being
    # outright slower.
    assert after_s <= before_s * 1.5 + 0.05


def test_perf_shard_scaling(synth_records, detector_bundle):
    """Horizontal scaling: sharded throughput at each worker count,
    every run gated on byte-identical merged output vs the single-
    process batched reference.

    Methodology (the digest gate is unconditional; the *ratio* gates
    are honest about the host):

    * timing runs use ``checkpoint_every=0`` — the batched reference
      takes no checkpoints, so a cadence-16 sharded run would measure
      snapshot pickling, not the frame protocol;
    * the batched reference is best-of-2 over the *same* stream and is
      the denominator of the 1-worker overhead ratio;
    * every ratio is published only when enough *usable* CPUs
      (``sched_getaffinity``, not ``cpu_count``) exist for it to mean
      anything; otherwise :data:`SKIPPED` is recorded in its place —
      a 1-core container serializes coordinator and worker, so its
      "overhead" is scheduler noise and its "speedup" is always ~1/N.
    """
    from repro.core.sharding import prediction_log_digest

    sub = synth_records[:N_SHARD]
    n_usable = usable_cpus()

    def lap(n_shards=None):
        det = AutomatedDDoSDetector(
            detector_bundle, fast_poll=True, batched=True
        )
        t0 = time.perf_counter()
        if n_shards is None:
            db = det.run_stream(sub, poll_every=128, cycle_budget=256)
        else:
            db = det.run_stream(
                sub, poll_every=128, cycle_budget=256, shards=n_shards,
                checkpoint_every=0,
            )
        return time.perf_counter() - t0, db

    ref_s, db_ref = lap()  # warm lap doubles as the digest reference
    ref_digest = prediction_log_digest(db_ref)
    ref_s = min(ref_s, lap()[0])
    batched_rate = _rate(N_SHARD, ref_s)

    rates = {}
    for n_shards in SHARD_COUNTS:
        best, db = None, None
        for _ in range(2):
            dt, db = lap(n_shards)
            best = dt if best is None else min(best, dt)
        # Equivalence gate — unconditional: the merged prediction log
        # must be result-identical to the single-process batched run.
        assert len(db.predictions) == len(db_ref.predictions)
        assert prediction_log_digest(db) == ref_digest, (
            f"sharded run ({n_shards} workers) diverged from the "
            f"single-process batched output"
        )
        rates[n_shards] = _rate(N_SHARD, best)
        RATES[f"detector_sharded_{n_shards}"] = rates[n_shards]
        print(
            f"\nsharded detector x{n_shards}: {rates[n_shards]:,.0f} rec/s"
        )

    SHARD_SCALING["usable_cpus"] = n_usable
    SHARD_SCALING["host_cpus"] = os.cpu_count() or 1
    SHARD_SCALING["records"] = N_SHARD
    SHARD_SCALING["checkpoint_every"] = 0
    SHARD_SCALING["batched_rate_per_s"] = round(batched_rate, 1)
    SHARD_SCALING["rates_per_s"] = {
        str(k): round(v, 1) for k, v in rates.items()
    }

    if 1 in rates:
        overhead = batched_rate / rates[1]  # >1 means sharding costs
        if n_usable >= 2:
            SHARD_SCALING["sharded_1_overhead_x"] = round(overhead, 2)
            assert overhead <= MAX_SHARD_1_OVERHEAD, (
                f"1-worker sharded run is {overhead:.2f}x the batched "
                f"wall time (bound {MAX_SHARD_1_OVERHEAD}x): frame "
                f"protocol overhead regressed"
            )
        else:
            SHARD_SCALING["sharded_1_overhead_x"] = SKIPPED
            print(
                f"\n1-worker overhead {overhead:.2f}x measured but not "
                f"published ({n_usable} usable cpu(s) < 2: coordinator "
                f"and worker serialize)"
            )
    for n_shards, rate in rates.items():
        if n_shards == 1 or 1 not in rates:
            continue
        speedup = rate / rates[1]
        if n_usable >= n_shards:
            SHARD_SCALING[f"speedup_{n_shards}x"] = round(speedup, 2)
        else:
            SHARD_SCALING[f"speedup_{n_shards}x"] = SKIPPED
            print(
                f"{n_shards}-worker speedup {speedup:.2f}x measured but "
                f"not published ({n_usable} usable cpu(s) < {n_shards})"
            )
    if SHARD_SCALING.get("speedup_4x") not in (None, SKIPPED):
        assert SHARD_SCALING["speedup_4x"] >= MIN_SHARD_SPEEDUP_4X, (
            f"4-worker sharded speedup {SHARD_SCALING['speedup_4x']:.2f}x "
            f"below {MIN_SHARD_SPEEDUP_4X}x on {n_usable} usable cpus"
        )
