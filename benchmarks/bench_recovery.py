"""Recovery-cost benchmarks for the supervised sharded runtime (PR 5).

Fault tolerance is only usable if recovery is cheap: a murdered worker
must come back (checkpoint restore + replay-buffer drain) without
stretching the run materially.  This module measures that cost and is
part of the perf-trajectory harness: the scoreboard is written to
``benchmarks/BENCH_recovery.json`` at teardown so the trajectory of
restore latency and recovery overhead is tracked alongside
``BENCH_pipeline.json``.

Reported numbers:

* ``restore_latency_s`` — supervisor-measured time from death detection
  to the respawned worker having its replay suffix queued;
* ``checkpoint_pack_s`` / ``checkpoint_restore_s`` — snapshot/restore of
  a loaded detector in isolation (the worker-side cost paid every
  ``checkpoint_every`` cycles);
* ``recovery_overhead_x`` — wall-clock of a run with one mid-stream
  SIGKILL over the clean sharded run.  Gated at
  :data:`MAX_RECOVERY_OVERHEAD` (acceptance: within 2x), with the
  merged-digest identity asserted on every run.

``PERF_PROFILE=quick`` shrinks the stream for CI.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import AutomatedDDoSDetector, pretrain
from repro.core.checkpoint import restore_detector, snapshot_detector
from repro.core.sharding import prediction_log_digest
from repro.features import extract_features
from repro.int_telemetry import REPORT_DTYPE
from repro.ml import GaussianNB, RandomForestClassifier
from repro.resilience.process_chaos import ProcessChaos

PROFILE = os.environ.get("PERF_PROFILE", "full")
QUICK = PROFILE == "quick"

N_RECORDS = 20_000 if QUICK else 60_000
POLL_EVERY = 128
CYCLE_BUDGET = 256
N_SHARDS = 2
CHECKPOINT_EVERY = 8

BENCH_PATH = Path(__file__).parent / "BENCH_recovery.json"
#: Acceptance gate: a one-kill recovery run must finish within this
#: factor of the clean sharded wall-clock.
MAX_RECOVERY_OVERHEAD = 2.0

#: name -> seconds (or ratio), filled by the tests, dumped at teardown.
TIMINGS = {}


@pytest.fixture(scope="module", autouse=True)
def recovery_scoreboard():
    yield
    if not TIMINGS:
        return
    payload = {
        "profile": PROFILE,
        "records": N_RECORDS,
        "shards": N_SHARDS,
        "checkpoint_every": CHECKPOINT_EVERY,
    }
    payload.update({k: round(v, 6) for k, v in sorted(TIMINGS.items())})
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {BENCH_PATH}")


@pytest.fixture(scope="module")
def synth_records():
    rng = np.random.default_rng(0)
    n = N_RECORDS
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


@pytest.fixture(scope="module")
def detector_bundle(synth_records):
    fm = extract_features(synth_records, source="int")
    y = (fm.X[:, fm.names.index("packet_size")] < 200).astype(int)
    return pretrain(
        fm.X, y, fm.names,
        panel={
            "rf": lambda: RandomForestClassifier(
                n_estimators=5, max_depth=8, seed=0
            ),
            "gnb": lambda: GaussianNB(),
        },
    )


def _run(bundle, records, **kw):
    det = AutomatedDDoSDetector(bundle, fast_poll=True)
    t0 = time.perf_counter()
    db = det.run_stream(
        records, poll_every=POLL_EVERY, cycle_budget=CYCLE_BUDGET, **kw
    )
    return det, db, time.perf_counter() - t0


def test_bench_checkpoint_pack_restore(synth_records, detector_bundle):
    """Worker-side checkpoint cost: snapshot + restore of a detector
    loaded with the full stream's flow state."""
    det = AutomatedDDoSDetector(detector_bundle, fast_poll=True)
    det.run_stream(synth_records, poll_every=POLL_EVERY,
                   cycle_budget=CYCLE_BUDGET)

    t0 = time.perf_counter()
    blob = snapshot_detector(det, cycles_done=7, last_seq=N_RECORDS - 1)
    pack_s = time.perf_counter() - t0

    fresh = AutomatedDDoSDetector(detector_bundle, fast_poll=True)
    t0 = time.perf_counter()
    payload = restore_detector(fresh, blob)
    restore_s = time.perf_counter() - t0

    assert payload["cycles_done"] == 7
    assert len(fresh.db.predictions) == len(det.db.predictions)
    TIMINGS["checkpoint_pack_s"] = pack_s
    TIMINGS["checkpoint_restore_s"] = restore_s
    TIMINGS["checkpoint_bytes"] = float(len(blob))
    print(
        f"\ncheckpoint: pack {pack_s * 1e3:.1f} ms, restore "
        f"{restore_s * 1e3:.1f} ms, {len(blob) / 1e6:.2f} MB "
        f"({N_RECORDS} records of flow state)"
    )


def test_bench_recovery_overhead(synth_records, detector_bundle):
    """The acceptance gate: one mid-stream SIGKILL must cost less than
    :data:`MAX_RECOVERY_OVERHEAD` x the clean sharded wall-clock, and
    the recovered digest must equal the unfaulted single-process run."""
    _, db_ref, _ = _run(detector_bundle, synth_records)
    ref_digest = prediction_log_digest(db_ref)

    # best-of-2 clean laps (shared runners are noisy)
    clean_s = None
    for _ in range(2):
        _, db_clean, dt = _run(
            detector_bundle, synth_records, shards=N_SHARDS,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        clean_s = dt if clean_s is None else min(clean_s, dt)
    assert prediction_log_digest(db_clean) == ref_digest

    n_cycles = N_RECORDS // POLL_EVERY
    plan = ProcessChaos.seeded(
        seed=1, n_cycles=max(1, n_cycles - 1), n_shards=N_SHARDS
    )
    det, db_kill, kill_s = _run(
        detector_bundle, synth_records, shards=N_SHARDS,
        checkpoint_every=CHECKPOINT_EVERY, process_chaos=plan,
    )
    assert prediction_log_digest(db_kill) == ref_digest
    sup = det.supervision_stats
    assert sup["workers_respawned"] >= 1 and sup["lossy_recoveries"] == 0

    restore_s = max(sup["restore_latencies_s"])
    overhead = kill_s / clean_s
    TIMINGS["clean_sharded_s"] = clean_s
    TIMINGS["recovery_run_s"] = kill_s
    TIMINGS["restore_latency_s"] = restore_s
    TIMINGS["recovery_overhead_x"] = overhead
    print(
        f"\nrecovery ({plan.describe()}): clean {clean_s:.2f} s, with kill "
        f"{kill_s:.2f} s ({overhead:.2f}x), restore latency "
        f"{restore_s * 1e3:.0f} ms"
    )
    assert overhead <= MAX_RECOVERY_OVERHEAD, (
        f"recovery run took {overhead:.2f}x the clean sharded wall-clock "
        f"(gate: {MAX_RECOVERY_OVERHEAD}x)"
    )
