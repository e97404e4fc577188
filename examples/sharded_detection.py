#!/usr/bin/env python
"""Shard-parallel live detection: same answer, more cores.

Builds a small pre-trained panel, replays one synthetic telemetry
stream through the live mechanism twice — single-process, then
sharded across two worker processes — and shows that the merged
prediction log is result-identical (same SHA-256 digest over every
deterministic entry field), clean *and* under fault injection.

The partition is by canonical five-tuple hash, so each worker owns its
flows outright; cycle cadence and chaos replay are driven by the
coordinator, which is what makes the result independent of the worker
count (DESIGN.md §10).

Run:  python examples/sharded_detection.py
"""

import time

import numpy as np

from repro.core import AutomatedDDoSDetector, pretrain
from repro.core.sharding import prediction_log_digest
from repro.features import extract_features
from repro.int_telemetry import REPORT_DTYPE
from repro.ml import GaussianNB, RandomForestClassifier
from repro.resilience.chaos import ChaosSchedule


def synthetic_records(n_flows=60, pkts_per_flow=24, attack=False, t0=0):
    """Benign (slow, large packets) or flood-like (fast, 64 B) flows."""
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


# --- 1. pre-train a small RF + GNB panel -------------------------------
ben = synthetic_records(attack=False)
atk = synthetic_records(attack=True, t0=10**9)
train = np.concatenate([ben, atk])
fm = extract_features(train, source="int")
y = np.array([0] * len(ben) + [1] * len(atk))
bundle = pretrain(
    fm.X, y, fm.names,
    panel={
        "rf": lambda: RandomForestClassifier(n_estimators=5, max_depth=6, seed=0),
        "gnb": lambda: GaussianNB(),
    },
)

# --- 2. one live stream, interleaving benign and attack flows ----------
stream = train[np.random.default_rng(7).permutation(len(train))]
print(f"live stream: {len(stream)} telemetry reports")

CHAOS = ChaosSchedule(
    drop_rate=0.05, duplicate_rate=0.03, reorder_rate=0.04, reorder_depth=3,
)


def run(shards=None, chaos=None):
    det = AutomatedDDoSDetector(
        bundle, chaos=chaos, chaos_seed=123
    )
    t0 = time.perf_counter()
    det.run_stream(stream, poll_every=64, cycle_budget=256, shards=shards)
    dt = time.perf_counter() - t0
    return det, dt


# --- 3. single-process vs 2-shard, clean and under chaos ---------------
for label, chaos in (("clean", None), ("chaos", CHAOS)):
    single, t_single = run(chaos=chaos)
    sharded, t_sharded = run(shards=2, chaos=chaos)
    d_single = prediction_log_digest(single.db)
    d_sharded = prediction_log_digest(sharded.db)
    match = "identical" if d_single == d_sharded else "MISMATCH"
    print(
        f"\n[{label}] single-process: {len(single.db.predictions)} predictions"
        f" in {t_single * 1e3:.0f} ms"
    )
    print(
        f"[{label}] 2 shards:       {len(sharded.db.predictions)} predictions"
        f" in {t_sharded * 1e3:.0f} ms"
    )
    print(f"[{label}] merged log digest: {d_single[:16]}… -> {match}")
    assert d_single == d_sharded
    for i, worker in enumerate(sharded.stats()["shards"]):
        print(f"[{label}]   worker {i}: {worker['predictions_served']} served")

print(
    "\nOn this box the timing difference is IPC overhead vs parallelism;"
    "\nthe *result* is the point — byte-identical for any worker count."
)
