"""Lifecycle-cost benchmarks for the online model lifecycle (PR 10).

Drift monitoring and hot model swap are only deployable if they are
cheap: the per-window PSI check rides the serving path of every CYCLE
slice, and the swap itself (retrain + holdout gate + pack + install)
stalls the coordinator for one barrier.  This module measures both and
is part of the perf-trajectory harness: the scoreboard is written to
``benchmarks/BENCH_lifecycle.json`` at teardown, alongside
``BENCH_recovery.json`` and ``BENCH_pipeline.json``.

Reported numbers:

* ``drift_check_s`` — median latency of an ``on_slice`` call that runs
  the PSI ladder but does not retrain (the steady-state per-check cost);
* ``swap_latency_s`` — latency of the single ``on_slice`` call that
  retrains on the reservoir, passes the holdout gate, packs the panel
  blob and installs it into the serving module (detect-to-install);
* ``lifecycle_overhead_x`` — wall-clock of a full run with a lifecycle
  attached as a never-swapping observer over the bare run.  Gated at
  :data:`MAX_LIFECYCLE_OVERHEAD` (acceptance: within 1.1x), with the
  observer digest asserted byte-identical to the bare digest.

``PERF_PROFILE=quick`` shrinks the stream for CI.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import AutomatedDDoSDetector, pretrain
from repro.core.sharding import prediction_log_digest
from repro.features import extract_features
from repro.int_telemetry import REPORT_DTYPE
from repro.lifecycle import LifecycleConfig, LifecycleManager
from repro.ml import GaussianNB, RandomForestClassifier
from repro.resilience.harness import _parity_labels

PROFILE = os.environ.get("PERF_PROFILE", "full")
QUICK = PROFILE == "quick"

N_RECORDS = 20_000 if QUICK else 60_000
POLL_EVERY = 128
CYCLE_BUDGET = 256

BENCH_PATH = Path(__file__).parent / "BENCH_lifecycle.json"
#: Acceptance gate: a never-swapping lifecycle observer must keep the
#: full run within this factor of the bare wall-clock.
MAX_LIFECYCLE_OVERHEAD = 1.1

#: name -> seconds (or ratio), filled by the tests, dumped at teardown.
TIMINGS = {}


@pytest.fixture(scope="module", autouse=True)
def lifecycle_scoreboard():
    yield
    if not TIMINGS:
        return
    payload = {
        "profile": PROFILE,
        "records": N_RECORDS,
        "poll_every": POLL_EVERY,
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


def _lifecycle(force_at=None):
    return LifecycleManager(LifecycleConfig(
        check_every=2,
        min_window_records=64,
        min_retrain_records=128,
        reservoir_windows=8,
        holdout_every=4,
        cooldown_checks=2,
        regression_tolerance=1.0,
        retrain_seed=0,
        label_fn=_parity_labels,
        force_swap_at_check=force_at,
    ))


def _run(bundle, records, lifecycle=False):
    det = AutomatedDDoSDetector(bundle, fast_poll=True)
    mgr = _lifecycle().attach_to(det) if lifecycle else None
    t0 = time.perf_counter()
    db = det.run_stream(
        records, poll_every=POLL_EVERY, cycle_budget=CYCLE_BUDGET
    )
    return mgr, db, time.perf_counter() - t0


def test_bench_drift_check_and_swap_latency(synth_records, detector_bundle):
    """Per-check PSI cost and detect-to-install swap latency, measured
    by driving ``on_slice`` directly with the stream's CYCLE slices."""
    det = AutomatedDDoSDetector(detector_bundle, fast_poll=True)
    mgr = _lifecycle(force_at=4).attach_to(det)

    check_laps = []
    swap_lap = None
    for start in range(0, len(synth_records), POLL_EVERY):
        window = synth_records[start:start + POLL_EVERY]
        before = mgr.checks_done
        t0 = time.perf_counter()
        cmd = mgr.on_slice(window)
        lap = time.perf_counter() - t0
        if cmd is not None:
            swap_lap = lap
            break
        if mgr.checks_done > before:
            check_laps.append(lap)

    assert swap_lap is not None, "forced swap never fired"
    assert mgr.swaps == 1 and mgr.epoch == 1
    drift_check_s = float(np.median(check_laps))
    TIMINGS["drift_check_s"] = drift_check_s
    TIMINGS["swap_latency_s"] = swap_lap
    print(
        f"\nlifecycle: drift check {drift_check_s * 1e3:.2f} ms (median of "
        f"{len(check_laps)}), swap latency {swap_lap * 1e3:.1f} ms "
        f"(retrain + holdout + pack + install)"
    )


def test_bench_lifecycle_overhead(synth_records, detector_bundle):
    """The acceptance gate: a lifecycle attached as a never-swapping
    observer must cost less than :data:`MAX_LIFECYCLE_OVERHEAD` x the
    bare run, and its digest must stay byte-identical (zero-cost
    observer invariant, measured rather than assumed)."""
    _run(detector_bundle, synth_records)  # untimed warmup lap
    bare_s = obs_s = None
    for _ in range(5):  # best-of-5, alternating: shared runners are noisy
        _, db_bare, dt_bare = _run(detector_bundle, synth_records)
        mgr, db_obs, dt_obs = _run(
            detector_bundle, synth_records, lifecycle=True
        )
        bare_s = dt_bare if bare_s is None else min(bare_s, dt_bare)
        obs_s = dt_obs if obs_s is None else min(obs_s, dt_obs)
    assert mgr is not None and mgr.swaps == 0
    assert mgr.checks_done >= 1  # the monitor really ran
    assert prediction_log_digest(db_obs) == prediction_log_digest(db_bare)

    overhead = obs_s / bare_s
    TIMINGS["bare_run_s"] = bare_s
    TIMINGS["observer_run_s"] = obs_s
    TIMINGS["lifecycle_overhead_x"] = overhead
    print(
        f"\nlifecycle overhead: bare {bare_s:.2f} s, observer {obs_s:.2f} s "
        f"({overhead:.2f}x, gate {MAX_LIFECYCLE_OVERHEAD}x)"
    )
    assert overhead <= MAX_LIFECYCLE_OVERHEAD, (
        f"lifecycle observer run took {overhead:.2f}x the bare wall-clock "
        f"(gate: {MAX_LIFECYCLE_OVERHEAD}x)"
    )
