"""Sketch-gated admission: memory scaling, throughput, and accuracy.

Quantifies what the :mod:`repro.sketch` front end buys at the ROADMAP's
millions-of-flows scale:

* **memory** — resident bytes of the exact ``FlowTable`` holding every
  five-tuple of a spoofed-source flood vs the sketch gate (constant-size
  counters + per-prefix residuals + the few promoted heavy hitters) at
  :data:`N_FLOWS` distinct flows, measured with ``tracemalloc``;
* **throughput** — batched ingest records/s for both paths over the
  same stream (untraced pass, so timing is not polluted by the
  allocation hooks);
* **accuracy** — flow-level detection metrics of the gated detector vs
  the exact path across a width × depth ablation grid, scored against
  ground truth with unpredicted flows defaulting to benign (the
  heavy-hitter contract: traffic the gate rejects is traffic the
  detector deliberately never predicts);
* **determinism** — the sketch-gated merged prediction-log digest must
  be byte-identical across shard counts {1, 2, 4}.

The scoreboard lands in ``benchmarks/BENCH_sketch.json``.  The
committed copy is the full-profile baseline; gates:

* memory ratio >= :data:`MIN_MEMORY_RATIO` (the tentpole's 5x floor),
  and no regression beyond :data:`REGRESSION_TOLERANCE` below the
  committed baseline ratio when profiles match;
* default-config gated detection metrics within
  :data:`MAX_ACCURACY_DROP` of the exact path;
* shard digests identical — unconditional, any host.

``PERF_PROFILE=quick`` shrinks the flood for CI (the 1M-flow memory
number in the committed file comes from a full run).
"""

import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import AutomatedDDoSDetector, pretrain
from repro.core.sharding import prediction_log_digest
from repro.features import extract_features
from repro.features.batch import group_by_flow
from repro.features.flow_table import FlowTable
from repro.features.keys import canonical_key_arrays
from repro.int_telemetry import REPORT_DTYPE
from repro.ml import GaussianNB, RandomForestClassifier
from repro.sketch import SketchConfig

PROFILE = os.environ.get("PERF_PROFILE", "full")
QUICK = PROFILE == "quick"

#: Distinct flows in the spoofed-source flood (the memory story).
N_FLOWS = 150_000 if QUICK else 1_000_000
#: Ingest slice (records per batched fold).
SLICE = 8192

#: The tentpole's floor: gated resident memory must be at least this
#: many times smaller than the exact table at N_FLOWS distinct flows.
MIN_MEMORY_RATIO = 5.0
#: Allowed relative drop of the memory ratio vs the committed baseline.
REGRESSION_TOLERANCE = 0.20
#: Default-config gated detection metrics may trail the exact path by
#: at most this much (absolute).
MAX_ACCURACY_DROP = 0.02

#: The default gate recipe whose numbers the acceptance criteria cite.
DEFAULT_SKETCH = SketchConfig(width=1024, depth=4, partitions=64,
                              promote_packets=8)

#: Ablation grid (width, depth) — accuracy vs sketch memory.
ABLATION = [(256, 2), (256, 4), (1024, 2), (1024, 4), (4096, 4)]

BENCH_PATH = Path(__file__).parent / "BENCH_sketch.json"

#: Scoreboard, dumped at module teardown.
BOARD = {}


@pytest.fixture(scope="module", autouse=True)
def sketch_scoreboard():
    yield
    if not BOARD:
        return
    payload = {"profile": PROFILE, "n_flows": N_FLOWS}
    payload.update(BOARD)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {BENCH_PATH}")


def _baseline():
    if not BENCH_PATH.exists():
        return None
    try:
        return json.loads(BENCH_PATH.read_text())
    except (ValueError, OSError):
        return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def flood_records(n_flows: int) -> np.ndarray:
    """One packet per distinct five-tuple: the pure spoofed-source SYN
    flood that makes the exact table the bottleneck.  Sources walk a
    10.0.0.0/8 pool and the victim IP is numerically larger, so the
    canonical endpoint A (which keys residual aggregation) is the
    spoofed source — several /16 residual prefixes, not one bucket."""
    i = np.arange(n_flows, dtype=np.int64)
    rec = np.zeros(n_flows, dtype=REPORT_DTYPE)
    ts = i * 1_000  # 1 us apart
    rec["ts_report"] = ts
    rec["ingress_ts"] = ts % 2**32
    rec["egress_ts"] = ts % 2**32
    rec["src_ip"] = (10 << 24) | (i & 0xFFFFFF)
    rec["src_port"] = 1024 + (i >> 24)
    rec["dst_ip"] = (203 << 24) | 1
    rec["dst_port"] = 80
    rec["protocol"] = 6
    rec["length"] = 64
    return rec


def mixed_stream(n_benign=300, n_attack=200, seed=0):
    """Labeled benign + flood mix for the accuracy ablation.

    Benign conversations to :443 — half heavy (12 pkts, promoted), half
    light (3 pkts, below threshold); attack flood flows to :80 — 12
    small packets each, so heavy hitters by construction.  Ground truth
    per canonical key: attack iff the flow touches port 80.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for f in range(n_benign):
        pkts = 12 if f % 2 == 0 else 3
        for p in range(pkts):
            rows.append((f, 1 + f, 42, 20_000 + f, 443,
                         int(rng.integers(400, 1500)), p))
    for f in range(n_attack):
        for p in range(12):
            rows.append((n_benign + f, (172 << 24) | f, 42, 30_000 + f,
                         80, 64, p))
    rec = np.zeros(len(rows), dtype=REPORT_DTYPE)
    arr = np.array(rows, dtype=np.int64)
    # Arrival order: shuffle flows together, keep per-flow packet order
    # by sorting on (packet_index, shuffled flow rank).
    rank = rng.permutation(n_benign + n_attack)[arr[:, 0]]
    order = np.lexsort((rank, arr[:, 6]))
    arr = arr[order]
    ts = np.arange(arr.shape[0], dtype=np.int64) * 5_000
    rec["ts_report"] = ts
    rec["ingress_ts"] = ts % 2**32
    rec["egress_ts"] = ts % 2**32
    rec["src_ip"] = arr[:, 1]
    rec["dst_ip"] = arr[:, 2]
    rec["src_port"] = arr[:, 3]
    rec["dst_port"] = arr[:, 4]
    rec["protocol"] = 6
    rec["length"] = arr[:, 5]
    return rec


@pytest.fixture(scope="module")
def mixed():
    return mixed_stream()


@pytest.fixture(scope="module")
def bundle(mixed):
    fm = extract_features(mixed, source="int")
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


# ---------------------------------------------------------------------------
# ingest drivers (table layer only — the memory/throughput story needs
# no ML, and the pending-update/prediction machinery would blur the number)
# ---------------------------------------------------------------------------
def _ingest_exact(records, table):
    for start in range(0, records.shape[0], SLICE):
        chunk = records[start : start + SLICE]
        batch = group_by_flow(*canonical_key_arrays(chunk))
        table.update_batch(
            batch,
            chunk["ts_report"].astype(np.int64),
            chunk["ingress_ts"].astype(np.int64),
            chunk["length"].astype(np.float64),
            chunk["protocol"].astype(np.int64),
        )


def _ingest_gated(records, gate, table):
    for start in range(0, records.shape[0], SLICE):
        chunk = records[start : start + SLICE]
        batch = group_by_flow(*canonical_key_arrays(chunk))
        length = chunk["length"].astype(np.float64)
        len_sorted = length[batch.order]
        byts = np.add.reduceat(len_sorted, batch.starts).astype(np.int64)
        resident = table.lookup(batch.key_col) >= 0
        admit = gate.admit_slice(
            batch.key_hash, batch.counts, byts, resident, batch.group_ip_a
        )
        gate.end_window()
        if not admit.any():
            continue
        sub, rec_mask = batch.subset(admit)
        table.update_batch(
            sub,
            chunk["ts_report"].astype(np.int64)[rec_mask],
            chunk["ingress_ts"].astype(np.int64)[rec_mask],
            length[rec_mask],
            chunk["protocol"].astype(np.int64)[rec_mask],
        )


# ---------------------------------------------------------------------------
# memory + throughput at N_FLOWS distinct flows
# ---------------------------------------------------------------------------
def test_memory_and_throughput_at_scale():
    """The headline number: resident bytes per path at N_FLOWS distinct
    flows, plus batched ingest throughput on an untraced pass."""
    baseline = _baseline()
    records = flood_records(N_FLOWS)

    # --- traced passes: resident memory -----------------------------
    tracemalloc.start()
    exact_table = FlowTable()
    _ingest_exact(records, exact_table)
    exact_bytes, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    exact_flows = len(exact_table)
    del exact_table

    tracemalloc.start()
    gate = DEFAULT_SKETCH.build()
    gated_table = FlowTable()
    _ingest_gated(records, gate, gated_table)
    gated_bytes, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    gated_flows = len(gated_table)
    gate_stats = gate.stats()
    del gated_table

    assert exact_flows == N_FLOWS  # every spoofed source got a record
    # Single-packet flows never truly reach promote_packets=8, but at
    # full scale hash collisions inflate some estimates past the
    # threshold (count-min can only overcount) — false promotions cost
    # one FlowRecord each, never a missed heavy hitter.  Budget: <= 5%
    # of the flood may be falsely promoted; everything else lands in
    # the residuals.
    assert gated_flows <= N_FLOWS * 0.05, (
        f"{gated_flows:,} false promotions out of {N_FLOWS:,} "
        f"single-packet flows (> 5% budget)"
    )
    assert gate_stats["promotions"] == gated_flows
    assert gate_stats["residual_packets"] == N_FLOWS - gated_flows

    ratio = exact_bytes / gated_bytes
    print(
        f"\nmemory at {N_FLOWS:,} distinct flows: exact "
        f"{exact_bytes / 1e6:.1f} MB, gated {gated_bytes / 1e6:.1f} MB "
        f"({ratio:.1f}x reduction; sketch counters "
        f"{gate_stats['memory_bytes'] / 1e6:.1f} MB, "
        f"{gate_stats['residual_prefixes']} residual prefixes)"
    )

    # --- untraced passes: throughput ---------------------------------
    t0 = time.perf_counter()
    _ingest_exact(records, FlowTable())
    exact_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _ingest_gated(records, DEFAULT_SKETCH.build(), FlowTable())
    gated_s = time.perf_counter() - t0
    exact_rate = N_FLOWS / exact_s
    gated_rate = N_FLOWS / gated_s
    print(
        f"ingest throughput: exact {exact_rate:,.0f} rec/s, "
        f"gated {gated_rate:,.0f} rec/s ({gated_rate / exact_rate:.1f}x)"
    )

    BOARD["memory"] = {
        "exact_bytes": exact_bytes,
        "gated_bytes": gated_bytes,
        "ratio": round(ratio, 2),
        "sketch_counter_bytes": gate_stats["memory_bytes"],
        "residual_prefixes": gate_stats["residual_prefixes"],
        "exact_resident_flows": exact_flows,
        "gated_resident_flows": gated_flows,
    }
    BOARD["throughput"] = {
        "exact_rate_per_s": round(exact_rate, 1),
        "gated_rate_per_s": round(gated_rate, 1),
        "gated_over_exact": round(gated_rate / exact_rate, 2),
    }

    assert ratio >= MIN_MEMORY_RATIO, (
        f"gated path only {ratio:.1f}x smaller than the exact table "
        f"(need {MIN_MEMORY_RATIO}x)"
    )
    # Under a pure flood the gated path must also not be slower: it
    # replaces 1M record creations with O(depth) counter scatters.
    assert gated_rate >= exact_rate, (
        f"gated ingest ({gated_rate:,.0f}/s) slower than exact "
        f"({exact_rate:,.0f}/s) on the flood workload"
    )
    if baseline is not None and baseline.get("profile") == PROFILE:
        base_ratio = baseline.get("memory", {}).get("ratio")
        if base_ratio:
            floor = base_ratio * (1.0 - REGRESSION_TOLERANCE)
            assert ratio >= floor, (
                f"memory ratio {ratio:.1f}x regressed below {floor:.1f}x "
                f"(baseline {base_ratio:.1f}x - {REGRESSION_TOLERANCE:.0%})"
            )


# ---------------------------------------------------------------------------
# accuracy vs memory ablation
# ---------------------------------------------------------------------------
def _flow_metrics(db, stream):
    """Flow-level detection metrics: unpredicted flows default to
    benign (the gate's contract), truth = flow touches port 80."""
    cols = canonical_key_arrays(stream)
    batch = group_by_flow(*cols)
    votes = {}
    for e in db.predictions:
        if e.final_decision is not None:
            votes.setdefault(e.key, []).append(e.final_decision)
    correct = attacks = caught = 0
    for key in map(tuple, batch.key_col.tolist()):
        true = int(80 in (key[2], key[3]))
        v = votes.get(key)
        pred = int(sum(v) * 2 >= len(v)) if v else 0
        correct += int(pred == true)
        attacks += true
        caught += int(true and pred)
    n = batch.n_groups
    return {
        "flows": n,
        "accuracy": round(correct / n, 4),
        "attack_recall": round(caught / attacks, 4) if attacks else 1.0,
    }


def test_accuracy_vs_memory_ablation(mixed, bundle):
    """Detection quality of the gated detector across the sketch grid,
    vs the exact path on the identical stream."""

    def run(sketch=None):
        det = AutomatedDDoSDetector(
            bundle, fast_poll=True, sketch=sketch
        )
        db = det.run_stream(mixed, poll_every=128, cycle_budget=512)
        return det, db

    _, db_exact = run()
    exact = _flow_metrics(db_exact, mixed)
    print(f"\nexact path: {exact}")

    grid = {}
    for width, depth in ABLATION:
        cfg = SketchConfig(
            width=width, depth=depth, partitions=64, promote_packets=8
        )
        det, db = run(cfg)
        m = _flow_metrics(db, mixed)
        sk = det.stats()["sketch"]
        m["sketch_bytes"] = sk["memory_bytes"]
        m["promotions"] = sk["promotions"]
        m["rejected_packets"] = sk["rejected_packets"]
        grid[f"w{width}_d{depth}"] = m
        print(f"w={width} d={depth}: {m}")

    BOARD["accuracy"] = {"exact": exact, "ablation": grid}

    default_key = f"w{DEFAULT_SKETCH.width}_d{DEFAULT_SKETCH.depth}"
    got = grid[default_key]
    for metric in ("accuracy", "attack_recall"):
        assert got[metric] >= exact[metric] - MAX_ACCURACY_DROP, (
            f"default sketch {default_key} {metric} {got[metric]:.4f} "
            f"more than {MAX_ACCURACY_DROP:.0%} below exact "
            f"{exact[metric]:.4f}"
        )
    # The ablation must show the memory knob actually moving.
    sizes = {g["sketch_bytes"] for g in grid.values()}
    assert len(sizes) >= 3


# ---------------------------------------------------------------------------
# shard-digest determinism gate
# ---------------------------------------------------------------------------
def test_gated_digest_identical_across_shards(mixed, bundle):
    """CI gate: the sketch-gated merged prediction log is byte-identical
    for shard counts {1, 2, 4} — unconditional on any host (workers are
    processes; a 1-core runner only slows them down)."""

    def run(shards=None):
        det = AutomatedDDoSDetector(
            bundle, fast_poll=True, sketch=DEFAULT_SKETCH
        )
        db = det.run_stream(
            mixed, poll_every=128, cycle_budget=512, shards=shards
        )
        return db

    ref = prediction_log_digest(run())
    for n in (1, 2, 4):
        assert prediction_log_digest(run(shards=n)) == ref, (
            f"gated digest diverged at {n} shards"
        )
    BOARD["gated_digest_shards_1_2_4"] = "identical"
