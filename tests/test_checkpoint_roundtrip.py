"""Checkpoint serialization round-trips (PR-5 fault tolerance).

The recovery invariant — a respawned worker's merged output is
byte-identical to the unfaulted run — holds only if every piece of
checkpointed state restores *bit-identical*: Welford accumulators down
to the last ulp, LRU order down to the last move-to-end, sliding
decision windows down to the deque order.  These are property tests for
exactly that, including under ``max_flows`` eviction pressure, plus the
blob-integrity gate (a truncated or tampered checkpoint must fail
loudly, never restore garbage).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AutomatedDDoSDetector, pretrain
from repro.core.checkpoint import (
    CheckpointError,
    pack_state,
    restore_detector,
    snapshot_detector,
    unpack_state,
)
from repro.core.ensemble import SlidingDecision
from repro.core.sharding import prediction_log_digest
from repro.features import extract_features
from repro.features.flow_table import FlowTable
from repro.ml import GaussianNB, RandomForestClassifier

from .test_batch_equivalence import synthetic_records

# ---------------------------------------------------------------------------
# strategies: packet sequences driving a FlowTable
# ---------------------------------------------------------------------------
packets = st.lists(
    st.tuples(
        st.integers(0, 7),                       # flow index
        st.integers(0, 2**31),                   # ingress ts32
        st.floats(40.0, 1500.0, allow_nan=False),  # length
        st.floats(0.0, 1e4, allow_nan=False),    # queue occupancy
        st.floats(0.0, 1e6, allow_nan=False),    # hop latency
    ),
    min_size=1,
    max_size=60,
)


def _key(i):
    return (i, 10 + i, 1000 + i, 80, 6)


def _drive(table, seq, t0=0):
    for n, (i, ts32, length, occ, lat) in enumerate(seq):
        table.update(
            _key(i), now_ns=t0 + n * 1000, ingress_ts32=ts32,
            length=length, protocol=6, queue_occupancy=occ,
            hop_latency_ns=lat,
        )


def _rows(table):
    """(key, state row) pairs in LRU order."""
    return [(k, table.get(k).row()) for k in table.keys()]


def _roundtrip_table(table, max_flows=None):
    blob = pack_state({"flows": table.state_snapshot()})
    fresh = FlowTable(max_flows=max_flows, wrap_aware=table.wrap_aware)
    fresh.state_restore(unpack_state(blob)["flows"])
    return fresh


# ---------------------------------------------------------------------------
# FlowTable: Welford moments + LRU order, bit-identical
# ---------------------------------------------------------------------------
@given(seq=packets)
@settings(max_examples=120, deadline=None)
def test_flow_table_roundtrip_bit_identical(seq):
    table = FlowTable()
    _drive(table, seq)
    fresh = _roundtrip_table(table)
    # exact tuple equality: Welford (mean, m2) floats compare by bits
    assert _rows(fresh) == _rows(table)
    keys = list(table.keys())
    assert (
        fresh.feature_rows(keys)[0].tobytes()
        == table.feature_rows(keys)[0].tobytes()
    )
    assert (fresh.created, fresh.evicted, fresh.expired) == (
        table.created, table.evicted, table.expired
    )


@given(seq=packets, max_flows=st.integers(1, 5))
@settings(max_examples=120, deadline=None)
def test_flow_table_roundtrip_under_eviction_pressure(seq, max_flows):
    """LRU eviction order must survive the round-trip: after restoring,
    identical further traffic must evict identical victims."""
    table = FlowTable(max_flows=max_flows)
    _drive(table, seq)
    # The snapshot is columns and counters: ndarrays and ints only.
    snap = table.state_snapshot()
    assert all(isinstance(v, (np.ndarray, int)) for v in snap.values())
    assert snap["keys"].shape == (len(table), 5)
    fresh = _roundtrip_table(table, max_flows=max_flows)
    assert list(fresh.keys()) == list(table.keys())
    assert fresh.evicted == table.evicted
    # continue both under the same traffic: evictions must match exactly
    tail = [(i + 2, 77, 100.0, 0.0, 0.0) for i in range(8)]
    _drive(table, tail, t0=10**9)
    _drive(fresh, tail, t0=10**9)
    assert _rows(fresh) == _rows(table)
    assert fresh.evicted == table.evicted


@given(seq=packets)
@settings(max_examples=60, deadline=None)
def test_flow_table_continue_after_restore_is_equivalent(seq):
    """Feeding more packets to a restored table produces features
    bit-identical to the never-serialized table (Welford continuity)."""
    table = FlowTable()
    _drive(table, seq)
    fresh = _roundtrip_table(table)
    tail = [(i % 8, 12345, 333.5, 2.0, 7.0) for i in range(10)]
    _drive(table, tail, t0=5 * 10**8)
    _drive(fresh, tail, t0=5 * 10**8)
    assert _rows(fresh) == _rows(table)


# ---------------------------------------------------------------------------
# SlidingDecision: smoothing-window state
# ---------------------------------------------------------------------------
labels = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 1)), min_size=0, max_size=80
)


@given(pushes=labels, window=st.integers(1, 5), partial=st.booleans())
@settings(max_examples=120, deadline=None)
def test_sliding_decision_roundtrip_and_continuation(pushes, window, partial):
    dec = SlidingDecision(window=window, emit_partial=partial)
    for k, lbl in pushes:
        dec.push(_key(k), lbl)
    blob = pack_state(dec.state_snapshot())
    fresh = SlidingDecision(window=window, emit_partial=partial)
    fresh.state_restore(unpack_state(blob))
    assert fresh.state_snapshot() == dec.state_snapshot()
    # continuation: identical further pushes yield identical decisions
    tail = [(k % 6, (k + 1) % 2) for k in range(12)]
    out_a = [dec.push(_key(k), lbl) for k, lbl in tail]
    out_b = [fresh.push(_key(k), lbl) for k, lbl in tail]
    assert out_a == out_b
    assert fresh.state_snapshot() == dec.state_snapshot()


# ---------------------------------------------------------------------------
# blob integrity
# ---------------------------------------------------------------------------
def test_pack_unpack_roundtrip_payload():
    payload = {"x": [1, 2.5, (3, 4)], "y": {"z": "deep"}}
    assert unpack_state(pack_state(payload)) == payload


@given(pos=st.integers(0, 200), flip=st.integers(1, 255))
@settings(max_examples=80, deadline=None)
def test_tampered_blob_raises(pos, flip):
    blob = pack_state({"table": list(range(50))})
    pos %= len(blob)
    bad = blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1:]
    with pytest.raises(CheckpointError):
        unpack_state(bad)


@given(cut=st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_truncated_blob_raises(cut):
    blob = pack_state({"k": "v"})
    with pytest.raises(CheckpointError):
        unpack_state(blob[: max(0, len(blob) - 1 - cut)])


def test_foreign_bytes_raise():
    with pytest.raises(CheckpointError):
        unpack_state(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        unpack_state(b"")


def test_non_dict_payload_raises():
    import hashlib
    import pickle

    from repro.core.checkpoint import MAGIC

    body = pickle.dumps([1, 2, 3])
    with pytest.raises(CheckpointError):
        unpack_state(MAGIC + hashlib.sha256(body).digest() + body)


# ---------------------------------------------------------------------------
# whole-detector restore: continue-after-restore digest identity
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def bundle():
    ben = synthetic_records(attack=False)
    atk = synthetic_records(attack=True, t0=10**9)
    records = np.concatenate([ben, atk])
    fm = extract_features(records, source="int")
    y = np.array([0] * len(ben) + [1] * len(atk))
    return pretrain(
        fm.X, y, fm.names,
        panel={
            "rf": lambda: RandomForestClassifier(
                n_estimators=5, max_depth=6, seed=0
            ),
            "gnb": lambda: GaussianNB(),
        },
    )


@pytest.fixture(scope="module")
def stream():
    ben = synthetic_records(attack=False)
    atk = synthetic_records(attack=True, t0=10**9)
    records = np.concatenate([ben, atk])
    return records[np.random.default_rng(7).permutation(len(records))]


POLL_EVERY = 37
CYCLE_BUDGET = 256


def _run_slices(det, records, start_slice, end_slice, seq_base):
    """Drive the batched pipeline slice-by-slice like a shard worker."""
    n = records.shape[0]
    for s in range(start_slice, end_slice):
        lo, hi = s * POLL_EVERY, min((s + 1) * POLL_EVERY, n)
        if lo >= n:
            break
        chunk = records[lo:hi]
        det.collection.feed_batch(
            chunk, seqs=np.arange(seq_base + lo, seq_base + hi, dtype=np.int64)
        )
        if hi - lo == POLL_EVERY:
            det.step(CYCLE_BUDGET)
    return det


@pytest.mark.parametrize("cut_slice", [1, 3])
def test_detector_restore_mid_run_matches_uninterrupted(
    bundle, stream, cut_slice
):
    """Snapshot at a cycle boundary, restore into a fresh detector,
    finish the stream there: the digest equals the uninterrupted run."""
    n_slices = -(-stream.shape[0] // POLL_EVERY)

    ref = AutomatedDDoSDetector(bundle, batched=True)
    _run_slices(ref, stream, 0, n_slices, 0)
    ref.drain(CYCLE_BUDGET)
    want = prediction_log_digest(ref.db)

    first = AutomatedDDoSDetector(bundle, batched=True)
    _run_slices(first, stream, 0, cut_slice, 0)
    blob = snapshot_detector(
        first, cycles_done=cut_slice, last_seq=cut_slice * POLL_EVERY - 1
    )

    second = AutomatedDDoSDetector(bundle, batched=True)
    payload = restore_detector(second, blob)
    assert payload["cycles_done"] == cut_slice
    _run_slices(second, stream, cut_slice, n_slices, 0)
    second.drain(CYCLE_BUDGET)
    assert prediction_log_digest(second.db) == want
    assert len(second.db.predictions) == len(ref.db.predictions)
