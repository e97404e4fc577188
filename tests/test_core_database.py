"""Tests for the flow database: polling semantics and the prediction log.

The log is one :data:`RESULT_DTYPE` array; a hypothesis property drives
it with random stores, trims, checkpoint round trips and extends against
a plain ``List[PredictionEntry]`` reference, and a structural guard
keeps it the only representation under ``src/repro``.
"""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import pack_state, unpack_state
from repro.core.database import (
    RESULT_DTYPE,
    FlowDatabase,
    PredictionEntry,
    PredictionLog,
)
from repro.core.sharding import prediction_log_digest, unpack_predictions
from repro.features.flow_table import FlowTable

from .test_cycle_engine import call_sites

ROOT = Path(__file__).resolve().parents[1]

KEY_A = (1, 2, 3, 4, 6)
KEY_B = (9, 2, 3, 4, 6)


def feed(db, key, n, t0=0):
    """Push n packets of a flow into the table + update log."""
    for i in range(n):
        db.flows.update(key, t0 + i, t0 + i, 100, 6)
        db.register_update(key, t0 + i, 1000 + i)


class TestPolling:
    def test_updates_returned_once(self):
        db = FlowDatabase()
        feed(db, KEY_A, 3)
        first = db.poll_updates()
        assert len(first) == 3
        assert db.poll_updates() == []

    def test_default_predicts_new_flows(self):
        """One-packet flows must be predictable (Table VI consistency)."""
        db = FlowDatabase()
        feed(db, KEY_A, 1)
        assert len(db.poll_updates()) == 1

    def test_skip_new_flows_withholds_single_packet(self):
        db = FlowDatabase(skip_new_flows=True)
        feed(db, KEY_A, 1)
        assert db.poll_updates() == []
        assert db.pending_updates == 1
        # second packet releases the queued updates
        feed(db, KEY_A, 1, t0=10)
        assert len(db.poll_updates()) == 2

    def test_limit_requeues_remainder(self):
        db = FlowDatabase()
        feed(db, KEY_A, 5)
        out = db.poll_updates(limit=2)
        assert len(out) == 2
        assert db.pending_updates == 3
        assert len(db.poll_updates()) == 3

    def test_oldest_first_within_flow(self):
        db = FlowDatabase()
        feed(db, KEY_A, 3)
        out = db.poll_updates()
        stamps = [ts for _, ts, _, _ in out]
        assert stamps == sorted(stamps)

    def test_evicted_flow_updates_dropped(self):
        table = FlowTable(max_flows=1)
        db = FlowDatabase(table)
        feed(db, KEY_A, 1)
        feed(db, KEY_B, 1)  # evicts KEY_A
        out = db.poll_updates()
        assert [k for k, _, _, _ in out] == [KEY_B]

    def test_fast_poll_equivalent_results(self):
        slow = FlowDatabase(fast_poll=False)
        fast = FlowDatabase(fast_poll=True)
        for db in (slow, fast):
            feed(db, KEY_A, 2)
            feed(db, KEY_B, 3)
        assert sorted(slow.poll_updates()) == sorted(fast.poll_updates())

    def test_scan_cost_tracks_table_size(self):
        """The paper-faithful poll walks all resident records."""
        db = FlowDatabase(fast_poll=False)
        for i in range(50):
            feed(db, (i, 2, 3, 4, 6), 1)
        db.poll_updates()
        assert db.records_scanned == 50
        db.poll_updates()
        assert db.records_scanned == 100  # scans again even with nothing dirty

    def test_fast_poll_skips_scan(self):
        db = FlowDatabase(fast_poll=True)
        for i in range(50):
            feed(db, (i, 2, 3, 4, 6), 1)
        db.poll_updates()
        assert db.records_scanned == 0


def rows_of(entries):
    """Reference encoder: entry views to :data:`RESULT_DTYPE` rows,
    field by field (bit ``b`` of the mask is vote ``b``)."""
    return np.array(
        [
            (*e.key, e.ts_registered_ns, e.wall_registered_ns,
             e.wall_predicted_ns, e.label,
             sum(v << b for b, v in enumerate(e.votes)), len(e.votes),
             -1 if e.final_decision is None else e.final_decision,
             e.seq, e.epoch)
            for e in entries
        ],
        dtype=RESULT_DTYPE,
    )


def reference_digest(entries):
    """``prediction_log_digest`` as it was over a list of entries."""
    lines = []
    for e in sorted(entries, key=lambda e: (e.seq, e.key)):
        lines.append(
            f"{e.key}|{e.ts_registered_ns}|{e.label}|{e.votes}|"
            f"{e.final_decision}|{e.seq}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestPredictionLog:
    def test_latency_definition(self):
        entry = PredictionEntry(
            key=KEY_A, ts_registered_ns=0, wall_registered_ns=100,
            wall_predicted_ns=350, label=1, votes=(1, 1, 0), final_decision=1,
        )
        assert entry.latency_ns == 250

    def test_store_and_read_back(self):
        db = FlowDatabase()
        e = PredictionEntry(KEY_A, 0, 10, 30, 0, (0, 0, 0), 0)
        db.store_predictions(rows_of([e]))
        assert db.latencies_ns().tolist() == [20]
        assert db.predictions[0] == db.predictions[-1] == e

    def test_chunked_readers_span_chunks(self):
        """Iteration and the digest walk the log a chunk at a time; a
        log of several chunks reads the same as the plain list."""
        ref = [
            PredictionEntry((i % 7, 2, 3, 4, 6), i, 0, i, i % 2, (1, 0),
                            None if i % 3 else 1, seq=(i * 7919) % 10_007)
            for i in range(10_007)
        ]
        db = FlowDatabase()
        db.store_predictions(rows_of(ref))
        assert list(db.predictions) == ref
        assert prediction_log_digest(db) == reference_digest(ref)


# Small key and seq alphabets so (seq, key) ties are common.
small = st.integers(0, 2)
entries = st.builds(
    PredictionEntry,
    key=st.tuples(small, small, st.integers(0, 2**32 - 1), small, small),
    ts_registered_ns=st.integers(-(2**40), 2**62),
    wall_registered_ns=st.integers(0, 2**61),
    wall_predicted_ns=st.integers(2**61, 2**62),
    label=st.integers(0, 1),
    votes=st.lists(st.integers(0, 1), min_size=1, max_size=8).map(tuple),
    final_decision=st.sampled_from([None, 0, 1]),
    seq=st.integers(-1, 4),
    epoch=st.integers(0, 3),
)
blocks = st.lists(entries, max_size=6)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("store_one"), entries),
        st.tuples(st.just("store_block"), blocks),
        st.tuples(st.just("trim"), st.integers(0, 8)),
        st.tuples(st.just("checkpoint"), st.none()),
        st.tuples(st.just("extend"), blocks),
    ),
    max_size=12,
)


@given(ops=ops)
@settings(max_examples=150, deadline=None)
def test_log_behaves_like_a_list_of_entries(ops):
    db, ref, base = FlowDatabase(), [], 0
    for op, arg in ops:
        if op == "store_one":
            db.store_predictions(rows_of([arg]))
            ref.append(arg)
        elif op == "store_block":
            db.store_predictions(rows_of(arg))
            ref.extend(arg)
        elif op == "extend":
            db.predictions.extend(rows_of(arg))
            ref.extend(arg)
        elif op == "trim":
            if arg > len(ref):
                with pytest.raises(ValueError):
                    db.trim_predictions(arg)
                continue
            db.trim_predictions(arg)
            del ref[:arg]
            base += arg
        else:
            fresh = FlowDatabase()
            fresh.state_restore(unpack_state(pack_state(
                {"db": db.state_snapshot()}
            ))["db"])
            db = fresh
        log = db.predictions
        assert len(log) == len(ref)
        assert db.predictions_total == log.total == base + len(ref)
        assert list(log) == ref
        # the wire round trip: encoded rows decode to the same entries
        assert unpack_predictions(log.rows) == ref
        assert [log[i] for i in log.canonical_order().tolist()] == sorted(
            ref, key=lambda e: (e.seq, e.key)
        )
        assert db.latencies_ns().tolist() == [e.latency_ns for e in ref]
        assert prediction_log_digest(db) == reference_digest(ref)


# ---------------------------------------------------------------------------
# structural guard: one representation, one writer, one order
# ---------------------------------------------------------------------------
def test_log_rows_are_the_only_representation():
    assert call_sites(r"PredictionEntry\(") == [("database.py", "decode")]
    assert {site[0] for site in call_sites(r"\.store_predictions\(")} == {
        "processor.py"
    }


def test_replaced_log_names_are_gone():
    # spelled in halves so this file passes its own check
    gone = [
        r"\bpack" + "_predictions", r"PredictionEntry\.f" + "ast",
        "_ENTRY" + "_ORDER", r"store_prediction" + r"\(",
    ]
    files = []
    for top in ("src", "tests", "benchmarks", "examples"):
        files += sorted((ROOT / top).rglob("*.py"))
    hits = [
        (str(path.relative_to(ROOT)), pattern)
        for path in files
        for pattern in gone
        if re.search(pattern, path.read_text())
    ]
    assert hits == []


def test_canonical_order_is_written_once():
    """Nothing under src/repro re-sorts by (seq, key) by hand."""
    by_hand = (
        r"sorted\([^)]*\bseq\b[^)]*\bkey\b",
        r"attrgetter\(\s*[\"']seq[\"'],\s*[\"']key[\"']",
    )
    hits = [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for pattern in by_hand
        if re.search(pattern, path.read_text())
    ]
    assert hits == []
