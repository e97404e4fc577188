"""Data Processor module (Fig 2, module 2).

Receives packet-level INT data from the collection module (step ②),
folds it into the flow table's per-flow columns, and registers each
update with the database (step ③).  The feature rows the CentralServer
sends to prediction are one row take of the table's
:data:`~repro.features.flow_record.FEATURE_ORDER` rows plus the schema's
column select.  On the return path it receives the per-model
predictions from the CentralServer (step ⑦) for a polled block of
pending rows, aggregates them into one label per row, pushes the labels
through the flows' sliding decision windows (flow-table columns, keyed
by the rows' slots) and stores the result with its prediction latency
(step ⑧).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.features.batch import FlowBatch
from repro.features.flow_record import FEATURE_ORDER
from repro.sketch import SketchGate

from repro.ml.voting import majority_vote

from .database import KEY_VIEW, RESULT_DTYPE, FlowDatabase
from .ensemble import SlidingDecision

__all__ = ["DataProcessor"]


class DataProcessor:
    """Feature maintenance + prediction aggregation.

    Parameters
    ----------
    database : FlowDatabase
        Shared store (owns the flow table).
    feature_names : sequence of str
        Schema order for feature vectors sent to prediction; each name
        must be in :data:`~repro.features.flow_record.FEATURE_ORDER`
        (``ValueError`` otherwise).
    decision_window : int
        Size of the last-N sliding window (paper: 3).
    emit_partial : bool
        Forwarded to :class:`SlidingDecision` (ablation hook).
    clock : callable() -> int, optional
        Wall-clock source in ns; defaults to
        :func:`time.perf_counter_ns`.  Injectable for deterministic
        tests.
    gate : SketchGate, optional
        Sketch admission gate.  When set, every packet still updates
        the sketch, but only flows the gate admits (resident or past
        the heavy-hitter threshold) reach the exact flow table; the
        rest aggregate into the gate's residual stats.  ``None``
        preserves the ungated exact path bit-for-bit.
    """

    def __init__(
        self,
        database: FlowDatabase,
        feature_names: Sequence[str],
        decision_window: int = 3,
        emit_partial: bool = False,
        clock=None,
        gate: Optional[SketchGate] = None,
    ) -> None:
        self.db = database
        self.gate = gate
        self.feature_names = list(feature_names)
        self.decision = SlidingDecision(decision_window, emit_partial=emit_partial)
        # repro: allow[DET002] injectable default; wall stamps are excluded from digests
        self.clock = clock if clock is not None else time.perf_counter_ns
        self.packets_processed = 0
        unknown = sorted(set(self.feature_names) - set(FEATURE_ORDER))
        if unknown:
            raise ValueError(f"unknown feature names: {unknown}")
        # Column selection from the flow table's FEATURE_ORDER rows.
        self._feature_sel = np.asarray(
            [FEATURE_ORDER.index(n) for n in self.feature_names], dtype=np.int64
        )

    # ------------------------------------------------------------------
    # step ② — packet data in
    # ------------------------------------------------------------------
    def ingest_batch(
        self,
        batch: FlowBatch,
        ts_sim_ns: np.ndarray,
        ingress_ts32: np.ndarray,
        length: np.ndarray,
        protocol: np.ndarray,
        queue_occupancy: Optional[np.ndarray] = None,
        hop_latency_ns: Optional[np.ndarray] = None,
        seqs: Optional[np.ndarray] = None,
    ) -> int:
        """Fold a grouped slice of records into the flow table and
        register every update — the one ingest path, replay and live.

        The wall clock is read once per record, in record order, so
        registration stamps — and therefore measured prediction
        latencies — do not depend on how a stream is sliced under any
        injected deterministic clock.  ``seqs`` overrides the per-record
        sequence numbers (shard workers pass global values); the default
        is the running packet count, which is the delivered index in
        single-process runs.

        With a sketch ``gate``, the whole slice folds into the sketch
        first, then only admitted groups reach the flow table — via
        :meth:`FlowBatch.subset`, so the admitted sub-batch behaves
        exactly like a batch that never contained the rejected records.
        Rejected packets still consume their sequence numbers (the
        delivered-stream numbering is gate-independent) and count into
        ``packets_processed``.
        """
        n = batch.n
        if n == 0:
            return 0
        if seqs is None:
            seqs = np.arange(self.packets_processed, self.packets_processed + n)
        columns = [ts_sim_ns, ingress_ts32, length, protocol,
                   queue_occupancy, hop_latency_ns, seqs]
        if self.gate is not None:
            flows = self.db.flows
            len_sorted = np.asarray(length, dtype=np.float64)[batch.order]
            byts = np.add.reduceat(len_sorted, batch.starts).astype(np.int64)
            resident = flows.lookup(batch.key_col) >= 0
            admit = self.gate.admit_slice(
                batch.key_hash, batch.counts, byts, resident, batch.group_ip_a
            )
            if not admit.all():
                batch, rec_mask = batch.subset(admit)
                columns = [None if c is None else np.asarray(c)[rec_mask]
                           for c in columns]
        ts_sim, ts32, lens, protos, occ, hop, seqs = columns
        clock = self.clock
        wall = [clock() for _ in range(batch.n)]
        if batch.n:
            slots, incs = self.db.flows.update_batch(
                batch, ts_sim, ts32, lens, protos, occ, hop
            )
            self.db.register_update_batch(slots, incs, ts_sim, wall, seqs)
        self.packets_processed += n
        return n

    def features_matrix(self, updates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(X, valid)`` for a polled block of pending rows: one take of
        the flow table's :data:`FEATURE_ORDER` rows by slot, then the
        schema's column select; ``valid`` flags rows whose flow life is
        still live (the other rows are garbage)."""
        flows = self.db.flows
        slots = updates["slot"]
        X = flows.features_at(slots)[:, self._feature_sel]
        return X, flows.incarnation[slots] == updates["incarnation"]

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """Processor-owned mutable state (the database snapshots its own,
        including the shared flow table and its decision windows)."""
        return {
            "decision": self.decision.state_snapshot(),
            "packets_processed": self.packets_processed,
        }

    def state_restore(self, state: dict) -> None:
        self.decision.state_restore(state["decision"])
        self.packets_processed = int(state["packets_processed"])

    # ------------------------------------------------------------------
    # steps ⑦/⑧ — predictions back
    # ------------------------------------------------------------------
    def receive_predictions_batch(
        self, updates: np.ndarray, votes: np.ndarray, epoch: int = 0
    ) -> None:
        """Aggregate, window and store one dispatched chunk of pending
        rows as one :data:`~repro.core.database.RESULT_DTYPE` block.

        ``votes`` is the ``(n_updates, n_active_models)`` 0/1 matrix
        from :meth:`~repro.core.prediction.PredictionModule.predict_batch`.
        Labels and vote masks are computed column-wise, keys are a take
        of the flow table's key column, stamps come off the rows;
        windows are pushed and the wall clock read in row order, so
        decisions and (under an injected clock) wall stamps match any
        chunking of the same rows.  ``epoch`` is the serving panel
        generation, stamped so hot-swap atomicity is auditable.
        """
        votes = np.asarray(votes)
        n_models = votes.shape[1]
        labels = majority_vote(votes)
        flows = self.db.flows
        slots = updates["slot"]
        finals = self.decision.push(flows.window_bits, flows.window_fill, slots, labels)
        clock = self.clock
        n = updates.shape[0]
        block = np.empty(n, dtype=RESULT_DTYPE)
        block["wall_predicted_ns"] = [clock() for _ in range(n)]
        block.view(KEY_VIEW)["key"] = flows.key_col.take(slots, axis=0)
        for field in ("ts_registered_ns", "wall_registered_ns", "seq"):
            block[field] = updates[field]
        block["label"] = labels
        block["votes_mask"] = (votes & 1) @ (1 << np.arange(n_models))
        block["votes_n"] = n_models
        block["final"] = finals
        block["epoch"] = epoch
        self.db.store_predictions(block)
