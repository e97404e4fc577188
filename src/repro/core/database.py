"""The mechanism's database (Fig 2 center).

Stores exactly what the paper's database stores: one record per Flow ID
(a row of the Data Processor's :class:`~repro.features.flow_table.FlowTable`
columns), plus the prediction log the Data Processor writes back (label,
timestamp, prediction latency — steps ③ and ⑧ of Fig 2).

The prediction log is one growable :data:`RESULT_DTYPE` structured array
(:class:`PredictionLog`) — the same rows in process, in a shard worker,
on the worker→coordinator pipe, in a checkpoint and after the sharded
merge.  Writers hand it whole blocks through
:meth:`FlowDatabase.store_predictions`; readers take columns.  A
:class:`PredictionEntry` is only a frozen view of one row, decoded on
demand when the log is indexed or iterated.

The CentralServer "continuously communicates with the database to check
whether there is an update in the records" (§III-3).  Every registered
update is one :data:`PENDING_DTYPE` row — the ``(slot, incarnation)``
handle of its flow's flow-table life plus its stamps — appended in
registration order, and :meth:`FlowDatabase.poll_updates` hands out the
oldest rows as one block.  The default poll also *walks the resident
flow keys*, as the paper's database scan for updated records would: its
cost is proportional to the number of live flows — the very scaling
bottleneck the paper observes when benign traffic (many concurrent
flows) drives prediction latency up (Table VI, §V).  ``fast_poll=True``
skips the walk, the obvious production fix and the subject of an
ablation bench; the block is the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.features.flow_record import FEATURE_ORDER
from repro.features.flow_table import FlowTable

__all__ = ["FlowDatabase", "PENDING_DTYPE", "PredictionEntry", "PredictionLog",
           "RESULT_DTYPE"]

#: One pending update: the flow-table handle of the registering flow's
#: life, its simulated and wall registration stamps and its
#: delivered-stream seq.
PENDING_DTYPE = np.dtype([(name, "i8") for name in (
    "slot", "incarnation", "ts_registered_ns", "wall_registered_ns", "seq",
)])

#: One prediction-log row: the flow key as five int64 columns, the
#: telemetry and both wall stamps, the aggregated label, the per-model
#: votes as a bitmask + count (bit ``b`` is model ``b``'s 0/1 vote),
#: the windowed decision (-1 for the not-yet-decided ``None``), the
#: delivered-stream seq and the serving panel epoch.
RESULT_DTYPE = np.dtype([
    ("k0", "i8"), ("k1", "i8"), ("k2", "i8"), ("k3", "i8"), ("k4", "i8"),
    ("ts_registered_ns", "i8"),
    ("wall_registered_ns", "i8"),
    ("wall_predicted_ns", "i8"),
    ("label", "i1"),
    ("votes_mask", "u8"),
    ("votes_n", "i1"),
    ("final", "i1"),
    ("seq", "i8"),
    ("epoch", "i2"),
])

#: The flow-key columns of :data:`RESULT_DTYPE`, in key order.
KEY_FIELDS = ("k0", "k1", "k2", "k3", "k4")
#: :data:`RESULT_DTYPE` seen as its leading key columns, one ``(5,)``
#: int64 field: ``rows.view(KEY_VIEW)["key"]`` is an ``(n, 5)`` view.
KEY_VIEW = np.dtype({"names": ["key"], "formats": [(np.int64, 5)], "offsets": [0],
                     "itemsize": RESULT_DTYPE.itemsize})

_N_PACKETS = FEATURE_ORDER.index("n_packets")


@dataclass(frozen=True)
class PredictionEntry:
    """Frozen view of one prediction-log row (step ⑧).

    Handed out by indexing or iterating a :class:`PredictionLog`; the
    log itself stores only :data:`RESULT_DTYPE` rows.

    ``seq`` is the update's position in the *delivered* telemetry stream
    (post-chaos, pre-shard): packet ``seq`` of the run produced this
    update.  It is the merge key of the sharded execution mode — every
    delivered packet registers exactly one update, so ``seq`` is unique
    per entry and a merge ordered by ``(seq, shard)`` is deterministic
    for any worker count.  Entries created outside a detector run (e.g.
    hand-built in tests) default to ``-1``.

    ``epoch`` is the model-panel generation that served the prediction
    (0 = the pretrained panel; each lifecycle hot swap increments it).
    It makes swap atomicity auditable — in a merged log the epoch column
    must be non-decreasing in cycle order, or some shard served a cycle
    with a mixed panel.  Excluded from the canonical digest, which
    predates it.
    """

    key: tuple
    ts_registered_ns: int
    wall_registered_ns: int
    wall_predicted_ns: int
    label: int
    votes: tuple
    final_decision: Optional[int]
    seq: int = -1
    epoch: int = 0

    @property
    def latency_ns(self) -> int:
        """The paper's *Prediction Latency*: prediction time minus the
        time of the packet's registration."""
        return self.wall_predicted_ns - self.wall_registered_ns


class Rows:
    """A growable structured array of one ``dtype``: ``rows`` is a view
    of the resident rows, appended in blocks, dropped off the front
    (:meth:`trim`) or compacted (:meth:`keep`) in place."""

    def __init__(self, dtype: np.dtype, rows: Optional[np.ndarray] = None) -> None:
        self._buf = np.empty(64, dtype=dtype)
        self._n = 0
        if rows is not None:
            self.extend(rows)

    @property
    def rows(self) -> np.ndarray:
        return self._buf[: self._n]

    def __len__(self) -> int:
        return self._n

    def extend(self, block: np.ndarray) -> None:
        """Append a block of rows (amortized O(rows): the buffer doubles)."""
        if block.dtype != self._buf.dtype:
            raise TypeError(f"rows must be {self._buf.dtype}, not {block.dtype}")
        m = int(block.shape[0])
        if m == 0:
            return
        end = self._n + m
        if end > self._buf.shape[0]:
            grown = np.empty(max(end, 2 * self._buf.shape[0]), dtype=block.dtype)
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        # Byte copy: same dtype, and a structured assignment costs
        # microseconds of per-field dispatch on every (often tiny) block.
        self._buf[self._n : end].view(np.uint8)[:] = (
            np.ascontiguousarray(block).view(np.uint8)
        )
        self._n = end

    def trim(self, n: int) -> None:
        """Drop the oldest ``n`` resident rows in place."""
        if n > self._n:
            raise ValueError(f"cannot trim {n} of {self._n} resident rows")
        self.keep(slice(max(n, 0), None))

    def keep(self, which: Any) -> None:
        """Keep the rows ``which`` (a mask or a slice) selects, in order."""
        kept = self.rows[which]
        self._n = kept.shape[0]
        self._buf[: self._n] = kept


class PredictionLog(Rows):
    """The prediction log: one growable :data:`RESULT_DTYPE` array.

    ``rows`` is a view of the resident rows; columns are read straight
    off it.  :meth:`trim` drops shipped rows off the front and advances
    ``base``, so absolute stream position ``i`` is resident row
    ``i - base`` (sharded workers trim every cycle, keeping worker
    memory and checkpoints O(flows)).  Indexing and iteration decode
    :class:`PredictionEntry` views; equality compares rows.
    """

    def __init__(self, rows: Optional[np.ndarray] = None, base: int = 0) -> None:
        super().__init__(RESULT_DTYPE, rows)
        self.base = int(base)

    @property
    def total(self) -> int:
        """Rows stored over the log's life, trimmed ones included."""
        return self.base + self._n

    def trim(self, n: int) -> None:
        """Drop the oldest ``n`` resident rows in place, advancing
        :attr:`base`."""
        if n > 0:
            super().trim(n)
            self.base += n

    def canonical_order(self) -> np.ndarray:
        """Resident row indices in the canonical ``(seq, key)`` order —
        a stable sort, so exact ties keep storage order.  The digest,
        the episode replay and the epoch audit all read this order."""
        rows = self.rows
        return np.lexsort(
            tuple(rows[f] for f in reversed(KEY_FIELDS)) + (rows["seq"],)
        )

    @staticmethod
    def decode(block: np.ndarray) -> List[PredictionEntry]:
        """The row decoder: :data:`RESULT_DTYPE` rows to entry views."""
        keys = zip(*(block[f].tolist() for f in KEY_FIELDS))
        vcache: Dict[Tuple[int, int], tuple] = {}
        out: List[PredictionEntry] = []
        for key, ts, wall_reg, wall_pred, label, mask, vn, final, seq, epoch in zip(
            keys,
            *(block[f].tolist() for f in (
                "ts_registered_ns", "wall_registered_ns", "wall_predicted_ns",
                "label", "votes_mask", "votes_n", "final", "seq", "epoch",
            )),
        ):
            votes = vcache.get((mask, vn))
            if votes is None:
                votes = vcache[(mask, vn)] = tuple(
                    (mask >> b) & 1 for b in range(vn)
                )
            out.append(PredictionEntry(
                key, ts, wall_reg, wall_pred, label, votes,
                None if final < 0 else final, seq, epoch,
            ))
        return out

    def __getitem__(self, index: int) -> PredictionEntry:
        return self.decode(self.rows[[index]])[0]

    def chunks(self, order: Optional[np.ndarray] = None) -> Iterator[np.ndarray]:
        """The resident rows — in ``order`` if given — 4096 rows at a
        time.  Readers that build Python objects per row go through
        this, so their transient memory is one chunk, not the log."""
        for start in range(0, self._n, 4096):
            if order is None:
                yield self.rows[start : start + 4096]
            else:
                yield self.rows[order[start : start + 4096]]

    def __iter__(self) -> Iterator[PredictionEntry]:
        for rows in self.chunks():
            yield from self.decode(rows)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, PredictionLog):
            return NotImplemented
        return self.rows.tobytes() == other.rows.tobytes()


class FlowDatabase:
    """Flow-record store plus the pending-update queue and prediction log.

    Parameters
    ----------
    flow_table : FlowTable, optional
        Shared with the Data Processor; created if omitted.
    fast_poll : bool
        Skip the paper-faithful O(live flows) walk of every poll; the
        block is the same, only ``records_scanned`` differs.
    skip_new_flows : bool
        Withhold updates of one-packet flows (see :meth:`poll_updates`).
    """

    def __init__(
        self,
        flow_table: Optional[FlowTable] = None,
        fast_poll: bool = False,
        skip_new_flows: bool = False,
    ) -> None:
        self.flows = flow_table if flow_table is not None else FlowTable()
        self.fast_poll = bool(fast_poll)
        self.skip_new_flows = bool(skip_new_flows)
        #: Not-yet-predicted updates in registration order (one row per
        #: packet: a flow may receive several between polls).
        self.pending = Rows(PENDING_DTYPE)
        self.predictions = PredictionLog()
        self.updates_registered = 0
        self.updates_evicted = 0
        self.polls = 0
        self.records_scanned = 0

    # ------------------------------------------------------------------
    # Data Processor side (steps ③ and ⑧)
    # ------------------------------------------------------------------
    def register_update_batch(
        self,
        slots: Sequence[int],
        incarnations: Sequence[int],
        ts_sim_ns: Sequence[int],
        wall_ns: Sequence[int],
        seqs: Optional[Sequence[int]] = None,
    ) -> None:
        """Flag updated records (step ③): one pending row per record, in
        record order, with the flow-table handles ``update_batch``
        returned (``seqs`` default ``-1``)."""
        block = np.empty(len(slots), PENDING_DTYPE)
        block["slot"] = slots
        block["incarnation"] = incarnations
        block["ts_registered_ns"] = ts_sim_ns
        block["wall_registered_ns"] = wall_ns
        block["seq"] = -1 if seqs is None else seqs
        self.pending.extend(block)
        self.updates_registered += block.shape[0]

    def store_predictions(self, block: np.ndarray) -> None:
        """Persist a block of aggregated predictions (step ⑧)."""
        self.predictions.extend(block)

    @property
    def predictions_total(self) -> int:
        """Total predictions stored over the run, including any the
        owner has trimmed after shipping them elsewhere."""
        return self.predictions.total

    def trim_predictions(self, n: int) -> None:
        """Drop the oldest ``n`` resident rows of the log.  The caller
        owns durability of the trimmed rows (the sharded worker has
        already streamed them to the coordinator)."""
        self.predictions.trim(n)

    # ------------------------------------------------------------------
    # CentralServer side (step ④)
    # ------------------------------------------------------------------
    def poll_updates(self, limit: Optional[int] = None) -> np.ndarray:
        """The oldest ``limit`` (default: all) pending updates as one
        :data:`PENDING_DTYPE` block, in registration order.  Rows of
        ended flow lives are dropped and counted (``updates_evicted``).

        With ``skip_new_flows``, updates of one-packet records stay
        queued, in order, until a second packet arrives (a literal
        reading of §III-3's "does not consider new entries with new Flow
        IDs").  The default predicts every update including the creating
        packet — the only behaviour consistent with Table VI, whose
        per-type predicted counts cover the replayed packets, most of
        which belong to one-packet flows.
        """
        self.polls += 1
        flows = self.flows
        if not self.fast_poll:
            # Paper-faithful: walk every resident record for its update
            # flag.  The walk itself is the cost being modeled.
            self.records_scanned += sum(1 for _ in flows.keys())
        rows = self.pending.rows
        slots = rows["slot"]
        live = flows.incarnation[slots] == rows["incarnation"]
        ready = live
        if self.skip_new_flows:
            ready = live & (flows.features_at(slots)[:, _N_PACKETS] > 1)
        take = np.flatnonzero(ready)[:limit]
        block = rows[take]
        self.updates_evicted += rows.shape[0] - int(np.count_nonzero(live))
        live[take] = False
        self.pending.keep(live)
        return block

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """Database state as ndarrays and ints: the flow table, the
        pending rows (their handles translated to the restored table's
        slots), the prediction log, and the counters."""
        pending = self.pending.rows.copy()
        pending["slot"], pending["incarnation"] = self.flows.restored_handles(
            pending["slot"], pending["incarnation"]
        )
        return {
            "flows": self.flows.state_snapshot(),
            "pending": pending,
            "predictions": self.predictions.rows.copy(),
            "predictions_base": self.predictions.base,
            "updates_registered": self.updates_registered,
            "updates_evicted": self.updates_evicted,
            "polls": self.polls,
            "records_scanned": self.records_scanned,
        }

    def state_restore(self, state: dict) -> None:
        """Replace database contents with a :meth:`state_snapshot`
        capture (configuration flags are not restored — construct with
        the same recipe)."""
        self.flows.state_restore(state["flows"])
        self.pending = Rows(PENDING_DTYPE, state["pending"])
        self.predictions = PredictionLog(
            state["predictions"], base=state["predictions_base"]
        )
        self.updates_registered = int(state["updates_registered"])
        self.updates_evicted = int(state["updates_evicted"])
        self.polls = int(state["polls"])
        self.records_scanned = int(state["records_scanned"])

    @property
    def pending_updates(self) -> int:
        return len(self.pending)

    def latencies_ns(self) -> np.ndarray:
        """All resident prediction latencies, in storage order."""
        rows = self.predictions.rows
        return rows["wall_predicted_ns"] - rows["wall_registered_ns"]
