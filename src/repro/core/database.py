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
whether there is an update in the records" (§III-3).  We model that poll
faithfully: :meth:`poll_updates` *scans the resident flow keys* for a
dirty flag rather than consuming an efficient queue.  The scan cost is
proportional to the number of live flows — the very scaling bottleneck
the paper observes when benign traffic (many concurrent flows) drives
prediction latency up (Table VI, §V).  Set ``fast_poll=True`` to use an
indexed dirty-set instead, which is the obvious production fix and the
subject of an ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.features.batch import FlowBatch
from repro.features.flow_record import FEATURE_ORDER
from repro.features.flow_table import FlowTable

__all__ = ["FlowDatabase", "PredictionEntry", "PredictionLog", "RESULT_DTYPE"]

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


class PredictionLog:
    """The prediction log: one growable :data:`RESULT_DTYPE` array.

    ``rows`` is a view of the resident rows; columns are read straight
    off it.  :meth:`trim` drops shipped rows off the front and advances
    ``base``, so absolute stream position ``i`` is resident row
    ``i - base`` (sharded workers trim every cycle, keeping worker
    memory and checkpoints O(flows)).  Indexing and iteration decode
    :class:`PredictionEntry` views; equality compares rows.
    """

    def __init__(self, rows: Optional[np.ndarray] = None, base: int = 0) -> None:
        self._buf = np.empty(64, dtype=RESULT_DTYPE)
        self._n = 0
        self.base = int(base)
        if rows is not None:
            self.extend(rows)

    @property
    def rows(self) -> np.ndarray:
        return self._buf[: self._n]

    @property
    def total(self) -> int:
        """Rows stored over the log's life, trimmed ones included."""
        return self.base + self._n

    def __len__(self) -> int:
        return self._n

    def extend(self, block: np.ndarray) -> None:
        """Append a block of rows (amortized O(rows): the buffer doubles)."""
        if block.dtype != RESULT_DTYPE:
            raise TypeError(
                f"prediction rows must be RESULT_DTYPE, not {block.dtype}"
            )
        m = int(block.shape[0])
        if m == 0:
            return
        end = self._n + m
        if end > self._buf.shape[0]:
            grown = np.empty(max(end, 2 * self._buf.shape[0]), dtype=RESULT_DTYPE)
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        # Byte copy: same dtype, and a structured assignment costs
        # microseconds of per-field dispatch on every (often tiny) block.
        self._buf[self._n : end].view(np.uint8)[:] = (
            np.ascontiguousarray(block).view(np.uint8)
        )
        self._n = end

    def trim(self, n: int) -> None:
        """Drop the oldest ``n`` resident rows in place, advancing
        :attr:`base`."""
        if n <= 0:
            return
        if n > self._n:
            raise ValueError(
                f"cannot trim {n} of {self._n} resident predictions"
            )
        rest = self._n - n
        self._buf[:rest] = self._buf[n : self._n]
        self._n = rest
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
    """Flow-record store plus update tracking and prediction log.

    Parameters
    ----------
    flow_table : FlowTable, optional
        Shared with the Data Processor; created if omitted.
    fast_poll : bool
        Use an O(dirty) indexed poll instead of the paper-faithful
        O(live flows) scan.
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
        # Pending-update bookkeeping.  The dirty dict maps flow key to the
        # registration stamps of not-yet-predicted updates (a flow may
        # receive several packets between polls; each is one update).
        # Each stamp is ``(ts_sim_ns, wall_ns, seq)``.
        self._dirty: Dict[tuple, List[Tuple[int, int, int]]] = {}
        self.predictions = PredictionLog()
        self.updates_registered = 0
        self.polls = 0
        self.records_scanned = 0

    # ------------------------------------------------------------------
    # Data Processor side (steps ③ and ⑧)
    # ------------------------------------------------------------------
    def register_update(
        self, key: tuple, ts_sim_ns: int, wall_ns: int, seq: int = -1
    ) -> None:
        """Mark a flow's record as updated (step ③)."""
        self._dirty.setdefault(key, []).append((ts_sim_ns, wall_ns, seq))
        self.updates_registered += 1

    def register_update_batch(
        self,
        batch: FlowBatch,
        ts_sim_ns: np.ndarray,
        wall_ns: Sequence[int],
        seqs: Optional[Sequence[int]] = None,
    ) -> None:
        """Batched :meth:`register_update` for one grouped telemetry
        slice — one dict probe per *flow* instead of one per packet.

        Pending-update order is kept byte-identical to the scalar path:
        groups are visited in first-occurrence order (so a flow newly
        dirtied by this batch lands in the dirty dict exactly where the
        scalar path would have inserted it) and each group's stamps are
        appended in arrival order.  ``seqs`` carries the per-record
        delivered-stream sequence numbers (``-1`` when absent).
        """
        ts_list = np.asarray(ts_sim_ns).tolist()
        if seqs is None:
            seq_list: Sequence[int] = [-1] * batch.n
        else:
            seq_list = np.asarray(seqs).tolist()
        dirty = self._dirty
        for g in np.argsort(batch.first_pos, kind="stable").tolist():
            rows = batch.group_rows(g).tolist()
            lst = dirty.setdefault(batch.keys[g], [])
            for r in rows:
                lst.append((ts_list[r], wall_ns[r], seq_list[r]))
        self.updates_registered += batch.n

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
    def poll_updates(
        self, limit: Optional[int] = None
    ) -> List[Tuple[tuple, int, int, int]]:
        """Collect pending updates, oldest-first per flow.

        Returns tuples ``(key, ts_sim_ns, wall_registered_ns, seq)``.

        With ``skip_new_flows`` set, records holding a single packet are
        withheld (a literal reading of §III-3's "does not consider new
        entries with new Flow IDs"); their updates stay queued until a
        second packet arrives.  The default predicts on every update
        including the creating packet — the only behaviour consistent
        with Table VI, whose per-type predicted counts cover (and for
        scans/floods roughly equal) the replayed packets, most of which
        belong to one-packet flows.  Under the literal reading those
        flows would never be predicted at all.
        """
        self.polls += 1
        out: List[Tuple[tuple, int, int, int]] = []
        flows = self.flows
        if self.fast_poll:
            candidates = list(self._dirty.keys())
        else:
            # Paper-faithful: walk every resident flow looking for dirty
            # ones.  The walk itself is the cost being modeled.
            candidates = []
            for key in flows.keys():
                self.records_scanned += 1
                if key in self._dirty:
                    candidates.append(key)

        for key in candidates:
            if key not in flows:
                # Evicted under flood pressure; drop its pending updates.
                del self._dirty[key]
                continue
            if self.skip_new_flows and flows.feature_row(key)[_N_PACKETS] <= 1:
                continue  # wait for the first real update (§III-3 literal)
            stamps = self._dirty.pop(key)
            for i, (ts_sim, wall, seq) in enumerate(stamps):
                out.append((key, ts_sim, wall, seq))
                if limit is not None and len(out) >= limit:
                    rest = stamps[i + 1 :]  # requeue what didn't fit
                    if rest:
                        self._dirty.setdefault(key, []).extend(rest)
                    return out
        return out

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """Database state as a plain picklable dict: the flow table,
        the dirty map (in insertion order — poll order depends on it),
        the prediction log, and the counters."""
        return {
            "flows": self.flows.state_snapshot(),
            "dirty": [(k, list(v)) for k, v in self._dirty.items()],
            "predictions": self.predictions.rows.copy(),
            "predictions_base": self.predictions.base,
            "updates_registered": self.updates_registered,
            "polls": self.polls,
            "records_scanned": self.records_scanned,
        }

    def state_restore(self, state: dict) -> None:
        """Replace database contents with a :meth:`state_snapshot`
        capture (configuration flags are not restored — construct with
        the same recipe)."""
        self.flows.state_restore(state["flows"])
        self._dirty = {k: list(v) for k, v in state["dirty"]}
        self.predictions = PredictionLog(
            state["predictions"], base=state["predictions_base"]
        )
        self.updates_registered = int(state["updates_registered"])
        self.polls = int(state["polls"])
        self.records_scanned = int(state["records_scanned"])

    @property
    def pending_updates(self) -> int:
        return sum(len(v) for v in self._dirty.values())

    def latencies_ns(self) -> np.ndarray:
        """All resident prediction latencies, in storage order."""
        rows = self.predictions.rows
        return rows["wall_predicted_ns"] - rows["wall_registered_ns"]
