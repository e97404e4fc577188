"""Flow table: the Data Processor's keyed store of flow state, as columns.

Keeps exactly one record per five-tuple (the paper's deliberate storage
optimization: "we only keep one record for each flow at a given time"),
struct-of-arrays in the style of AMON's fixed-size databricks: one numpy
column per :data:`~repro.features.flow_record.STATE_FIELDS` field, plus
the :data:`~repro.features.flow_record.FEATURE_ORDER` row, the key, the
decision window (§IV-C4) and an incarnation stamp of every slot.
:class:`~repro.features.flow_record.FlowRecord` is only a decoded view;
its per-packet arithmetic is the reference the one fold,
:meth:`FlowTable.update_batch`, reproduces bit for bit: in numpy steps
across flows while many are active, in plain floats per flow after.  LRU
eviction under ``max_flows`` and idle-flow expiry keep a SYN flood, where
every spoofed packet creates a new flow, from growing the table without
bound.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.int_telemetry.timestamps import WRAP_PERIOD_NS, delta32_signed, naive_delta32

from .batch import FlowBatch
from .flow_record import FEATURE_ORDER, STATE_FIELDS, FlowRecord

__all__ = ["FlowTable"]

_NS = 1e-9
_MIN_CAPACITY = 64


def _std(m2: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``Welford.std`` column-wise: ``sqrt(max(m2 / n, 0))``, and 0 below
    two observations."""
    var = np.zeros(m2.shape[0])
    np.divide(m2, n, out=var, where=n >= 2)
    return np.sqrt(np.maximum(var, 0.0))


#: Active incarnations at or below which :meth:`FlowTable.update_batch`
#: stops stepping columns and finishes each incarnation in plain floats.
_TAIL_WIDTH = 8
#: The state columns the fold advances, in :func:`_fold_tail`'s order.
_FOLD_FIELDS = ("n_packets", "last_ts32", "created_ns", "total_bytes", "duration_s",
                "size_mean", "size_m2", "iat_mean", "iat_m2", "occ_mean", "occ_m2")


def _fold_tail(c, a, j, starts, counts, ts32, now, length, occ, last_gap, wrap_aware):
    """Finish the ``a`` active incarnations in ``c`` from packet position
    ``j`` on, each in one loop over Python floats with
    :meth:`FlowRecord.update`'s operations in its order.  Those are
    binary64 like the columns, unfused, so they round bit for bit alike."""
    ts32, now, length, occ = ts32.tolist(), now.tolist(), length.tolist(), occ.tolist()
    half = WRAP_PERIOD_NS // 2
    out, gaps = [], []
    state = zip(starts[:a].tolist(), counts[:a].tolist(),
                *[c[name][:a].tolist() for name in _FOLD_FIELDS])
    for s, k, n, last, created, tot, dur, sm, s2, im, i2, om, o2 in state:
        for r in range(s + j, s + k):
            t = ts32[r]
            if n == 0:  # the incarnation's first packet
                created, gap = now[r], 0.0
            else:
                g = t - last
                if wrap_aware:
                    g = (g + half) % WRAP_PERIOD_NS - half
                gap = (g if g > 0 else 0) * _NS
                d = gap - im
                im += d / n
                i2 += d * (gap - im)
                dur += gap
            last = t
            n += 1
            x, y = length[r], occ[r]
            tot += x
            d = x - sm
            sm += d / n
            s2 += d * (x - sm)
            d = y - om
            om += d / n
            o2 += d * (y - om)
        out.append((n, last, created, tot, dur, sm, s2, im, i2, om, o2))
        gaps.append(gap)
    last_gap[:a] = gaps
    for name, col in zip(_FOLD_FIELDS, zip(*out)):
        c[name][:a] = col


def _feature_block(c: Mapping[str, np.ndarray]) -> np.ndarray:
    """:data:`FEATURE_ORDER` rows of the state columns ``c``: the float64
    operations of :meth:`FlowRecord.feature_row`, column-wise, so every
    value is bit-identical to it."""
    n, dur, tot = c["n_packets"], c["duration_s"], c["total_bytes"]
    by_name = {
        "protocol": c["protocol"],
        "packet_size": c["packet_size"],
        "packet_size_cum": tot,
        "packet_size_avg": c["size_mean"],
        "packet_size_std": _std(c["size_m2"], n),
        "inter_arrival": c["inter_arrival_s"],
        "inter_arrival_cum": dur,
        "inter_arrival_avg": c["iat_mean"],
        "inter_arrival_std": _std(c["iat_m2"], n - 1),
        "queue_occupancy": c["queue_occupancy"],
        "queue_occupancy_avg": c["occ_mean"],
        "queue_occupancy_std": _std(c["occ_m2"], n),
        "n_packets": n,
        "packets_per_second": np.divide(n, dur, out=np.zeros(len(n)), where=dur > 0),
        "bytes_per_second": np.divide(tot, dur, out=np.zeros(len(n)), where=dur > 0),
        "hop_latency": c["hop_latency_s"],
    }
    out = np.empty((n.shape[0], len(FEATURE_ORDER)))
    for i, name in enumerate(FEATURE_ORDER):
        out[:, i] = by_name[name]
    return out


class FlowTable:
    """Five-tuple → one row of per-flow columns.

    A key → slot ``OrderedDict`` indexes the preallocated columns and
    carries the LRU order; a free-slot list backs it, and capacity
    doubles when it runs out.  Every slot also holds its key
    (``key_col``), its decision window (``window_bits``/``window_fill``)
    and an ``incarnation`` bumped on allocation and release: a ``(slot,
    incarnation)`` handle names one flow life, live while the two match.

    Parameters
    ----------
    max_flows : int, optional
        Hard cap on resident flows; exceeding it evicts the least
        recently updated flow (SYN-flood pressure relief).
    idle_timeout_ns : int, optional
        Flows not updated for this long are evicted by
        :meth:`expire_idle`.
    wrap_aware : bool
        Inter-arrival differencing of every flow (timestamp ablation
        hook).
    """

    def __init__(
        self,
        max_flows: Optional[int] = None,
        idle_timeout_ns: Optional[int] = None,
        wrap_aware: bool = True,
    ) -> None:
        if max_flows is not None and max_flows < 1:
            raise ValueError(f"max_flows must be >= 1: {max_flows}")
        self.max_flows = max_flows
        self.idle_timeout_ns = idle_timeout_ns
        self.wrap_aware = bool(wrap_aware)
        self._reset(_MIN_CAPACITY)
        self.created = 0
        self.evicted = 0
        self.expired = 0

    # ------------------------------------------------------------------
    # slots.  A free slot always holds a zero state row and an empty
    # window — a flow's state before its first packet — so a new flow
    # starts from its slot as is.
    # ------------------------------------------------------------------
    def _reset(self, capacity: int) -> None:
        """An empty table of ``capacity`` zeroed slots."""
        self._slot: "OrderedDict[tuple, int]" = OrderedDict()
        self._cols: Dict[str, np.ndarray] = {
            name: np.zeros(capacity, dtype) for name, dtype in STATE_FIELDS
        }
        self._feat = np.zeros((capacity, len(FEATURE_ORDER)))
        self.key_col = np.zeros((capacity, 5), np.int64)
        self.window_bits = np.zeros(capacity, np.uint64)
        self.window_fill = np.zeros(capacity, np.uint8)
        self.incarnation = np.zeros(capacity, np.int64)
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    def _reserve(self, need: int) -> None:
        """Make ``need`` free slots available: capacity at least doubles."""
        if len(self._free) >= need:
            return
        cap = self._feat.shape[0]
        extra = max(cap, need - len(self._free))

        def grow(col: np.ndarray) -> np.ndarray:
            return np.concatenate((col, np.zeros((extra,) + col.shape[1:], col.dtype)))

        for name, col in self._cols.items():
            self._cols[name] = grow(col)
        for name in ("_feat", "key_col", "window_bits", "window_fill", "incarnation"):
            setattr(self, name, grow(getattr(self, name)))
        self._free[:0] = range(cap + extra - 1, cap - 1, -1)

    def _release(self, slots: List[int]) -> None:
        """Zero ``slots``' rows and windows, end their lives, free them."""
        for col in (*self._cols.values(), self.key_col, self.window_bits,
                    self.window_fill):
            col[slots] = 0
        self.incarnation[slots] += 1
        self._free.extend(slots)

    # ------------------------------------------------------------------
    # reads (LRU-neutral)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, key: tuple) -> bool:
        return key in self._slot

    def get(self, key: tuple) -> Optional[FlowRecord]:
        """A decoded copy of a flow's row, **without refreshing its
        recency**.

        Only :meth:`update_batch` moves a flow toward the
        most-recently-used end of the LRU order; reads — feature
        polls, observability probes, sketch-gate residency checks — are
        order-neutral.  This is a contract, not an accident: eviction
        under ``max_flows`` pressure and :meth:`expire_idle` sweeps
        depend only on the *update* sequence, so read-heavy layers (the
        sketch admission gate probes residency for every flow in every
        slice) cannot perturb which flows get evicted.
        """
        slot = self._slot.get(key)
        if slot is None:
            return None
        return FlowRecord(
            key, self.wrap_aware, *[col.item(slot) for col in self._cols.values()]
        )

    def feature_rows(self, keys: Sequence[tuple]) -> Tuple[np.ndarray, np.ndarray]:
        """The :data:`FEATURE_ORDER` rows of ``keys`` as one row take.

        Returns ``(rows, resident)``; the rows of keys that are not
        resident are garbage, masked by ``resident``.
        """
        get = self._slot.get
        slots = np.fromiter((get(k, -1) for k in keys), np.int64, len(keys))
        return self._feat[slots], slots >= 0

    def features_at(self, slots: np.ndarray) -> np.ndarray:
        """The :data:`FEATURE_ORDER` rows of ``slots``, one row take."""
        return self._feat[slots]

    def feature_row(self, key: tuple) -> Optional[np.ndarray]:
        """One flow's :data:`FEATURE_ORDER` row — a view into the table,
        current until the next update — or ``None`` if the flow is not
        resident."""
        slot = self._slot.get(key)
        return None if slot is None else self._feat[slot]

    def keys(self) -> Iterator[tuple]:
        """Resident flow keys, least recently updated first."""
        return iter(self._slot)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update_batch(
        self,
        batch: FlowBatch,
        now_ns: np.ndarray,
        ingress_ts32: np.ndarray,
        length: np.ndarray,
        protocol: np.ndarray,
        queue_occupancy: Optional[np.ndarray] = None,
        hop_latency_ns: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold a grouped slice of packets (columns in original record
        order) into the table; returns every record's ``(slot,
        incarnation)`` handle, in record order.  Rows, features, LRU
        order and counters are bit-identical to
        :meth:`FlowRecord.update` once per record in order, with an LRU
        move per record and eviction past ``max_flows``.

        Each record first gets a slot from :meth:`_walk`.  Then one fold
        takes each state column once and advances every incarnation in
        :meth:`FlowRecord.update`'s operation order: one numpy step per
        *packet position within flow* while more than :data:`_TAIL_WIDTH`
        incarnations are active, then :func:`_fold_tail`, one plain-float
        loop per incarnation left.  A campaign slice has a median of 8
        incarnations and a longest run of 36 packets, so the fold costs
        per flow, not per packet position.  Both halves round in binary64
        unfused: the result is bit-identical wherever the switch falls.
        Each column goes back once, with the touched feature rows refreshed.
        """
        if batch.n == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        if queue_occupancy is None:
            queue_occupancy = np.zeros(batch.n)
        if hop_latency_ns is None:
            hop_latency_ns = np.zeros(batch.n)
        rec_slots, starts, counts, slots, victims = self._walk(batch)
        # Read before the victims are released: a record of a flow
        # evicted inside the slice holds a handle that is already dead.
        rec_inc = self.incarnation[rec_slots]

        # -- permute columns to (incarnation, arrival) order -----------
        o = batch.order
        ts32_s = np.asarray(ingress_ts32)[o].astype(np.int64)
        now_s = np.asarray(now_ns)[o].astype(np.int64)
        len_s = np.asarray(length, dtype=np.float64)[o]
        occ_s = np.asarray(queue_occupancy, dtype=np.float64)[o]

        # Incarnations sorted by size descending: at fold step j the
        # active ones are exactly a prefix, so per-step masking is a slice.
        G = counts.shape[0]
        gorder = np.argsort(-counts, kind="stable")
        starts_d = starts[gorder]
        counts_d = counts[gorder]
        slots_d = slots[gorder]
        maxc = int(counts_d[0])
        # Number of active incarnations at step j: those with count > j.
        cum = np.cumsum(np.bincount(counts, minlength=maxc + 1))

        # -- take each state column once, in the same order ------------
        c = {name: col[slots_d] for name, col in self._cols.items()}
        npk_d, tot_d, dur_d = c["n_packets"], c["total_bytes"], c["duration_s"]
        last_ts_d, created_d = c["last_ts32"], c["created_ns"]
        s_mean_d, s_m2_d = c["size_mean"], c["size_m2"]
        i_mean_d, i_m2_d = c["iat_mean"], c["iat_m2"]
        o_mean_d, o_m2_d = c["occ_mean"], c["occ_m2"]
        last_gap = np.zeros(G)
        diff32 = delta32_signed if self.wrap_aware else naive_delta32

        # -- vectorized fold, one step per within-flow packet position --
        for j in range(maxc):
            a = G - int(cum[j])  # active prefix length
            if a <= _TAIL_WIDTH:
                _fold_tail(c, a, j, starts_d, counts_d, ts32_s, now_s, len_s,
                           occ_s, last_gap, self.wrap_aware)
                break
            rows = starts_d[:a] + j
            ts32 = ts32_s[rows]
            ln = len_s[rows]
            oc = occ_s[rows]

            # inter-arrival (skipped for a record's very first packet); the
            # Welford counts are n_packets - 1 for gaps, n_packets for the
            # size and queue moments, after this packet.
            gap = np.zeros(a)
            if j == 0:
                fresh = npk_d[:a] == 0
                created_d[:a][fresh] = now_s[rows][fresh]
                m = np.flatnonzero(~fresh)
            else:
                m = slice(None)
            gap_ns = np.maximum(diff32(ts32[m], last_ts_d[:a][m]), 0)
            gap[m] = gap_ns * _NS
            gm = gap[m]
            d_i = gm - i_mean_d[:a][m]
            i_mean_d[:a][m] += d_i / npk_d[:a][m]
            i_m2_d[:a][m] += d_i * (gm - i_mean_d[:a][m])
            dur_d[:a][m] += gm
            last_gap[:a] = gap
            last_ts_d[:a] = ts32

            # packet size / queue occupancy moments (every packet)
            npk_d[:a] += 1
            d_s = ln - s_mean_d[:a]
            s_mean_d[:a] += d_s / npk_d[:a]
            s_m2_d[:a] += d_s * (ln - s_mean_d[:a])
            d_o = oc - o_mean_d[:a]
            o_mean_d[:a] += d_o / npk_d[:a]
            o_m2_d[:a] += d_o * (oc - o_mean_d[:a])
            tot_d[:a] += ln

        # -- packet-level values are each incarnation's last record's --
        last = starts_d + counts_d - 1
        c["updated_ns"] = now_s[last]
        c["protocol"] = np.asarray(protocol)[o[last]]
        c["packet_size"] = len_s[last]
        c["inter_arrival_s"] = last_gap
        c["queue_occupancy"] = occ_s[last]
        c["hop_latency_s"] = np.asarray(hop_latency_ns, dtype=np.float64)[o[last]] * _NS

        # -- put each column back once; refresh the touched features ---
        for name, col in self._cols.items():
            col[slots_d] = c[name]
        self._feat[slots_d] = _feature_block(c)
        if victims:
            self._release(victims)
        return rec_slots, rec_inc

    def _walk(
        self, batch: FlowBatch
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[int]]:
        """Per-record insert / move-to-end / evict on the key index, in
        record order: decides which flows are resident, which
        are new or re-created, the victims and the final LRU order.  A
        flow evicted and re-created inside the slice has two lives
        (*incarnations*) with a slot each.  Returns every record's slot,
        the incarnations as ``(starts, counts, slots)`` over
        ``batch.order``, and the victims' slots (reused after the slice)."""
        gid = np.empty(batch.n, np.int64)
        gid[batch.order] = np.repeat(np.arange(batch.n_groups), batch.counts)
        self._reserve(batch.n)
        slot_of, free, keys = self._slot, self._free, batch.keys
        cap = self.max_flows
        rec_slots: List[int] = []
        born: List[int] = []
        born_keys: List[tuple] = []
        victims: List[int] = []
        for g in gid.tolist():
            slot = slot_of.get(keys[g])
            if slot is None:
                slot = slot_of[keys[g]] = free.pop()
                born.append(slot)
                born_keys.append(keys[g])
                if cap is not None and len(slot_of) > cap:
                    victims.append(slot_of.popitem(last=False)[1])
            else:
                slot_of.move_to_end(keys[g])
            rec_slots.append(slot)
        if born:
            self.key_col[born] = born_keys
            self.incarnation[born] += 1
        self.created += len(born)
        self.evicted += len(victims)
        # ``batch.order`` sorts records by key, then arrival, and a key's
        # incarnations follow one another: an incarnation starts
        # wherever the slot changes along it.
        slots = np.asarray(rec_slots, dtype=np.int64)
        sorted_slots = slots[batch.order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_slots[1:] != sorted_slots[:-1]))
        )
        counts = np.diff(np.append(starts, batch.n))
        return slots, starts, counts, sorted_slots[starts], victims

    def expire_idle(self, now_ns: int) -> int:
        """Evict flows idle longer than ``idle_timeout_ns``; returns count.

        The table is LRU-ordered (every update moves its flow to the
        back), and update timestamps are non-decreasing in any replayed
        or live feed, so the scan walks from the least-recently-updated
        end and stops at the first non-stale flow instead of visiting
        the whole table.
        """
        if self.idle_timeout_ns is None:
            return 0
        cutoff = now_ns - self.idle_timeout_ns
        updated = self._cols["updated_ns"]
        stale = []
        for key, slot in self._slot.items():
            if updated[slot] >= cutoff:
                break
            stale.append(key)
        self._release([self._slot.pop(key) for key in stale])
        self.expired += len(stale)
        return len(stale)

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def _lru_slots(self) -> np.ndarray:
        return np.fromiter(self._slot.values(), np.int64, len(self._slot))

    def state_snapshot(self) -> dict:
        """Table state as ndarrays and ints: the keys as an ``(n, 5)``
        int64 array, one array per state column, the window columns and
        the counters.

        Rows are captured **in LRU order** and restored into slots
        ``0..n-1`` — the same order, so ``max_flows`` evictions and
        :meth:`expire_idle` sweeps after a restore hit exactly the flows
        they would have hit without the checkpoint round-trip (handle
        holders translate with :meth:`restored_handles`).
        """
        slots = self._lru_slots()
        state: dict = {name: col[slots] for name, col in self._cols.items()}
        state["keys"] = self.key_col[slots]
        state["window_bits"] = self.window_bits[slots]
        state["window_fill"] = self.window_fill[slots]
        state.update(created=self.created, evicted=self.evicted, expired=self.expired)
        return state

    def restored_handles(
        self, slots: np.ndarray, incarnations: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Handles after a snapshot/restore round trip: a live one moves
        to its flow's LRU rank at incarnation 1, a dead one to ``(0, -1)``,
        which no slot ever carries."""
        rank = np.zeros(self.incarnation.shape[0], np.int64)
        rank[self._lru_slots()] = np.arange(len(self._slot))
        live = self.incarnation[slots] == incarnations
        return np.where(live, rank[slots], 0), np.where(live, 1, -1)

    def state_restore(self, state: dict) -> None:
        """Replace table contents with a :meth:`state_snapshot` capture.

        Configuration (``max_flows``, ``idle_timeout_ns``,
        ``wrap_aware``) is *not* restored — the restoring process
        constructs the table with the same recipe the checkpointed one
        used.
        """
        keys = [tuple(k) for k in state["keys"].tolist()]
        n = len(keys)
        self._reset(max(n, _MIN_CAPACITY))
        del self._free[len(self._free) - n :]
        self._slot.update(zip(keys, range(n)))
        for name, col in self._cols.items():
            col[:n] = state[name]
        self._feat[:n] = _feature_block({k: col[:n] for k, col in self._cols.items()})
        self.key_col[:n] = state["keys"]
        self.window_bits[:n] = state["window_bits"]
        self.window_fill[:n] = state["window_fill"]
        self.incarnation[:n] = 1
        self.created = int(state["created"])
        self.evicted = int(state["evicted"])
        self.expired = int(state["expired"])
