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

from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.int_telemetry.timestamps import WRAP_PERIOD_NS, delta32_signed, naive_delta32

from .batch import FlowBatch
from .flow_record import FEATURE_ORDER, STATE_FIELDS, FlowRecord

__all__ = ["FlowTable"]

_NS = 1e-9
_MIN_CAPACITY = 64
#: A key's index hash: the wrapping dot product of its ``key_col`` row
#: with these odd multipliers, one product for any number of keys.
_MIX = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
                 0xD6E8FEB86659FD93, 0xFF51AFD7ED558CCD], np.uint64).view(np.int64)
#: An index entry: the top 32 bits of the key's hash above its slot.
_SLOT_MASK = np.uint64(0xFFFFFFFF)
_HASH_MASK = ~_SLOT_MASK
#: A ``key_col`` row as one opaque value: rows compare in one step.
_KEY = np.dtype((np.void, 5 * 8))


def _hash_bits(key_col: np.ndarray) -> np.ndarray:
    """Each key row's index hash with its low 32 bits cleared."""
    return (key_col @ _MIX).view(np.uint64) & _HASH_MASK


#: :data:`STATE_FIELDS` names of the int64 block, then of the float64 one.
_BLOCKS = [[name for name, kind in STATE_FIELDS if kind is k]
           for k in (np.int64, np.float64)]


def _columns(ints: np.ndarray, floats: np.ndarray) -> Dict[str, np.ndarray]:
    """Each :data:`STATE_FIELDS` column, in that order, as a block view."""
    by_name = {**dict(zip(_BLOCKS[0], ints.T)), **dict(zip(_BLOCKS[1], floats.T))}
    return {name: by_name[name] for name, _ in STATE_FIELDS}


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


def _walk_records(gid, found, oldest, free, cap, size):
    """The per-record walk on plain ints: record by record, group ``gid[r]``
    takes ``free.pop()`` unless resident (``found[g]``, ``-1`` if not),
    moves to the recent end of the LRU order, and past ``cap`` the least
    recent flow goes.  ``oldest`` lists the ``min(size, records)`` least
    recent residents, the only ones an eviction can reach.  Returns each
    record's slot, the born slots and groups, and the victims in order."""
    lru = dict.fromkeys(oldest)
    owner = {s: g for g, s in enumerate(found) if s >= 0}
    rec_slots, born, born_g, victims = [], [], [], []
    for g in gid:
        slot = found[g]
        if slot < 0:
            slot = found[g] = free.pop()
            owner[slot] = g
            born.append(slot)
            born_g.append(g)
            size += 1
        lru.pop(slot, None)
        lru[slot] = None
        if size > cap:
            victim = next(iter(lru))
            del lru[victim]
            victims.append(victim)
            size -= 1
            if victim in owner:
                found[owner.pop(victim)] = -1
        rec_slots.append(slot)
    return rec_slots, born, born_g, victims


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
    return np.array([by_name[name] for name in FEATURE_ORDER], np.float64).T


class FlowTable:
    """Five-tuple → one row of per-flow columns.

    No Python object per flow: the index is a sorted array of one word
    per flow (its key's hash bits over its slot), and the LRU order the
    ``touched`` column (records folded up to the flow's last update)
    with a queue of ``(slot, touched)`` pairs in that order.  State
    columns are the columns of an int64 and a float64 block.  A
    free-slot list backs the preallocated slots; capacity doubles when
    it runs out.  Every slot also holds its key (``key_col``), its
    decision window (``window_bits``/``window_fill``) and an
    ``incarnation`` bumped on allocation and release: a ``(slot,
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
        self._index = np.empty(0, np.uint64)
        self._queue = np.zeros((2 * capacity, 2), np.int64)
        self._head = self._tail = self._tick = 0
        self._ints = np.zeros((capacity, len(_BLOCKS[0])), np.int64)
        self._floats = np.zeros((capacity, len(_BLOCKS[1])))
        self._cols = _columns(self._ints, self._floats)
        self._feat = np.zeros((capacity, len(FEATURE_ORDER)))
        self.key_col = np.zeros((capacity, 5), np.int64)
        self.window_bits = np.zeros(capacity, np.uint64)
        self.window_fill = np.zeros(capacity, np.uint8)
        self.incarnation = np.zeros(capacity, np.int64)
        self.touched = np.zeros(capacity, np.int64)
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    def _reserve(self, need: int) -> None:
        """Make ``need`` free slots available: capacity at least doubles."""
        if len(self._free) >= need:
            return
        cap = self._feat.shape[0]
        extra = max(cap, need - len(self._free))

        def grow(col: np.ndarray) -> np.ndarray:
            return np.concatenate((col, np.zeros((extra,) + col.shape[1:], col.dtype)))

        for name in ("_ints", "_floats", "_feat", "key_col", "window_bits",
                     "window_fill", "incarnation", "touched"):
            setattr(self, name, grow(getattr(self, name)))
        self._cols = _columns(self._ints, self._floats)
        self._free[:0] = range(cap + extra - 1, cap - 1, -1)

    def _release(self, slots: Sequence[int]) -> None:
        """Zero ``slots``' rows and windows, end their lives, free them;
        their index entries go stale."""
        idx = np.asarray(slots, np.int64)
        for col in (self._ints, self._floats, self.key_col, self.window_bits,
                    self.window_fill, self.touched):
            col[idx] = 0
        self.incarnation[idx] += 1
        self._free.extend(idx.tolist())

    def _insert(self, slots: np.ndarray) -> None:
        """Index the new ``slots`` (a stable sort merges them in linear
        time), rebuilding from the live slots once stale entries are the
        majority."""
        def entries(s: np.ndarray) -> np.ndarray:
            return _hash_bits(self.key_col.take(s, axis=0)) | s.astype(np.uint64)

        if self._index.shape[0] > 2 * len(self):
            self._index = np.sort(entries(np.flatnonzero(self.touched)))
        self._index = np.concatenate((self._index, entries(slots)))
        self._index.sort(kind="stable")

    def _enqueue(self, slots: np.ndarray, ticks: np.ndarray) -> None:
        """Append ``(slot, touched)`` pairs, ``ticks`` ascending, to the
        LRU queue, compacted to its live pairs (and grown) when full."""
        q, m = self._queue, slots.shape[0]
        if self._tail + m > q.shape[0]:
            live = q[self._head : self._tail]
            live = live[self.touched[live[:, 0]] == live[:, 1]]
            q = np.zeros((max(q.shape[0], 2 * (live.shape[0] + m)), 2), np.int64)
            q[: live.shape[0]] = live
            self._queue, self._head, self._tail = q, 0, live.shape[0]
        q[self._tail : self._tail + m, 0] = slots
        q[self._tail : self._tail + m, 1] = ticks
        self._tail += m

    def _oldest(self, k: int) -> np.ndarray:
        """The ``k`` least recently updated slots: the first ``k`` queue
        pairs that match their slot's ``touched``."""
        q = self._queue[self._head : self._tail]
        w = 2 * k + 64
        while True:
            live = self.touched[q[:w, 0]] == q[:w, 1]
            if w >= q.shape[0] or np.count_nonzero(live) >= k:
                break
            w *= 4
        self._head += int(np.argmax(live)) if live.any() else live.shape[0]
        return q[:w, 0][live][:k]

    # ------------------------------------------------------------------
    # reads (LRU-neutral)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.touched.shape[0] - len(self._free)

    def __contains__(self, key: tuple) -> bool:
        return self.lookup([key])[0] >= 0

    def lookup(self, keys: Any) -> np.ndarray:
        """The slot of each key, ``-1`` where it is not resident: the one
        index lookup every reader goes through.  ``keys`` are five-tuples
        or an ``(n, 5)`` array of key columns (:attr:`FlowBatch.key_col`).

        A binary search for each key's hash bits; each candidate is
        confirmed on its slot's key and liveness (a free slot's zeroed key
        row is a valid key), and an equal-hash run (collisions, stale
        entries) is walked to its end."""
        key_col = np.ascontiguousarray(keys, np.int64).reshape(-1, 5)
        idx = self._index
        out = np.full(key_col.shape[0], -1, np.int64)
        if not idx.shape[0]:
            return out
        rows, want = self.key_col.view(_KEY)[:, 0], key_col.view(_KEY)[:, 0]
        high = _hash_bits(key_col)
        pos = np.searchsorted(idx, high)
        while True:
            entry = idx.take(pos, mode="clip")
            slot = (entry & _SLOT_MASK).astype(np.int64)
            hit = rows.take(slot) == want
            hit &= self.touched.take(slot) > 0
            out = np.where(hit, slot, out)
            run = (entry & _HASH_MASK) == high
            run &= ~hit
            run &= pos < idx.shape[0] - 1
            if not run.any():
                return out
            pos += run

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
        slot = int(self.lookup([key])[0])
        if slot < 0:
            return None
        return FlowRecord(
            key, self.wrap_aware, *[col.item(slot) for col in self._cols.values()]
        )

    def feature_rows(self, keys: Any) -> Tuple[np.ndarray, np.ndarray]:
        """The :data:`FEATURE_ORDER` rows of ``keys`` (five-tuples or an
        ``(n, 5)`` array of key columns) as one row take.

        Returns ``(rows, resident)``; the rows of keys that are not
        resident are garbage, masked by ``resident``.
        """
        slots = self.lookup(keys)
        return self._feat.take(slots, axis=0), slots >= 0

    def features_at(self, slots: np.ndarray) -> np.ndarray:
        """The :data:`FEATURE_ORDER` rows of ``slots``, one row take."""
        return self._feat[slots]

    def feature_row(self, key: tuple) -> Optional[np.ndarray]:
        """One flow's :data:`FEATURE_ORDER` row — a view into the table,
        current until the next update — or ``None`` if the flow is not
        resident."""
        slot = int(self.lookup([key])[0])
        return None if slot < 0 else self._feat[slot]

    def keys(self) -> Iterator[tuple]:
        """Resident flow keys, least recently updated first."""
        return map(tuple, self.key_col[self._lru_slots()].tolist())

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

        # -- take the state rows once, in the same order ----------------
        ints = self._ints.take(slots_d, axis=0)
        floats = self._floats.take(slots_d, axis=0)
        c = _columns(ints, floats)
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
        c["updated_ns"][:] = now_s[last]
        c["protocol"][:] = np.asarray(protocol)[o[last]]
        c["packet_size"][:] = len_s[last]
        c["inter_arrival_s"][:] = last_gap
        c["queue_occupancy"][:] = occ_s[last]
        hop = np.asarray(hop_latency_ns, dtype=np.float64)
        c["hop_latency_s"][:] = hop[o[last]] * _NS

        # -- put the rows back once; refresh the touched features ------
        self._ints[slots_d] = ints
        self._floats[slots_d] = floats
        self._feat[slots_d] = _feature_block(c)
        if len(victims):
            self._release(victims)
        return rec_slots, rec_inc

    def _walk(
        self, batch: FlowBatch
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Sequence[int]]:
        """Resident, new and evicted flows of a slice and its LRU order, as
        per-record insert / move-to-end / evict decides them; a flow
        evicted and re-created inside the slice has two lives
        (*incarnations*).  Returns every record's slot, the incarnations
        as ``(starts, counts, slots)`` over ``batch.order``, and the
        victims (freed after the slice), oldest first.

        The slice evicts ``E0 = resident + new keys - max_flows`` flows.
        If it touches none of the ``E0`` least recently updated residents,
        order inside it decides nothing: those are the victims, each key
        has one incarnation, and new keys take ``free.pop()`` in order of
        first arrival — a fixed number of array steps.  Otherwise
        :func:`_walk_records` replays it.  A flow's ``touched`` becomes its
        last record's count."""
        n, order, free, cap = batch.n, batch.order, self._free, self.max_flows
        self._reserve(n)
        found = self.lookup(batch.key_col)
        missing = np.flatnonzero(found < 0)
        size = len(self)
        evict = 0 if cap is None else max(0, size + missing.shape[0] - cap)
        oldest, replay = found[:0], False
        if evict:  # does the slice touch the ``evict`` oldest, or evict its own?
            oldest = self._oldest(min(size, n))
            hits = self.touched.take(found[found >= 0])
            replay = evict > size or bool(
                hits.size and hits.min() <= self.touched[oldest[evict - 1]])
        if not replay:
            born_g = missing[np.argsort(order[batch.starts[missing]])]
            k = len(free) - born_g.shape[0]
            born = np.array(free[k:][::-1], np.int64)
            del free[k:]
            found[born_g] = born
            victims: Sequence[int] = oldest[:evict]
            starts, counts, slots = batch.starts, batch.counts, found
            rec_slots = np.empty(n, np.int64)
            rec_slots[order] = np.repeat(found, counts)
        else:
            gid = np.empty(n, np.int64)
            gid[order] = np.repeat(np.arange(batch.n_groups), batch.counts)
            walked, born_l, born_gl, victims = _walk_records(
                gid.tolist(), found.tolist(), oldest.tolist(), free, cap, size
            )
            born, born_g = np.array(born_l, np.int64), np.array(born_gl, np.int64)
            # ``batch.order`` sorts records by key, then arrival, and a
            # key's incarnations follow one another: an incarnation
            # starts wherever the slot changes along it.
            rec_slots = np.asarray(walked, np.int64)
            sorted_slots = rec_slots[order]
            starts = np.flatnonzero(
                np.concatenate(([True], sorted_slots[1:] != sorted_slots[:-1]))
            )
            counts = np.diff(np.append(starts, n))
            slots = sorted_slots[starts]
        if born.shape[0]:
            self.key_col[born] = batch.key_col.take(born_g, axis=0)
            self.incarnation[born] += 1
            self._insert(born)
        ticks = self._tick + 1 + order[starts + counts - 1]
        self.touched[slots] = ticks
        o = np.argsort(ticks)
        self._enqueue(slots[o], ticks[o])
        self._tick += n
        self.created += born.shape[0]
        self.evicted += len(victims)
        return rec_slots, starts, counts, slots, victims

    def expire_idle(self, now_ns: int) -> int:
        """Evict flows idle longer than ``idle_timeout_ns``; returns count.

        Update timestamps are non-decreasing in any replayed or live
        feed, so the sweep takes flows least recently updated first and
        stops at the first non-stale one.
        """
        if self.idle_timeout_ns is None:
            return 0
        lru = self._lru_slots()
        fresh = self._cols["updated_ns"][lru] >= now_ns - self.idle_timeout_ns
        stale = lru[: int(np.argmax(fresh)) if fresh.any() else lru.shape[0]]
        self._release(stale)
        self.expired += stale.shape[0]
        return stale.shape[0]

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def _lru_slots(self) -> np.ndarray:
        return self._oldest(len(self))

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
        rank[self._lru_slots()] = np.arange(len(self))
        live = self.incarnation[slots] == incarnations
        return np.where(live, rank[slots], 0), np.where(live, 1, -1)

    def state_restore(self, state: dict) -> None:
        """Replace table contents with a :meth:`state_snapshot` capture.

        Configuration (``max_flows``, ``idle_timeout_ns``,
        ``wrap_aware``) is *not* restored — the restoring process
        constructs the table with the same recipe the checkpointed one
        used.
        """
        keys = np.asarray(state["keys"], np.int64).reshape(-1, 5)
        n = keys.shape[0]
        self._reset(max(n, _MIN_CAPACITY))
        del self._free[len(self._free) - n :]
        self.key_col[:n] = keys
        self._insert(np.arange(n))
        self.touched[:n] = np.arange(1, n + 1)
        self._enqueue(np.arange(n), self.touched[:n])
        self._tick = n
        for name, col in self._cols.items():
            col[:n] = state[name]
        self._feat[:n] = _feature_block({k: col[:n] for k, col in self._cols.items()})
        self.window_bits[:n] = state["window_bits"]
        self.window_fill[:n] = state["window_fill"]
        self.incarnation[:n] = 1
        self.created = int(state["created"])
        self.evicted = int(state["evicted"])
        self.expired = int(state["expired"])
