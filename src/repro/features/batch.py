"""Batch grouping of telemetry records by canonical five-tuple.

The batched hot path replaces per-packet Python calls with one grouping
pass per polled slice: the key columns are canonicalized vectorized
(:func:`~repro.features.keys.canonical_key_arrays`), packed into two
integer sort keys, and a single stable ``np.lexsort`` clusters every
packet of the same flow while preserving arrival order *within* each
flow.  Everything downstream — the flow-table index and fold, update
registration, the sketch gate — consumes the resulting
:class:`FlowBatch` view instead of re-deriving keys per packet.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .keys import key_hash_packed

__all__ = ["FlowBatch", "group_by_flow"]


class FlowBatch:
    """Grouped view of one telemetry batch.

    Attributes
    ----------
    n : int
        Total records in the batch.
    order : ndarray
        Permutation putting records in (flow, arrival) order; within a
        group the original indices are ascending (stable sort), so a
        group's rows replay in exactly the order the scalar path would
        have consumed them.
    starts, counts : ndarray
        Per-group offsets/lengths into the permuted arrays.
    key_col : ndarray (int64, ``(n_groups, 5)``)
        One canonical five-tuple per group, as the row
        :func:`~repro.features.keys.canonical_flow_key` returns for any
        packet of the group.
    key_hash : ndarray (uint64)
        Per-group splitmix64 flow-identity hash
        (:func:`~repro.features.keys.key_hash_packed`) — the value
        behind shard assignment and sketch partition/cell placement.
    """

    __slots__ = ("n", "order", "starts", "counts", "key_col", "key_hash")

    def __init__(
        self,
        n: int,
        order: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        key_col: np.ndarray,
        key_hash: np.ndarray,
    ) -> None:
        self.n = n
        self.order = order
        self.starts = starts
        self.counts = counts
        self.key_col = key_col
        self.key_hash = key_hash

    @property
    def n_groups(self) -> int:
        return self.key_hash.shape[0]

    @property
    def group_ip_a(self) -> np.ndarray:
        """Per-group canonical endpoint-A IP (the lexicographically
        smaller endpoint); the sketch gate keys residual aggregation by
        its prefix."""
        return self.key_col[:, 0]

    def subset(self, keep: np.ndarray) -> Tuple["FlowBatch", np.ndarray]:
        """Compress the batch down to the groups flagged by ``keep``.

        Returns ``(sub_batch, rec_mask)`` where ``rec_mask`` flags the
        *original record indices* belonging to kept groups.  The
        sub-batch's ``order``/``starts`` index into the **compressed**
        record space (original arrays
        sliced by ``rec_mask``), so it composes with
        ``FlowTable.update_batch`` and update registration exactly like
        a batch that never contained the dropped records — kept groups
        preserve their relative record order, hence the scalar
        equivalences PR 2 established still hold group-wise.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.all():
            return self, np.ones(self.n, dtype=bool)
        rec_mask_sorted = np.repeat(keep, self.counts)
        rec_mask = np.empty(self.n, dtype=bool)
        rec_mask[self.order] = rec_mask_sorted
        # Original index -> compressed index (valid only where kept).
        new_of_orig = np.cumsum(rec_mask, dtype=np.int64) - 1
        order_new = new_of_orig[self.order[rec_mask_sorted]]
        counts_new = self.counts[keep]
        starts_new = np.concatenate(
            ([0], np.cumsum(counts_new))
        ).astype(np.int64)[:-1]
        sub = FlowBatch(
            int(counts_new.sum()),
            order_new,
            starts_new,
            counts_new,
            self.key_col[keep],
            self.key_hash[keep],
        )
        return sub, rec_mask


def group_by_flow(ip_a, ip_b, port_a, port_b, proto) -> FlowBatch:
    """Group records by canonical five-tuple.

    Arguments are the column arrays returned by
    :func:`~repro.features.keys.canonical_key_arrays` (already
    direction-normalized).  One stable lexsort replaces ``n`` per-packet
    key constructions + dict probes; the key columns are taken once per
    *group*.
    """
    n = int(ip_a.shape[0])
    if n == 0:
        return FlowBatch(
            0,
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty((0, 5), np.int64),
            np.empty(0, np.uint64),
        )
    # Pack the five columns into two sortable integers: 64 bits of IPs,
    # 40 bits of ports+protocol.
    k1 = ip_a.astype(np.uint64) << np.uint64(32) | ip_b.astype(np.uint64)
    k2 = (
        port_a.astype(np.uint64) << np.uint64(24)
        | port_b.astype(np.uint64) << np.uint64(8)
        | proto.astype(np.uint64)
    )
    order = np.lexsort((k2, k1))  # stable: ties keep original order
    k1s, k2s = k1[order], k2[order]
    boundary = np.flatnonzero((k1s[1:] != k1s[:-1]) | (k2s[1:] != k2s[:-1])) + 1
    starts = np.concatenate(([0], boundary)).astype(np.int64)
    ends = np.concatenate((boundary, [n])).astype(np.int64)
    counts = ends - starts

    reps = order[starts]  # one representative record per group
    key_col = np.column_stack(
        [c[reps] for c in (ip_a, ip_b, port_a, port_b, proto)]
    ).astype(np.int64)
    key_hash = key_hash_packed(k1s[starts], k2s[starts])
    return FlowBatch(n, order, starts, counts, key_col, key_hash)
