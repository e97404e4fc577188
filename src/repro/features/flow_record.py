"""Per-flow state record: the update arithmetic, and a decoded view.

Implements the update semantics of paper §III-2 exactly:

* first packet of a Flow ID → create a record with packet-level values
  from that packet and flow-level values at their defaults ("mostly 0
  at initiation");
* subsequent packets → update all flow-level aggregates, *replace* all
  packet-level values with the newest packet's.

Inter-arrival times are computed from consecutive (wrapped 32-bit) INT
ingress timestamps with wrap-aware differencing by default; the naive
mode reproduces the error discussed in paper §V and feeds the timestamp
ablation bench.

The flow table stores the record's fields (:data:`STATE_FIELDS`) as one
column each; a :class:`FlowRecord` is a row decoded to serve a read or
to apply :meth:`FlowRecord.update`, the one per-packet arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.int_telemetry.timestamps import delta32_signed, naive_delta32

from .welford import Welford, push_moments, std_of

__all__ = ["FlowRecord", "FEATURE_ORDER", "STATE_FIELDS"]

_NS = 1e-9

#: Canonical order of every feature a record can produce
#: (:meth:`FlowRecord.feature_row`).  The flow table keeps one row in this
#: order per flow, and prediction column-selects the schema subset.
FEATURE_ORDER = (
    "protocol",
    "packet_size",
    "packet_size_cum",
    "packet_size_avg",
    "packet_size_std",
    "inter_arrival",
    "inter_arrival_cum",
    "inter_arrival_avg",
    "inter_arrival_std",
    "queue_occupancy",
    "queue_occupancy_avg",
    "queue_occupancy_std",
    "n_packets",
    "packets_per_second",
    "bytes_per_second",
    "hop_latency",
)


@dataclass(slots=True)
class FlowRecord:
    """Running state for one five-tuple flow.

    Every field after ``key`` and ``wrap_aware`` is one column of the
    flow table (:data:`STATE_FIELDS`): decode a row with
    ``FlowRecord(key, wrap_aware, *row)``, encode with :meth:`row`.
    Derivable state is not stored: the Welford counts (size and queue
    moments count every packet, inter-arrival moments every packet but
    the first) and the update count.  :attr:`size_stats`,
    :attr:`iat_stats` and :attr:`occ_stats` rebuild them as
    :class:`~repro.features.welford.Welford` views.

    Parameters
    ----------
    key : tuple
        The five-tuple Flow ID.
    wrap_aware : bool
        Use modular 32-bit differencing for inter-arrival times.  With
        ``False`` a timestamp wrap between packets produces a (clamped)
        wrong gap — the paper's Section V failure mode.
    """

    key: tuple
    wrap_aware: bool = True
    created_ns: int = 0
    updated_ns: int = 0
    # packet-level (replaced on every packet)
    protocol: int = 0
    packet_size: float = 0.0
    inter_arrival_s: float = 0.0
    queue_occupancy: float = 0.0
    hop_latency_s: float = 0.0
    # flow-level (aggregated)
    n_packets: int = 0
    total_bytes: float = 0.0
    duration_s: float = 0.0
    last_ts32: int = 0
    size_mean: float = 0.0
    size_m2: float = 0.0
    iat_mean: float = 0.0
    iat_m2: float = 0.0
    occ_mean: float = 0.0
    occ_m2: float = 0.0

    def update(
        self,
        now_ns: int,
        ingress_ts32: int,
        length: float,
        protocol: int,
        queue_occupancy: float = 0.0,
        hop_latency_ns: float = 0.0,
    ) -> None:
        """Fold one packet into the record.

        Parameters
        ----------
        now_ns : int
            Registration wall-clock time (drives prediction latency).
        ingress_ts32 : int
            Wrapped 32-bit INT ingress timestamp (or the collector clock
            folded to 32 bits for sFlow-sourced updates).
        length, protocol, queue_occupancy, hop_latency_ns :
            Latest packet's header/metadata values.
        """
        n = self.n_packets + 1
        if n == 1:
            self.created_ns = now_ns
            gap_s = 0.0
        else:
            # Wrap-aware: the signed nearest-representative difference
            # corrects wraps and turns slight cross-observation-point
            # reordering into a clamped zero instead of ~4.29 s.
            diff32 = delta32_signed if self.wrap_aware else naive_delta32
            gap_ns = max(0, int(diff32(ingress_ts32, self.last_ts32)))
            gap_s = gap_ns * _NS
            self.iat_mean, self.iat_m2 = push_moments(
                n - 1, self.iat_mean, self.iat_m2, gap_s
            )
            self.duration_s += gap_s

        self.last_ts32 = int(ingress_ts32)
        self.updated_ns = now_ns

        # packet-level replacement
        self.protocol = int(protocol)
        self.packet_size = float(length)
        self.inter_arrival_s = gap_s
        self.queue_occupancy = float(queue_occupancy)
        self.hop_latency_s = float(hop_latency_ns) * _NS

        # flow-level aggregation
        self.n_packets = n
        self.total_bytes += float(length)
        self.size_mean, self.size_m2 = push_moments(
            n, self.size_mean, self.size_m2, float(length)
        )
        self.occ_mean, self.occ_m2 = push_moments(
            n, self.occ_mean, self.occ_m2, float(queue_occupancy)
        )

    def row(self) -> tuple:
        """The :data:`STATE_FIELDS` values, in order: everything
        :meth:`update` reads, so a record decoded from the row continues
        the stream with bit-identical arithmetic."""
        return tuple(getattr(self, name) for name, _ in STATE_FIELDS)

    @property
    def size_stats(self) -> Welford:
        return Welford(self.n_packets, self.size_mean, self.size_m2)

    @property
    def iat_stats(self) -> Welford:
        return Welford(max(self.n_packets - 1, 0), self.iat_mean, self.iat_m2)

    @property
    def occ_stats(self) -> Welford:
        return Welford(self.n_packets, self.occ_mean, self.occ_m2)

    # ------------------------------------------------------------------
    @property
    def updates(self) -> int:
        """Updates folded in: one per packet."""
        return self.n_packets

    def feature_row(self) -> list:
        """All features as floats in :data:`FEATURE_ORDER` — the
        reference arithmetic the flow table's column-wise feature refresh
        reproduces bit for bit."""
        dur = self.duration_s
        pps = self.n_packets / dur if dur > 0 else 0.0
        bps = self.total_bytes / dur if dur > 0 else 0.0
        return [
            float(self.protocol),
            self.packet_size,
            self.total_bytes,
            self.size_mean,
            std_of(self.n_packets, self.size_m2),
            self.inter_arrival_s,
            dur,
            self.iat_mean,
            std_of(self.n_packets - 1, self.iat_m2),
            self.queue_occupancy,
            self.occ_mean,
            std_of(self.n_packets, self.occ_m2),
            float(self.n_packets),
            pps,
            bps,
            self.hop_latency_s,
        ]


#: The per-flow state a :class:`~repro.features.flow_table.FlowTable`
#: stores, one column per field: the :class:`FlowRecord` fields after
#: ``key`` and ``wrap_aware``, with their column dtypes.
STATE_FIELDS = tuple(
    (f.name, {"int": np.int64, "float": np.float64}[f.type])
    for f in fields(FlowRecord)[2:]
)
