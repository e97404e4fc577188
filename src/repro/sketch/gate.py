"""Sketch-gated flow admission.

:class:`SketchGate` decides, per telemetry poll slice, which flows earn
an exact :class:`~repro.features.flow_table.FlowTable` row and which
stay summarized.  The contract:

* **Every** packet updates the count-min sketch (O(1) memory, O(depth)
  work) — nothing is dropped from the volumetric signal.
* A flow is **promoted** once its sketch estimate crosses the
  configured heavy-hitter threshold (``promote_packets`` and/or
  ``promote_bytes``); from then on it is *resident* and keeps exact
  per-flow state for as long as the FlowTable retains it.
* Non-promoted traffic folds into :class:`ResidualAggregator` —
  per-source-prefix packet/byte totals — so the volume the exact table
  never sees remains observable and feature windows stay well-defined.

Admission is defined at **slice granularity**: the sketch folds the
whole slice first, then the admit mask is computed from post-slice
estimates.  That makes the decision a pure function of (sketch state at
the slice boundary, the slice's per-flow aggregates, current
residency) — independent of record order within the slice and, via the
virtual-partition construction (see :mod:`repro.sketch.cms`),
independent of how many shard workers split the slice.

Windows: :meth:`SketchGate.end_window` ticks once per *full* poll
slice, immediately before the central-server cycle, in every execution
mode (batched, scalar, live, sharded worker).  Every ``decay_every``
windows the counters halve; ``decay_every=0`` disables aging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .cms import CountMinSketch

__all__ = ["SketchConfig", "ResidualAggregator", "SketchGate"]


@dataclass(frozen=True)
class SketchConfig:
    """Picklable recipe for a :class:`SketchGate`.

    Rides ``AutomatedDDoSDetector._worker_config`` into shard workers,
    so equality of config ⇒ bit-identical gate behaviour everywhere.
    """

    #: Cells per sketch row per partition.
    width: int = 1024
    #: Independent hash rows.
    depth: int = 4
    #: Virtual sub-sketches; every shard count used with this gate must
    #: divide it (enforced by ``run_sharded``).
    partitions: int = 64
    #: Hash-family seed.
    seed: int = 2024
    #: Update discipline: "cu" (conservative update) or "cms".
    kind: str = "cu"
    #: Promote when the packet estimate reaches this (0 disables).
    promote_packets: int = 8
    #: Promote when the byte estimate reaches this (0 disables).
    promote_bytes: int = 0
    #: Halve counters every N windows (0 = never decay).
    decay_every: int = 0
    #: Source-prefix length for residual aggregation.
    prefix_bits: int = 16

    def __post_init__(self) -> None:
        if self.promote_packets <= 0 and self.promote_bytes <= 0:
            raise ValueError(
                "at least one of promote_packets/promote_bytes must be > 0"
            )
        if not 0 <= self.prefix_bits <= 32:
            raise ValueError(f"prefix_bits must be in [0, 32]: {self.prefix_bits}")
        if self.decay_every < 0:
            raise ValueError(f"decay_every must be >= 0: {self.decay_every}")

    def build(self) -> "SketchGate":
        return SketchGate(self)


class ResidualAggregator:
    """Per-source-prefix totals for traffic the exact table never sees.

    Keyed by ``src_ip >> (32 - prefix_bits)``; a bounded dict in
    practice (at /16 there are at most 65536 prefixes).  Purely
    additive, so worker-local residuals merge by summation.
    """

    def __init__(self, prefix_bits: int = 16) -> None:
        self.prefix_bits = int(prefix_bits)
        self._shift = 32 - self.prefix_bits
        self.packets: Dict[int, int] = {}
        self.bytes: Dict[int, int] = {}
        self.total_packets = 0
        self.total_bytes = 0

    def add_groups(
        self, src_ip: np.ndarray, packets: np.ndarray, bytes_: np.ndarray
    ) -> None:
        """Fold per-flow residual aggregates (vectorized reduce first,
        then one dict update per distinct prefix)."""
        if src_ip.shape[0] == 0:
            return
        prefixes = (src_ip.astype(np.int64) >> self._shift) if self._shift else (
            src_ip.astype(np.int64)
        )
        uniq, inv = np.unique(prefixes, return_inverse=True)
        pkt_sum = np.bincount(inv, weights=packets.astype(np.float64)).astype(
            np.int64
        )
        byt_sum = np.bincount(inv, weights=bytes_.astype(np.float64)).astype(
            np.int64
        )
        for p, pk, by in zip(uniq.tolist(), pkt_sum.tolist(), byt_sum.tolist()):
            self.packets[p] = self.packets.get(p, 0) + pk
            self.bytes[p] = self.bytes.get(p, 0) + by
        self.total_packets += int(pkt_sum.sum())
        self.total_bytes += int(byt_sum.sum())

    def add_one(self, src_ip: int, packets: int, bytes_: int) -> None:
        p = (src_ip >> self._shift) if self._shift else src_ip
        self.packets[p] = self.packets.get(p, 0) + packets
        self.bytes[p] = self.bytes.get(p, 0) + bytes_
        self.total_packets += packets
        self.total_bytes += bytes_

    def top_prefixes(self, k: int = 8) -> Tuple[Tuple[str, int, int], ...]:
        """Heaviest residual prefixes as ``(cidr, packets, bytes)``."""
        ranked = sorted(
            self.packets, key=lambda p: (-self.packets[p], p)
        )[: max(0, k)]
        out = []
        for p in ranked:
            ip = p << self._shift
            cidr = (
                f"{(ip >> 24) & 0xFF}.{(ip >> 16) & 0xFF}."
                f"{(ip >> 8) & 0xFF}.{ip & 0xFF}/{self.prefix_bits}"
            )
            out.append((cidr, self.packets[p], self.bytes.get(p, 0)))
        return tuple(out)

    def state_snapshot(self) -> Dict[str, object]:
        return {
            "packets": dict(self.packets),
            "bytes": dict(self.bytes),
            "total_packets": self.total_packets,
            "total_bytes": self.total_bytes,
        }

    def state_restore(self, state: Dict[str, object]) -> None:
        self.packets = dict(state["packets"])  # type: ignore[arg-type]
        self.bytes = dict(state["bytes"])  # type: ignore[arg-type]
        self.total_packets = int(state["total_packets"])  # type: ignore[call-overload]
        self.total_bytes = int(state["total_bytes"])  # type: ignore[call-overload]


class SketchGate:
    """Admission gate: count-min front end + promotion + residuals."""

    def __init__(self, config: Optional[SketchConfig] = None) -> None:
        self.config = config if config is not None else SketchConfig()
        self.sketch = CountMinSketch(
            width=self.config.width,
            depth=self.config.depth,
            partitions=self.config.partitions,
            seed=self.config.seed,
            kind=self.config.kind,
        )
        self.residual = ResidualAggregator(self.config.prefix_bits)
        self.promotions = 0
        self.rejected_packets = 0
        self.windows = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _promoted(
        self, pkt_est: np.ndarray, byt_est: np.ndarray
    ) -> np.ndarray:
        cfg = self.config
        mask = np.zeros(pkt_est.shape[0], dtype=bool)
        if cfg.promote_packets > 0:
            mask |= pkt_est >= cfg.promote_packets
        if cfg.promote_bytes > 0:
            mask |= byt_est >= cfg.promote_bytes
        return mask

    def admit_slice(
        self,
        key_hash: np.ndarray,
        packets: np.ndarray,
        bytes_: np.ndarray,
        resident: np.ndarray,
        src_ip: np.ndarray,
    ) -> np.ndarray:
        """Fold one slice's per-flow aggregates and return the admit
        mask (True ⇒ the flow's exact FlowTable row updates this slice).

        ``resident`` marks flows that already hold FlowTable state —
        they are always admitted, so exact windows never lose packets
        mid-flow.  Rejected flows' volume folds into the residual
        aggregator keyed by ``src_ip`` prefix.
        """
        pkt_est, byt_est = self.sketch.update_groups(key_hash, packets, bytes_)
        admit = resident | self._promoted(pkt_est, byt_est)
        fresh = admit & ~resident
        self.promotions += int(np.count_nonzero(fresh))
        rej = ~admit
        if rej.any():
            self.rejected_packets += int(packets[rej].sum())
            self.residual.add_groups(src_ip[rej], packets[rej], bytes_[rej])
        return admit

    def admit_one(
        self, key_hash: int, length: int, resident: bool, src_ip: int
    ) -> bool:
        """Scalar admission (singleton-slice semantics).

        Used by the scalar ingest path; because each packet is its own
        slice, scalar gating is *not* record-for-record identical to
        batched gating — see DESIGN.md §15.
        """
        one = np.array([key_hash], dtype=np.uint64)
        pkt_est, byt_est = self.sketch.update_groups(
            one,
            np.array([1], dtype=np.int64),
            np.array([length], dtype=np.int64),
        )
        if resident or bool(self._promoted(pkt_est, byt_est)[0]):
            if not resident:
                self.promotions += 1
            return True
        self.rejected_packets += 1
        self.residual.add_one(int(src_ip), 1, int(length))
        return False

    # ------------------------------------------------------------------
    # windows + queries
    # ------------------------------------------------------------------
    def end_window(self) -> None:
        """Tick one poll-slice window; decay on the configured cadence."""
        self.windows += 1
        if self.config.decay_every > 0 and (
            self.windows % self.config.decay_every == 0
        ):
            self.sketch.decay()

    def estimate_key(self, key_hash: int) -> Tuple[int, int]:
        """Point-query ``(packets, bytes)`` estimate for one flow."""
        return self.sketch.estimate(key_hash)

    # ------------------------------------------------------------------
    # observability + checkpointing
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "kind": self.sketch.kind,
            "width": self.sketch.width,
            "depth": self.sketch.depth,
            "partitions": self.sketch.partitions,
            "memory_bytes": self.sketch.memory_bytes,
            "updates": self.sketch.updates,
            "decays": self.sketch.decays,
            "windows": self.windows,
            "promotions": self.promotions,
            "rejected_packets": self.rejected_packets,
            "residual_packets": self.residual.total_packets,
            "residual_bytes": self.residual.total_bytes,
            "residual_prefixes": len(self.residual.packets),
        }

    def state_snapshot(self) -> Dict[str, object]:
        """Bit-exact picklable state for RPRCKPT1 checkpoints."""
        return {
            "sketch": self.sketch.state_snapshot(),
            "residual": self.residual.state_snapshot(),
            "promotions": self.promotions,
            "rejected_packets": self.rejected_packets,
            "windows": self.windows,
        }

    def state_restore(self, state: Dict[str, object]) -> None:
        self.sketch.state_restore(state["sketch"])  # type: ignore[arg-type]
        self.residual.state_restore(state["residual"])  # type: ignore[arg-type]
        self.promotions = int(state["promotions"])  # type: ignore[call-overload]
        self.rejected_packets = int(state["rejected_packets"])  # type: ignore[call-overload]
        self.windows = int(state["windows"])  # type: ignore[call-overload]
