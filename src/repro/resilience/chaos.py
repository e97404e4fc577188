"""Fault injection for the telemetry feed.

The paper's testbed (§IV-C) is a clean room: every INT report reaches
the collector exactly once, in order, with every field intact.  A
production deployment is not — telemetry rides UDP through the very
congestion an attack creates, so reports are lost (independently and in
bursts), duplicated, reordered, corrupted, and sometimes the collector
itself blinks out for a window.  :class:`FaultInjector` reproduces all
of those failure modes between the telemetry source and the
collection module, driven by a declarative :class:`ChaosSchedule` and a
seeded RNG so every chaos run is exactly reproducible.

The injector has two run modes sharing one fault pipeline:

* **scalar streaming** — wrap a collection module (anything with
  ``feed_record``) and interpose on every record, the way the scalar
  :meth:`~repro.core.mechanism.AutomatedDDoSDetector.run_stream` loop
  consumes telemetry;
* **batch transform** — :meth:`FaultInjector.transform_batch` runs
  slices through the same per-row pipeline but *returns* the delivered
  rows; the detector's slice walk uses it for the batched in-process
  loop and the sharded coordinator alike, so fault replay is independent
  of who ingests the stream.

:meth:`FaultInjector.apply` additionally transforms a whole record array
at once, for offline ablations that retrain on degraded captures.

Per-report fault order: outage window → burst (Gilbert-Elliott) loss →
uniform loss → field corruption → duplication → bounded reorder hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

import numpy as np

from repro.common.rng import SeedLike, as_generator

__all__ = ["ChaosSchedule", "FaultStats", "FaultInjector"]

#: Telemetry payload fields that corruption may scramble by default.
#: The five-tuple is deliberately excluded: corrupting flow identifiers
#: silently re-keys a flow, which is a different failure mode (and would
#: break ground-truth bookkeeping in experiments).
DEFAULT_CORRUPT_FIELDS = ("length", "queue_occupancy", "hop_latency", "ingress_ts")


@dataclass(frozen=True)
class ChaosSchedule:
    """Declarative description of the faults to inject.

    All rates are per-report probabilities in ``[0, 1]``.  The default
    instance is a no-op (clean feed).  Frozen and tuple-valued so a
    schedule can key an experiment cache.

    Parameters
    ----------
    drop_rate : float
        Independent (uniform) report loss.
    burst_p, burst_r, burst_loss : float
        Gilbert-Elliott burst loss: per-report probability of entering
        the bad state (``burst_p``), of leaving it (``burst_r``), and of
        losing a report while in it (``burst_loss``).  ``burst_p = 0``
        disables the chain.  The long-run loss this contributes is
        ``burst_loss * burst_p / (burst_p + burst_r)``.
    duplicate_rate : float
        Probability a delivered report is delivered twice back-to-back
        (UDP duplication).
    reorder_rate, reorder_depth : float, int
        Probability a report is held back, and the maximum number of
        subsequent reports that may overtake it (bounded displacement).
    corrupt_rate : float
        Probability one field of a delivered report is scrambled.
    corrupt_fields : tuple of str
        Candidate fields for corruption; fields absent from the record
        dtype are ignored.
    outages_ns : tuple of (start_ns, end_ns)
        Collector outage windows over the record timestamp: every report
        stamped inside a window is lost.
    """

    drop_rate: float = 0.0
    burst_p: float = 0.0
    burst_r: float = 0.0
    burst_loss: float = 1.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_depth: int = 4
    corrupt_rate: float = 0.0
    corrupt_fields: Tuple[str, ...] = DEFAULT_CORRUPT_FIELDS
    outages_ns: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_rate", "burst_p", "burst_r", "burst_loss",
                     "duplicate_rate", "reorder_rate", "corrupt_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {v}")
        if self.reorder_depth < 1:
            raise ValueError(f"reorder_depth must be >= 1: {self.reorder_depth}")
        if self.burst_p > 0.0 and self.burst_r <= 0.0:
            raise ValueError("burst_r must be > 0 when burst_p > 0 "
                             "(the bad state would be absorbing)")
        # Normalize mutable inputs so schedules stay hashable.
        object.__setattr__(self, "corrupt_fields", tuple(self.corrupt_fields))
        object.__setattr__(
            self, "outages_ns",
            tuple((int(a), int(b)) for a, b in self.outages_ns),
        )
        for a, b in self.outages_ns:
            if b <= a:
                raise ValueError(f"empty outage window: ({a}, {b})")

    @property
    def is_noop(self) -> bool:
        """True when the schedule injects nothing."""
        return (
            self.drop_rate == 0.0
            and self.burst_p == 0.0
            and self.duplicate_rate == 0.0
            and self.reorder_rate == 0.0
            and self.corrupt_rate == 0.0
            and not self.outages_ns
        )

    @property
    def expected_loss(self) -> float:
        """Long-run loss fraction from the stationary loss processes
        (outage windows excluded — they depend on the trace timeline)."""
        burst = 0.0
        if self.burst_p > 0.0:
            burst = self.burst_loss * self.burst_p / (self.burst_p + self.burst_r)
        # Independent processes: survive both to be delivered.
        return 1.0 - (1.0 - self.drop_rate) * (1.0 - burst)

    def describe(self) -> str:
        """One-line human summary of the active faults."""
        parts = []
        if self.drop_rate:
            parts.append(f"drop={self.drop_rate:.1%}")
        if self.burst_p:
            parts.append(
                f"burst(p={self.burst_p:g},r={self.burst_r:g},"
                f"loss={self.burst_loss:g})"
            )
        if self.duplicate_rate:
            parts.append(f"dup={self.duplicate_rate:.1%}")
        if self.reorder_rate:
            parts.append(
                f"reorder={self.reorder_rate:.1%}(depth={self.reorder_depth})"
            )
        if self.corrupt_rate:
            parts.append(f"corrupt={self.corrupt_rate:.1%}")
        if self.outages_ns:
            parts.append(f"outages={len(self.outages_ns)}")
        return " + ".join(parts) if parts else "clean"


@dataclass
class FaultStats:
    """Bookkeeping of everything the injector did to the stream."""

    offered: int = 0
    delivered: int = 0
    dropped_uniform: int = 0
    dropped_burst: int = 0
    dropped_outage: int = 0
    duplicated: int = 0
    reordered: int = 0
    corrupted: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_uniform + self.dropped_burst + self.dropped_outage

    @property
    def loss_fraction(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["dropped"] = self.dropped
        out["loss_fraction"] = self.loss_fraction
        return out


class FaultInjector:
    """Applies a :class:`ChaosSchedule` to a telemetry record stream.

    Parameters
    ----------
    schedule : ChaosSchedule
    inner : object, optional
        Downstream collection module (``IntDataCollection`` /
        ``SFlowDataCollection`` or anything with ``feed_record``).
        Required for streaming mode; :meth:`apply` works without it.
    seed : int | numpy Generator | None
        Fault RNG, funneled through :func:`repro.common.rng.as_generator`
        so chaos runs are reproducible.
    ts_field : str, optional
        Record field holding the timestamp outage windows apply to;
        auto-detected (``ts_report`` for INT rows, ``ts_collector`` for
        sFlow rows) when omitted.
    """

    _TS_CANDIDATES = ("ts_report", "ts_collector", "ts_sample")

    def __init__(
        self,
        schedule: ChaosSchedule,
        inner: Optional[object] = None,
        seed: SeedLike = None,
        ts_field: Optional[str] = None,
    ) -> None:
        self.schedule = schedule
        self.inner = inner
        self.rng = as_generator(seed)
        self.ts_field = ts_field
        self.stats = FaultStats()
        self._bad_state = False  # Gilbert-Elliott channel state
        self._held: List[List] = []  # [countdown, row, original_index]
        self._index = 0

    # ------------------------------------------------------------------
    # streaming mode (drop-in for a collection module)
    # ------------------------------------------------------------------
    def feed_record(self, row: np.void) -> None:
        """Interpose on one record; forwards 0..2 records downstream."""
        if self.inner is None:
            raise RuntimeError("streaming mode needs an inner collection module")
        for out_row, _ in self._step(row, self._index):
            self.inner.feed_record(out_row)
        self._index += 1

    @staticmethod
    def _materialize(rows: List[np.void], dtype: np.dtype) -> np.ndarray:
        out = np.empty(len(rows), dtype=dtype)
        for i, r in enumerate(rows):
            out[i] = r
        return out

    # ------------------------------------------------------------------
    # batch transform mode (the detector's slice walk)
    # ------------------------------------------------------------------
    def transform_batch(self, records: np.ndarray) -> np.ndarray:
        """Run a record slice through the fault pipeline and *return* the
        delivered rows instead of forwarding them downstream.

        Chaos runs on the unified stream *before* any partitioning, so
        the injected fault sequence is a property of the run — not of
        the worker count — and any shard layout replays the identical
        delivered stream.  The per-row ``_step`` walk is shared with
        :meth:`feed_record`, so the RNG draw sequence (and therefore
        every fault decision) matches a scalar run of the same rows
        exactly.  No inner module is required.
        """
        rows: List[np.void] = []
        for i in range(records.shape[0]):
            for out_row, _ in self._step(records[i], self._index):
                rows.append(out_row)
            self._index += 1
        return self._materialize(rows, records.dtype)

    def transform_flush(self, dtype: np.dtype) -> np.ndarray:
        """Release held (reordered) reports as an array of the stream's
        ``dtype``; the transform counterpart of :meth:`flush`."""
        return self._materialize([row for row, _ in self._drain()], dtype)

    def flush(self) -> int:
        """Release every held (reordered) report; returns the count."""
        released = self._drain()
        if self.inner is not None:
            for out_row, _ in released:
                self.inner.feed_record(out_row)
        return len(released)

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """Mid-stream injector state as a plain picklable dict: the RNG
        position (``bit_generator.state``), the Gilbert-Elliott channel
        state, the reorder hold buffer, the stream index, and the fault
        counters.  A restored injector continues the fault walk with the
        exact draw sequence the checkpointed one would have produced."""
        return {
            "rng_state": self.rng.bit_generator.state,
            "bad_state": self._bad_state,
            "held": [[c, row.copy(), i] for c, row, i in self._held],
            "index": self._index,
            "stats": {f.name: getattr(self.stats, f.name)
                      for f in fields(self.stats)},
        }

    def state_restore(self, state: dict) -> None:
        """Resume the fault walk from a :meth:`state_snapshot` capture
        (the schedule itself is construction config, not state)."""
        self.rng.bit_generator.state = state["rng_state"]
        self._bad_state = bool(state["bad_state"])
        self._held = [[c, row, i] for c, row, i in state["held"]]
        self._index = int(state["index"])
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)

    # ------------------------------------------------------------------
    # batch mode (offline ablations)
    # ------------------------------------------------------------------
    def apply(
        self, records: np.ndarray, vectorized: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Transform a whole record array through the fault pipeline.

        Returns ``(faulted_records, source_index)`` where
        ``source_index[i]`` is the row of ``records`` that produced
        output row ``i`` — the handle callers use to carry labels or
        ground truth through drops, duplicates, and reorderings.

        When the schedule is pure loss (drop/outage only) and
        ``vectorized`` is left on, a mask-based fast path is used; its
        RNG draws differ from the streaming path's, so use
        ``vectorized=False`` when byte-exact parity with streaming
        matters.
        """
        s = self.schedule
        pure_loss = (
            s.duplicate_rate == 0.0
            and s.reorder_rate == 0.0
            and s.corrupt_rate == 0.0
            and s.burst_p == 0.0
        )
        if vectorized and pure_loss:
            return self._apply_loss_only(records)

        rows: List[np.void] = []
        idx: List[int] = []
        for i in range(records.shape[0]):
            for out_row, src in self._step(records[i], self._index):
                rows.append(out_row)
                idx.append(src)
            self._index += 1
        for out_row, src in self._drain():
            rows.append(out_row)
            idx.append(src)
        out = np.empty(len(rows), dtype=records.dtype)
        for i, r in enumerate(rows):
            out[i] = r
        return out, np.asarray(idx, dtype=np.int64)

    def _apply_loss_only(self, records: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        n = records.shape[0]
        self.stats.offered += n
        keep = np.ones(n, dtype=bool)
        ts_name = self._resolve_ts_field(records.dtype)
        if self.schedule.outages_ns and ts_name is not None:
            ts = records[ts_name].astype(np.int64)
            for a, b in self.schedule.outages_ns:
                hit = (ts >= a) & (ts < b) & keep
                self.stats.dropped_outage += int(hit.sum())
                keep &= ~hit
        if self.schedule.drop_rate > 0.0:
            u = self.rng.random(n) < self.schedule.drop_rate
            hit = u & keep
            self.stats.dropped_uniform += int(hit.sum())
            keep &= ~hit
        idx = np.flatnonzero(keep) + (self._index)
        self._index += n
        self.stats.delivered += int(keep.sum())
        return records[keep].copy(), idx.astype(np.int64)

    # ------------------------------------------------------------------
    # fault pipeline
    # ------------------------------------------------------------------
    def _resolve_ts_field(self, dtype: np.dtype) -> Optional[str]:
        if self.ts_field is not None:
            return self.ts_field if self.ts_field in (dtype.names or ()) else None
        for name in self._TS_CANDIDATES:
            if name in (dtype.names or ()):
                return name
        return None

    def _in_outage(self, row: np.void) -> bool:
        if not self.schedule.outages_ns:
            return False
        name = self._resolve_ts_field(row.dtype)
        if name is None:
            return False
        ts = int(row[name])
        return any(a <= ts < b for a, b in self.schedule.outages_ns)

    def _burst_lost(self) -> bool:
        s = self.schedule
        if s.burst_p <= 0.0:
            return False
        # Advance the two-state chain, then sample loss in the bad state.
        if self._bad_state:
            if self.rng.random() < s.burst_r:
                self._bad_state = False
        elif self.rng.random() < s.burst_p:
            self._bad_state = True
        return self._bad_state and self.rng.random() < s.burst_loss

    def _corrupt(self, row: np.void) -> np.void:
        candidates = [f for f in self.schedule.corrupt_fields
                      if f in (row.dtype.names or ())]
        if not candidates:
            return row
        name = candidates[int(self.rng.integers(len(candidates)))]
        out = row.copy()
        kind = out.dtype[name]
        if kind.kind in "ui":
            info = np.iinfo(kind)
            # int64 fields hold ns quantities; keep corruption physical
            # (a garbage-but-representable value) rather than astronomical.
            hi = min(int(info.max), 2**32 - 1)
            out[name] = int(self.rng.integers(int(info.min), hi, endpoint=True))
        else:
            out[name] = float(self.rng.random()) * 1e4
        self.stats.corrupted += 1
        return out

    def _step(self, row: np.void, index: int) -> List[Tuple[np.void, int]]:
        """Run one report through the pipeline; returns emissions in
        delivery order as ``(row, source_index)`` pairs."""
        s = self.schedule
        self.stats.offered += 1
        emissions: List[Tuple[np.void, int]] = []

        dropped = False
        if self._in_outage(row):
            self.stats.dropped_outage += 1
            dropped = True
        elif self._burst_lost():
            self.stats.dropped_burst += 1
            dropped = True
        elif s.drop_rate > 0.0 and self.rng.random() < s.drop_rate:
            self.stats.dropped_uniform += 1
            dropped = True

        if not dropped:
            out = row
            if s.corrupt_rate > 0.0 and self.rng.random() < s.corrupt_rate:
                out = self._corrupt(out)
            duplicate = (
                s.duplicate_rate > 0.0 and self.rng.random() < s.duplicate_rate
            )
            if s.reorder_rate > 0.0 and self.rng.random() < s.reorder_rate:
                # Held back: up to `reorder_depth` later reports overtake.
                countdown = int(self.rng.integers(1, s.reorder_depth, endpoint=True))
                self._held.append([countdown, out, index])
                self.stats.reordered += 1
                if duplicate:
                    # The duplicate takes the fast path — itself a
                    # reordering, as with real multi-path duplication.
                    emissions.append((out, index))
                    self.stats.duplicated += 1
            else:
                emissions.append((out, index))
                if duplicate:
                    emissions.append((out, index))
                    self.stats.duplicated += 1

        # Age the reorder buffer by one offered report and release
        # whatever has been overtaken enough, in original order.
        if self._held:
            for h in self._held:
                h[0] -= 1
            ready = [h for h in self._held if h[0] <= 0]
            if ready:
                self._held = [h for h in self._held if h[0] > 0]
                ready.sort(key=lambda h: h[2])
                emissions.extend((h[1], h[2]) for h in ready)

        self.stats.delivered += len(emissions)
        return emissions

    def _drain(self) -> List[Tuple[np.void, int]]:
        ready = sorted(self._held, key=lambda h: h[2])
        self._held = []
        out = [(h[1], h[2]) for h in ready]
        self.stats.delivered += len(out)
        return out
