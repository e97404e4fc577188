"""CentralServer module (Fig 2, module 3).

The coordinator: polls the database for updated records (step ④, skipping
brand-new Flow IDs), dispatches their feature vectors to the Prediction
module (step ⑤), retrieves the per-model predictions (step ⑥), and hands
them to the Data Processor for aggregation (step ⑦).

One :meth:`cycle` is one poll-predict-return round; the live mechanism
interleaves cycles with packet ingestion, so a cycle's budget
(``max_updates``) is what throttles prediction throughput — when arrival
rate exceeds it, the pending backlog (and therefore prediction latency)
grows, which is how the paper's Table VI latency profile arises.

Production hardening beyond the paper:

* a **deadline budget** per cycle (``deadline_ns``): once a cycle has
  spent its wall-clock allowance, the rest of the polled batch is *shed*
  (dropped and counted, never silently requeued into an ever-growing
  backlog) and the watchdog marks the module DEGRADED;
* **retry with exponential backoff** around the database poll, so a
  transient store hiccup costs a few milliseconds instead of the
  mechanism;
* explicit counters (``skipped_evicted``, ``updates_shed``,
  ``poll_retries``) so shedding under flood pressure is visible in the
  mechanism's stats rather than an invisible ``continue``.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.resilience.degradation import Watchdog, retry_with_backoff

from .database import FlowDatabase
from .prediction import PredictionModule, PredictionUnavailableError
from .processor import DataProcessor

__all__ = ["CentralServer"]


class CentralServer:
    """Poll → predict → return coordinator.

    Parameters
    ----------
    database, processor, prediction :
        The Fig 2 modules this coordinator stitches together.
    deadline_ns : int, optional
        Per-cycle wall-clock budget; updates beyond it are shed.
        ``None`` (default) reproduces the paper's unbounded cycle.
    poll_attempts : int
        Total tries for a database poll before the cycle gives up
        (transient store failures are retried with exponential backoff).
    poll_backoff_s : float
        Base backoff delay between poll retries.
    watchdog : Watchdog, optional
        Health registry to notify on degradation/failure transitions.
    clock : callable() -> int, optional
        Wall-clock in ns for the deadline budget (injectable for
        deterministic tests); defaults to :func:`time.perf_counter_ns`.
    sleep : callable(seconds), optional
        Backoff sleep (injectable for tests); defaults to
        :func:`time.sleep`.
    """

    #: Updates per deadline check in the batched scatter loop.
    BATCH_SHED_CHUNK = 64
    #: Every counter, in stats order.
    COUNTERS = ("cycles", "updates_dispatched", "skipped_evicted", "updates_shed",
                "deadline_hits", "poll_retries", "poll_failures")

    def __init__(
        self,
        database: FlowDatabase,
        processor: DataProcessor,
        prediction: PredictionModule,
        deadline_ns: Optional[int] = None,
        poll_attempts: int = 3,
        poll_backoff_s: float = 0.005,
        watchdog: Optional[Watchdog] = None,
        clock: Optional[Callable[[], int]] = None,
        sleep: Optional[Callable[[float], None]] = None,
        batched: bool = False,
    ) -> None:
        if deadline_ns is not None and deadline_ns <= 0:
            raise ValueError(f"deadline_ns must be positive: {deadline_ns}")
        if poll_attempts < 1:
            raise ValueError(f"poll_attempts must be >= 1: {poll_attempts}")
        self.db = database
        self.processor = processor
        self.prediction = prediction
        self.deadline_ns = deadline_ns
        self.batched = bool(batched)
        self.poll_attempts = int(poll_attempts)
        self.poll_backoff_s = float(poll_backoff_s)
        self.watchdog = watchdog
        # repro: allow[DET002] injectable default; wall stamps are excluded from digests
        self.clock = clock if clock is not None else time.perf_counter_ns
        # repro: allow[DET002] injectable default; tests pass a no-op sleep
        self.sleep = sleep if sleep is not None else time.sleep
        self.cycles = 0
        self.updates_dispatched = 0
        self.skipped_evicted = 0
        self.updates_shed = 0
        self.deadline_hits = 0
        self.poll_retries = 0
        self.poll_failures = 0

    # ------------------------------------------------------------------
    def _poll(self, limit: Optional[int]) -> np.ndarray:
        """Database poll with bounded exponential-backoff retries."""

        def note_retry(attempt: int, exc: BaseException) -> None:
            self.poll_retries += 1
            if self.watchdog is not None:
                self.watchdog.degraded(
                    "database",
                    f"poll attempt {attempt} failed: "
                    f"{type(exc).__name__}: {exc}",
                )

        try:
            updates = retry_with_backoff(
                lambda: self.db.poll_updates(limit=limit),
                attempts=self.poll_attempts,
                base_delay_s=self.poll_backoff_s,
                sleep=self.sleep,
                on_retry=note_retry,
            )
        except Exception as exc:
            self.poll_failures += 1
            if self.watchdog is not None:
                self.watchdog.failed(
                    "database", f"poll failed after {self.poll_attempts} attempts: {exc}"
                )
            raise
        if self.watchdog is not None:
            self.watchdog.healthy("database")
        return updates

    # ------------------------------------------------------------------
    def cycle(
        self,
        max_updates: Optional[int] = None,
        deadline_ns: Optional[int] = None,
    ) -> int:
        """Run one coordination round; returns updates polled.

        ``deadline_ns`` overrides the instance budget for this cycle.
        The poll hands out one block of pending rows.  A ``batched``
        server materializes one feature matrix for it and calls every
        panel member once per cycle; the scalar mode walks the same block
        row by row (the paper-faithful loop, and the batched path's
        bit-identity oracle).
        """
        self.cycles += 1
        budget = deadline_ns if deadline_ns is not None else self.deadline_ns
        started = self.clock() if budget is not None else 0
        updates = self._poll(max_updates)
        if self.batched:
            return self._dispatch_batched(updates, budget, started)
        for i in range(len(updates)):
            if budget is not None and self.clock() - started > budget:
                self._shed_late(budget, len(updates) - i)
                return len(updates)
            update = updates[i : i + 1]
            features = self.processor.features_for(update)
            if features is None:
                # Flow evicted between poll and dispatch (flood-pressure
                # shedding); counted so the loss is visible in stats.
                self.skipped_evicted += 1
                continue
            try:
                votes = self.prediction.predict_one(features)
            except PredictionUnavailableError as exc:
                shed = len(updates) - i
                self.updates_shed += shed
                if self.watchdog is not None:
                    self.watchdog.failed("prediction", str(exc))
                return len(updates)
            self.processor.receive_predictions_batch(
                update, np.asarray(votes)[None, :],
                epoch=self.prediction.panel_epoch,
            )
            self.updates_dispatched += 1
        if self.watchdog is not None and len(updates):
            self.watchdog.healthy("central")
        return len(updates)

    # ------------------------------------------------------------------
    def _dispatch_batched(self, updates, budget, started) -> int:
        """Batched step ⑤→⑦: one feature matrix, one ``predict_batch``
        per panel member, votes scattered back through the flows'
        sliding windows in row order.

        Resilience semantics carry over from the scalar loop: evicted
        flows are skipped and counted, an all-quarantined panel sheds
        the batch, and the deadline budget sheds the un-scattered tail
        (checked every :data:`BATCH_SHED_CHUNK` updates — the batch
        prediction itself is all-or-nothing, so shedding granularity is
        coarser than the scalar loop's per-update check).
        """
        n = len(updates)
        if n == 0:
            return 0
        if budget is not None and self.clock() - started > budget:
            self._shed_late(budget, n, " before dispatch")
            return n
        X, valid = self.processor.features_matrix(updates)
        vi = np.flatnonzero(valid)
        self.skipped_evicted += n - vi.size
        if vi.size == 0:
            return n
        try:
            votes = self.prediction.predict_batch(X[vi])
        except PredictionUnavailableError as exc:
            self.updates_shed += vi.size
            if self.watchdog is not None:
                self.watchdog.failed("prediction", str(exc))
            return n
        live = updates[vi]
        chunk = self.BATCH_SHED_CHUNK
        done = 0
        while done < len(live):
            if budget is not None and self.clock() - started > budget:
                self._shed_late(budget, len(live) - done)
                return n
            part = live[done : done + chunk]
            self.processor.receive_predictions_batch(
                part, votes[done : done + chunk],
                epoch=self.prediction.panel_epoch,
            )
            self.updates_dispatched += len(part)
            done += len(part)
        if self.watchdog is not None:
            self.watchdog.healthy("central")
        return n

    def _shed_late(self, budget: int, shed: int, when: str = "") -> None:
        """Count a cycle-deadline overrun that sheds ``shed`` updates."""
        self.updates_shed += shed
        self.deadline_hits += 1
        if self.watchdog is not None:
            self.watchdog.degraded(
                "central",
                f"cycle deadline {budget} ns exceeded{when}; shed {shed} updates",
            )

    def drain(
        self,
        batch: int = 512,
        max_cycles: int = 1_000_000,
        on_round: Optional[Callable[[], None]] = None,
    ) -> int:
        """Run cycles until no more updates can be processed.

        Updates belonging to flows that never received a second packet
        (single-packet scan probes, most flood SYNs) are skipped by the
        poll per §III-3 and stay pending forever; the drain stops when a
        cycle makes no progress, not when the pending count hits zero.
        Shed updates count as progress (they were polled), so a drain
        under a too-tight deadline still terminates.  ``on_round`` is
        called after every productive round (a shard worker's liveness
        ping through a long final backlog).
        """
        total = 0
        for _ in range(max_cycles):
            done = self.cycle(max_updates=batch)
            if done == 0:
                break
            total += done
            if on_round is not None:
                on_round()
        return total

    # ------------------------------------------------------------------
    # checkpoint/restore: the counters are the coordinator's only mutable
    # state (the modules it stitches together snapshot themselves)
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.COUNTERS}

    def state_restore(self, state: dict) -> None:
        for name in self.COUNTERS:
            setattr(self, name, int(state[name]))

    def stats(self) -> dict:
        """Counters for the mechanism's stats surface."""
        return self.state_snapshot()
