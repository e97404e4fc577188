"""The assembled automated DDoS detection mechanism (Fig 2).

:class:`AutomatedDDoSDetector` wires the four modules around the shared
database and owns the one cycle engine — ``step`` (a poll boundary),
``drain``/``finish`` (the end-of-stream tail), ``walk`` (the slice walk)
— that both ways of feeding the experiments drive:

* :meth:`run_stream` — the testbed replay (§IV-C): telemetry records are
  consumed in capture order, one vectorized slice per poll interval,
  interleaving packet registration with CentralServer cycles.
  Wall-clock prediction latency is measured exactly as the paper
  defines it (prediction time − registration time), and backlog
  dynamics reproduce the Table VI latency profile.  ``shards=N`` runs
  the same walk over N worker processes.
* :meth:`attach_live` — fully-live mode: reads an
  :class:`~repro.int_telemetry.collector.IntCollector` while a discrete-
  event simulation is running; the caller interleaves ``step`` calls,
  and each ``step`` (and the final ``drain``) first feeds the rows the
  collector gathered since the last boundary through the same
  ``feed_batch`` slice path the replay uses.

Scoring helpers convert the stored predictions + ground-truth labels
into the per-attack-type rows of Table VI.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from repro.features.flow_record import FEATURE_ORDER
from repro.features.flow_table import FlowTable
from repro.features.keys import key_hash_of_key
from repro.int_telemetry.collector import IntCollector
from repro.resilience.chaos import ChaosSchedule, FaultInjector
from repro.resilience.degradation import ModuleHealth, Watchdog
from repro.sketch import SketchConfig
from repro.traffic.trace import AttackType

from .central import CentralServer
from .collection import IntDataCollection, SFlowDataCollection
from .database import KEY_FIELDS, FlowDatabase
from .latency import LatencyTracker
from .prediction import PredictionModule
from .processor import DataProcessor
from .training import TrainedBundle

__all__ = ["AutomatedDDoSDetector", "score_by_type"]

_N_PACKETS = FEATURE_ORDER.index("n_packets")


class AutomatedDDoSDetector:
    """End-to-end wiring of the Fig 2 modules.

    Parameters
    ----------
    bundle : TrainedBundle
        Pre-trained models + scaler (the Prediction module's payload).
    source : {"int", "sflow"}
        Which telemetry feed drives the collection module.
    decision_window : int
        Sliding decision window size (paper: 3).
    emit_partial : bool
        Emit decisions before the window fills.  Default True: short
        flows (scan probes, unanswered flood SYNs) see only one or two
        updates ever, and Table VI's predicted counts require them to be
        decided; strictly waiting for three predictions (the paper's
        §IV-C4 wording) is available as the window ablation.
    skip_new_flows : bool
        Withhold predictions for one-packet flows (the literal §III-3
        reading; see FlowDatabase.poll_updates).
    max_flows : int, optional
        Flow-table cap (flood pressure relief).
    wrap_aware : bool
        Timestamp wrap handling in the flow records (ablation hook).
    fast_poll : bool
        Skip the paper-faithful walk of every resident record in each
        database poll (same polled block, no modelled scan cost).
    clock : callable() -> int, optional
        Wall-clock override for deterministic tests.
    chaos : ChaosSchedule, optional
        Fault-injection schedule; when given (and not a no-op) the
        telemetry feed is wrapped in a seeded
        :class:`~repro.resilience.chaos.FaultInjector`.
    chaos_seed : int | numpy Generator, optional
        RNG for the fault injector (reproducible chaos runs).
    cycle_deadline_ns : int, optional
        Per-cycle wall-clock budget for the CentralServer; overruns shed
        backlog instead of stretching the cycle.
    watchdog : Watchdog, optional
        Module-health registry; created (with no sinks) if omitted so
        health state is always tracked.  Pass your own to attach
        control-plane sinks.
    sketch : SketchConfig, optional
        Enable the sketch admission gate in front of the flow table
        (see :mod:`repro.sketch.gate`): every packet updates a seeded
        count-min sketch, only promoted heavy hitters get exact
        flow-table rows, the rest aggregate into per-prefix residuals.
        ``None`` (default) keeps the exact ungated path bit-for-bit.
    """

    def __init__(
        self,
        bundle: TrainedBundle,
        source: str = "int",
        decision_window: int = 3,
        emit_partial: bool = True,
        skip_new_flows: bool = False,
        max_flows: Optional[int] = None,
        wrap_aware: bool = True,
        fast_poll: bool = False,
        clock=None,
        chaos: Optional[ChaosSchedule] = None,
        chaos_seed=None,
        cycle_deadline_ns: Optional[int] = None,
        watchdog: Optional[Watchdog] = None,
        sketch: Optional[SketchConfig] = None,
    ) -> None:
        self.bundle = bundle
        # Construction recipe for shard workers: everything needed to
        # rebuild an equivalent detector in another process.  The clock
        # is deliberately excluded (injected clocks are closures, and a
        # worker's wall stamps are per-process anyway), as is chaos —
        # the sharded coordinator injects faults on the unified stream.
        self._worker_config = dict(
            source=source,
            decision_window=decision_window,
            emit_partial=emit_partial,
            skip_new_flows=skip_new_flows,
            max_flows=max_flows,
            wrap_aware=wrap_aware,
            fast_poll=fast_poll,
            cycle_deadline_ns=cycle_deadline_ns,
            sketch=sketch,
        )
        #: Per-worker stats dicts of the last sharded run (None before).
        self.shard_stats: Optional[list] = None
        #: Supervision counters of the last sharded run (None before):
        #: worker deaths/respawns, checkpoints, lossy recoveries,
        #: restore latencies.  See Supervisor.stats().
        self.supervision_stats: Optional[Dict[str, object]] = None
        #: Attached mitigation subsystem (duck-typed; set by
        #: MitigationController.attach_to — core stays below the
        #: mitigation layer and never imports it).  When present it is
        #: checkpointed with the detector, cloned into shard workers,
        #: given the end-of-run episode pass, and surfaced in stats().
        self.mitigation: Optional[Any] = None
        #: Attached lifecycle manager (duck-typed; set by
        #: LifecycleManager.attach_to — same layering rule as
        #: mitigation).  When present, the slice walk hands it
        #: every delivered CYCLE slice for drift checks, and its drift/
        #: reservoir/swap state rides the detector checkpoint.
        self.lifecycle: Optional[Any] = None
        flow_table = FlowTable(max_flows=max_flows, wrap_aware=wrap_aware)
        self.db = FlowDatabase(
            flow_table, fast_poll=fast_poll, skip_new_flows=skip_new_flows
        )
        self.watchdog = watchdog if watchdog is not None else Watchdog()
        #: Sketch admission gate (None = exact ungated path).
        self.sketch_gate = sketch.build() if sketch is not None else None
        self.processor = DataProcessor(
            self.db,
            bundle.feature_names,
            decision_window=decision_window,
            emit_partial=emit_partial,
            clock=clock,
            gate=self.sketch_gate,
        )
        self.prediction = PredictionModule(
            bundle.scaler,
            bundle.models,
            bundle.feature_names,
            on_quarantine=self._on_quarantine,
            on_reinstate=self._on_reinstate,
        )
        self.central = CentralServer(
            self.db,
            self.processor,
            self.prediction,
            deadline_ns=cycle_deadline_ns,
            watchdog=self.watchdog,
            clock=clock,
        )
        if source == "int":
            self.collection = IntDataCollection(self.processor)
        elif source == "sflow":
            self.collection = SFlowDataCollection(self.processor)
        else:
            raise ValueError(f"unknown telemetry source: {source!r}")
        #: Live collector read at each boundary (see attach_live), and
        #: how many of its rows the detector has consumed.
        self._live: Optional[IntCollector] = None
        self._live_cursor = 0
        self.fault_injector: Optional[FaultInjector] = None
        if chaos is not None and not chaos.is_noop:
            self.fault_injector = FaultInjector(chaos, seed=chaos_seed)
        self.source = source

    def _on_quarantine(self, name: str, reason: str, n_active: int) -> None:
        state = ModuleHealth.DEGRADED if n_active else ModuleHealth.FAILED
        self.watchdog.report(
            "prediction", state,
            f"model {name!r} quarantined ({reason}); {n_active} member(s) left",
        )

    def _on_reinstate(self, name: str, n_active: int) -> None:
        """Recovery-side twin of :meth:`_on_quarantine`: the control
        plane sees HEALTHY when the full panel is back, DEGRADED while
        some members remain quarantined."""
        if self.prediction.quarantined:
            self.watchdog.degraded(
                "prediction",
                f"model {name!r} reinstated; "
                f"{len(self.prediction.quarantined)} still quarantined",
            )
        else:
            self.watchdog.healthy(
                "prediction",
                f"model {name!r} reinstated; full panel restored "
                f"({n_active} member(s))",
            )

    # ------------------------------------------------------------------
    # execution modes
    # ------------------------------------------------------------------
    def worker_config(self) -> Dict[str, object]:
        """Picklable construction recipe for shard workers."""
        return dict(self._worker_config)

    def step(self, budget: int = 128) -> int:
        """One poll boundary: live pull, window tick, CentralServer
        round, mitigation flow tier.  The only place that order is
        written — the ``run_stream`` loop, a shard worker's CYCLE frame
        and live callers all come here.  Returns the updates polled."""
        self._pull_live()
        if self.sketch_gate is not None:
            self.sketch_gate.end_window()
        done = self.central.cycle(max_updates=budget)
        if self.mitigation is not None:
            self.mitigation.on_cycle()
        return done

    def drain(
        self, budget: int = 512, on_round: Optional[Callable[[], None]] = None
    ) -> int:
        """End-of-stream tail: live pull, then cycle until the backlog
        stops moving (``on_round`` after every productive round), then
        one mitigation sweep of what that stored.  No window tick: no
        slice ended."""
        self._pull_live()
        done = self.central.drain(batch=budget, on_round=on_round)
        if self.mitigation is not None:
            self.mitigation.on_cycle()
        return done

    def finish(self, budget: int = 512) -> FlowDatabase:
        """:meth:`drain`, then the mitigation episode pass; returns the
        database."""
        self.drain(budget)
        if self.mitigation is not None:
            self.mitigation.finish_run(self.db)
        return self.db

    def walk(
        self,
        records: np.ndarray,
        poll_every: int,
        deliver: Callable[[np.ndarray, bool], None],
        swap: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """The one slice walk.  Each ``poll_every`` slice goes through
        the fault injector (if any) and its *delivered* rows to
        ``deliver(delivered, boundary)`` — ``boundary`` marks a full
        slice, where a cycle is due and the lifecycle manager (if any)
        checks drift, handing a decided panel swap to ``swap``.  Reports
        the injector still holds at the end form a last non-boundary
        slice.  Faults and drift windows are thus a property of the
        stream: in-process loop and sharded coordinator differ only in
        ``deliver``."""
        for start in range(0, records.shape[0], poll_every):
            chunk = records[start : start + poll_every]
            delivered = (
                self.fault_injector.transform_batch(chunk)
                if self.fault_injector is not None else chunk
            )
            boundary = chunk.shape[0] == poll_every
            deliver(delivered, boundary)
            if boundary and self.lifecycle is not None:
                cmd = self.lifecycle.on_slice(delivered)
                if cmd is not None and swap is not None:
                    swap(cmd)
        if self.fault_injector is not None:
            deliver(self.fault_injector.transform_flush(records.dtype), False)

    def run_stream(
        self,
        records: np.ndarray,
        poll_every: int = 64,
        cycle_budget: int = 128,
        shards: Optional[int] = None,
        checkpoint_every: int = 16,
        replay_buffer_records: Optional[int] = None,
        heartbeat_timeout_s: float = 30.0,
        process_chaos=None,
        max_respawns: int = 3,
        ring_capacity: Optional[int] = None,
    ) -> FlowDatabase:
        """Consume a telemetry record array in capture order.

        Each ``poll_every`` record slice (:meth:`walk`) goes through the
        vectorized ingest, and one :meth:`step` with ``cycle_budget``
        updates of capacity follows each full slice; :meth:`finish`
        flushes the backlog.  Returns the database holding all
        predictions.  Without a sketch gate the result is bit-identical
        to feeding the same records as one-row slices with a step every
        ``poll_every`` records (the oracle of the batch-equivalence
        suite).

        ``shards=N`` switches to the shard-parallel mode: telemetry is
        partitioned by canonical-flow hash across ``N`` worker
        processes (each running this pipeline over a shared-memory
        ring) and the merged prediction log — result-identical to the
        in-process run in the no-backlog regime, see
        :mod:`repro.core.sharding` — lands in this detector's database.
        The sharded mode is supervised: workers are checkpointed every
        ``checkpoint_every`` cycles and crashed/hung workers (including
        any scheduled by a ``process_chaos`` kill plan) are respawned
        from the last checkpoint and replayed from the coordinator's
        bounded replay buffer (``replay_buffer_records`` slots).
        ``ring_capacity`` sizes each worker's ring in *records* (the
        byte ring is derived from it; frames larger than the ring
        stream through, so small values trade throughput, not
        correctness).
        """
        if poll_every < 1 or cycle_budget < 1:
            raise ValueError("poll_every and cycle_budget must be >= 1")
        if shards is not None:
            from .sharding import run_sharded

            return run_sharded(
                self,
                records,
                n_shards=shards,
                poll_every=poll_every,
                cycle_budget=cycle_budget,
                checkpoint_every=checkpoint_every,
                replay_buffer_records=replay_buffer_records,
                heartbeat_timeout_s=heartbeat_timeout_s,
                process_chaos=process_chaos,
                max_respawns=max_respawns,
                ring_capacity=ring_capacity,
            )

        def deliver(delivered: np.ndarray, boundary: bool) -> None:
            if delivered.shape[0]:
                self.collection.feed_batch(delivered)
            if boundary:
                self.step(cycle_budget)

        self.walk(records, poll_every, deliver)
        return self.finish(cycle_budget)

    def attach_live(self, collector: IntCollector) -> None:
        """Read a live INT collector: the caller interleaves :meth:`step`
        and ends with :meth:`finish`, and each boundary first feeds the
        rows the collector gathered since the previous one as one slice.
        Rows collected before attaching are not ingested."""
        if self.source != "int":
            raise RuntimeError("live attachment requires the INT source")
        if self.fault_injector is not None:
            raise RuntimeError(
                "chaos injection supports replay mode only; attach the "
                "FaultInjector to a record stream instead"
            )
        self._live = collector
        self._live_cursor = len(collector)

    def _pull_live(self) -> None:
        """Feed the attached collector's rows since the last boundary
        through ``collection.feed_batch`` (no-op without a collector).

        The rows are a view of the collector's buffer, consumed before
        the next report can grow it: the simulation is single-threaded
        and ``feed_batch`` copies its columns."""
        collector = self._live
        if collector is None:
            return
        end = len(collector)
        if end < self._live_cursor:
            raise RuntimeError(
                f"live collector shrank from {self._live_cursor} to {end} "
                "rows mid-run (cleared?); reports would be skipped"
            )
        if end > self._live_cursor:
            rows = collector.view()[self._live_cursor : end]
            self._live_cursor = end
            self.collection.feed_batch(rows)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """One flat scorecard of the run: throughput, shedding, health.

        Surfaces every loss path that used to be invisible — evicted
        flows skipped between poll and dispatch, deadline-shed backlog,
        quarantined panel members, injected telemetry faults — alongside
        the ordinary throughput counters.
        """
        consumed = getattr(self.collection, "reports_consumed", None)
        if consumed is None:
            consumed = getattr(self.collection, "samples_consumed", 0)
        out: Dict[str, object] = {
            "reports_consumed": consumed,
            "packets_processed": self.processor.packets_processed,
            "updates_registered": self.db.updates_registered,
            "pending_updates": self.db.pending_updates,
            "updates_evicted": self.db.updates_evicted,
            "predictions_stored": self.db.predictions_total,
            "flows_created": self.db.flows.created,
            "flows_evicted": self.db.flows.evicted,
            "decision_windows": int(np.count_nonzero(self.db.flows.window_fill)),
            "predictions_served": self.prediction.predictions_served,
            "quarantined_models": dict(self.prediction.quarantined),
            "active_models": self.prediction.active_model_names,
            "panel_epoch": self.prediction.panel_epoch,
            "health": self.watchdog.snapshot(),
            "overall_health": self.watchdog.worst.name,
        }
        out.update(self.central.stats())
        if self.fault_injector is not None:
            out["faults"] = self.fault_injector.stats.as_dict()
        if self.shard_stats is not None:
            out["shards"] = list(self.shard_stats)
        if self.supervision_stats is not None:
            out["supervision"] = dict(self.supervision_stats)
        if self.mitigation is not None:
            out["mitigation"] = self.mitigation.stats()
        if self.lifecycle is not None:
            out["lifecycle"] = self.lifecycle.stats()
        if self.sketch_gate is not None:
            out["sketch"] = self._sketch_stats()
        return out

    def _sketch_stats(self) -> Dict[str, object]:
        """Gate scorecard + estimated-vs-exact error over a bounded
        sample of resident flows.

        Every resident flow passed promotion (or predates the gate), so
        demotions — heavy hitters whose exact state was later dropped —
        are exactly the table's evictions + idle expiries.  The error
        sample compares the sketch's packet estimate against the exact
        ``n_packets`` for up to 512 resident flows: with conservative
        update the estimate can only overcount, so mean relative
        overestimate is the sketch-accuracy signal ops would watch.
        """
        assert self.sketch_gate is not None
        gate = self.sketch_gate
        out: Dict[str, object] = dict(gate.stats())
        flows = self.db.flows
        out["demotions"] = flows.evicted + flows.expired
        out["resident_flows"] = len(flows)
        keys = list(itertools.islice(flows.keys(), 512))
        exact = flows.feature_rows(keys)[0][:, _N_PACKETS].astype(np.int64).tolist()
        est = [gate.estimate_key(key_hash_of_key(key))[0] for key in keys]
        err_sum = sum((e - x) / x for e, x in zip(est, exact))
        exact_le_est = sum(e >= x for e, x in zip(est, exact))
        sampled = len(keys)
        out["error_sample_flows"] = sampled
        out["mean_relative_overestimate"] = (
            err_sum / sampled if sampled else 0.0
        )
        out["estimate_ge_exact_fraction"] = (
            exact_le_est / sampled if sampled else 1.0
        )
        return out


def score_by_type(
    db: FlowDatabase,
    truth: Callable[[tuple], tuple],
    percentile_for: Optional[Dict[str, float]] = None,
) -> Dict[str, dict]:
    """Table VI rows from a run's stored predictions.

    Parameters
    ----------
    db : FlowDatabase
        Result of a detector run.
    truth : callable(flow_key) -> (label, AttackType)
        Ground-truth oracle (dataset builders provide one).
    percentile_for : dict, optional
        Per-category percentile to report instead of the max latency
        (the paper uses ``{"Benign": 99.0}``).

    Returns
    -------
    dict
        ``{type_name: {"accuracy", "misclassified", "predicted",
        "avg_time_s", "max_time_s"}}`` — only updates that produced a
        final (windowed) decision are scored, matching how the paper
        counts "predicted packets".
    """
    percentile_for = percentile_for or {}
    latency = LatencyTracker()
    correct: Dict[str, int] = {}
    total: Dict[str, int] = {}
    rows = db.predictions.rows
    for key, latency_ns, final in zip(
        zip(*(rows[f].tolist() for f in KEY_FIELDS)),
        db.latencies_ns().tolist(),
        rows["final"].tolist(),
    ):
        label_true, attack_type = truth(key)
        name = AttackType(attack_type).display
        latency.record(name, latency_ns)
        if final < 0:
            continue
        total[name] = total.get(name, 0) + 1
        if final == int(label_true):
            correct[name] = correct.get(name, 0) + 1

    out: Dict[str, dict] = {}
    for name in sorted(total):
        n = total[name]
        good = correct.get(name, 0)
        stats = latency.summary(name, percentile_max=percentile_for.get(name))
        out[name] = {
            "accuracy": good / n,
            "misclassified": n - good,
            "predicted": n,
            "avg_time_s": stats["avg_s"],
            "max_time_s": stats["max_s"],
        }
    return out
