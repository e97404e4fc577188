"""Resilience harness: the Table VI experiment under injected faults.

The acceptance question for a production rollout is not "does the
detector work on a clean testbed" (Table VI answers that) but "how much
detection quality does telemetry chaos cost, and does a partial failure
degrade or crash".  :class:`ResilienceHarness` answers both:

* :meth:`ResilienceHarness.run` replays the §IV-C testbed experiment
  twice — clean and under a :class:`~repro.resilience.chaos.ChaosSchedule`
  — and reports per-attack-type accuracy and latency deltas plus the
  injector's fault accounting;
* :meth:`ResilienceHarness.run_model_failure` poisons one ensemble
  member mid-replay and verifies the mechanism quarantines it (watchdog
  alert, adjusted quorum) instead of crashing;
* :meth:`ResilienceHarness.run_worker_kill` murders a seeded-random
  shard worker mid-replay (:class:`~repro.resilience.process_chaos.
  ProcessChaos`) and verifies the supervised sharded runtime restores
  it from checkpoint with a merged prediction log byte-identical to the
  unfaulted single-process run;
* :meth:`ResilienceHarness.run_mitigation_kill` repeats the worker-kill
  scenario with the closed-loop mitigation controller attached and
  additionally requires the canonical **mitigation action-log digest**
  (blocks installed, rate limits, episode escalations) to survive the
  kill byte-identically — the detect→mitigate loop, not just detection,
  is fault-tolerant;
* :meth:`ResilienceHarness.run_lifecycle_kill` repeats it again with
  the online model lifecycle attached and a panel hot swap forced
  mid-replay: the merged log, the lifecycle event sequence, and the
  seq-monotone epoch column (swap atomicity) must all survive the kill
  — even one landing around the swap broadcast itself.

Both lean on the cached :func:`~repro.analysis.experiments.run_testbed_study`
artifacts, so the expensive parts (campaign build, pre-training, DES
replay capture) are paid once per session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.experiments import run_testbed_study
from repro.analysis.tables import render_table
from repro.core.mechanism import AutomatedDDoSDetector, score_by_type
from repro.core.training import TrainedBundle
from repro.traffic.trace import AttackType

from .chaos import ChaosSchedule
from .degradation import HealthAlert, ModuleHealth
from .process_chaos import ProcessChaos

__all__ = [
    "ResilienceHarness",
    "ResilienceReport",
    "ModelFailureReport",
    "WorkerKillReport",
    "MitigationKillReport",
    "LifecycleKillReport",
]


@dataclass
class ResilienceReport:
    """Clean-vs-chaos comparison of one testbed replay."""

    schedule: ChaosSchedule
    #: per flow type: clean/chaos accuracy + latency and their deltas
    rows: Dict[str, dict]
    #: aggregate FaultStats counters across all five replays
    faults: Dict[str, object]
    #: per flow type: watchdog snapshot at end of the chaos run
    health: Dict[str, dict] = field(default_factory=dict)

    @property
    def max_accuracy_drop(self) -> float:
        """Worst accuracy loss across flow types (positive = worse)."""
        drops = [-r["accuracy_delta"] for r in self.rows.values()]
        return max(drops) if drops else 0.0

    def render(self) -> str:
        """Terminal table of the comparison."""
        body = []
        for name, r in sorted(self.rows.items()):
            body.append((
                name,
                f"{r['clean_accuracy']:.4f}",
                f"{r['chaos_accuracy']:.4f}" if r["chaos_accuracy"] is not None
                else "n/a",
                f"{r['accuracy_delta']:+.4f}",
                r["clean_predicted"],
                r["chaos_predicted"],
                f"{r['avg_time_delta_s']:+.2e}",
            ))
        return render_table(
            f"Resilience: Table VI replay under chaos ({self.schedule.describe()})",
            ("Flow type", "clean acc", "chaos acc", "Δacc",
             "clean pred", "chaos pred", "Δavg time (s)"),
            body,
            note=(
                f"faults: {self.faults.get('dropped', 0)} dropped / "
                f"{self.faults.get('duplicated', 0)} duplicated / "
                f"{self.faults.get('reordered', 0)} reordered / "
                f"{self.faults.get('corrupted', 0)} corrupted of "
                f"{self.faults.get('offered', 0)} offered reports"
            ),
        )


@dataclass
class ModelFailureReport:
    """Outcome of a forced single-member failure during a replay."""

    model: str
    quarantined: bool
    alerts: List[HealthAlert]
    stats: dict
    accuracy: Optional[float]
    predictions: int

    @property
    def degraded_not_crashed(self) -> bool:
        """The acceptance property: the member is out, the mechanism is
        up, health is DEGRADED (not FAILED), and predictions flowed."""
        health = self.stats.get("health", {})
        return (
            self.quarantined
            and self.predictions > 0
            and health.get("prediction") == ModuleHealth.DEGRADED.name
        )


@dataclass
class WorkerKillReport:
    """Outcome of a worker-kill chaos run against the sharded runtime."""

    plan: ProcessChaos
    shards: int
    digest_reference: str
    digest_recovered: str
    supervision: dict
    alerts: List[HealthAlert]
    predictions: int

    @property
    def recovered_identically(self) -> bool:
        """The acceptance property: at least one worker died and was
        respawned, the recovery was not lossy, and the merged prediction
        log is byte-identical to the unfaulted single-process run."""
        return (
            self.digest_recovered == self.digest_reference
            and int(self.supervision.get("workers_died", 0)) >= 1
            and int(self.supervision.get("workers_respawned", 0)) >= 1
            and int(self.supervision.get("lossy_recoveries", 0)) == 0
        )


@dataclass
class MitigationKillReport:
    """Outcome of a worker-kill run with the closed loop attached."""

    plan: ProcessChaos
    shards: int
    prediction_digest_reference: str
    prediction_digest_recovered: str
    action_digest_reference: str
    action_digest_recovered: str
    supervision: dict
    mitigation_stats: dict
    actions: int
    blocked: int

    @property
    def loop_survived(self) -> bool:
        """The acceptance property: a worker died and was respawned
        without data loss, *and* both the prediction log and the
        mitigation action log match the unfaulted single-process run
        byte for byte."""
        return (
            self.prediction_digest_recovered == self.prediction_digest_reference
            and self.action_digest_recovered == self.action_digest_reference
            and int(self.supervision.get("workers_died", 0)) >= 1
            and int(self.supervision.get("workers_respawned", 0)) >= 1
            and int(self.supervision.get("lossy_recoveries", 0)) == 0
        )

    def render(self) -> str:
        """Terminal table of the comparison."""
        sup = self.supervision
        body = [
            ("prediction digest",
             self.prediction_digest_reference[:16],
             self.prediction_digest_recovered[:16],
             "match" if self.prediction_digest_recovered
             == self.prediction_digest_reference else "DIVERGED"),
            ("action-log digest",
             self.action_digest_reference[:16],
             self.action_digest_recovered[:16],
             "match" if self.action_digest_recovered
             == self.action_digest_reference else "DIVERGED"),
        ]
        return render_table(
            f"Closed-loop mitigation under worker-kill "
            f"(shards={self.shards}, plan={self.plan.describe()})",
            ("invariant", "reference", "recovered", "verdict"),
            body,
            note=(
                f"{self.actions} actions logged, {self.blocked} active "
                f"blocks; workers died={sup.get('workers_died', 0)} "
                f"respawned={sup.get('workers_respawned', 0)} "
                f"lossy={sup.get('lossy_recoveries', 0)}"
            ),
        )


@dataclass
class LifecycleKillReport:
    """Outcome of a worker-kill run with a hot swap forced mid-stream."""

    plan: ProcessChaos
    shards: int
    digest_reference: str
    digest_recovered: str
    epoch_final: int
    epochs_monotone: bool
    swap_mid_run: bool
    swaps_reference: int
    swaps_recovered: int
    events_reference: List[str]
    events_recovered: List[str]
    supervision: dict
    alerts: List[HealthAlert]
    predictions: int

    @property
    def swapped_identically(self) -> bool:
        """The acceptance property: a worker died and was respawned
        without data loss while a panel hot swap landed mid-run, the
        swap was atomic (seq-ordered epochs never decrease — no cycle
        served by a mixed old/new panel on any shard), and the merged
        prediction log is byte-identical to the unfaulted
        single-process run with the same lifecycle."""
        return (
            self.digest_recovered == self.digest_reference
            and self.epoch_final >= 1
            and self.epochs_monotone
            and self.swap_mid_run
            and self.swaps_reference == self.swaps_recovered
            and self.events_reference == self.events_recovered
            and int(self.supervision.get("workers_died", 0)) >= 1
            and int(self.supervision.get("workers_respawned", 0)) >= 1
            and int(self.supervision.get("lossy_recoveries", 0)) == 0
        )

    def render(self) -> str:
        """Terminal table of the comparison."""
        sup = self.supervision
        body = [
            ("prediction digest",
             self.digest_reference[:16], self.digest_recovered[:16],
             "match" if self.digest_recovered == self.digest_reference
             else "DIVERGED"),
            ("swap events",
             "/".join(self.events_reference) or "-",
             "/".join(self.events_recovered) or "-",
             "match" if self.events_reference == self.events_recovered
             else "DIVERGED"),
            ("swap atomicity",
             "epochs monotone", "epochs monotone"
             if self.epochs_monotone else "MIXED-PANEL CYCLE",
             "ok" if self.epochs_monotone else "VIOLATED"),
        ]
        return render_table(
            f"Lifecycle hot swap under worker-kill "
            f"(shards={self.shards}, plan={self.plan.describe()})",
            ("invariant", "reference", "recovered", "verdict"),
            body,
            note=(
                f"final epoch={self.epoch_final}; workers "
                f"died={sup.get('workers_died', 0)} "
                f"respawned={sup.get('workers_respawned', 0)} "
                f"lossy={sup.get('lossy_recoveries', 0)} "
                f"swap_broadcasts={sup.get('swap_broadcasts', 0)}"
            ),
        )


def _parity_labels(records: np.ndarray) -> np.ndarray:
    """Deterministic, balanced two-class label oracle for lifecycle
    chaos runs: position parity.  The scenario tests swap *mechanics*
    (determinism, atomicity, recovery), not model quality, so the only
    requirements on the oracle are that both classes appear and that
    every execution mode computes identical labels from identical
    reservoir contents."""
    return np.arange(records.shape[0], dtype=np.int64) % 2


def _epoch_profile(db) -> tuple:
    """(epochs monotone by (seq, key), swap landed mid-run, final epoch)
    over a merged prediction log.  Monotonicity is the atomicity check
    in the no-backlog regime: every update registered in slice *k* is
    predicted at cycle *k*, so a swap at a cycle boundary partitions
    the seq axis cleanly — an epoch that *decreases* means some shard
    served a cycle with the outgoing panel after the barrier."""
    log = db.predictions
    epochs = log.rows["epoch"][log.canonical_order()].tolist()
    monotone = all(a <= b for a, b in zip(epochs, epochs[1:]))
    mid_run = bool(epochs) and epochs[0] == 0 and epochs[-1] >= 1
    final = epochs[-1] if epochs else 0
    return monotone, mid_run, final


class _PoisonedModel:
    """Wraps a fitted model; starts raising after ``fail_after`` calls."""

    def __init__(self, inner: object, fail_after: int) -> None:
        self.inner = inner
        self.fail_after = int(fail_after)
        self.calls = 0

    def predict(self, X):
        self.calls += 1
        if self.calls > self.fail_after:
            raise RuntimeError("injected model fault (poisoned member)")
        return self.inner.predict(X)


class ResilienceHarness:
    """Replays the §IV-C testbed experiment under fault injection.

    Parameters
    ----------
    profile : str
        Campaign profile (``tiny``/``small``/``full``) forwarded to the
        testbed study.
    seed : int
        Study seed; the chaos RNG derives from it unless overridden.
    n_packets : int
        Replay length per flow type (paper: ~2500).
    """

    #: Flow types whose models saw the attack in training; the zero-day
    #: SlowLoris row is reported but not part of the within-5-points gate.
    TRAINED_TYPES = ("Benign", "SYN Scan", "UDP Scan", "SYN Flood")

    def __init__(
        self, profile: str = "small", seed: int = 0, n_packets: int = 2500
    ) -> None:
        self.profile = profile
        self.seed = int(seed)
        self.n_packets = int(n_packets)

    # ------------------------------------------------------------------
    def _study(self, chaos: Optional[ChaosSchedule] = None, chaos_seed=None):
        return run_testbed_study(
            self.profile,
            seed=self.seed,
            n_packets=self.n_packets,
            chaos=chaos,
            chaos_seed=chaos_seed,
        )

    def run(
        self, schedule: ChaosSchedule, chaos_seed: Optional[int] = None
    ) -> ResilienceReport:
        """Clean run vs chaos run; returns the delta report."""
        if chaos_seed is None:
            chaos_seed = self.seed + 1009
        clean = self._study()
        chaos = self._study(chaos=schedule, chaos_seed=chaos_seed)

        rows: Dict[str, dict] = {}
        for name, c in clean.table6.items():
            z = chaos.table6.get(name)
            rows[name] = {
                "clean_accuracy": c["accuracy"],
                "chaos_accuracy": z["accuracy"] if z else None,
                "accuracy_delta": (z["accuracy"] - c["accuracy"]) if z else -1.0,
                "clean_predicted": c["predicted"],
                "chaos_predicted": z["predicted"] if z else 0,
                "clean_avg_s": c["avg_time_s"],
                "chaos_avg_s": z["avg_time_s"] if z else float("nan"),
                "avg_time_delta_s": (
                    (z["avg_time_s"] - c["avg_time_s"]) if z else float("nan")
                ),
            }

        faults: Dict[str, float] = {}
        health: Dict[str, dict] = {}
        for name, stats in chaos.mech_stats.items():
            health[name] = stats.get("health", {})
            for k, v in stats.get("faults", {}).items():
                if isinstance(v, (int, np.integer)):
                    faults[k] = faults.get(k, 0) + int(v)
        if faults.get("offered"):
            faults["loss_fraction"] = (
                faults.get("dropped", 0) / faults["offered"]
            )
        return ResilienceReport(
            schedule=schedule, rows=rows, faults=faults, health=health
        )

    # ------------------------------------------------------------------
    def run_model_failure(
        self,
        model: str = "rf",
        flow_type: str = "SYN Flood",
        fail_after: int = 50,
    ) -> ModelFailureReport:
        """Replay one flow type with one panel member poisoned mid-run.

        The member starts raising after ``fail_after`` predictions; a
        resilient mechanism quarantines it, keeps voting with the rest,
        and surfaces a DEGRADED health alert — it does not crash.
        """
        clean = self._study()
        if clean.bundle is None or flow_type not in clean.test_records:
            raise RuntimeError("clean study lacks replay artifacts")
        base: TrainedBundle = clean.bundle
        if model not in base.models:
            raise KeyError(f"unknown panel member: {model!r}")
        models = dict(base.models)
        models[model] = _PoisonedModel(models[model], fail_after)
        bundle = TrainedBundle(
            scaler=base.scaler,
            models=models,
            feature_names=list(base.feature_names),
        )
        detector = AutomatedDDoSDetector(bundle, emit_partial=True)
        records = clean.test_records[flow_type]
        truth_map = clean.truth_maps[flow_type]
        db = detector.run_stream(records, poll_every=64, cycle_budget=128)
        rows = score_by_type(
            db, lambda k: truth_map.get(k, (0, int(AttackType.BENIGN)))
        )
        accuracy = rows[flow_type]["accuracy"] if flow_type in rows else None
        return ModelFailureReport(
            model=model,
            quarantined=model in detector.prediction.quarantined,
            alerts=list(detector.watchdog.alerts),
            stats=detector.stats(),
            accuracy=accuracy,
            predictions=len(db.predictions),
        )

    # ------------------------------------------------------------------
    def run_worker_kill(
        self,
        shards: int = 2,
        kill_seed: int = 0,
        mode: str = "sigkill",
        flow_type: str = "SYN Flood",
        poll_every: int = 64,
        cycle_budget: int = 256,
        checkpoint_every: int = 8,
        heartbeat_timeout_s: float = 30.0,
    ) -> WorkerKillReport:
        """Replay one flow type sharded, killing a seeded-random worker.

        The victim shard and kill cycle are drawn from ``kill_seed``
        (:meth:`ProcessChaos.seeded`), so a failing case replays
        exactly.  The reference digest comes from an unfaulted
        single-process batched run over the same records; a resilient
        runtime respawns the victim from its last checkpoint, replays
        the buffered suffix, and merges a byte-identical log.
        """
        from repro.core.sharding import prediction_log_digest

        clean = self._study()
        if clean.bundle is None or flow_type not in clean.test_records:
            raise RuntimeError("clean study lacks replay artifacts")
        records = clean.test_records[flow_type]
        n_cycles = max(1, records.shape[0] // poll_every)
        plan = ProcessChaos.seeded(
            kill_seed, n_cycles=n_cycles, n_shards=shards, modes=(mode,)
        )

        ref = AutomatedDDoSDetector(clean.bundle, batched=True)
        db_ref = ref.run_stream(
            records, poll_every=poll_every, cycle_budget=cycle_budget
        )

        det = AutomatedDDoSDetector(clean.bundle, batched=True)
        db = det.run_stream(
            records,
            poll_every=poll_every,
            cycle_budget=cycle_budget,
            shards=shards,
            checkpoint_every=checkpoint_every,
            heartbeat_timeout_s=heartbeat_timeout_s,
            process_chaos=plan,
        )
        return WorkerKillReport(
            plan=plan,
            shards=shards,
            digest_reference=prediction_log_digest(db_ref),
            digest_recovered=prediction_log_digest(db),
            supervision=dict(det.supervision_stats or {}),
            alerts=list(det.watchdog.alerts),
            predictions=len(db.predictions),
        )

    # ------------------------------------------------------------------
    def run_mitigation_kill(
        self,
        shards: int = 2,
        kill_seed: int = 0,
        mode: str = "sigkill",
        flow_type: str = "SYN Flood",
        poll_every: int = 64,
        cycle_budget: int = 256,
        checkpoint_every: int = 8,
        heartbeat_timeout_s: float = 30.0,
    ) -> MitigationKillReport:
        """Worker-kill scenario with the mitigation controller attached.

        Same seeded kill plan as :meth:`run_worker_kill`, but both the
        reference (unfaulted, single-process) and the victim (sharded,
        killed, restored) detectors carry a
        :class:`~repro.mitigation.MitigationController` wired through an
        :class:`~repro.controlplane.EpisodeBridge`.  The acceptance bar
        rises accordingly: beyond the prediction log, the canonical
        mitigation **action-log digest** — every block install, refresh
        and episode escalation — must come back byte-identical, proving
        the closed loop's durable state (block table, TTL deadlines,
        token buckets, per-flow emit history) rode the checkpoint and
        replay-buffer recovery intact.
        """
        from repro.controlplane import EpisodeBridge
        from repro.core.sharding import prediction_log_digest
        from repro.mitigation import MitigationController

        clean = self._study()
        if clean.bundle is None or flow_type not in clean.test_records:
            raise RuntimeError("clean study lacks replay artifacts")
        records = clean.test_records[flow_type]
        n_cycles = max(1, records.shape[0] // poll_every)
        plan = ProcessChaos.seeded(
            kill_seed, n_cycles=n_cycles, n_shards=shards, modes=(mode,)
        )

        def closed_loop() -> tuple:
            det = AutomatedDDoSDetector(clean.bundle, batched=True)
            ctrl = MitigationController().attach_to(det)
            EpisodeBridge(ctrl)
            return det, ctrl

        ref, ctrl_ref = closed_loop()
        db_ref = ref.run_stream(
            records, poll_every=poll_every, cycle_budget=cycle_budget
        )

        det, ctrl = closed_loop()
        db = det.run_stream(
            records,
            poll_every=poll_every,
            cycle_budget=cycle_budget,
            shards=shards,
            checkpoint_every=checkpoint_every,
            heartbeat_timeout_s=heartbeat_timeout_s,
            process_chaos=plan,
        )
        stats = ctrl.stats()
        return MitigationKillReport(
            plan=plan,
            shards=shards,
            prediction_digest_reference=prediction_log_digest(db_ref),
            prediction_digest_recovered=prediction_log_digest(db),
            action_digest_reference=ctrl_ref.action_log_digest(),
            action_digest_recovered=ctrl.action_log_digest(),
            supervision=dict(det.supervision_stats or {}),
            mitigation_stats=stats,
            actions=int(stats.get("actions_logged", 0)),
            blocked=int(stats.get("active_blocks", 0)),
        )

    # ------------------------------------------------------------------
    def run_lifecycle_kill(
        self,
        shards: int = 2,
        kill_seed: int = 0,
        mode: str = "sigkill",
        flow_type: str = "SYN Flood",
        poll_every: int = 64,
        cycle_budget: int = 256,
        checkpoint_every: int = 8,
        heartbeat_timeout_s: float = 30.0,
        force_swap_at_check: int = 3,
    ) -> LifecycleKillReport:
        """Worker-kill scenario with the model lifecycle attached and a
        hot swap forced mid-run.

        Both the reference (unfaulted, single-process) and the victim
        (sharded, killed, restored) detectors carry a
        :class:`~repro.lifecycle.LifecycleManager` configured to retrain
        and swap at check ``force_swap_at_check`` — the deterministic
        stand-in for a real drift alarm, so the swap barrier lands at a
        known cycle regardless of traffic content.  The acceptance bar:
        byte-identical merged prediction logs, identical lifecycle
        event sequences, seq-monotone panel epochs (swap atomicity) and
        a clean (non-lossy) recovery of the murdered worker — even when
        the kill lands around the swap broadcast itself.

        The holdout gate is disabled (``regression_tolerance=1.0``)
        because the parity label oracle makes candidate quality
        meaningless here; the rollback paths have their own dedicated
        tests on real labels.
        """
        from repro.core.sharding import prediction_log_digest
        from repro.lifecycle import LifecycleConfig, LifecycleManager

        clean = self._study()
        if clean.bundle is None or flow_type not in clean.test_records:
            raise RuntimeError("clean study lacks replay artifacts")
        records = clean.test_records[flow_type]
        n_cycles = max(1, records.shape[0] // poll_every)
        plan = ProcessChaos.seeded(
            kill_seed, n_cycles=n_cycles, n_shards=shards, modes=(mode,)
        )

        def lifecycle() -> LifecycleManager:
            return LifecycleManager(LifecycleConfig(
                check_every=2,
                min_window_records=32,
                min_retrain_records=64,
                reservoir_windows=6,
                holdout_every=4,
                cooldown_checks=1,
                regression_tolerance=1.0,
                retrain_seed=self.seed,
                label_fn=_parity_labels,
                force_swap_at_check=force_swap_at_check,
            ))

        ref = AutomatedDDoSDetector(clean.bundle, batched=True)
        mgr_ref = lifecycle().attach_to(ref)
        db_ref = ref.run_stream(
            records, poll_every=poll_every, cycle_budget=cycle_budget
        )

        det = AutomatedDDoSDetector(clean.bundle, batched=True)
        mgr = lifecycle().attach_to(det)
        db = det.run_stream(
            records,
            poll_every=poll_every,
            cycle_budget=cycle_budget,
            shards=shards,
            checkpoint_every=checkpoint_every,
            heartbeat_timeout_s=heartbeat_timeout_s,
            process_chaos=plan,
        )
        monotone, mid_run, final = _epoch_profile(db)
        return LifecycleKillReport(
            plan=plan,
            shards=shards,
            digest_reference=prediction_log_digest(db_ref),
            digest_recovered=prediction_log_digest(db),
            epoch_final=final,
            epochs_monotone=monotone,
            swap_mid_run=mid_run,
            swaps_reference=mgr_ref.swaps,
            swaps_recovered=mgr.swaps,
            events_reference=[e.kind for e in mgr_ref.events],
            events_recovered=[e.kind for e in mgr.events],
            supervision=dict(det.supervision_stats or {}),
            alerts=list(det.watchdog.alerts),
            predictions=len(db.predictions),
        )
