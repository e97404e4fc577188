"""Kill-recovery equivalence for the supervised sharded runtime (PR 5).

The acceptance invariant: SIGKILL-ing (or crashing, or hanging) a
seeded-random shard worker at a seeded-random CYCLE boundary — clean and
under the PR-1 data-chaos layer — must yield a merged prediction log
byte-identical to the unfaulted single-process run.  Recovery is
checkpoint + replay (:mod:`repro.core.checkpoint`,
:class:`repro.core.sharding.Supervisor`); the digest is the same
``(seq, key)``-canonical SHA-256 the shard-equivalence suite uses.

Also here: the loud-degradation contract — a crash that outruns the
bounded replay buffer must surface a FAILED health alert and a
``lossy_recoveries`` counter and still complete (never deadlock, never
silently diverge) — and the heartbeat path that catches alive-but-hung
workers.
"""

import numpy as np
import pytest

from repro.core import AutomatedDDoSDetector, pretrain
from repro.core.sharding import prediction_log_digest
from repro.features import extract_features
from repro.ml import GaussianNB, RandomForestClassifier
from repro.resilience.chaos import ChaosSchedule
from repro.resilience.process_chaos import KILL_MODES, ProcessChaos

from .test_batch_equivalence import synthetic_records

POLL_EVERY = 37
CYCLE_BUDGET = 256

CHAOS = ChaosSchedule(
    drop_rate=0.05, burst_p=0.02, burst_r=0.3, burst_loss=0.8,
    duplicate_rate=0.03, reorder_rate=0.04, reorder_depth=3,
    corrupt_rate=0.02,
)


@pytest.fixture(scope="module")
def bundle():
    ben = synthetic_records(attack=False)
    atk = synthetic_records(attack=True, t0=10**9)
    records = np.concatenate([ben, atk])
    fm = extract_features(records, source="int")
    y = np.array([0] * len(ben) + [1] * len(atk))
    return pretrain(
        fm.X, y, fm.names,
        panel={
            "rf": lambda: RandomForestClassifier(
                n_estimators=5, max_depth=6, seed=0
            ),
            "gnb": lambda: GaussianNB(),
        },
    )


@pytest.fixture(scope="module")
def stream():
    ben = synthetic_records(attack=False)
    atk = synthetic_records(attack=True, t0=10**9)
    records = np.concatenate([ben, atk])
    return records[np.random.default_rng(7).permutation(len(records))]


def n_cycles_of(stream):
    return stream.shape[0] // POLL_EVERY


def run_mode(bundle, stream, chaos=None, shards=None, **kw):
    det = AutomatedDDoSDetector(
        bundle, chaos=chaos, chaos_seed=123
    )
    db = det.run_stream(
        stream, poll_every=POLL_EVERY, cycle_budget=CYCLE_BUDGET,
        shards=shards, **kw
    )
    return det, db


@pytest.fixture(scope="module")
def reference(bundle, stream):
    """Unfaulted single-process digests, clean and under data chaos."""
    _, db_clean = run_mode(bundle, stream)
    _, db_chaos = run_mode(bundle, stream, chaos=CHAOS)
    return {
        None: prediction_log_digest(db_clean),
        CHAOS: prediction_log_digest(db_chaos),
    }


# ---------------------------------------------------------------------------
# the kill-recovery invariant
# ---------------------------------------------------------------------------
class TestKillRecoveryEquivalence:
    @pytest.mark.parametrize("n_shards", [2, 4])
    @pytest.mark.parametrize("chaos", [None, CHAOS], ids=["clean", "chaos"])
    @pytest.mark.parametrize("mode", ["sigkill", "raise"])
    def test_seeded_kill_digest_identical(
        self, bundle, stream, reference, n_shards, chaos, mode
    ):
        plan = ProcessChaos.seeded(
            seed=20_000 + n_shards, n_cycles=n_cycles_of(stream),
            n_shards=n_shards, modes=(mode,),
        )
        assert not plan.is_noop
        det, db = run_mode(
            bundle, stream, chaos=chaos, shards=n_shards,
            process_chaos=plan, checkpoint_every=3,
        )
        assert prediction_log_digest(db) == reference[chaos]
        sup = det.supervision_stats
        assert sup["workers_died"] >= 1
        assert sup["workers_respawned"] >= 1
        assert sup["lossy_recoveries"] == 0
        assert len(sup["restore_latencies_s"]) == sup["workers_respawned"]

    def test_kill_before_first_checkpoint_replays_everything(
        self, bundle, stream, reference
    ):
        """A worker murdered before it ever checkpointed respawns fresh
        and the coordinator replays its entire stream so far."""
        plan = ProcessChaos(kills=((2, 1, "sigkill"),))
        det, db = run_mode(
            bundle, stream, shards=2, process_chaos=plan,
            checkpoint_every=1000,  # never checkpoints within the run
        )
        assert prediction_log_digest(db) == reference[None]
        assert det.supervision_stats["checkpoints_taken"] == 0
        assert det.supervision_stats["workers_respawned"] >= 1

    def test_multi_kill_across_shards(self, bundle, stream, reference):
        plan = ProcessChaos.seeded(
            seed=9, n_cycles=n_cycles_of(stream), n_shards=4, n_kills=2,
            modes=KILL_MODES[:2],  # sigkill + raise
        )
        assert len(plan.kills) == 2
        det, db = run_mode(
            bundle, stream, shards=4, process_chaos=plan, checkpoint_every=3
        )
        assert prediction_log_digest(db) == reference[None]
        assert det.supervision_stats["workers_died"] >= 2

    def test_hung_worker_recovered_via_heartbeat_deadline(
        self, bundle, stream, reference
    ):
        """A worker that stops consuming without dying is declared hung
        after ``heartbeat_timeout_s`` and recovered the same way."""
        plan = ProcessChaos(kills=((4, 0, "hang"),))
        det, db = run_mode(
            bundle, stream, shards=2, process_chaos=plan,
            checkpoint_every=3, heartbeat_timeout_s=2.0,
        )
        assert prediction_log_digest(db) == reference[None]
        assert det.supervision_stats["workers_died"] == 1
        assert det.supervision_stats["workers_respawned"] == 1


# ---------------------------------------------------------------------------
# lifecycle observability
# ---------------------------------------------------------------------------
class TestLifecycleAlerts:
    def test_death_and_recovery_emit_health_alerts(self, bundle, stream):
        plan = ProcessChaos(kills=((3, 1, "sigkill"),))
        det, _ = run_mode(
            bundle, stream, shards=2, process_chaos=plan, checkpoint_every=2
        )
        shard_alerts = [
            a for a in det.watchdog.alerts if a.module == "shard-1"
        ]
        assert [a.state.name for a in shard_alerts] == ["DEGRADED", "HEALTHY"]
        assert "died" in shard_alerts[0].reason
        # the recovery alert names the checkpoint it restored from
        assert "checkpoint cycle" in shard_alerts[1].reason
        assert "seq" in shard_alerts[1].reason

    def test_supervision_counters_in_mechanism_stats(self, bundle, stream):
        plan = ProcessChaos(kills=((3, 0, "sigkill"),))
        det, _ = run_mode(
            bundle, stream, shards=2, process_chaos=plan, checkpoint_every=2
        )
        stats = det.stats()
        sup = stats["supervision"]
        assert sup["workers_died"] == 1 and sup["workers_respawned"] == 1
        assert stats["health"].get("shard-0") == "HEALTHY"

    def test_clean_run_has_quiet_supervision(self, bundle, stream):
        det, _ = run_mode(bundle, stream, shards=2)
        sup = det.supervision_stats
        assert sup["workers_died"] == 0
        assert sup["workers_respawned"] == 0
        assert sup["lossy_recoveries"] == 0
        assert not any(
            a.module.startswith("shard-") for a in det.watchdog.alerts
        )


# ---------------------------------------------------------------------------
# loud degradation: crash outruns the replay buffer
# ---------------------------------------------------------------------------
class TestLossyRecovery:
    def test_outrun_buffer_degrades_loudly_and_completes(
        self, bundle, stream, reference
    ):
        """Tiny replay buffer + a kill far past the last checkpoint: the
        run must complete (no deadlock), count a lossy recovery, and mark
        the shard FAILED — silent divergence is the one forbidden
        outcome."""
        plan = ProcessChaos(kills=((8, 0, "sigkill"),))
        det, db = run_mode(
            bundle, stream, shards=2, process_chaos=plan,
            checkpoint_every=1000, replay_buffer_records=40,
        )
        sup = det.supervision_stats
        assert sup["lossy_recoveries"] == 1
        assert sup["replay_dropped_records"] > 0
        failed = [
            a for a in det.watchdog.alerts
            if a.module == "shard-0" and a.state.name == "FAILED"
        ]
        assert failed and "outran the replay buffer" in failed[0].reason
        assert det.stats()["health"]["shard-0"] == "FAILED"
        # loud, not silent: the divergence is visible in the digest AND
        # in the counters; predictions still flowed for the healthy shard
        assert len(db.predictions) > 0
        assert prediction_log_digest(db) != reference[None]

    def test_ample_buffer_never_goes_lossy(self, bundle, stream, reference):
        plan = ProcessChaos(kills=((8, 0, "sigkill"),))
        det, db = run_mode(
            bundle, stream, shards=2, process_chaos=plan,
            checkpoint_every=1000,  # no checkpoint: full replay needed
            replay_buffer_records=100_000,
        )
        assert det.supervision_stats["lossy_recoveries"] == 0
        assert prediction_log_digest(db) == reference[None]
