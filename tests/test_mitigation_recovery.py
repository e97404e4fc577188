"""Closed-loop mitigation equivalence under chaos and worker-kill (PR 6).

The acceptance invariant for the mitigation control plane: the canonical
action-log digest (:meth:`repro.mitigation.MitigationController.
action_log_digest`) must be byte-identical across the single-process
run and sharded runs with 1, 2 and 4 workers — clean, under the
PR-1 data-chaos layer, and with seeded SIGKILL / crash worker-kill
recovery in play.  Mitigation state rides the same RPRCKPT1 checkpoints
and replay-buffer recovery as the prediction log, so a kill mid-run must
leave no trace in what got blocked, when, or why.

The prediction-log digest is asserted alongside throughout: mitigation
determinism is only meaningful on top of detection determinism.
"""

import numpy as np
import pytest

from repro.core import AutomatedDDoSDetector, pretrain
from repro.core.sharding import prediction_log_digest
from repro.features import extract_features
from repro.ml import GaussianNB, RandomForestClassifier
from repro.mitigation import MitigationController
from repro.resilience.chaos import ChaosSchedule
from repro.resilience.process_chaos import ProcessChaos

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
    ctrl = MitigationController().attach_to(det)
    db = det.run_stream(
        stream, poll_every=POLL_EVERY, cycle_budget=CYCLE_BUDGET,
        shards=shards, **kw
    )
    return det, ctrl, db


@pytest.fixture(scope="module")
def reference(bundle, stream):
    """Unfaulted single-process digests, clean and under data chaos."""
    out = {}
    for chaos in (None, CHAOS):
        _, ctrl, db = run_mode(bundle, stream, chaos=chaos)
        assert ctrl.action_log, "reference run produced no actions"
        out[chaos] = {
            "actions": ctrl.action_log_digest(),
            "predictions": prediction_log_digest(db),
            "counters": dict(ctrl.counters),
        }
    return out


# ---------------------------------------------------------------------------
# shard-count invariance, clean and under data chaos
# ---------------------------------------------------------------------------
class TestShardInvariance:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("chaos", [None, CHAOS], ids=["clean", "chaos"])
    def test_action_digest_identical_across_shards(
        self, bundle, stream, reference, n_shards, chaos
    ):
        _, ctrl, db = run_mode(
            bundle, stream, chaos=chaos, shards=n_shards
        )
        assert ctrl.action_log_digest() == reference[chaos]["actions"]
        assert prediction_log_digest(db) == reference[chaos]["predictions"]

    @pytest.mark.parametrize("chaos", [None, CHAOS], ids=["clean", "chaos"])
    def test_counters_identical_across_shards(
        self, bundle, stream, reference, chaos
    ):
        """The operator-visible enforcement counters are part of the
        contract too, not just the log."""
        _, ctrl, _ = run_mode(bundle, stream, chaos=chaos, shards=2)
        want = reference[chaos]["counters"]
        got = dict(ctrl.counters)
        for k in ("rules_installed", "rules_refreshed", "whitelist_hits"):
            assert got[k] == want[k], (k, got[k], want[k])


# ---------------------------------------------------------------------------
# the kill-recovery invariant: blocks survive worker murder
# ---------------------------------------------------------------------------
class TestMitigationKillRecovery:
    @pytest.mark.parametrize("n_shards", [2, 4])
    @pytest.mark.parametrize("chaos", [None, CHAOS], ids=["clean", "chaos"])
    @pytest.mark.parametrize("mode", ["sigkill", "raise"])
    def test_seeded_kill_action_digest_identical(
        self, bundle, stream, reference, n_shards, chaos, mode
    ):
        plan = ProcessChaos.seeded(
            seed=20_000 + n_shards, n_cycles=n_cycles_of(stream),
            n_shards=n_shards, modes=(mode,),
        )
        assert not plan.is_noop
        det, ctrl, db = run_mode(
            bundle, stream, chaos=chaos, shards=n_shards,
            process_chaos=plan, checkpoint_every=3,
        )
        assert ctrl.action_log_digest() == reference[chaos]["actions"]
        assert prediction_log_digest(db) == reference[chaos]["predictions"]
        sup = det.supervision_stats
        assert sup["workers_died"] >= 1
        assert sup["workers_respawned"] >= 1
        assert sup["lossy_recoveries"] == 0

    def test_kill_before_first_checkpoint_replays_mitigation_state(
        self, bundle, stream, reference
    ):
        """A worker murdered before it ever checkpointed respawns with a
        fresh controller and the full-stream replay rebuilds the exact
        same block history."""
        plan = ProcessChaos(kills=((2, 1, "sigkill"),))
        det, ctrl, db = run_mode(
            bundle, stream, shards=2, process_chaos=plan,
            checkpoint_every=1000,  # never checkpoints within the run
        )
        assert ctrl.action_log_digest() == reference[None]["actions"]
        assert det.supervision_stats["checkpoints_taken"] == 0
        assert det.supervision_stats["workers_respawned"] >= 1

    def test_kill_after_checkpoint_restores_mitigation_state(
        self, bundle, stream, reference
    ):
        """The complementary path: the respawned worker restores flow
        cursor, emit history and block table from the checkpoint blob,
        then replays only the suffix."""
        plan = ProcessChaos(kills=((8, 0, "sigkill"),))
        det, ctrl, db = run_mode(
            bundle, stream, shards=2, process_chaos=plan,
            checkpoint_every=2,
        )
        assert ctrl.action_log_digest() == reference[None]["actions"]
        assert prediction_log_digest(db) == reference[None]["predictions"]
        assert det.supervision_stats["checkpoints_taken"] > 0
        assert det.supervision_stats["workers_respawned"] >= 1

    def test_hung_worker_recovery_preserves_actions(
        self, bundle, stream, reference
    ):
        plan = ProcessChaos(kills=((4, 0, "hang"),))
        det, ctrl, _ = run_mode(
            bundle, stream, shards=2, process_chaos=plan,
            checkpoint_every=3, heartbeat_timeout_s=2.0,
        )
        assert ctrl.action_log_digest() == reference[None]["actions"]
        assert det.supervision_stats["workers_respawned"] == 1


# ---------------------------------------------------------------------------
# loud degradation: lossy recovery must not silently fake the log
# ---------------------------------------------------------------------------
class TestLossyMitigation:
    def test_lossy_recovery_is_loud_in_mitigation_stats(
        self, bundle, stream, reference
    ):
        """When a crash outruns the replay buffer the run still
        completes, but the controller flags the action log as lossy
        rather than presenting a silently-diverged history as canonical."""
        plan = ProcessChaos(kills=((8, 0, "sigkill"),))
        det, ctrl, db = run_mode(
            bundle, stream, shards=2, process_chaos=plan,
            checkpoint_every=1000, replay_buffer_records=40,
        )
        assert det.supervision_stats["lossy_recoveries"] == 1
        assert ctrl.stats()["lossy_recoveries"] >= 1
        assert ctrl.stats()["state_authoritative"] is False
        # loud, not silent: divergence shows up in the digest
        assert prediction_log_digest(db) != reference[None]["predictions"]
