"""Hot-swap equivalence and kill-recovery for the model lifecycle (PR 10).

The tentpole invariant: attaching a :class:`LifecycleManager` that
retrains and *hot-swaps* the model panel mid-run must keep the sharded
runtime byte-deterministic.  The merged prediction log of a sharded run
(shards 1/2/4, clean and under the PR-1 data-chaos layer, with and
without seeded worker kills) must be byte-identical to the unfaulted
single-process run carrying the same lifecycle — including runs
where the kill lands on the very cycle the swap barrier is broadcast.

Swap *atomicity* is asserted through the epoch column stamped on every
prediction: sorted by ``(seq, key)``, panel epochs must never decrease
(a decrease would mean some shard served a cycle with the outgoing
panel after the barrier), and the profile must start at 0 and end >= 1
(the swap really happened mid-run, not at the edges).

A lifecycle that never swaps must be a *zero-cost observer*: its digest
equals the no-lifecycle run bit for bit.
"""

import numpy as np
import pytest

from repro.core import AutomatedDDoSDetector, pretrain
from repro.core.sharding import prediction_log_digest
from repro.features import extract_features
from repro.lifecycle import LifecycleConfig, LifecycleManager
from repro.ml import GaussianNB, RandomForestClassifier
from repro.resilience.chaos import ChaosSchedule
from repro.resilience.harness import _epoch_profile, _parity_labels
from repro.resilience.process_chaos import ProcessChaos

from .test_batch_equivalence import synthetic_records

POLL_EVERY = 37
CYCLE_BUDGET = 256
RETRAIN_SEED = 42
#: With check_every=2 the forced swap at check 3 lands at slice 6 of 9
#: — safely mid-run for the 360-record synthetic stream.
FORCE_AT_CHECK = 3
SWAP_CYCLE = 6

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


def make_lifecycle(force=True):
    """The kill-suite lifecycle recipe: deterministic forced swap, the
    parity label oracle, holdout gate disabled (swap *mechanics* are
    under test here; the rollback paths have dedicated unit tests)."""
    return LifecycleManager(LifecycleConfig(
        check_every=2,
        min_window_records=32,
        min_retrain_records=64,
        reservoir_windows=6,
        holdout_every=4,
        cooldown_checks=1,
        regression_tolerance=1.0,
        retrain_seed=RETRAIN_SEED,
        label_fn=_parity_labels,
        force_swap_at_check=FORCE_AT_CHECK if force else None,
    ))


def run_life(bundle, stream, chaos=None, shards=None, lifecycle=True,
             force=True, **kw):
    det = AutomatedDDoSDetector(
        bundle, chaos=chaos, chaos_seed=123
    )
    mgr = make_lifecycle(force=force).attach_to(det) if lifecycle else None
    db = det.run_stream(
        stream, poll_every=POLL_EVERY, cycle_budget=CYCLE_BUDGET,
        shards=shards, **kw
    )
    return det, mgr, db


@pytest.fixture(scope="module")
def reference(bundle, stream):
    """Unfaulted single-process lifecycle runs, clean and under chaos."""
    out = {}
    for chaos in (None, CHAOS):
        _, mgr, db = run_life(bundle, stream, chaos=chaos)
        assert mgr.swaps >= 1  # the forced swap really happened
        out[chaos] = {
            "digest": prediction_log_digest(db),
            "events": [e.kind for e in mgr.events],
            "epoch": mgr.epoch,
        }
    return out


def assert_swap_profile(db):
    monotone, mid_run, final = _epoch_profile(db)
    assert monotone, "epoch decreased along seq: mixed-panel cycle"
    assert mid_run, "swap did not land mid-run"
    assert final >= 1
    return final


# ---------------------------------------------------------------------------
# swap equivalence across execution modes
# ---------------------------------------------------------------------------
class TestSwapEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("chaos", [None, CHAOS], ids=["clean", "chaos"])
    def test_sharded_swap_digest_identical(
        self, bundle, stream, reference, n_shards, chaos
    ):
        det, mgr, db = run_life(bundle, stream, chaos=chaos, shards=n_shards)
        ref = reference[chaos]
        assert prediction_log_digest(db) == ref["digest"]
        assert [e.kind for e in mgr.events] == ref["events"]
        assert mgr.epoch == ref["epoch"]
        assert_swap_profile(db)
        assert det.supervision_stats["swap_broadcasts"] == mgr.swaps

    def test_swap_is_atomic_in_reference_too(self, bundle, stream):
        _, _, db = run_life(bundle, stream)
        assert_swap_profile(db)

    def test_epoch_rides_prediction_entries(self, bundle, stream):
        _, mgr, db = run_life(bundle, stream)
        epochs = {e.epoch for e in db.predictions}
        assert epochs == set(range(mgr.epoch + 1))

    def test_no_swap_lifecycle_is_zero_cost_observer(self, bundle, stream):
        _, _, db_bare = run_life(bundle, stream, lifecycle=False)
        _, mgr, db_obs = run_life(bundle, stream, force=False)
        assert mgr.swaps == 0
        assert prediction_log_digest(db_obs) == prediction_log_digest(db_bare)
        assert all(e.epoch == 0 for e in db_obs.predictions)

    def test_retrain_jobs_do_not_change_the_panel(self, bundle, stream):
        # Forest tree-chunk parallelism is bit-reproducible: a panel
        # retrained with retrain_jobs=2 must make the exact same
        # predictions as one retrained serially.  (The serialized blob
        # *bytes* may differ — pickle memoizes shared dtype/Generator
        # instances differently depending on whether trees round-tripped
        # through worker pickles — so equivalence is asserted on the
        # epochs produced and the merged prediction digest, which is
        # byte-identical only if every vote of every retrained model
        # matches.)
        _, mgr1, db1 = run_life(bundle, stream)
        det2 = AutomatedDDoSDetector(bundle)
        mgr2 = LifecycleManager(LifecycleConfig(
            check_every=2, min_window_records=32, min_retrain_records=64,
            reservoir_windows=6, holdout_every=4, cooldown_checks=1,
            regression_tolerance=1.0, retrain_seed=RETRAIN_SEED,
            label_fn=_parity_labels, force_swap_at_check=FORCE_AT_CHECK,
            retrain_jobs=2,
        )).attach_to(det2)
        db2 = det2.run_stream(
            stream, poll_every=POLL_EVERY, cycle_budget=CYCLE_BUDGET
        )
        assert mgr2.panels.keys() == mgr1.panels.keys()
        assert mgr2.epoch == mgr1.epoch
        assert [e.kind for e in mgr2.events] == [e.kind for e in mgr1.events]
        assert prediction_log_digest(db2) == prediction_log_digest(db1)


# ---------------------------------------------------------------------------
# swap under worker kills
# ---------------------------------------------------------------------------
class TestSwapKillRecovery:
    @pytest.mark.parametrize("n_shards", [2, 4])
    @pytest.mark.parametrize("chaos", [None, CHAOS], ids=["clean", "chaos"])
    @pytest.mark.parametrize("mode", ["sigkill", "raise"])
    def test_seeded_kill_with_swap_digest_identical(
        self, bundle, stream, reference, n_shards, chaos, mode
    ):
        plan = ProcessChaos.seeded(
            seed=30_000 + n_shards, n_cycles=n_cycles_of(stream),
            n_shards=n_shards, modes=(mode,),
        )
        assert not plan.is_noop
        det, mgr, db = run_life(
            bundle, stream, chaos=chaos, shards=n_shards,
            process_chaos=plan, checkpoint_every=3,
        )
        ref = reference[chaos]
        assert prediction_log_digest(db) == ref["digest"]
        assert [e.kind for e in mgr.events] == ref["events"]
        assert_swap_profile(db)
        sup = det.supervision_stats
        assert sup["workers_died"] >= 1
        assert sup["workers_respawned"] >= 1
        assert sup["lossy_recoveries"] == 0
        assert sup["swap_broadcasts"] >= 1

    @pytest.mark.parametrize(
        "kill_cycle",
        [SWAP_CYCLE - 1, SWAP_CYCLE, SWAP_CYCLE + 1],
        ids=["before-swap", "at-swap", "after-swap"],
    )
    def test_kill_around_the_swap_broadcast(
        self, bundle, stream, reference, kill_cycle
    ):
        """The hardest alignment: the worker dies at the very CYCLE
        boundary the swap barrier is broadcast on (and one cycle to
        either side).  The respawned worker must recover into the
        correct panel generation — from the checkpointed panel archive
        if its checkpoint post-dates the swap, from the replayed
        FRAME_SWAP if not."""
        plan = ProcessChaos(kills=((kill_cycle, 0, "sigkill"),))
        det, mgr, db = run_life(
            bundle, stream, shards=2, process_chaos=plan, checkpoint_every=3,
        )
        assert prediction_log_digest(db) == reference[None]["digest"]
        assert [e.kind for e in mgr.events] == reference[None]["events"]
        assert_swap_profile(db)
        assert det.supervision_stats["lossy_recoveries"] == 0

    def test_kill_after_swap_with_late_checkpoint_uses_archive(
        self, bundle, stream, reference
    ):
        """checkpoint_every large enough that the victim's last
        checkpoint *pre-dates* the swap: recovery must replay the
        FRAME_SWAP from the replay buffer in stream position."""
        plan = ProcessChaos(kills=((SWAP_CYCLE + 1, 1, "sigkill"),))
        det, mgr, db = run_life(
            bundle, stream, shards=2, process_chaos=plan,
            checkpoint_every=100,  # never checkpoints after the swap
        )
        assert prediction_log_digest(db) == reference[None]["digest"]
        assert_swap_profile(db)
        assert det.supervision_stats["lossy_recoveries"] == 0

    def test_hung_worker_recovers_across_the_swap(
        self, bundle, stream, reference
    ):
        plan = ProcessChaos(kills=((SWAP_CYCLE, 1, "hang"),))
        det, mgr, db = run_life(
            bundle, stream, shards=2, process_chaos=plan,
            checkpoint_every=3, heartbeat_timeout_s=2.0,
        )
        assert prediction_log_digest(db) == reference[None]["digest"]
        assert_swap_profile(db)
        sup = det.supervision_stats
        assert sup["workers_died"] >= 1 and sup["lossy_recoveries"] == 0


# ---------------------------------------------------------------------------
# the packaged harness scenario
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestHarnessScenario:
    def test_run_lifecycle_kill_swaps_identically(self):
        from repro.resilience.harness import ResilienceHarness

        harness = ResilienceHarness(profile="tiny", seed=0)
        report = harness.run_lifecycle_kill(shards=2, kill_seed=0)
        assert report.swapped_identically, report.render()
        assert report.epoch_final >= 1
        assert "match" in report.render()
