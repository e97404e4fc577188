"""Unit tests for the online model lifecycle (repro.lifecycle).

These exercise the :class:`LifecycleManager` state machine directly by
feeding hand-built telemetry windows through :meth:`on_slice` — no
stream loop, no sharding — so every branch is pinned in isolation:
reference freeze, warn/alarm ladders, the retrain-skip paths, both
rollback paths (exception and holdout regression, each LOUD: event +
Watchdog FAILED), the successful swap, cooldown, forced swaps, and the
checkpoint/restore reinstall including its hash gate.  The satellite
fix to :meth:`PredictionModule.reinstate` (KeyError symmetry + the
HEALTHY transition) is covered here too.

Cross-process equivalence of the same machinery lives in
``test_lifecycle_recovery.py``.
"""

import numpy as np
import pytest

from repro.core import AutomatedDDoSDetector, pretrain
from repro.core.checkpoint import CheckpointError, panel_content_hash
from repro.features import extract_features
from repro.int_telemetry import REPORT_DTYPE
from repro.lifecycle import (
    LifecycleConfig,
    LifecycleError,
    LifecycleManager,
    SwapCommand,
)
from repro.ml import GaussianNB, RandomForestClassifier
from repro.resilience.degradation import ModuleHealth

from .test_batch_equivalence import synthetic_records


# ---------------------------------------------------------------------------
# fixtures and helpers
# ---------------------------------------------------------------------------
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
            "rf": lambda: RandomForestClassifier(n_estimators=5, max_depth=6, seed=0),
            "gnb": lambda: GaussianNB(),
        },
    )


def window(lengths, t0=0):
    """Telemetry window with a chosen length distribution (the drift
    feature under test); everything else held benign and constant."""
    lengths = np.asarray(lengths)
    n = lengths.shape[0]
    rec = np.zeros(n, dtype=REPORT_DTYPE)
    rec["ts_report"] = t0 + np.arange(n) * 1_000_000
    rec["src_ip"] = 0xAC100000 + np.arange(n) % 30
    rec["dst_ip"] = 0x0A0A0050
    rec["src_port"] = 1000 + np.arange(n) % 30
    rec["dst_port"] = 80
    rec["protocol"] = 6
    rec["length"] = np.clip(lengths, 60, 1500).astype(np.int64)
    rec["hop_latency"] = 500
    rec["hops"] = 3
    return rec


def ref_window(n=256, seed=0, t0=0):
    return window(np.random.default_rng(seed).normal(1200, 50, n), t0=t0)


def shifted_window(frac, n=256, seed=1, t0=0):
    """``frac`` of the rows jump to length 1500: frac=0.15 lands in the
    PSI warn band (0.1, 0.25], frac>=0.3 is a clear alarm."""
    k = int(n * frac)
    lengths = np.concatenate([
        np.random.default_rng(seed).normal(1200, 50, n - k),
        np.full(k, 1500.0),
    ])
    return window(lengths, t0=t0)


class ConstantModel:
    """Fit-anything classifier that always votes ``value``."""

    def __init__(self, value):
        self.value = int(value)

    def fit(self, X, y):
        return self

    def predict(self, X):
        return np.full(np.asarray(X).shape[0], self.value, dtype=np.int64)


def constant_panel(value):
    return lambda seed: {"const": lambda: ConstantModel(value)}


def make_manager(bundle, **overrides):
    defaults = dict(
        check_every=1,
        min_window_records=32,
        bins=10,
        drift_fields=["length"],
        reservoir_windows=4,
        min_retrain_records=64,
        holdout_every=4,
        cooldown_checks=0,
    )
    defaults.update(overrides)
    det = AutomatedDDoSDetector(bundle)
    mgr = LifecycleManager(LifecycleConfig(**defaults)).attach_to(det)
    return det, mgr


def kinds(mgr):
    return [e.kind for e in mgr.events]


def alerts_for(det, module):
    return [a for a in det.watchdog.alerts if a.module == module]


# ---------------------------------------------------------------------------
# configuration and attachment
# ---------------------------------------------------------------------------
class TestConfig:
    @pytest.mark.parametrize("bad", [
        dict(check_every=0),
        dict(reservoir_windows=0),
        dict(holdout_every=1),
        dict(cooldown_checks=-1),
        dict(regression_tolerance=-0.1),
    ])
    def test_invalid_config_rejected(self, bad):
        with pytest.raises(ValueError):
            LifecycleConfig(**bad)

    def test_on_slice_requires_attachment(self):
        mgr = LifecycleManager()
        with pytest.raises(LifecycleError, match="not attached"):
            mgr.on_slice(ref_window())

    def test_attach_binds_detector_surfaces(self, bundle):
        det, mgr = make_manager(bundle)
        assert det.lifecycle is mgr
        assert mgr.watchdog is det.watchdog
        assert mgr.incumbent is det.bundle
        assert mgr.source == "int"

    def test_unknown_drift_field_is_loud(self, bundle):
        det, mgr = make_manager(bundle, drift_fields=["no_such_field"])
        with pytest.raises(LifecycleError, match="no_such_field"):
            mgr.on_slice(ref_window())

    def test_default_fields_intersect_dtype(self, bundle):
        det, mgr = make_manager(bundle, drift_fields=None)
        mgr.on_slice(ref_window())
        assert mgr.drift_fields == [
            "length", "hop_latency", "queue_occupancy", "protocol",
        ]


# ---------------------------------------------------------------------------
# monitoring ladder
# ---------------------------------------------------------------------------
class TestDriftLadder:
    def test_first_check_freezes_reference(self, bundle):
        det, mgr = make_manager(bundle)
        assert mgr.on_slice(ref_window()) is None
        assert kinds(mgr) == ["reference_frozen"]
        assert mgr.checks_done == 1
        assert mgr.monitor is not None and mgr.monitor.fitted

    def test_stable_traffic_stays_silent(self, bundle):
        det, mgr = make_manager(bundle)
        mgr.on_slice(ref_window(seed=0))
        mgr.on_slice(ref_window(seed=7, t0=10**9))
        assert kinds(mgr) == ["reference_frozen"]
        assert alerts_for(det, "lifecycle") == []

    def test_thin_slices_accumulate_until_min_window(self, bundle):
        det, mgr = make_manager(bundle, min_window_records=64)
        for i in range(3):
            mgr.on_slice(ref_window(n=20, seed=i))
            assert mgr.checks_done == 0  # 20, 40, 60 rows: below floor
        mgr.on_slice(ref_window(n=20, seed=3))
        assert mgr.checks_done == 1  # 80 rows crossed the floor
        assert mgr.slices_seen == 4

    def test_warn_band_emits_event_and_degraded(self, bundle):
        det, mgr = make_manager(bundle)
        mgr.on_slice(ref_window())
        cmd = mgr.on_slice(shifted_window(0.15, t0=10**9))
        assert cmd is None
        assert kinds(mgr) == ["reference_frozen", "drift_warn"]
        ev = mgr.events[-1]
        assert ev.detail["worst_feature"] == "length"
        assert 0.1 < ev.detail["worst_psi"] <= 0.25
        alert = alerts_for(det, "lifecycle")[-1]
        assert alert.state is ModuleHealth.DEGRADED
        assert "WARN" in alert.reason
        assert mgr.retrains == 0

    def test_alarm_without_label_fn_skips_loudly(self, bundle):
        det, mgr = make_manager(bundle)  # label_fn defaults to None
        mgr.on_slice(ref_window())
        cmd = mgr.on_slice(shifted_window(0.5, t0=10**9))
        assert cmd is None
        assert kinds(mgr) == [
            "reference_frozen", "drift_alarm", "retrain_skipped",
        ]
        assert mgr.events[-1].detail["reason"] == "no label_fn configured"
        assert mgr.swaps == 0
        # the watchdog saw the degradation (one transition alert; the
        # follow-up same-state report is deduplicated by design)
        assert alerts_for(det, "lifecycle")[-1].state is ModuleHealth.DEGRADED

    def test_alarm_with_thin_reservoir_defers(self, bundle):
        det, mgr = make_manager(
            bundle,
            min_retrain_records=100_000,
            label_fn=lambda r: np.zeros(r.shape[0], dtype=np.int64),
        )
        mgr.on_slice(ref_window())
        mgr.on_slice(shifted_window(0.5, t0=10**9))
        assert kinds(mgr)[-1] == "retrain_skipped"
        assert mgr.events[-1].detail["reason"] == "reservoir too small"
        assert mgr.retrains == 0 and mgr.swaps == 0


# ---------------------------------------------------------------------------
# retraining: rollbacks and the swap
# ---------------------------------------------------------------------------
class TestRetrain:
    def test_label_fn_exception_rolls_back_loudly(self, bundle):
        def broken(records):
            raise RuntimeError("label store offline")

        det, mgr = make_manager(bundle, label_fn=broken)
        mgr.on_slice(ref_window())
        cmd = mgr.on_slice(shifted_window(0.5, t0=10**9))
        assert cmd is None
        assert kinds(mgr)[-1] == "rollback"
        assert "label store offline" in mgr.events[-1].detail["reason"]
        assert mgr.rollbacks == 1 and mgr.swaps == 0
        assert mgr.epoch == 0
        assert det.prediction.panel_epoch == 0  # incumbent untouched
        alert = alerts_for(det, "lifecycle")[-1]
        assert alert.state is ModuleHealth.FAILED
        assert "incumbent panel kept" in alert.reason

    def test_label_count_mismatch_rolls_back(self, bundle):
        det, mgr = make_manager(
            bundle, label_fn=lambda r: np.zeros(3, dtype=np.int64)
        )
        mgr.on_slice(ref_window())
        mgr.on_slice(shifted_window(0.5, t0=10**9))
        assert kinds(mgr)[-1] == "rollback"
        assert mgr.epoch == 0

    def test_holdout_regression_rolls_back_loudly(self, bundle):
        # Labels say everything is benign; the incumbent (trained to
        # call 1200-byte flows benign) aces that, the candidate is a
        # constant-1 model and scores 0.0 — a certain regression.
        det, mgr = make_manager(
            bundle,
            label_fn=lambda r: np.zeros(r.shape[0], dtype=np.int64),
            panel=constant_panel(1),
            regression_tolerance=0.02,
        )
        mgr.on_slice(ref_window())
        cmd = mgr.on_slice(shifted_window(0.5, t0=10**9))
        assert cmd is None
        assert kinds(mgr)[-1] == "rollback"
        detail = mgr.events[-1].detail
        assert detail["reason"] == "holdout regression"
        assert detail["holdout_candidate"] == 0.0
        assert detail["holdout_candidate"] < detail["holdout_incumbent"]
        assert detail["top_features"]  # operator triage payload present
        assert mgr.rollbacks == 1 and mgr.swaps == 0 and mgr.retrains == 1
        assert det.prediction.panel_epoch == 0
        alert = alerts_for(det, "lifecycle")[-1]
        assert alert.state is ModuleHealth.FAILED
        assert "regressed on holdout" in alert.reason

    def test_successful_swap_installs_and_archives(self, bundle):
        det, mgr = make_manager(
            bundle,
            label_fn=lambda r: np.zeros(r.shape[0], dtype=np.int64),
            panel=constant_panel(0),
            regression_tolerance=0.02,
        )
        mgr.on_slice(ref_window())
        cmd = mgr.on_slice(shifted_window(0.5, t0=10**9))
        assert isinstance(cmd, SwapCommand)
        assert cmd.epoch == 1
        assert cmd.panel_hash == panel_content_hash(cmd.blob)
        assert mgr.epoch == 1 and mgr.swaps == 1 and mgr.rollbacks == 0
        assert mgr.panels[1] == cmd.blob
        # the serving module switched generations in place
        assert det.prediction.panel_epoch == 1
        assert det.prediction.panel_hash == cmd.panel_hash
        assert list(det.prediction.models) == ["const"]
        ev = mgr.events[-1]
        assert ev.kind == "swap"
        assert ev.detail["panel_hash"] == cmd.panel_hash
        assert len(ev.detail["top_features"]) <= mgr.config.top_k
        alert = alerts_for(det, "lifecycle")[-1]
        assert alert.state is ModuleHealth.HEALTHY
        assert "epoch 1 installed" in alert.reason
        # incumbent now the new generation: a second alarm trains epoch 2
        assert mgr.incumbent is not det.bundle

    def test_swap_resets_quarantine_state(self, bundle):
        det, mgr = make_manager(
            bundle,
            label_fn=lambda r: np.zeros(r.shape[0], dtype=np.int64),
            panel=constant_panel(0),
        )
        det.prediction.quarantine("rf", "poisoned")
        mgr.on_slice(ref_window())
        assert mgr.on_slice(shifted_window(0.5, t0=10**9)) is not None
        assert det.prediction.quarantined == {}
        assert all(v == 0 for v in det.prediction.model_failures.values())

    def test_cooldown_blocks_back_to_back_retrains(self, bundle):
        det, mgr = make_manager(
            bundle,
            label_fn=lambda r: np.zeros(r.shape[0], dtype=np.int64),
            panel=constant_panel(0),
            cooldown_checks=2,
        )
        mgr.on_slice(ref_window())
        assert mgr.on_slice(shifted_window(0.5, t0=10**9)) is not None
        assert mgr.retrains == 1
        # next alarm is still within the cooldown: observed, not acted on
        assert mgr.on_slice(shifted_window(0.5, seed=2, t0=2 * 10**9)) is None
        assert kinds(mgr)[-1] == "drift_alarm"
        assert mgr.retrains == 1
        # cooldown has drained: the following alarm retrains epoch 2
        cmd = mgr.on_slice(shifted_window(0.5, seed=3, t0=3 * 10**9))
        assert cmd is not None and cmd.epoch == 2
        assert mgr.retrains == 2

    def test_forced_swap_fires_on_stable_traffic(self, bundle):
        det, mgr = make_manager(
            bundle,
            label_fn=lambda r: np.zeros(r.shape[0], dtype=np.int64),
            panel=constant_panel(0),
            force_swap_at_check=2,
        )
        mgr.on_slice(ref_window(seed=0))
        cmd = mgr.on_slice(ref_window(seed=7, t0=10**9))  # no real drift
        assert isinstance(cmd, SwapCommand) and cmd.epoch == 1
        alarm = [e for e in mgr.events if e.kind == "drift_alarm"][-1]
        assert alarm.detail["forced"] is True

    def test_swap_panel_requires_increasing_epoch(self, bundle):
        det, _ = make_manager(bundle)
        with pytest.raises(ValueError, match="epoch must increase"):
            det.prediction.swap_panel(
                det.bundle.scaler, det.bundle.models, 0, "x",
            )


# ---------------------------------------------------------------------------
# checkpoint/restore
# ---------------------------------------------------------------------------
class TestSnapshotRestore:
    # the restore contract: configuration is not part of the snapshot,
    # the restored manager is constructed with the same recipe
    RECIPE = dict(
        label_fn=lambda r: np.zeros(r.shape[0], dtype=np.int64),
        panel=constant_panel(0),
    )

    def _swapped(self, bundle):
        det, mgr = make_manager(bundle, **self.RECIPE)
        mgr.on_slice(ref_window())
        cmd = mgr.on_slice(shifted_window(0.5, t0=10**9))
        assert cmd is not None
        return det, mgr, cmd

    def test_roundtrip_reinstalls_serving_panel(self, bundle):
        det, mgr, cmd = self._swapped(bundle)
        mgr_snap = mgr.state_snapshot()
        pred_snap = det.prediction.state_snapshot()

        det2, mgr2 = make_manager(bundle, **self.RECIPE)
        det2.prediction.state_restore(pred_snap)  # names epoch 1, no models
        mgr2.state_restore(mgr_snap)
        assert mgr2.epoch == 1
        assert list(det2.prediction.models) == ["const"]  # reinstalled
        assert det2.prediction.panel_hash == cmd.panel_hash
        assert mgr2.events == mgr.events
        # restored drift reference scores bit-identically
        probe = self._probe_matrix(mgr)
        assert mgr2.monitor.score(probe) == mgr.monitor.score(probe)
        # and the restored manager keeps running: same next decision
        follow = shifted_window(0.5, seed=9, t0=2 * 10**9)
        cmd_a = mgr.on_slice(follow)
        cmd_b = mgr2.on_slice(follow)
        assert (cmd_a is None) == (cmd_b is None)
        if cmd_a is not None:
            assert cmd_a.panel_hash == cmd_b.panel_hash

    @staticmethod
    def _probe_matrix(mgr):
        probe = shifted_window(0.3, seed=11, t0=5 * 10**9)
        return np.column_stack([
            np.asarray(probe[f], dtype=np.float64) for f in mgr.drift_fields
        ])

    def test_restore_missing_archive_blob_is_loud(self, bundle):
        det, mgr, _ = self._swapped(bundle)
        snap = mgr.state_snapshot()
        snap["panels"] = {}  # archive lost
        pred_snap = det.prediction.state_snapshot()
        det2, mgr2 = make_manager(bundle, **self.RECIPE)
        det2.prediction.state_restore(pred_snap)
        with pytest.raises(CheckpointError, match="no .*archived blob"):
            mgr2.state_restore(snap)

    def test_restore_hash_mismatch_is_loud(self, bundle):
        det, mgr, _ = self._swapped(bundle)
        snap = mgr.state_snapshot()
        pred_snap = det.prediction.state_snapshot()
        pred_snap["panel_hash"] = "0" * 64  # wrong generation claimed
        det2, mgr2 = make_manager(bundle, **self.RECIPE)
        det2.prediction.state_restore(pred_snap)
        with pytest.raises(CheckpointError, match="hash"):
            mgr2.state_restore(snap)

    def test_detector_checkpoint_carries_lifecycle(self, bundle):
        # snapshot_detector/restore_detector duck-type det.lifecycle
        from repro.core.checkpoint import restore_detector, snapshot_detector

        det, mgr, cmd = self._swapped(bundle)
        blob = snapshot_detector(det, cycles_done=2, last_seq=0)
        det2, mgr2 = make_manager(bundle, **self.RECIPE)
        restore_detector(det2, blob)
        assert mgr2.epoch == 1
        assert det2.prediction.panel_epoch == 1
        assert list(det2.prediction.models) == ["const"]
        assert mgr2.events == mgr.events


# ---------------------------------------------------------------------------
# satellite: reinstate symmetry + HEALTHY transition
# ---------------------------------------------------------------------------
class TestReinstate:
    def test_unknown_name_raises_keyerror(self, bundle):
        det, _ = make_manager(bundle)
        with pytest.raises(KeyError, match="no_such_model"):
            det.prediction.reinstate("no_such_model")

    def test_reinstate_fires_healthy_transition(self, bundle):
        det = AutomatedDDoSDetector(bundle)
        det.prediction.quarantine("rf", "operator test")
        assert alerts_for(det, "prediction")[-1].state is ModuleHealth.DEGRADED
        det.prediction.reinstate("rf")
        alert = alerts_for(det, "prediction")[-1]
        assert alert.state is ModuleHealth.HEALTHY
        assert "full panel restored" in alert.reason
        assert det.prediction.model_failures["rf"] == 0

    def test_partial_reinstate_stays_degraded(self, bundle):
        det = AutomatedDDoSDetector(bundle)
        det.prediction.quarantine("rf", "a")
        det.prediction.quarantine("gnb", "b")
        det.prediction.reinstate("rf")
        alert = alerts_for(det, "prediction")[-1]
        assert alert.state is ModuleHealth.DEGRADED
        assert "still quarantined" in alert.reason

    def test_reinstate_not_quarantined_is_silent_noop(self, bundle):
        det = AutomatedDDoSDetector(bundle)
        n = len(alerts_for(det, "prediction"))
        det.prediction.reinstate("rf")  # never quarantined
        assert len(alerts_for(det, "prediction")) == n


# ---------------------------------------------------------------------------
# mechanism integration
# ---------------------------------------------------------------------------
class TestMechanism:
    def test_default_detector_runs_with_lifecycle(self, bundle):
        """Every in-process replay cuts CYCLE slices, so a
        default-constructed detector takes a lifecycle manager."""
        det, mgr = make_manager(bundle)
        records = ref_window()
        db = det.run_stream(records, poll_every=37)
        assert len(db.predictions) == records.shape[0]
        assert mgr.checks_done == records.shape[0] // 37

    def test_stats_surface_lifecycle(self, bundle):
        det, mgr = make_manager(
            bundle,
            label_fn=lambda r: np.zeros(r.shape[0], dtype=np.int64),
            panel=constant_panel(0),
        )
        mgr.on_slice(ref_window())
        mgr.on_slice(shifted_window(0.5, t0=10**9))
        stats = det.stats()
        assert stats["panel_epoch"] == 1
        life = stats["lifecycle"]
        assert life["epoch"] == 1 and life["swaps"] == 1
        assert [e["kind"] for e in life["events"]][-1] == "swap"
