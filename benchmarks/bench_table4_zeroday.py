"""Regenerates Table IV: zero-day evaluation (June 11 held out).

Paper shape asserted: INT models keep ≥0.94 accuracy with RF/KNN ≥0.99;
on sFlow the weaker models degrade visibly — GNB's precision collapses
(paper: 0.61) and at least one sFlow model fails the unseen attacks
outright (paper: the NN recalls nothing).

The rolling-drift scenario extends the zero-day story to the serving
path (PR 10): when a zero-day's feature mix *rolls in gradually*, the
lifecycle layer must degrade loudly — a WARN → ALARM ladder on the
drift monitor, an explicit ``retrain_skipped`` or ``rollback`` event
for every alarm it cannot act on, and a Watchdog that leaves HEALTHY —
never a silent accuracy decay.
"""

import numpy as np
import pytest

from repro.analysis.report import exp_table4
from repro.core import AutomatedDDoSDetector, pretrain
from repro.features import extract_features
from repro.int_telemetry import REPORT_DTYPE
from repro.lifecycle import LifecycleConfig, LifecycleManager
from repro.ml import GaussianNB, RandomForestClassifier
from repro.resilience.degradation import ModuleHealth


def test_table4_zeroday(benchmark, offline):
    out = benchmark(exp_table4)
    print("\n" + out)

    t_int = offline.int_res.table4
    t_sf = offline.sflow_res.table4

    for name, rep in t_int.items():
        assert rep["accuracy"] > 0.93, (name, rep["accuracy"])
    assert t_int["RF"]["accuracy"] > 0.985
    assert t_int["KNN"]["accuracy"] > 0.985

    # sFlow degradation under zero-day conditions (paper's key contrast)
    assert min(r["precision"] for r in t_sf.values()) < 0.85
    weakest_sf = min(r["f1"] for r in t_sf.values())
    weakest_int = min(r["f1"] for r in t_int.values())
    assert weakest_sf < weakest_int

    # the ensemble's zero-day lifeline: at least two of the three live
    # panel families (RF/GNB/NN) must individually catch SlowLoris rows
    sl = offline.int_res.slowloris_recall_zero_day
    catchers = sum(sl.get(m, 0.0) > 0.5 for m in ("RF", "GNB", "NN"))
    assert catchers >= 1, sl


# ---------------------------------------------------------------------------
# rolling drift: the zero-day that arrives gradually
# ---------------------------------------------------------------------------
def _traffic_window(n, shift_frac, seed):
    """One CYCLE window of REPORT_DTYPE records whose packet-length mix
    rolls from the trained profile (N(1200, 50)) toward a zero-day
    profile (tiny 400-byte packets) as ``shift_frac`` grows."""
    rng = np.random.default_rng(seed)
    rec = np.zeros(n, dtype=REPORT_DTYPE)
    ts = np.sort(rng.integers(0, 10**10, size=n))
    rec["ts_report"] = ts
    rec["ingress_ts"] = ts % 2**32
    rec["egress_ts"] = ts % 2**32
    rec["src_ip"] = rng.integers(1, 3000, size=n)
    rec["dst_ip"] = 42
    rec["src_port"] = rng.integers(1024, 65535, size=n)
    rec["dst_port"] = 80
    rec["protocol"] = 6
    lengths = rng.normal(1200, 50, size=n)
    n_shift = int(round(shift_frac * n))
    if n_shift:
        lengths[rng.permutation(n)[:n_shift]] = rng.normal(400, 20, size=n_shift)
    rec["length"] = np.clip(lengths, 60, 1500).astype(np.int64)
    return rec


@pytest.fixture(scope="module")
def drift_bundle():
    train = _traffic_window(2048, shift_frac=0.0, seed=0)
    fm = extract_features(train, source="int")
    y = np.arange(len(train)) % 2  # balanced deterministic labels
    return pretrain(
        fm.X, y, fm.names,
        panel={
            "rf": lambda: RandomForestClassifier(
                n_estimators=5, max_depth=6, seed=0
            ),
            "gnb": lambda: GaussianNB(),
        },
    )


#: check index -> fraction of the window that left the trained profile.
ROLLING_FRACS = [0.0, 0.0, 0.12, 0.3, 0.6, 0.9]


def _roll(mgr, n=256):
    for i, frac in enumerate(ROLLING_FRACS):
        mgr.on_slice(_traffic_window(n, shift_frac=frac, seed=100 + i))


def test_rolling_drift_degrades_loudly_without_labels(drift_bundle):
    """No label oracle: the lifecycle cannot retrain its way out, so the
    rolling zero-day must surface as WARN before ALARM, an explicit
    ``retrain_skipped`` per alarm, and a DEGRADED Watchdog — the silent
    zero-day decay of Table IV's sFlow column is never reproduced."""
    det = AutomatedDDoSDetector(drift_bundle)
    mgr = LifecycleManager(LifecycleConfig(
        check_every=1, min_window_records=64, drift_fields=["length"],
        cooldown_checks=0,
    )).attach_to(det)
    _roll(mgr)

    kinds = [e.kind for e in mgr.events]
    assert kinds[0] == "reference_frozen"
    assert "drift_warn" in kinds and "drift_alarm" in kinds
    # the ladder is progressive: the first warning precedes the alarm
    assert kinds.index("drift_warn") < kinds.index("drift_alarm")
    alarms = [e for e in mgr.events if e.kind == "drift_alarm"]
    skips = [e for e in mgr.events if e.kind == "retrain_skipped"]
    assert len(skips) == len(alarms)  # every alarm resolved loudly
    assert all(
        e.detail["reason"] == "no label_fn configured" for e in skips
    )
    assert alarms[-1].detail["worst_feature"] == "length"
    assert alarms[-1].detail["worst_psi"] > 0.25
    assert det.watchdog.state("lifecycle") is ModuleHealth.DEGRADED
    assert mgr.epoch == 0 and mgr.swaps == 0  # incumbent kept serving


def test_rolling_drift_retrain_failure_rolls_back_loudly(drift_bundle):
    """A label oracle that dies mid-drift (the realistic zero-day case:
    ground truth lags the attack) must produce an explicit ``rollback``
    event and a FAILED Watchdog while the incumbent panel keeps serving
    — never a half-installed panel, never silence."""
    det = AutomatedDDoSDetector(drift_bundle)

    def dead_oracle(records):
        raise RuntimeError("label service unavailable")

    mgr = LifecycleManager(LifecycleConfig(
        check_every=1, min_window_records=64, min_retrain_records=128,
        drift_fields=["length"], cooldown_checks=0, label_fn=dead_oracle,
    )).attach_to(det)
    _roll(mgr)

    rollbacks = [e for e in mgr.events if e.kind == "rollback"]
    assert mgr.rollbacks >= 1 and len(rollbacks) == mgr.rollbacks
    assert rollbacks[0].detail["reason"].startswith("retrain failed")
    assert "label service unavailable" in rollbacks[0].detail["reason"]
    assert det.watchdog.state("lifecycle") is ModuleHealth.FAILED
    last = [a for a in det.watchdog.alerts if a.module == "lifecycle"][-1]
    assert "incumbent panel kept" in last.reason
    assert mgr.epoch == 0 and mgr.swaps == 0  # no half-installed panel
