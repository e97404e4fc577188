"""Integration tests: the assembled automated detection mechanism."""

import numpy as np
import pytest

from repro.core import (
    AutomatedDDoSDetector,
    LatencyTracker,
    PredictionModule,
    TrainedBundle,
    pretrain,
    score_by_type,
)
from repro.features import feature_names
from repro.int_telemetry import REPORT_DTYPE
from repro.ml import GaussianNB, RandomForestClassifier, StandardScaler
from repro.traffic.trace import AttackType

NAMES = feature_names("int")


def synthetic_records(n_flows=30, pkts_per_flow=6, attack=False, t0=0):
    """REPORT_DTYPE records: benign = large slow packets, attack = tiny
    fast ones — trivially separable so tests focus on plumbing."""
    rows = []
    t = t0
    for f in range(n_flows):
        sport = 1000 + f
        for p in range(pkts_per_flow):
            t += 50_000 if attack else 2_000_000
            length = 64 if attack else 1200
            src = 0x01000000 + f if attack else 0xAC100000 + f
            rows.append((t, src, 0x0A0A0050, sport, 80, 6, 2, length,
                         t % 2**32, t % 2**32, 0, 500, 3))
    rec = np.zeros(len(rows), dtype=REPORT_DTYPE)
    for i, row in enumerate(rows):
        rec[i] = row
    return rec


@pytest.fixture(scope="module")
def bundle():
    ben = synthetic_records(attack=False)
    atk = synthetic_records(attack=True, t0=10**9)
    from repro.features import extract_features
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


class TestPredictionModule:
    def test_votes_shape(self, bundle):
        pm = PredictionModule(bundle.scaler, bundle.models, bundle.feature_names)
        votes = pm.predict_batch(np.zeros((1, len(NAMES))))
        assert votes.shape == (1, 2)
        assert votes.dtype == np.int64
        assert set(votes.ravel().tolist()) <= {0, 1}

    def test_batch_matches_single(self, bundle):
        pm = PredictionModule(bundle.scaler, bundle.models, bundle.feature_names)
        rng = np.random.default_rng(0)
        X = rng.normal(500, 100, size=(5, len(NAMES)))
        batch = pm.predict_batch(X)
        singles = np.vstack([pm.predict_batch(X[i : i + 1]) for i in range(len(X))])
        assert np.array_equal(batch, singles)
        assert pm.predictions_served == 2 * len(X)

    def test_schema_mismatch_rejected(self, bundle):
        with pytest.raises(ValueError):
            PredictionModule(bundle.scaler, bundle.models, ["just_one"])

    def test_empty_panel_rejected(self, bundle):
        with pytest.raises(ValueError):
            PredictionModule(bundle.scaler, {}, bundle.feature_names)


class TestBundlePersistence:
    def test_save_load_roundtrip(self, bundle, tmp_path):
        path = tmp_path / "bundle.pkl"
        bundle.save(path)
        loaded = TrainedBundle.load(path)
        assert loaded.feature_names == bundle.feature_names
        rng = np.random.default_rng(1)
        X = rng.normal(500, 100, size=(8, len(NAMES)))
        a = PredictionModule(bundle.scaler, bundle.models, bundle.feature_names)
        b = PredictionModule(loaded.scaler, loaded.models, loaded.feature_names)
        assert np.array_equal(a.predict_batch(X), b.predict_batch(X))


class TestDetectorStream:
    def test_every_update_predicted(self, bundle):
        det = AutomatedDDoSDetector(bundle)
        records = synthetic_records(n_flows=10, pkts_per_flow=4)
        db = det.run_stream(records, poll_every=8, cycle_budget=16)
        assert len(db.predictions) == len(records)

    def test_benign_stream_classified_benign(self, bundle):
        det = AutomatedDDoSDetector(bundle)
        db = det.run_stream(synthetic_records(n_flows=10, pkts_per_flow=6))
        decisions = [e.final_decision for e in db.predictions
                     if e.final_decision is not None]
        assert np.mean(decisions) < 0.1

    def test_attack_stream_classified_attack(self, bundle):
        det = AutomatedDDoSDetector(bundle)
        db = det.run_stream(
            synthetic_records(n_flows=10, pkts_per_flow=6, attack=True)
        )
        decisions = [e.final_decision for e in db.predictions
                     if e.final_decision is not None]
        assert np.mean(decisions) > 0.9

    def test_strict_window_defers_decisions(self, bundle):
        det = AutomatedDDoSDetector(bundle, emit_partial=False)
        records = synthetic_records(n_flows=5, pkts_per_flow=2)
        db = det.run_stream(records)
        # every flow has 2 updates < window 3 → no final decisions
        assert all(e.final_decision is None for e in db.predictions)

    def test_latencies_positive(self, bundle):
        det = AutomatedDDoSDetector(bundle)
        db = det.run_stream(synthetic_records(n_flows=5, pkts_per_flow=3))
        assert all(lat >= 0 for lat in db.latencies_ns())

    def test_skip_new_flows_defers_until_second_packet(self, bundle):
        """Creation updates are withheld while a flow is new, then
        released once the second packet arrives — so multi-packet flows
        still see every update predicted, but one-packet flows never do."""
        det = AutomatedDDoSDetector(bundle, skip_new_flows=True)
        records = synthetic_records(n_flows=4, pkts_per_flow=3)
        db = det.run_stream(records)
        assert len(db.predictions) == 4 * 3

        det1 = AutomatedDDoSDetector(bundle, skip_new_flows=True)
        singles = synthetic_records(n_flows=4, pkts_per_flow=1)
        db1 = det1.run_stream(singles)
        assert len(db1.predictions) == 0  # one-packet flows never predicted

    def test_invalid_stream_params(self, bundle):
        det = AutomatedDDoSDetector(bundle)
        with pytest.raises(ValueError):
            det.run_stream(synthetic_records(), poll_every=0)

    def test_unknown_source_rejected(self, bundle):
        with pytest.raises(ValueError):
            AutomatedDDoSDetector(bundle, source="netflow")


class TestScoring:
    def test_score_by_type(self, bundle):
        det = AutomatedDDoSDetector(bundle)
        records = synthetic_records(n_flows=6, pkts_per_flow=4, attack=True)
        db = det.run_stream(records)
        rows = score_by_type(
            db, lambda key: (1, int(AttackType.SYN_FLOOD))
        )
        assert "SYN Flood" in rows
        row = rows["SYN Flood"]
        assert row["predicted"] == row["misclassified"] + round(
            row["accuracy"] * row["predicted"]
        )
        assert row["avg_time_s"] >= 0


class TestLatencyTracker:
    def test_summary(self):
        lt = LatencyTracker()
        for v in (10, 20, 30):
            lt.record("Benign", v * 10**6)
        s = lt.summary("Benign")
        assert s["count"] == 3
        assert s["avg_s"] == pytest.approx(0.02)
        assert s["max_s"] == pytest.approx(0.03)

    def test_percentile_max(self):
        lt = LatencyTracker()
        for v in range(1, 101):
            lt.record("Benign", v * 10**6)
        s = lt.summary("Benign", percentile_max=50.0)
        assert s["max_s"] == pytest.approx(0.0505, rel=0.05)

    def test_missing_category(self):
        with pytest.raises(KeyError):
            LatencyTracker().summary("nope")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyTracker().record("x", -1)
