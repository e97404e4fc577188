"""Tests for episode-level alerting (control-plane integration)."""

import pytest

from repro.controlplane import Alert, AlertManager, AlertSeverity, LogSink
from repro.core.database import PredictionEntry, PredictionLog

from .test_core_database import rows_of

SEC = 1_000_000_000
SERVER = 0x0A0A0050


def entry(key, ts, decision=1):
    return PredictionEntry(key=key, ts_registered_ns=ts, wall_registered_ns=0,
                           wall_predicted_ns=1, label=decision,
                           votes=(decision,), final_decision=decision)


def flow_key(i, server=SERVER, port=80):
    # canonical ordering: low (ip, port) endpoint first
    attacker = 0xC0000000 + i
    if (server, port) <= (attacker, 40000 + i):
        return (server, attacker, port, 40000 + i, 6)
    return (attacker, server, 40000 + i, port, 6)


class TestAlertLifecycle:
    def make(self, **kw):
        sink = LogSink()
        mgr = AlertManager(server_ips={SERVER}, open_threshold=3,
                           window_ns=SEC, quiet_ns=2 * SEC, sinks=[sink], **kw)
        return mgr, sink

    def test_opens_after_threshold(self):
        mgr, sink = self.make()
        assert mgr.on_decision(entry(flow_key(1), 0)) is None
        assert mgr.on_decision(entry(flow_key(2), 100)) is None
        alert = mgr.on_decision(entry(flow_key(3), 200))
        assert alert is not None and alert.is_open
        assert alert.service == (SERVER, 80, 6)
        assert [e for e, _ in sink.events] == ["open"]

    def test_window_forgetting(self):
        mgr, _ = self.make()
        mgr.on_decision(entry(flow_key(1), 0))
        mgr.on_decision(entry(flow_key(2), 100))
        # third flow arrives after the window: first two expired
        assert mgr.on_decision(entry(flow_key(3), 3 * SEC)) is None

    def test_updates_accumulate_flows(self):
        mgr, sink = self.make()
        for i in range(12):
            mgr.on_decision(entry(flow_key(i), i * 1000))
        (alert,) = mgr.open_alerts
        assert alert.n_flows == 12
        assert alert.severity == AlertSeverity.MEDIUM
        assert ("update", alert) in sink.events  # severity LOW -> MEDIUM

    def test_closes_after_quiet(self):
        mgr, sink = self.make()
        for i in range(3):
            mgr.on_decision(entry(flow_key(i), i * 1000))
        closed = mgr.expire(now_ns=10 * SEC)
        assert len(closed) == 1
        assert not closed[0].is_open
        assert closed[0].closed_ns == closed[0].last_evidence_ns
        assert [e for e, _ in sink.events] == ["open", "close"]

    def test_duration_measures_episode(self):
        mgr, _ = self.make()
        mgr.on_decision(entry(flow_key(0), 0))
        mgr.on_decision(entry(flow_key(1), 0))
        mgr.on_decision(entry(flow_key(2), 0))
        mgr.on_decision(entry(flow_key(3), int(0.5 * SEC)))
        mgr.expire(10 * SEC)
        assert mgr.alerts[0].duration_ns == int(0.5 * SEC)

    def test_benign_decisions_ignored(self):
        mgr, _ = self.make()
        for i in range(10):
            assert mgr.on_decision(entry(flow_key(i), i, decision=0)) is None
        assert mgr.open_alerts == []

    def test_distinct_services_distinct_alerts(self):
        mgr, _ = self.make()
        for i in range(3):
            mgr.on_decision(entry(flow_key(i, port=80), i))
        for i in range(3):
            mgr.on_decision(entry(flow_key(i + 50, port=443), i + 10))
        assert len(mgr.open_alerts) == 2
        services = {a.service for a in mgr.open_alerts}
        assert (SERVER, 80, 6) in services and (SERVER, 443, 6) in services

    def test_close_all(self):
        mgr, _ = self.make()
        for i in range(3):
            mgr.on_decision(entry(flow_key(i), i))
        mgr.close_all(now_ns=5 * SEC)
        assert mgr.open_alerts == []
        assert mgr.alerts[0].closed_ns == 5 * SEC

    def test_service_orientation_without_server_hint(self):
        mgr = AlertManager(open_threshold=1)
        alert = mgr.on_decision(entry(flow_key(1), 0))
        assert alert.service[1] == 80  # lower port = service side

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AlertManager(open_threshold=0)
        with pytest.raises(ValueError):
            AlertManager(window_ns=0)


class TestDetectorIntegration:
    def test_attach_to_detector_stream(self):
        import numpy as np
        from repro.core import AutomatedDDoSDetector, pretrain
        from repro.features import extract_features, feature_names
        from repro.int_telemetry import REPORT_DTYPE
        from repro.ml import GaussianNB, RandomForestClassifier

        # trivially separable data: attack = tiny fast packets
        def records(attack, t0=0, n_flows=8, pkts=4):
            rows = []
            t = t0
            for f in range(n_flows):
                for p in range(pkts):
                    t += 30_000 if attack else 2_000_000
                    src = 0x01000000 + f if attack else 0xAC100000 + f
                    rows.append((t, src, SERVER, 1000 + f, 80, 6, 2,
                                 60 if attack else 1200,
                                 t % 2**32, t % 2**32, 0, 500, 3))
            rec = np.zeros(len(rows), dtype=REPORT_DTYPE)
            for i, r in enumerate(rows):
                rec[i] = r
            return rec

        ben, atk = records(False), records(True, t0=10**9)
        both = np.concatenate([ben, atk])
        fm = extract_features(both, source="int")
        y = np.array([0] * len(ben) + [1] * len(atk))
        bundle = pretrain(fm.X, y, fm.names, panel={
            "rf": lambda: RandomForestClassifier(n_estimators=5, max_depth=6, seed=0),
            "gnb": lambda: GaussianNB(),
        })
        det = AutomatedDDoSDetector(bundle)
        sink = LogSink()
        mgr = AlertManager(server_ips={SERVER}, open_threshold=3,
                           window_ns=10 * SEC, quiet_ns=10 * SEC, sinks=[sink])
        mgr.attach_to(det)
        det.run_stream(records(True, t0=50 * SEC))
        mgr.close_all(100 * SEC)
        assert len(mgr.alerts) == 1
        assert mgr.alerts[0].service == (SERVER, 80, 6)
        assert mgr.alerts[0].n_flows >= 3


class TestSweepAlerts:
    def test_port_sweep_opens_host_alert(self):
        mgr = AlertManager(server_ips={SERVER}, open_threshold=3,
                           window_ns=SEC, quiet_ns=2 * SEC, sweep_threshold=10)
        # one flagged flow per distinct destination port — a scan
        for port in range(1, 15):
            key = (SERVER, 0xC0000001, port, 41000 + port, 6)
            mgr.on_decision(entry(key, port * 1000))
        sweeps = [a for a in mgr.alerts if a.service[1] == 0]
        assert len(sweeps) == 1
        assert sweeps[0].n_flows >= 10
        assert sweeps[0].service == (SERVER, 0, 6)

    def test_sweep_below_threshold_silent(self):
        mgr = AlertManager(server_ips={SERVER}, sweep_threshold=50)
        for port in range(1, 10):
            key = (SERVER, 0xC0000001, port, 41000 + port, 6)
            mgr.on_decision(entry(key, port))
        assert mgr.alerts == []

    def test_sweep_alert_absorbs_further_probes(self):
        mgr = AlertManager(server_ips={SERVER}, sweep_threshold=5)
        for port in range(1, 30):
            key = (SERVER, 0xC0000001, port, 41000 + port, 6)
            mgr.on_decision(entry(key, port * 1000))
        sweeps = [a for a in mgr.alerts if a.service[1] == 0]
        assert len(sweeps) == 1  # one sweep alert, not many
        assert sweeps[0].n_flows >= 25

    def test_invalid_sweep_threshold(self):
        with pytest.raises(ValueError):
            AlertManager(sweep_threshold=1)


class TestEpisodeBridge:
    """Episode → action bridge: alerts escalate into the controller."""

    def make(self, min_severity=1, **alert_kw):
        from repro.controlplane import EpisodeBridge
        from repro.mitigation import MitigationController

        ctrl = MitigationController()
        kw = dict(server_ips={SERVER}, open_threshold=3,
                  window_ns=SEC, quiet_ns=2 * SEC)
        kw.update(alert_kw)
        bridge = EpisodeBridge(
            ctrl, alerts=AlertManager(**kw), min_severity=min_severity
        )
        return ctrl, bridge

    def test_flood_escalates_to_service_rate_limit_once(self):
        ctrl, bridge = self.make()
        bridge.consume([entry(flow_key(i), i * 1000) for i in range(8)])
        episode = [a for a in ctrl.action_log if a.tier == "episode"]
        assert len(episode) == 1
        (a,) = episode
        assert a.rule == "episode-service-limit"
        assert a.action == "rate_limit" and a.scope == "service"
        assert a.target == ("service", SERVER, 80, 6)
        assert ctrl.counters["episode_escalations"] == 1
        assert bridge.stats()["services_escalated"] == 1

    def test_port_sweep_escalates_to_source_block(self):
        ctrl, bridge = self.make(sweep_threshold=5)
        attacker = 0xC0000001
        bridge.consume([
            entry((SERVER, attacker, port, 41000 + port, 6), port * 1000)
            for port in range(1, 10)
        ])
        sweeps = [
            a for a in ctrl.action_log if a.rule == "episode-sweep-block"
        ]
        assert len(sweeps) == 1
        assert sweeps[0].action == "block" and sweeps[0].scope == "source"
        assert sweeps[0].target == ("source", attacker)

    def test_min_severity_gates_escalation(self):
        ctrl, bridge = self.make(min_severity=int(AlertSeverity.MEDIUM))
        # 3 distinct flows opens the alert at LOW: tracked, not enforced
        bridge.consume([entry(flow_key(i), i * 1000) for i in range(3)])
        assert bridge.stats()["alerts_total"] == 1
        assert bridge.stats()["services_escalated"] == 0
        # the flow ladder reaches MEDIUM -> now it escalates (once)
        bridge.consume([entry(flow_key(i), i * 1000) for i in range(3, 15)])
        assert bridge.stats()["services_escalated"] == 1
        assert ctrl.counters["episode_escalations"] == 1

    def test_benign_stream_never_escalates(self):
        ctrl, bridge = self.make()
        bridge.consume(
            [entry(flow_key(i), i * 1000, decision=0) for i in range(20)]
        )
        assert ctrl.action_log == []
        assert bridge.stats()["alerts_total"] == 0

    def test_close_episodes_flushes_open_alerts(self):
        _, bridge = self.make()
        bridge.consume([entry(flow_key(i), i * 1000) for i in range(4)])
        assert bridge.stats()["alerts_open"] == 1
        bridge.close_episodes(10 * SEC)
        assert bridge.stats()["alerts_open"] == 0
        assert bridge.open_alerts == []

    def test_attach_inline_escalates_at_store_time(self):
        ctrl, bridge = self.make()

        class _DB:
            def __init__(self):
                self.predictions = PredictionLog()

            def store_predictions(self, block):
                self.predictions.extend(block)

        class _Det:
            def __init__(self):
                self.db = _DB()

        det = _Det()
        assert bridge.attach_inline(det) is bridge
        for i in range(5):
            det.db.store_predictions(rows_of([entry(flow_key(i), i * 1000)]))
        assert bridge.stats()["inline"] is True
        assert ctrl.counters["episode_escalations"] == 1
        assert len(det.db.predictions) == 5  # stores still land


class TestHTTPAPI:
    """The thin stdlib HTTP transport over the command API."""

    @pytest.fixture()
    def api(self):
        from repro.controlplane import MitigationHTTPServer
        from repro.mitigation import MitigationController

        ctrl = MitigationController()
        server = MitigationHTTPServer(ctrl, port=0).start()
        try:
            yield ctrl, server
        finally:
            server.close()

    @staticmethod
    def _call(port, path, payload=None):
        import json
        import urllib.error
        import urllib.request

        url = f"http://127.0.0.1:{port}{path}"
        data = None if payload is None else json.dumps(payload).encode()
        req = urllib.request.Request(
            url, data=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=5) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_get_routes_map_to_command_ops(self, api):
        ctrl, server = api
        for path in ("/stats", "/config", "/blocked", "/activity"):
            status, body = self._call(server.port, path)
            assert status == 200 and body["ok"] is True, path
        _, stats = self._call(server.port, "/stats")
        assert stats["result"] == ctrl.command({"op": "stats"})["result"]

    def test_post_command_round_trip(self, api):
        ctrl, server = api
        _, cfg = self._call(server.port, "/config")
        new_cfg = cfg["result"]
        new_cfg["burst"] = 7.0
        status, body = self._call(
            server.port, "/command", {"op": "set_config", "config": new_cfg}
        )
        assert status == 200 and body["ok"] is True
        assert ctrl.config.burst == 7.0
        assert ctrl.counters["config_updates"] == 1

    def test_errors_are_http_errors(self, api):
        _, server = api
        status, body = self._call(server.port, "/nope")
        assert status == 404 and body["ok"] is False
        status, body = self._call(server.port, "/command", {"op": "bogus"})
        assert status == 400 and body["ok"] is False
        assert "bogus" in body["error"]
