"""Tests for the mitigation package: rules, enforcement, and the one
detect→mitigate driver's path into the switch ACLs —
``MitigationController(config, tables=[acl, ...])`` → ``AclTable.install``.
"""

import pytest

from repro.controlplane import AlertManager, EpisodeBridge
from repro.core.database import PredictionEntry
from repro.dataplane import Packet, int_path_topology
from repro.mitigation import (
    AclTable,
    FlowRule,
    MitigationConfig,
    MitigationController,
    RuleAction,
    ThresholdRule,
    attach_acl,
)

from .test_mitigation_controller import (
    SEC,
    SERVER,
    StubDetector,
    entry,
    feed_flow,
    flow_key,
    store,
)

#: canonical key of one attacker→SERVER:80 flow (service = lower-port side)
KEY = flow_key(1)
ATTACKER = KEY[1]


def pkt(src=0x01020304, dst=0x0A0A0050, sport=1234, dport=80, proto=6):
    return Packet(src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
                  protocol=proto, length=64)


class TestFlowRule:
    def test_exact_match(self):
        r = FlowRule(src_ip=0x01020304, dst_ip=0x0A0A0050, src_port=1234,
                     dst_port=80, protocol=6)
        assert r.matches(pkt())
        assert not r.matches(pkt(sport=9999))

    def test_wildcards(self):
        r = FlowRule(dst_port=80)
        assert r.matches(pkt())
        assert r.matches(pkt(src=7, sport=5))
        assert not r.matches(pkt(dport=443))

    def test_prefix_match(self):
        r = FlowRule(src_ip=0x01000000, src_prefix_len=8)
        assert r.matches(pkt(src=0x01FFFFFF))
        assert not r.matches(pkt(src=0x02000000))

    def test_zero_prefix_matches_everything(self):
        r = FlowRule(src_ip=0, src_prefix_len=0)
        assert r.matches(pkt(src=0xDEADBEEF))

    def test_expiry(self):
        r = FlowRule(dst_port=80, expires_ns=1000)
        assert not r.expired(999)
        assert r.expired(1000)
        assert not FlowRule(dst_port=80).expired(10**18)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FlowRule(src_prefix_len=33)
        with pytest.raises(ValueError):
            FlowRule(action=RuleAction.RATE_LIMIT, rate_pps=0)


class TestAclTable:
    def test_drop(self):
        acl = AclTable()
        acl.install(FlowRule(dst_port=80))
        assert acl.check(pkt(), now_ns=0) is False
        assert acl.check(pkt(dport=443), now_ns=0) is True
        assert acl.dropped == 1 and acl.passed == 1

    def test_expired_rule_pruned(self):
        acl = AclTable()
        acl.install(FlowRule(dst_port=80, expires_ns=1000))
        assert acl.check(pkt(), now_ns=500) is False
        assert acl.check(pkt(), now_ns=2000) is True
        assert len(acl.rules) == 0

    def test_rate_limit_sheds_sustained_rate(self):
        acl = AclTable(burst=5)
        acl.install(FlowRule(dst_port=80, action=RuleAction.RATE_LIMIT,
                             rate_pps=10))
        # 100 packets in 1 ms: only the burst passes
        allowed = sum(acl.check(pkt(), now_ns=i * 10_000) for i in range(100))
        assert allowed <= 6

    def test_rate_limit_allows_conforming_rate(self):
        acl = AclTable(burst=5)
        acl.install(FlowRule(dst_port=80, action=RuleAction.RATE_LIMIT,
                             rate_pps=10))
        # 5 packets/second for 3 seconds — under the limit
        allowed = sum(
            acl.check(pkt(), now_ns=i * 200_000_000) for i in range(15)
        )
        assert allowed == 15

    def test_first_match_wins(self):
        acl = AclTable()
        acl.install(FlowRule(dst_port=80, action=RuleAction.RATE_LIMIT,
                             rate_pps=1000))
        acl.install(FlowRule(dst_port=80))  # drop, but second
        assert acl.check(pkt(), now_ns=0) is True

    def test_invalid_burst(self):
        with pytest.raises(ValueError):
            AclTable(burst=0)


class TestAttachAcl:
    def test_acl_runs_before_other_hooks(self):
        topo = int_path_topology()
        sw = topo.switches["source_sw"]
        seen = []
        sw.add_ingress_hook(lambda s, p, port: (seen.append(p), True)[1])
        acl = attach_acl(sw)
        acl.install(FlowRule(dst_port=80))
        blocked = pkt(dst=topo.hosts["server"].ip)
        sw.receive(blocked, 1)
        topo.run()
        assert seen == []  # dropped before the later hook saw it
        assert sw.dropped_acl == 1
        assert topo.hosts["server"].received == 0


def rule(name="hot", **kw):
    kw.setdefault("ttl_ns", 30 * SEC)
    return ThresholdRule(name=name, pps_above=100.0, **kw)


def loop(*tables, rules=(rule(),), **config):
    """A controller wired to ``tables`` and a stub detector."""
    det = StubDetector()
    ctrl = MitigationController(
        MitigationConfig(rules=rules, **config), tables=tables
    ).attach_to(det)
    return det, ctrl


def flag(det, key=KEY, ts=0, seq=0, decision=1):
    """Store one decision for a 1000 pps flow."""
    feed_flow(det, key, 4, 1000.0)
    store(det, entry(key, ts, seq, decision))


def flood(det, n=8):
    """``n`` flagged flows from distinct sources toward SERVER:80."""
    for i in range(n):
        flag(det, flow_key(i), ts=i * 1000, seq=i)


class TestRuleGenerator:
    """Block target → FlowRule synthesis (class names here and below are
    the pre-controller ones, kept so the test ids stay stable)."""

    def test_flow_rule_is_exact(self):
        acl = AclTable()
        det, ctrl = loop(acl)
        flag(det, ts=100)
        ctrl.on_cycle()
        (r,) = acl.rules
        assert (r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.protocol) == KEY
        assert r.action is RuleAction.DROP
        assert r.expires_ns == 100 + 30 * SEC

    def test_flood_rule_rate_limits(self):
        acl = AclTable()
        det, ctrl = loop(acl, rules=(), episode_rate_pps=50.0)
        EpisodeBridge(ctrl, alerts=AlertManager(server_ips={SERVER}))
        flood(det)
        ctrl.finish_run(det.db)
        (r,) = acl.rules
        assert r.action is RuleAction.RATE_LIMIT
        assert r.rate_pps == 50
        assert (r.dst_ip, r.dst_port, r.protocol) == (SERVER, 80, 6)
        assert r.src_ip is None and r.src_port is None

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            rule(ttl_ns=0)
        with pytest.raises(ValueError):
            rule(action="rate_limit", rate_pps=0.0)
        _, ctrl = loop()
        out = ctrl.command({"op": "set_config", "config": {
            "rules": [{"name": "bad", "pps_above": 1.0, "ttl_ns": -5}]}})
        assert not out["ok"] and "ttl_ns" in out["error"]
        assert [r.name for r in ctrl.config.rules] == ["hot"]


class TestMitigationEngine:
    """Detector decisions → installed ACL rules."""

    def test_per_flow_rule_on_flag(self):
        acl = AclTable()
        det, ctrl = loop(acl)
        flag(det)
        ctrl.on_cycle()
        assert [a.verdict for a in ctrl.action_log] == ["installed"]
        assert acl.installed == 1

    def test_benign_decisions_ignored(self):
        acl = AclTable()
        det, ctrl = loop(acl)
        flag(det, decision=0)
        store(det, PredictionEntry(KEY, 0, 0, 1, 1, (1,), None))
        ctrl.on_cycle()
        assert ctrl.action_log == [] and acl.installed == 0

    def test_host_escalation(self):
        acl = AclTable()
        det, ctrl = loop(acl, rules=(rule("host", scope="source"),))
        for port in range(3):
            flag(det, (SERVER, 7, 80, 1000 + port, 6), port, port)
        ctrl.on_cycle()
        r = acl.rules[0]
        assert (r.src_ip, r.src_prefix_len, r.dst_ip) == (7, 32, None)
        assert r.action is RuleAction.DROP
        # further flows of the host refresh the one block, never duplicate it
        assert ctrl.stats()["active_blocks"] == 1
        assert ctrl.counters["rules_installed"] == 1
        assert ctrl.counters["rules_refreshed"] == 2

    def test_flood_escalation(self):
        acl = AclTable()
        det, ctrl = loop(acl)
        EpisodeBridge(ctrl, alerts=AlertManager(server_ips={SERVER}))
        flood(det, n=25)
        ctrl.finish_run(det.db)
        # 25 per-flow drops, and the service is escalated exactly once
        limits = [r for r in acl.rules if r.action is RuleAction.RATE_LIMIT]
        assert acl.installed == 26 and len(limits) == 1
        assert limits[0].dst_port == 80
        assert ctrl.counters["episode_escalations"] == 1

    def test_rules_fan_out_to_all_tables(self):
        a, b = AclTable(), AclTable()
        det, ctrl = loop(a, b)
        flag(det)
        ctrl.on_cycle()
        assert a.installed == b.installed == 1
        assert a.rules == b.rules

    def test_whitelisted_attacker_logged_not_installed(self):
        acl = AclTable()
        det, ctrl = loop(acl, whitelist=((ATTACKER, 32),))
        flag(det)
        ctrl.on_cycle()
        assert [a.verdict for a in ctrl.action_log] == ["whitelisted"]
        assert acl.installed == 0 and ctrl.blocks.entries == {}
