#!/usr/bin/env python
"""Closing the loop: detection → episodes → controller → enforcement.

The paper detects but explicitly does not mitigate (§III fn.2, future
work).  This example runs the full closed loop the paper points toward,
on the fault-tolerant control plane:

1. pre-train the detection panel on a benign + flood + scan replay;
2. start a *live* simulation: a victim web server under benign load,
   then a spoofed SYN flood plus a port scan arrive;
3. the detector flags flows in-stream; a
   :class:`~repro.mitigation.MitigationController` turns flagged flows
   into auto-expiring blocks (flow tier), an
   :class:`~repro.controlplane.EpisodeBridge` aggregates decisions into
   per-service episodes and escalates them once each (sweep → block the
   probing host, flood → rate-limit the victim service), and every
   action lands in the edge switch's ACL;
4. the operator command API inspects and adjusts the running controller;
5. compare attack packets reaching the server with and without the loop.

Run:  python examples/closed_loop_mitigation.py
"""

import json

from repro.controlplane import EpisodeBridge
from repro.core import AutomatedDDoSDetector, pretrain_from_records
from repro.datasets import SERVER_IP, CampaignConfig, monitored_topology
from repro.datasets.amlight import _build_truth_map, label_records
from repro.mitigation import (
    AclTable,
    MitigationConfig,
    MitigationController,
    ThresholdRule,
    attach_acl,
)
from repro.traffic import Replayer, generate_benign, merge_traces, syn_flood, syn_scan
from repro.traffic.benign import BenignConfig

SEC = 1_000_000_000
ATTACKER = 0xCB007107  # the scanning host

#: Operator policy: flow tier blocks hot flagged flows for 30 s; the
#: episode tier (via the bridge) rate-limits a flooded service and
#: blocks sweeping sources outright.
POLICY = MitigationConfig(
    rules=(
        ThresholdRule(name="hot-flow-block", pps_above=50.0, packets_above=3,
                      combine="and", scope="flow", action="block",
                      ttl_ns=30 * SEC),
    ),
    episode_rate_pps=60.0,
    episode_ttl_ns=60 * SEC,
)


def workload(seed):
    benign = generate_benign(
        SERVER_IP, 80, 0, 12 * SEC,
        BenignConfig(sessions_per_s=4, mean_think_ns=3_000_000, rtt_ns=100_000),
        seed=seed,
    )
    flood = syn_flood(SERVER_IP, 80, 3 * SEC, 9 * SEC, rate_pps=2500,
                      seed=seed + 1)
    scan = syn_scan(ATTACKER, SERVER_IP, 4 * SEC, 10 * SEC, rate_pps=400,
                    seed=seed + 2)
    return merge_traces([benign, flood, scan])


def run(mitigate: bool):
    cfg = CampaignConfig.tiny()
    topo, int_col, _sflow, _agent = monitored_topology(cfg)
    edge = topo.switches["edge_client"]
    server = topo.hosts["webserver"]

    # ACL first, then telemetry (attach order matters: blocked packets
    # should not keep feeding the detector)
    acl = attach_acl(edge) if mitigate else AclTable()

    detector = AutomatedDDoSDetector(BUNDLE, fast_poll=True)
    detector.attach_live(int_col)
    controller = bridge = None
    if mitigate:
        controller = MitigationController(POLICY, tables=[acl])
        controller.attach_to(detector)
        bridge = EpisodeBridge(controller).attach_inline(detector)

    replayer = Replayer(
        topo,
        {"fwd": (edge, 1), "rev": (topo.switches["edge_server"], 2)},
        classify=lambda row: "fwd" if row["dst_ip"] == SERVER_IP else "rev",
    )
    replayer.schedule(workload(seed=31))
    # interleave simulation slices with CentralServer cycles — the live
    # cooperative loop of Fig 2
    peeked = False
    while topo.events.peek_time() is not None:
        topo.run(max_events=2000)
        detector.step(budget=512)
        if mitigate and not peeked and controller.counters["rules_installed"]:
            # operator control surface, mid-run: inspect, then tighten
            # the episode rate limit on the fly
            peeked = True
            blocked = controller.command({"op": "blocked_list"})
            print(f"  [operator] first blocks live: "
                  f"{len(blocked['result'])} entries")
            controller.command({
                "op": "set_config",
                "config": {"episode_rate_pps": 40.0},
            })
    detector.finish()

    stats = {"server_received": server.received, "acl": acl}
    if mitigate:
        stats["controller"] = controller.stats()
        stats["bridge"] = bridge.stats()
    return stats


# --- offline pre-training (shared by both runs) --------------------------
print("pre-training the panel on a benign+flood+scan replay...")
cfg = CampaignConfig.tiny()
_topo, _col, _s, _a = monitored_topology(cfg)
_trace = workload(seed=7)
Replayer(
    _topo,
    {"fwd": (_topo.switches["edge_client"], 1),
     "rev": (_topo.switches["edge_server"], 2)},
    classify=lambda row: "fwd" if row["dst_ip"] == SERVER_IP else "rev",
).replay(_trace)
_records = _col.to_records()
_labels, _ = label_records(_records, _build_truth_map(_trace))
BUNDLE = pretrain_from_records(_records, _labels, source="int", seed=0)

print("\nrun 1: detection only (no enforcement)")
base = run(mitigate=False)
print(f"  server received {base['server_received']} packets")

print("\nrun 2: closed loop (controller + episode bridge drive the edge ACL)")
closed = run(mitigate=True)
acl = closed["acl"]
ctrl_stats = closed["controller"]
print(f"  server received {closed['server_received']} packets")
print(f"  ACL: {acl.dropped} dropped, {acl.rate_limited} rate-limited, "
      f"{acl.installed} rules installed")
print(f"  controller: {json.dumps(ctrl_stats['counters'])}")
print(f"  episodes: {closed['bridge']}")

saved = base["server_received"] - closed["server_received"]
print(f"\nthe loop kept {saved} attack-dominated packets "
      f"({saved / base['server_received']:.0%} of the victim's load) off the server.")
