"""Extension bench: the detect→mitigate closed loop (paper future work).

Runs the live mechanism against a benign + spoofed-flood + scan mix
twice — detection-only vs the fault-tolerant mitigation control plane
(:class:`~repro.mitigation.MitigationController` fed by an
:class:`~repro.controlplane.EpisodeBridge`, enforcing through the edge
switch's ACL) — and measures the attack load shed from the victim.
Quantifies what the paper's planned mitigation stage would buy on this
workload.
"""

from repro.analysis.tables import render_table
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
ATTACKER = 0xCB007107

POLICY = MitigationConfig(
    rules=(
        ThresholdRule(name="hot-flow-block", pps_above=50.0, packets_above=3,
                      combine="and", scope="flow", action="block",
                      ttl_ns=30 * SEC),
    ),
    episode_rate_pps=60.0,
    episode_ttl_ns=60 * SEC,
)


def _workload(seed):
    benign = generate_benign(
        SERVER_IP, 80, 0, 12 * SEC,
        BenignConfig(sessions_per_s=4, mean_think_ns=3_000_000, rtt_ns=100_000),
        seed=seed,
    )
    flood = syn_flood(SERVER_IP, 80, 3 * SEC, 9 * SEC, rate_pps=2500, seed=seed + 1)
    scan = syn_scan(ATTACKER, SERVER_IP, 4 * SEC, 10 * SEC, rate_pps=400, seed=seed + 2)
    return merge_traces([benign, flood, scan])


def _pretrain():
    cfg = CampaignConfig.tiny()
    topo, col, _s, _a = monitored_topology(cfg)
    trace = _workload(seed=7)
    Replayer(
        topo,
        {"fwd": (topo.switches["edge_client"], 1),
         "rev": (topo.switches["edge_server"], 2)},
        classify=lambda row: "fwd" if row["dst_ip"] == SERVER_IP else "rev",
    ).replay(trace)
    records = col.to_records()
    labels, _ = label_records(records, _build_truth_map(trace))
    return pretrain_from_records(records, labels, source="int", seed=0)


def _run(bundle, mitigate):
    cfg = CampaignConfig.tiny()
    topo, int_col, _s, _a = monitored_topology(cfg)
    edge = topo.switches["edge_client"]
    server = topo.hosts["webserver"]
    acl = attach_acl(edge) if mitigate else AclTable()
    detector = AutomatedDDoSDetector(bundle, fast_poll=True)
    detector.attach_live(int_col)
    controller = None
    if mitigate:
        controller = MitigationController(POLICY, tables=[acl])
        controller.attach_to(detector)
        EpisodeBridge(controller).attach_inline(detector)
    Replayer(
        topo,
        {"fwd": (edge, 1), "rev": (topo.switches["edge_server"], 2)},
        classify=lambda row: "fwd" if row["dst_ip"] == SERVER_IP else "rev",
    ).schedule(_workload(seed=31))
    while topo.events.peek_time() is not None:
        topo.run(max_events=2000)
        detector.step(budget=512)
    detector.finish()
    return server.received, acl, controller


def test_ext_closed_loop_mitigation(benchmark):
    bundle = _pretrain()

    def run_both():
        base, _, _ = _run(bundle, mitigate=False)
        mitigated, acl, controller = _run(bundle, mitigate=True)
        return base, mitigated, acl, controller

    # one round: each run simulates ~40k packets through the live loop
    base, mitigated, acl, controller = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    shed = base - mitigated
    counters = controller.counters
    print("\n" + render_table(
        "Extension: closed-loop mitigation (controller -> ACL enforcement)",
        ("Setup", "server packets", "dropped", "rate-limited", "rules"),
        [
            ("detection only", base, 0, 0, 0),
            ("closed loop", mitigated, acl.dropped, acl.rate_limited,
             acl.installed),
        ],
        note=f"{shed / base:.0%} of the victim's load shed by "
        f"{acl.installed} rules ({counters['episode_escalations']} episode "
        "escalations: sweep-source block + service rate limit)",
    ))

    # the loop must shed a large share of the attack-dominated load...
    assert shed / base > 0.4
    # ...via escalated episode responses, not per-flow whack-a-mole
    assert counters["episode_escalations"] >= 2
    assert acl.installed < 10
    # the enforcement actually fired both ways: hard drops and shaping
    assert acl.dropped > 0 and acl.rate_limited > 0
