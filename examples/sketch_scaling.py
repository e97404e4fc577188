#!/usr/bin/env python
"""Sketch-gated detection under a spoofed-source flood.

A spoofed SYN flood creates one new five-tuple per packet — the exact
``FlowTable`` grows linearly with attack volume and the table itself
becomes the bottleneck the attacker is aiming for.  This demo runs the
same mixed stream (benign conversations + a 40k-source spoofed flood)
through two detectors:

* the **exact** path — every five-tuple gets a full FlowRecord;
* the **sketch-gated** path — every packet updates a 4 MB count-min
  sketch, only flows promoted past the heavy-hitter threshold get exact
  records, and the spoofed one-packet flows aggregate into per-prefix
  residual stats instead of table entries.

Both detectors see identical telemetry; the scorecard shows what the
gate buys (resident flows, memory) and what it costs (nothing, here:
one-packet spoofed flows never produce windowed decisions anyway).

Run:  python examples/sketch_scaling.py
"""

import numpy as np

from repro.core import AutomatedDDoSDetector, pretrain
from repro.features import extract_features
from repro.int_telemetry import REPORT_DTYPE
from repro.ml import GaussianNB, RandomForestClassifier
from repro.sketch import SketchConfig

N_SPOOFED = 40_000
N_BENIGN = 150


def build_stream(seed=0):
    """Benign conversations (12 pkts each, :443) + spoofed flood (one
    64-byte packet per source, :80), interleaved in time."""
    rng = np.random.default_rng(seed)
    rows = []
    for f in range(N_BENIGN):
        for p in range(12):
            rows.append((1 + f, 42, 20_000 + f, 443,
                         int(rng.integers(400, 1500)), p * 50 + f))
    # Victim IP above the spoofed range so the *source* is canonical
    # endpoint A — residual prefixes then name the attack origin.
    victim = (203 << 24) | 1
    for s in range(N_SPOOFED):
        rows.append(((10 << 24) | (s * 4), victim,
                     30_000 + (s % 30_000), 80, 64, s))
    arr = np.array(rows, dtype=np.int64)
    order = np.argsort(arr[:, 5], kind="stable")
    arr = arr[order]
    rec = np.zeros(arr.shape[0], dtype=REPORT_DTYPE)
    ts = np.arange(arr.shape[0], dtype=np.int64) * 2_000
    rec["ts_report"] = ts
    rec["ingress_ts"] = ts % 2**32
    rec["egress_ts"] = ts % 2**32
    rec["src_ip"] = arr[:, 0]
    rec["dst_ip"] = arr[:, 1]
    rec["src_port"] = arr[:, 2]
    rec["dst_port"] = arr[:, 3]
    rec["protocol"] = 6
    rec["length"] = arr[:, 4]
    return rec


def main():
    stream = build_stream()
    print(f"stream: {stream.shape[0]:,} packets "
          f"({N_SPOOFED:,} spoofed sources, {N_BENIGN} benign flows)\n")

    fm = extract_features(stream, source="int")
    y = (fm.X[:, fm.names.index("packet_size")] < 200).astype(int)
    bundle = pretrain(
        fm.X, y, fm.names,
        panel={
            "rf": lambda: RandomForestClassifier(
                n_estimators=5, max_depth=8, seed=0
            ),
            "gnb": lambda: GaussianNB(),
        },
    )

    results = {}
    for name, sketch in (
        ("exact", None),
        ("sketch-gated", SketchConfig(width=1024, depth=4, partitions=64,
                                      promote_packets=8)),
    ):
        det = AutomatedDDoSDetector(
            bundle, fast_poll=True, sketch=sketch
        )
        db = det.run_stream(stream, poll_every=256, cycle_budget=512)
        results[name] = (det, db)

    det_e, db_e = results["exact"]
    det_g, db_g = results["sketch-gated"]
    print(f"{'':24}{'exact':>12}{'gated':>12}")
    print(f"{'resident flows':24}{len(det_e.db.flows):>12,}"
          f"{len(det_g.db.flows):>12,}")
    print(f"{'flows created':24}{det_e.db.flows.created:>12,}"
          f"{det_g.db.flows.created:>12,}")
    print(f"{'predictions stored':24}{len(db_e.predictions):>12,}"
          f"{len(db_g.predictions):>12,}\n")

    sk = det_g.stats()["sketch"]
    print("sketch gate stats:")
    for k in ("kind", "width", "depth", "partitions", "memory_bytes",
              "windows", "promotions", "demotions", "rejected_packets",
              "residual_packets", "residual_bytes", "residual_prefixes",
              "mean_relative_overestimate"):
        print(f"  {k:28} {sk[k]}")
    print("\nheaviest residual prefixes (the flood, seen without a "
          "single FlowRecord):")
    for cidr, pkts, byts in det_g.sketch_gate.residual.top_prefixes(4):
        print(f"  {cidr:20} {pkts:>10,} pkts {byts:>14,} bytes")


if __name__ == "__main__":
    main()
