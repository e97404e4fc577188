#!/usr/bin/env python3
"""Operator-configuration end-to-end benchmark (see README.md).

    python benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S]
                                 [--trace [0|1]] [--quick]
    python benchmarks/e2e/run.py --all [--repeat N] [--out SET.json]

One invocation measures one workload in this process: generate the stream
from ``--seed`` (untimed), run the set-up sequence 1 + 5 times, then laps on
freshly built detectors until at least 5 laps and ``--seconds`` of measured
work are done.  Every timing is divided by the host-speed factor measured
around it (``hostspeed.py``) and reported as the median over laps, with the raw
median next to it.  The full report goes to ``out/report_<workload>.json`` and
to stdout; the last stdout line is the driver contract object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import adapter
import hostspeed
import reaper
from compare import spread
from trace import Tracer
from workloads import TRAIN_RECORDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

SETUP_REPS = 5  # kept repetitions; one more runs first as warm-up
MIN_LAPS = 5
MAX_LAPS = 60
QUICK_SETUP_REPS = 2
QUICK_LAPS = 2

Spec = Dict[str, Any]


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def cpu_seconds() -> Tuple[float, float]:
    """(this process, waited-for children) user+sys CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """High-water RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports KiB


def host_info() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


# ---------------------------------------------------------------------------
# laps
# ---------------------------------------------------------------------------
class Pace:
    """Host-speed factor of each timed section: the mean of the probe
    readings taken right before and right after it."""

    def __init__(self) -> None:
        self.readings = [hostspeed.factor()]

    def mark(self) -> float:
        self.readings.append(hostspeed.factor())
        return (self.readings[-2] + self.readings[-1]) / 2


@dataclass
class Lap:
    """One timed ``run_stream`` and what it left behind.  Times are raw;
    divide by ``speed`` for the value at reference host speed."""

    wall_s: float
    own_cpu_s: float
    kids_cpu_s: float
    speed: float
    outcome: Dict[str, Any]

    @property
    def accuracy(self) -> float:
        return self.outcome["correct"] / max(self.outcome["decided"], 1)

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.outcome["latency_ns"], q)) / 1e6


def run_lap(det: Any, workload: Any, stream: Any, pace: Pace) -> Lap:
    kwargs = adapter.run_kwargs(det, workload)
    gc.collect()
    own0, kids0 = cpu_seconds()
    started = time.perf_counter()
    db = det.run_stream(stream.records, **kwargs)
    wall_s = time.perf_counter() - started
    own1, kids1 = cpu_seconds()
    speed = pace.mark()
    outcome = adapter.lap_outcome(det, db, stream.label_of)
    return Lap(wall_s, own1 - own0, kids1 - kids0, speed, outcome)


def check_lap(workload: Any, n_records: int, lap: Lap,
              expect_digest: Optional[str]) -> List[str]:
    """Output checks of one lap; returns what failed."""
    outcome = lap.outcome
    failed = []
    if expect_digest is not None and outcome["digest"] != expect_digest:
        failed.append("digest differs from the reference lap")
    admitted = n_records - (outcome["sketch_rejected"] or 0)
    if outcome["predictions_stored"] != admitted:
        failed.append(
            f"predictions stored {outcome['predictions_stored']} != "
            f"{'gate-admitted' if workload.gated else 'offered'} records {admitted}"
        )
    if lap.accuracy < workload.min_accuracy:
        failed.append(f"decision accuracy {lap.accuracy:.4f} < {workload.min_accuracy}")
    for counter in ("updates_shed", "lossy_recoveries", "workers_died"):
        if outcome[counter]:
            failed.append(f"{counter} = {outcome[counter]}")
    return failed


def over_laps(raw: List[float], speeds: Optional[List[float]] = None,
              rate: bool = False) -> Dict[str, Any]:
    """Median over laps of ``raw`` brought to reference host speed (times
    shrink by the factor, rates grow by it), with the raw median beside it."""
    scale = [1.0] * len(raw) if speeds is None else speeds
    values = [r * f if rate else r / f for r, f in zip(raw, scale)]
    return {
        "value": statistics.median(values), "raw": statistics.median(raw),
        "samples": len(values), "min": min(values), "max": max(values),
    }


# ---------------------------------------------------------------------------
# per-layer values
# ---------------------------------------------------------------------------
def traced_lap(workload: Any, bundle: Any, stream: Any, pace: Pace,
               wall_untraced_s: float) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One extra lap with the tracer on; returns (span metrics, info)."""
    n = stream.records.shape[0]
    det, _ = adapter.build_detector(bundle, workload)
    tracer = Tracer()
    hooks = adapter.install_hooks(tracer, det, workload.sharded)
    try:
        lap = run_lap(det, workload, stream, pace)
    finally:
        tracer.unhook()
    summary = tracer.summary()

    def self_us(name: str) -> Optional[Dict[str, Any]]:
        row = summary.get(name)
        return row and {"value": row["self_ns"] / 1e3 / n / lap.speed, "calls": row["calls"]}

    def total_ms(name: str) -> Optional[Dict[str, Any]]:
        row = summary.get(name)
        return row and {"value": row["total_ns"] / 1e6 / lap.speed, "calls": row["calls"]}

    layers: Dict[str, Any] = {}
    for name in [*adapter.INPROC_HOOKS, "lifecycle.on_slice", "sharding.dispatch"]:
        layers[f"{name}.self_us"] = self_us(name)
    for member in adapter.PANEL_MEMBERS:
        layers[f"ml.{member}.predict.self_us"] = self_us(f"ml.{member}.predict")
    layers["mechanism.run_loop.self_us"] = self_us("mechanism.run_stream")
    layers["mitigation.finish_run_ms"] = total_ms("mitigation.finish_run")
    for name in ("start", "collect", "unpack_predictions"):
        layers[f"sharding.{name}_ms"] = total_ms(f"sharding.{name}")
    root = summary.get("mechanism.run_stream")
    if root is not None and root["total_ns"]:
        layers["trace.attributed_share"] = {
            "value": 1.0 - root["self_ns"] / root["total_ns"], "calls": root["calls"],
        }
    layers["trace_overhead_x"] = {
        "value": lap.wall_s / lap.speed / wall_untraced_s, "calls": 1,
    }

    trace_file = OUT / f"trace_{workload.name}.json"
    tracer.write(trace_file, {
        "workload": workload.name, "records": int(n), "wall_s": lap.wall_s,
        "host_speed": lap.speed,
        "missing_hooks": hooks["missing"], "inactive_hooks": hooks["inactive"],
    })
    info = {
        "missing_hooks": hooks["missing"],
        "inactive_hooks": hooks["inactive"],
        "negative_self_time": [k for k, row in summary.items() if row["self_ns"] < 0],
        "trace_file": str(trace_file.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "digest": lap.outcome["digest"],
    }
    return layers, info


def counted_layers(workload: Any, n: int, laps: List[Lap],
                   splits: List[Dict[str, float]]) -> Dict[str, Any]:
    """Per-layer values that need no tracer: the program's own counters and
    the harness's split timings (at reference host speed, like the rest)."""
    last = laps[-1].outcome
    values: Dict[str, Any] = {
        "flow_table.created": last["flows_created"],
        "flow_table.evicted": last["flows_evicted"],
        "central.updates_shed": last["updates_shed"],
        "central.skipped_evicted": last["skipped_evicted"],
        "prediction.rows": last["prediction_rows"],
        "mitigation.actions_logged": last["mitigation_actions"],
        "lifecycle.checks_done": last["lifecycle_checks"],
        "mechanism.construct_ms":
            statistics.median(s["construct_s"] / s["speed"] for s in splits) * 1e3,
        "training.pretrain_ms":
            statistics.median(s["pretrain_s"] / s["speed"] for s in splits) * 1e3,
        "mechanism.latency_max_ms": max(lap.percentile_ms(100) / lap.speed for lap in laps),
    }
    if workload.gated:
        values["sketch.admit_ratio"] = (n - last["sketch_rejected"]) / n
        values["sketch.promotions"] = last["sketch_promotions"]
    if workload.sharded:
        per_shard = [r for r in last["shard_records"] if r is not None]
        values.update({
            "sharding.checkpoints_taken": last["checkpoints_taken"],
            "sharding.coordinator_cpu_s":
                statistics.median(lap.own_cpu_s / lap.speed for lap in laps),
            "sharding.workers_cpu_s":
                statistics.median(lap.kids_cpu_s / lap.speed for lap in laps),
            "sharding.partition_skew": max(per_shard) / statistics.mean(per_shard),
        })
    return values


# ---------------------------------------------------------------------------
# one workload, this process
# ---------------------------------------------------------------------------
def measure(spec: Spec, name: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    stream = adapter.make_stream(workload, seed, quick)
    records = stream.records
    n = int(records.shape[0])
    log(f"[{name}] stream: {n} records, generated in {stream.generator_s:.2f}s")

    n_train = min(TRAIN_RECORDS, n // 2)
    pick = np.sort(np.random.default_rng(seed + 1).choice(n, n_train, replace=False))
    train, train_labels = records[pick], stream.labels[pick]

    splits: List[Dict[str, float]] = []
    bundle = dropped = None
    pace = Pace()
    for rep in range((QUICK_SETUP_REPS if quick else SETUP_REPS) + 1):
        gc.collect()
        _det, bundle, split, dropped = adapter.setup(train, train_labels, workload)
        split["speed"] = pace.mark()
        if rep:  # the first repetition pays imports and first-call allocations
            splits.append(split)
    del _det
    setup = over_laps([s["setup_s"] for s in splits], [s["speed"] for s in splits])
    log(f"[{name}] setup_s median {setup['value']:.3f} (raw {setup['raw']:.3f}) "
        f"over {len(splits)}")

    expect_digest = None
    isolated: Dict[str, float] = {}
    if workload.sharded:
        # Untimed in-process lap on the same bundle: the sharded digest must
        # equal it.  The detector it leaves feeds the checkpoint probe, here
        # and not after the laps, so that it is gone before they run and
        # peak_rss_mb reads the same with and without --trace.
        inproc = WORKLOADS["campaign_inproc"]
        ref_det, _ = adapter.build_detector(bundle, inproc)
        expect_digest = run_lap(ref_det, inproc, stream, pace).outcome["digest"]
        if trace:
            isolated = adapter.checkpoint_probe(ref_det, bundle, inproc)
            isolated.update(adapter.buffers_probe(records))
            blob_kb = isolated.pop("checkpoint.blob_kb")  # a size, not a time
            speed = pace.mark()
            isolated = {key: value / speed for key, value in isolated.items()}
            isolated["checkpoint.blob_kb"] = blob_kb
        del ref_det

    min_laps = QUICK_LAPS if quick else MIN_LAPS
    laps: List[Lap] = []
    failures: List[str] = []
    failed_laps = 0
    measured_s = 0.0
    while len(laps) < min_laps or (measured_s < seconds and len(laps) < MAX_LAPS):
        det, _ = adapter.build_detector(bundle, workload)
        lap = run_lap(det, workload, stream, pace)
        del det
        failed = check_lap(workload, n, lap, expect_digest)
        if expect_digest is None:
            expect_digest = lap.outcome["digest"]  # later laps must repeat it
        if failed:
            failed_laps += 1
            failures += [f"lap {len(laps)}: {f}" for f in failed]
        laps.append(lap)
        measured_s += lap.wall_s
    rss_mib = peak_rss_mib()
    speeds = [lap.speed for lap in laps]
    log(f"[{name}] {len(laps)} laps, {measured_s:.1f}s measured, "
        f"host speed factor {statistics.median(speeds):.2f}")

    measured = {
        "throughput_rps": over_laps([n / lap.wall_s for lap in laps], speeds, rate=True),
        "latency_p50_ms": over_laps([lap.percentile_ms(50) for lap in laps], speeds),
        "latency_p99_ms": over_laps([lap.percentile_ms(99) for lap in laps], speeds),
        "cpu_us_per_record": over_laps(
            [(lap.own_cpu_s + lap.kids_cpu_s) * 1e6 / n for lap in laps], speeds),
        "peak_rss_mb": over_laps([rss_mib]),
        "decision_accuracy": over_laps([lap.accuracy for lap in laps]),
        "setup_s": setup,
    }
    end_to_end = {
        m["name"]: {**measured[m["name"]], "unit": m["unit"], "better": m["better"],
                    "bound": m["bound"]}
        for m in spec["end_to_end"]
    }
    ops_failed = failed_laps * n + sum(
        int(lap.outcome[key] or 0)
        for lap in laps
        for key in ("updates_shed", "skipped_evicted", "replay_dropped_records")
    )

    per_layer = None
    trace_info: Dict[str, Any] = {}
    if trace:
        wall_median = statistics.median(lap.wall_s / lap.speed for lap in laps)
        layers, trace_info = traced_lap(workload, bundle, stream, pace, wall_median)
        if trace_info.pop("digest") != expect_digest:
            failures.append("traced lap: digest differs from the untraced laps")
        if trace_info["negative_self_time"]:
            failures.append(f"negative span self time: {trace_info['negative_self_time']}")
        counted = {**counted_layers(workload, n, laps, splits), **isolated}
        for key, value in counted.items():
            layers[key] = None if value is None else {"value": value, "calls": len(laps)}
        per_layer = {}
        for m in spec["per_layer"]:
            entry = layers.get(m["name"])
            per_layer[m["name"]] = entry and {
                "value": entry["value"], "unit": m["unit"], "calls": entry["calls"],
            }

    return {
        "benchmark": "e2e",
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "quick": quick,
        "seconds": seconds,
        "host": host_info(),
        "host_speed": {
            "note": "probe time / reference_s around each timed section; every "
                    "time below is divided by it, 'raw' is the unscaled median",
            "reference_s": hostspeed.REFERENCE_S,
            "median": statistics.median(pace.readings),
            "readings": pace.readings,
        },
        "stream": {
            "records": n,
            "train_records": n_train,
            "attack_share": float(stream.labels.mean()),
            "generator_s": stream.generator_s,
        },
        "protocol": {
            "load": "closed loop, one client, one process",
            "setup_reps": len(splits),
            "laps": len(laps),
            "measured_s": measured_s,
            "latency_samples_per_lap": int(laps[0].outcome["latency_ns"].shape[0]),
            "lap_wall_s": [lap.wall_s for lap in laps],
            "lap_cpu_s": [lap.own_cpu_s + lap.kids_cpu_s for lap in laps],
            "lap_speed": speeds,
            "run_kwargs": adapter.RUN_KWARGS | workload.run,
            "detector_kwargs": workload.detector,
            "dropped_kwargs": dropped,
        },
        "correct": not failures,
        "failures": failures,
        "ops_attempted": n * len(laps),
        "ops_failed": ops_failed,
        "digest": expect_digest,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        **trace_info,
    }


def contract_line(spec: Spec, report: Dict[str, Any], trace: bool) -> str:
    """What the driver reads: the last line of stdout."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        entry = report[section][m["name"]]
        # A layer this workload does not run did no work: 0, not null, so
        # the line always carries every metric as a number.
        value = 0.0 if entry is None else entry["value"]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": metrics,
    })


# ---------------------------------------------------------------------------
# sets of runs: --all / --repeat
# ---------------------------------------------------------------------------
def run_set(spec: Spec, names: List[str], args: argparse.Namespace) -> int:
    """Each workload ``--repeat`` times, one fresh process per run."""
    workloads: Dict[str, Any] = {}
    ok = True
    for name in names:
        reports = []
        invocation_s: List[float] = []
        for i in range(args.repeat):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ] + (["--quick"] if args.quick else [])
            started = time.perf_counter()
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            invocation_s.append(time.perf_counter() - started)
            lines = done.stdout.strip().splitlines()
            if len(lines) < 2:
                log(f"[{name}] run {i} gave no report (exit code {done.returncode})")
                ok = False
                continue
            reports.append(json.loads(lines[-2]))
            print(lines[-2], flush=True)
        end_to_end = {}
        for m in spec["end_to_end"]:
            values = [r["end_to_end"][m["name"]]["value"] for r in reports]
            if values:
                end_to_end[m["name"]] = {
                    **m, "values": values,
                    "median": statistics.median(values), "iqr_share": spread(values),
                }
        workloads[name] = {
            "seeds": [r["seed"] for r in reports],
            "records": [r["stream"]["records"] for r in reports],
            "digests": [r["digest"] for r in reports],
            "invocation_s": invocation_s,
            "correct": bool(reports) and all(r["correct"] for r in reports),
            "failures": [f for r in reports for f in r["failures"]],
            "ops_attempted": sum(r["ops_attempted"] for r in reports),
            "ops_failed": sum(r["ops_failed"] for r in reports),
            "end_to_end": end_to_end,
            "per_layer": reports[-1]["per_layer"] if reports else None,
        }
        ok = ok and workloads[name]["correct"]
    result = {
        "benchmark": "e2e-set", "quick": args.quick, "repeat": args.repeat,
        "seconds": args.seconds, "host": host_info(), "workloads": workloads,
    }
    out = Path(args.out) if args.out else OUT / "set.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    log(f"wrote {out}")
    print(json.dumps({"correct": ok, "set": str(out)}))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec: Spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=2028)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measured lap time to reach (at least 5 laps run)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes; numbers are never recorded")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload with seeds seed, seed+1, ... (writes a set file)")
    parser.add_argument("--out", help="set file to write with --all/--repeat")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.quick:
        args.seconds = 0.0
    if args.all or args.repeat > 1:
        return run_set(spec, names if args.all else [args.workload], args)

    report = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report_{args.workload}.json").write_text(json.dumps(report, indent=1) + "\n")
    for failure in report["failures"]:
        log(f"[{args.workload}] CHECK FAILED: {failure}")
    print(json.dumps(report))
    print(contract_line(spec, report, bool(args.trace)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    reaper.adopt_orphans()
    try:
        sys.exit(main())
    finally:
        # Workers, the shared-memory resource tracker, anything a lap left
        # behind: stopped and waited for on every path out.
        reaper.reap()
