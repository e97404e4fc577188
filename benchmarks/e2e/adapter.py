"""The one place the benchmark touches the program.

Later PRs may refactor ``src/`` but may not edit the benchmark, so everything
the harness needs from ``repro`` goes through this file, and only through
public names: ``pretrain_from_records``, ``AutomatedDDoSDetector`` (its
``run_stream``/``stats`` and the module attributes the hook table names),
``MitigationController``, ``LifecycleManager``/``LifecycleConfig``,
``SketchConfig``, ``CampaignConfig``/``build_dataset``, ``REPORT_DTYPE``,
``prediction_log_digest``, ``snapshot_detector``/``restore_detector``,
``Supervisor``/``unpack_predictions`` and the frame codec + ``SharedRing``.

Keywords are filtered by ``inspect.signature`` (ROADMAP announces removing
the scalar mode, so ``batched=`` may vanish) and dropped ones are reported;
a hook point that no longer exists is reported as missing, not raised.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise ImportError(
        f"repro resolved to {repro.__file__}; the benchmark measures the "
        f"checkout's own {SRC}"
    )

from repro.common import buffers as _buffers  # noqa: E402
from repro.core import AutomatedDDoSDetector, pretrain_from_records  # noqa: E402
from repro.core import sharding as _sharding  # noqa: E402
from repro.core.checkpoint import restore_detector, snapshot_detector  # noqa: E402
from repro.datasets import CampaignConfig, build_dataset  # noqa: E402
from repro.int_telemetry import REPORT_DTYPE  # noqa: E402
from repro.lifecycle import LifecycleConfig, LifecycleManager  # noqa: E402
from repro.mitigation import MitigationController  # noqa: E402
from repro.sketch import SketchConfig  # noqa: E402

from workloads import (  # noqa: E402
    ATTACK_PORT,
    CAMPAIGN_SCALE,
    CAMPAIGN_SCALE_QUICK,
    FLOOD_RECORDS,
    FLOOD_RECORDS_QUICK,
    Workload,
    flood_stream,
)

#: ``run_stream`` cadence of the operator configuration.
RUN_KWARGS = {"poll_every": 128, "cycle_budget": 256}

#: Campaign knobs scaled together (fractions of ``CampaignConfig.small()``).
_CAMPAIGN_RATES = (
    "benign_sessions_per_s", "syn_scan_pps", "udp_scan_pps", "syn_flood_pps",
)


def accepted_kwargs(fn: Callable[..., Any], kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """The subset of ``kwargs`` that ``fn`` still takes."""
    params = inspect.signature(fn).parameters
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return dict(kwargs)
    return {k: v for k, v in kwargs.items() if k in params}


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------
@dataclass
class Stream:
    """Generated inputs: the program receives ``records`` only."""

    records: np.ndarray
    labels: np.ndarray
    label_of: Callable[[tuple], int]
    generator_s: float


def make_stream(workload: Workload, seed: int, quick: bool) -> Stream:
    started = time.perf_counter()
    if workload.stream == "campaign":
        scale = CAMPAIGN_SCALE_QUICK if quick else CAMPAIGN_SCALE
        base = CampaignConfig()
        rates = {name: getattr(base, name) * scale for name in _CAMPAIGN_RATES}
        dataset = build_dataset(CampaignConfig(seed=seed, **rates))
        records, labels = dataset.int_records, dataset.int_labels

        def label_of(key: tuple) -> int:
            return int(dataset.truth(key)[0])
    else:
        n = FLOOD_RECORDS_QUICK if quick else FLOOD_RECORDS
        head = workload.quick_records if quick else workload.records
        records, labels = flood_stream(REPORT_DTYPE, n, seed)
        records, labels = records[:head], labels[:head]

        def label_of(key: tuple) -> int:
            return int(ATTACK_PORT in (key[2], key[3]))
    return Stream(records, labels, label_of, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# the system under test
# ---------------------------------------------------------------------------
def build_detector(bundle: Any, workload: Workload) -> Tuple[Any, List[str]]:
    """Operator configuration: batched fast-poll detector with mitigation
    and a monitor-mode lifecycle manager attached, no chaos.  Returns the
    detector and the keywords its constructor no longer takes."""
    kwargs: Dict[str, Any] = {"fast_poll": True, "batched": True}
    kwargs.update(workload.detector)
    if "sketch" in kwargs:
        kwargs["sketch"] = SketchConfig(**kwargs["sketch"])
    kept = accepted_kwargs(AutomatedDDoSDetector, kwargs)
    det = AutomatedDDoSDetector(bundle, **kept)
    MitigationController().attach_to(det)
    LifecycleManager(LifecycleConfig()).attach_to(det)
    return det, sorted(set(kwargs) - set(kept))


def setup(
    train: np.ndarray, labels: np.ndarray, workload: Workload
) -> Tuple[Any, Any, Dict[str, float], List[str]]:
    """Labelled training records -> detector ready for its first record."""
    t0 = time.perf_counter()
    bundle = pretrain_from_records(train, labels, seed=0)
    t1 = time.perf_counter()
    det, dropped = build_detector(bundle, workload)
    t2 = time.perf_counter()
    split = {"setup_s": t2 - t0, "pretrain_s": t1 - t0, "construct_s": t2 - t1}
    return det, bundle, split, dropped


def run_kwargs(det: Any, workload: Workload) -> Dict[str, Any]:
    return accepted_kwargs(det.run_stream, {**RUN_KWARGS, **workload.run})


# ---------------------------------------------------------------------------
# reading a finished lap
# ---------------------------------------------------------------------------
def lap_outcome(det: Any, db: Any, label_of: Callable[[tuple], int]) -> Dict[str, Any]:
    """Latencies, decision accuracy, digest and counters of one lap."""
    predictions = db.predictions
    latency_ns = np.fromiter(
        (e.latency_ns for e in predictions), dtype=np.int64, count=len(predictions)
    )
    decided = correct = 0
    for entry in predictions:
        final = entry.final_decision
        if final is not None:
            decided += 1
            correct += final == label_of(entry.key)
    stats = det.stats()
    # Sharded runs keep the pipeline counters in the per-worker dicts.
    parts: Sequence[Dict[str, Any]] = stats.get("shards") or [stats]
    supervision = stats.get("supervision") or {}
    sketch = stats.get("sketch")

    def total(key: str) -> Optional[int]:
        if any(key not in p for p in parts):
            return None
        return sum(int(p[key]) for p in parts)

    return {
        "latency_ns": latency_ns,
        "decided": decided,
        "correct": correct,
        "digest": _sharding.prediction_log_digest(db),
        "predictions_stored": stats.get("predictions_stored"),
        "flows_created": total("flows_created"),
        "flows_evicted": total("flows_evicted"),
        "updates_shed": total("updates_shed"),
        "skipped_evicted": total("skipped_evicted"),
        "prediction_rows": total("predictions_served"),
        "shard_records": [p.get("packets_processed") for p in parts],
        "workers_died": supervision.get("workers_died", 0),
        "lossy_recoveries": supervision.get("lossy_recoveries", 0),
        "replay_dropped_records": supervision.get("replay_dropped_records", 0),
        "checkpoints_taken": supervision.get("checkpoints_taken"),
        "sketch_rejected": None if sketch is None else sketch.get("rejected_packets"),
        "sketch_promotions": None if sketch is None else sketch.get("promotions"),
        "mitigation_actions": (stats.get("mitigation") or {}).get("actions_logged"),
        "lifecycle_checks": (stats.get("lifecycle") or {}).get("checks_done"),
    }


# ---------------------------------------------------------------------------
# tracer hook table
# ---------------------------------------------------------------------------
#: span name -> attribute path from the detector to the bound method.
#: ``inproc`` hooks sit on the detector's module instances (in a sharded run
#: those live in the workers; worker-side spans are a later issue).
INPROC_HOOKS: Dict[str, str] = {
    "collection.feed_batch": "collection.feed_batch",
    "processor.ingest_batch": "processor.ingest_batch",
    "processor.features_matrix": "processor.features_matrix",
    "processor.receive_predictions_batch": "processor.receive_predictions_batch",
    "flow_table.update_batch": "db.flows.update_batch",
    "database.register_update_batch": "db.register_update_batch",
    "database.poll_updates": "db.poll_updates",
    "central.cycle": "central.cycle",
    "prediction.predict_batch": "prediction.predict_batch",
    "sketch.admit_slice": "sketch_gate.admit_slice",
    "sketch.end_window": "sketch_gate.end_window",
    "mitigation.on_cycle": "mitigation.on_cycle",
}
#: Hooks that run in the calling process in every mode.
COMMON_HOOKS: Dict[str, str] = {
    "mechanism.run_stream": "run_stream",
    "mitigation.finish_run": "mitigation.finish_run",
    "lifecycle.on_slice": "lifecycle.on_slice",
}
#: Coordinator-side methods of a sharded run, patched on the class.
SUPERVISOR_HOOKS = {
    "sharding.start": "start",
    "sharding.dispatch": "dispatch",
    "sharding.collect": "collect",
}
PANEL_MEMBERS = ("mlp", "rf", "gnb")


def install_hooks(tracer: Any, det: Any, sharded: bool) -> Dict[str, List[str]]:
    """Wrap every hook point that exists; report the rest.

    ``missing`` lists hook points the program no longer has (a refactor
    moved them); ``inactive`` lists layers this detector does not run
    (no sketch gate, say), which is expected and workload-dependent.
    """
    missing: List[str] = []
    inactive: List[str] = []

    def hook(name: str, owner: Any, attr: str) -> None:
        if not tracer.hook(owner, attr, name):
            missing.append(name)

    paths = dict(COMMON_HOOKS)
    if not sharded:
        paths.update(INPROC_HOOKS)
    for name, path in paths.items():
        *parents, attr = path.split(".")
        owner: Any = det
        for part in parents:
            owner = getattr(owner, part, tracer.ABSENT)
            if owner is None or owner is tracer.ABSENT:
                break
        if owner is None:
            inactive.append(name)
        elif owner is tracer.ABSENT:
            missing.append(name)
        else:
            hook(name, owner, attr)
    if sharded:
        supervisor = getattr(_sharding, "Supervisor", None)
        for name, attr in SUPERVISOR_HOOKS.items():
            hook(name, supervisor, attr)
        if not tracer.hook_function("repro", "unpack_predictions",
                                    "sharding.unpack_predictions"):
            missing.append("sharding.unpack_predictions")
    else:
        models = getattr(getattr(det, "prediction", None), "models", {})
        for member in PANEL_MEMBERS:
            hook(f"ml.{member}.predict", models.get(member), "predict")
    return {"missing": missing, "inactive": inactive}


# ---------------------------------------------------------------------------
# isolated layer probes (same invocation, outside the laps)
# ---------------------------------------------------------------------------
def checkpoint_probe(det: Any, bundle: Any, workload: Workload, reps: int = 3) -> Dict[str, float]:
    """Pack and restore the state a finished in-process lap left behind.

    The log is trimmed first, as a worker does after shipping each cycle's
    block, so the blob is O(flows) like a real checkpoint — but it holds
    the whole stream's flows, i.e. both shards' worth.
    """
    trim = getattr(det.db, "trim_predictions", None)
    if trim is not None:
        trim(len(det.db.predictions))
    snapshot_s, restore_s = [], []
    blob = b""
    for _ in range(reps):
        t0 = time.perf_counter()
        blob = snapshot_detector(det, 0, -1)
        t1 = time.perf_counter()
        fresh, _ = build_detector(bundle, workload)
        t2 = time.perf_counter()
        restore_detector(fresh, blob)
        t3 = time.perf_counter()
        snapshot_s.append(t1 - t0)
        restore_s.append(t3 - t2)
    return {
        "checkpoint.snapshot_ms": statistics.median(snapshot_s) * 1e3,
        "checkpoint.restore_ms": statistics.median(restore_s) * 1e3,
        "checkpoint.blob_kb": len(blob) / 1024.0,
    }


def buffers_probe(records: np.ndarray) -> Dict[str, float]:
    """Frame codec and ring cost per poll slice, in one process."""
    size = RUN_KWARGS["poll_every"]
    header_bytes = _buffers.FRAME_HEADER_BYTES
    item = records.dtype.itemsize + 8
    pack_s, unpack_s, ring_s = [], [], []
    clock = time.perf_counter
    with _buffers.SharedRing(np.uint8, 8 * (size * item + header_bytes)) as ring:
        for start in range(0, records.shape[0] - size + 1, size):
            chunk = records[start : start + size]
            seqs = np.arange(start, start + size, dtype=np.int64)
            t0 = clock()
            frame = _buffers.pack_frame(_buffers.FRAME_CYCLE, seqs, chunk)
            t1 = clock()
            ring.push(frame, timeout=5.0)
            header = ring.pop_exact(header_bytes, timeout=5.0)
            _kind, count, _base, payload_bytes = _buffers.read_frame_header(header)
            payload = ring.pop_exact(payload_bytes, timeout=5.0)
            t2 = clock()
            got_seqs, got = _buffers.unpack_frame_payload(payload, count, records.dtype)
            t3 = clock()
            if got.shape[0] != size or int(got_seqs[0]) != start:
                raise RuntimeError("frame round trip lost records")
            pack_s.append(t1 - t0)
            ring_s.append(t2 - t1)
            unpack_s.append(t3 - t2)
    return {
        "buffers.pack_frame.us": statistics.median(pack_s) * 1e6,
        "buffers.unpack_frame.us": statistics.median(unpack_s) * 1e6,
        "buffers.ring_roundtrip.us": statistics.median(ring_s) * 1e6,
    }
