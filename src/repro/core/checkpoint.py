"""Checkpoint packing for the fault-tolerant sharded runtime.

A shard worker's whole deterministic state — flow table (Welford
accumulators, LRU order, sliding decision windows), pending-update rows,
prediction log, panel quarantine state, cycle counters — can be
captured at a CYCLE boundary, shipped to the coordinator as one packed
blob, and restored into a freshly spawned worker after a crash.  The
coordinator then replays only the telemetry delivered *after* the
checkpoint (see :mod:`repro.core.sharding`), and because every module
restores bit-identical state the recovered run's merged prediction log
matches the unfaulted run byte for byte.

Blob format::

    MAGIC (8 bytes) | sha256(payload) (32 bytes) | payload (pickle)

The content hash makes a truncated or corrupted blob loudly detectable
(:class:`CheckpointError`) instead of silently restoring garbage —
checkpoints cross a process boundary over a pipe, and the writer may be
SIGKILLed mid-send.

Wall-clock stamps inside checkpointed state (pending-row registration
stamps, stored prediction rows) are per-process values that the
digest excludes; carrying them through a restore keeps latency
*accounting* continuous but does not affect result identity.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import TYPE_CHECKING, Any, Dict

if TYPE_CHECKING:
    from .mechanism import AutomatedDDoSDetector


def _sanitizer_observer() -> Any:
    """Per-process checkpoint observer when ``REPRO_SANITIZE=1``.

    The import is env-gated so normal runs never couple ``core`` to the
    verify layer; the observer asserts snapshot-cycle monotonicity and
    restore consistency (see :mod:`repro.verify.sanitizer`).
    """
    if os.environ.get("REPRO_SANITIZE") != "1":
        return None
    # repro: allow[LAY001] env-gated diagnostic shim: imported only under REPRO_SANITIZE=1
    from repro.verify.sanitizer import checkpoint_observer
    return checkpoint_observer()

__all__ = [
    "CheckpointError",
    "pack_state",
    "unpack_state",
    "pack_panel",
    "unpack_panel",
    "panel_content_hash",
    "snapshot_detector",
    "restore_detector",
]

#: Blob magic: identifies the format (and its version) so a foreign or
#: stale blob fails loudly instead of unpickling garbage.
MAGIC = b"RPRCKPT1"
_HASH_BYTES = 32


class CheckpointError(RuntimeError):
    """A checkpoint blob is malformed, truncated, or fails its hash."""


def pack_state(payload: Dict[str, Any]) -> bytes:
    """Serialize a state dict into a content-hashed blob."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return MAGIC + hashlib.sha256(body).digest() + body


def unpack_state(blob: bytes) -> Dict[str, Any]:
    """Verify and deserialize a :func:`pack_state` blob.

    Raises
    ------
    CheckpointError
        Wrong magic, truncated header, or content-hash mismatch.
    """
    header = len(MAGIC) + _HASH_BYTES
    if len(blob) < header or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(
            f"not a checkpoint blob (length {len(blob)}, "
            f"magic {blob[:len(MAGIC)]!r})"
        )
    digest = blob[len(MAGIC) : header]
    body = blob[header:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError("checkpoint content hash mismatch")
    payload = pickle.loads(body)
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint payload is {type(payload).__name__}, expected dict"
        )
    return payload


# ---------------------------------------------------------------------------
# model-panel blobs (lifecycle hot swap)
# ---------------------------------------------------------------------------
def pack_panel(
    epoch: int, scaler: Any, models: Dict[str, Any], feature_names: Any
) -> bytes:
    """Serialize a retrained model panel for a swap broadcast.

    Reuses the RPRCKPT1 framing, so a truncated or corrupted panel blob
    fails the content hash instead of installing garbage models.  The
    blob travels the shard ring as a ``FRAME_SWAP`` payload and is
    archived by the supervisor so a worker respawned after the swap can
    reinstall the exact generation its checkpoint names.
    """
    return pack_state(
        {
            "panel_epoch": int(epoch),
            "scaler": scaler,
            "models": dict(models),
            "feature_names": list(feature_names),
        }
    )


def unpack_panel(blob: bytes) -> Dict[str, Any]:
    """Verify and deserialize a :func:`pack_panel` blob."""
    payload = unpack_state(blob)
    for field in ("panel_epoch", "scaler", "models", "feature_names"):
        if field not in payload:
            raise CheckpointError(f"panel blob missing field {field!r}")
    return payload


def panel_content_hash(blob: bytes) -> str:
    """Hex content hash of a panel blob (the sha256 already embedded in
    the RPRCKPT1 header) — the identity every shard records when it
    installs the panel, and the value checked on restore."""
    if len(blob) < len(MAGIC) + _HASH_BYTES or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a panel blob")
    return blob[len(MAGIC) : len(MAGIC) + _HASH_BYTES].hex()


# ---------------------------------------------------------------------------
# detector-level composition
# ---------------------------------------------------------------------------
def snapshot_detector(
    det: "AutomatedDDoSDetector", cycles_done: int, last_seq: int
) -> bytes:
    """Capture one worker's full deterministic state at a CYCLE boundary.

    ``cycles_done`` is the number of CYCLE markers fully processed when
    the snapshot was taken and ``last_seq`` the highest global sequence
    number folded in — together they tell the coordinator exactly which
    suffix of the delivered stream a restored worker must replay.
    """
    payload: Dict[str, Any] = {
        "cycles_done": int(cycles_done),
        "last_seq": int(last_seq),
        "db": det.db.state_snapshot(),
        "processor": det.processor.state_snapshot(),
        "prediction": det.prediction.state_snapshot(),
        "central": det.central.state_snapshot(),
        "collection": det.collection.state_snapshot(),
        "watchdog": det.watchdog.state_snapshot(),
    }
    if det.fault_injector is not None:
        payload["fault_injector"] = det.fault_injector.state_snapshot()
    # Duck-typed: the mitigation subsystem (a higher layer) registers
    # itself on the detector; its durable state — active blocks, TTL
    # deadlines, token buckets, whitelist config, activity ring, action
    # log — rides the same content-hashed frame as detector state so a
    # worker kill mid-episode restores blocks bit-identically.
    mitigation = getattr(det, "mitigation", None)
    if mitigation is not None:
        payload["mitigation"] = mitigation.state_snapshot()
    # Sketch gate: counters, residual aggregates, and window/promotion
    # tallies are deterministic worker state — a restored worker must
    # resume with bit-identical sketch cells or post-recovery admission
    # decisions (and therefore the merged prediction log) would diverge.
    gate = getattr(det, "sketch_gate", None)
    if gate is not None:
        payload["sketch"] = gate.state_snapshot()
    # Lifecycle manager (coordinator-side subsystem, duck-typed like
    # mitigation): drift-monitor reference, reservoir windows, swap
    # epoch, cooldown counters and the event log ride the checkpoint so
    # a restart resumes the train→serve→monitor→retrain loop exactly
    # where it stopped.
    lifecycle = getattr(det, "lifecycle", None)
    if lifecycle is not None:
        payload["lifecycle"] = lifecycle.state_snapshot()
    observer = _sanitizer_observer()
    if observer is not None:
        observer.on_pack(int(cycles_done))
    return pack_state(payload)


def restore_detector(det: "AutomatedDDoSDetector", blob: bytes) -> Dict[str, Any]:
    """Restore a freshly constructed detector from a checkpoint blob.

    The detector must have been built with the same construction recipe
    (bundle + ``worker_config``) as the checkpointed one — configuration
    is not part of the blob.  Returns the unpacked payload so callers
    can read ``cycles_done`` / ``last_seq``.
    """
    payload = unpack_state(blob)
    det.db.state_restore(payload["db"])
    det.processor.state_restore(payload["processor"])
    det.prediction.state_restore(payload["prediction"])
    det.central.state_restore(payload["central"])
    det.collection.state_restore(payload["collection"])
    det.watchdog.state_restore(payload["watchdog"])
    if det.fault_injector is not None and "fault_injector" in payload:
        det.fault_injector.state_restore(payload["fault_injector"])
    mitigation = getattr(det, "mitigation", None)
    if mitigation is not None and "mitigation" in payload:
        mitigation.state_restore(payload["mitigation"])
    gate = getattr(det, "sketch_gate", None)
    if gate is not None and "sketch" in payload:
        gate.state_restore(payload["sketch"])
    lifecycle = getattr(det, "lifecycle", None)
    if lifecycle is not None and "lifecycle" in payload:
        lifecycle.state_restore(payload["lifecycle"])
    observer = _sanitizer_observer()
    if observer is not None:
        observer.on_restore(int(payload["cycles_done"]))
    return payload
