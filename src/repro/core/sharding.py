"""Shard-parallel execution of the detection mechanism.

The single-process detector tops out at one core; AmLight-scale rates
(80 M packets/minute, §V) need horizontal scaling.  This module adds it
without touching the per-flow math: telemetry is partitioned by the
*canonical five-tuple* hash (:func:`~repro.features.keys.shard_arrays`),
so every flow's entire packet sequence — and therefore all of its state:
Welford moments, dirty stamps, sliding decision window — lives on exactly
one worker.  Each worker runs a full, ordinary
:class:`~repro.core.mechanism.AutomatedDDoSDetector` over its shard of
the stream; flow-state disjointness is what makes the merged output
*result-identical* to a single-process batched run.

Data plane
----------
One :class:`~repro.common.buffers.SharedRing` of raw bytes per worker.
Telemetry moves as **batch frames** (the DPDK ``rte_eth_rx_burst``
shape: whole bursts, not records): the coordinator groups each poll
slice by shard *once*, packs one contiguous frame per shard — a 32-byte
header carrying ``kind``/``count``/``seq_base``, an ``int64`` seq
block, and the raw record bytes — and pushes it with a single ring
operation.  The worker reads the length-prefixed frame back with
exactly two ring operations and reconstructs seqs and records as
zero-copy structured views; the hot path never pickles and never
copies field-by-field.  Control rides the frame header instead of
consuming slots:

* ``FRAME_DATA``  — records with no cycle boundary (the trailing
  partial slice and the chaos-injector flush);
* ``FRAME_CYCLE`` — a poll slice *plus* the poll-cycle barrier: the
  coordinator sends one to every ring at each full ``poll_every``
  boundary of the *original* stream (empty partitions get an empty
  CYCLE frame, preserving the barrier cadence), and the worker runs
  exactly one CentralServer cycle per CYCLE frame.  That reproduces
  the single-process cycle cadence, so each flow sees the same
  sequence of (packets folded) → (poll) → (predict) transitions for
  any worker count.  After the cycle the worker ships the resident
  slice of its prediction log (:data:`~repro.core.database.RESULT_DTYPE`
  rows, the same array it predicts into) up the pipe and trims it from
  the log, so worker memory *and*
  checkpoint size stay O(flows) instead of O(stream);
* ``FRAME_EOF``   — end of stream (always empty): the worker drains
  its backlog, ships the final result block, and exits;
* ``FRAME_SWAP``  — a lifecycle hot-swap barrier: the payload is an
  RPRCKPT1-framed model-panel blob, broadcast to every ring between
  two CYCLE frames, so each worker installs the new generation at the
  same global cycle boundary (see :mod:`repro.lifecycle`).

Fault injection runs at the coordinator on the *unified* stream
(:meth:`~repro.resilience.chaos.FaultInjector.transform_batch`), before
sequence numbers are assigned and before partitioning — a chaos replay
is a property of the run, not of the worker count.

Fault tolerance
---------------
The coordinator side is a :class:`Supervisor`: it spawns the workers,
tracks their liveness (exit codes via ``peer_alive`` probes inside ring
waits, missed-heartbeat deadlines for alive-but-hung workers), and
recovers a dead shard without losing the run.  Recovery is
checkpoint + replay:

* every ``checkpoint_every`` CYCLE frames, a worker snapshots its full
  deterministic state (:mod:`repro.core.checkpoint`) and ships the
  content-hashed blob up the pipe;
* the coordinator keeps every pushed **frame** in a bounded per-shard
  **replay buffer**, tagged with the number of CYCLE frames sent to
  that shard before it; a checkpoint at cycle *c* prunes tags ``< c``;
* on death, the ring is :meth:`~repro.common.buffers.SharedRing.reset`,
  a fresh worker is spawned with the last checkpoint blob, and the
  buffered frame suffix (tags ``>= c``, ending with the original EOF
  if it was already sent) is replayed into the fresh ring.  Result
  blocks already received for cycles *after* the checkpoint are
  discarded — the replayed worker regenerates them bit-for-bit.

Because the worker pipeline is deterministic in the delivered frame
sequence, the respawned worker reproduces the dead one's output
bit-for-bit — the merged ``prediction_log_digest`` of a murdered run
equals the unfaulted single-process digest.  A crash that outruns the
replay buffer (the needed suffix was partly dropped to honour the
bound) degrades *loudly*: the shard is marked FAILED on the watchdog,
``lossy_recoveries`` is counted, and the run still completes.

Determinism
-----------
The merge concatenates the shards' rows and lexsorts them by
``(seq, shard)`` straight into the coordinator's log — no row is
decoded.  ``seq`` is the record's
index in the delivered stream and every delivered record registers
exactly one update, so the order is total and identical to the
single-process run's — the shard-equivalence suite asserts byte-equal
digests over the deterministic row fields for shards ∈ {1, 2, 4},
clean and under chaos.  Wall-clock stamps are per-process and excluded
from the digest (latency *measurement* still works per worker; latency
*identity* across process boundaries is meaningless).

Equivalence holds in the no-backlog regime (``cycle_budget`` at least
the updates a slice can register): a binding budget sheds different
tails in different partitions, just as it sheds different tails under
different wall-clock speeds in a single process.  A shared ``max_flows``
cap is likewise per-worker in sharded mode.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import select
import os
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.buffers import (
    FRAME_CYCLE,
    FRAME_DATA,
    FRAME_EOF,
    FRAME_HEADER_BYTES,
    FRAME_SWAP,
    PeerDead,
    SharedRing,
    pack_blob_frame,
    pack_frame,
    read_frame_header,
    unpack_frame_payload,
)
from repro.features.keys import canonical_key_arrays, shard_arrays
from repro.resilience.process_chaos import ProcessChaos

from .checkpoint import (
    CheckpointError,
    panel_content_hash,
    restore_detector,
    snapshot_detector,
    unpack_panel,
)
from .database import KEY_FIELDS, FlowDatabase, PredictionEntry, PredictionLog

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from .mechanism import AutomatedDDoSDetector

__all__ = [
    "Supervisor",
    "run_sharded",
    "prediction_log_digest",
    "unpack_predictions",
]

_UINT8 = np.dtype(np.uint8)
_SEQ_BYTES = 8  # one int64 per record in a frame's seq block


# ---------------------------------------------------------------------------
# prediction-log rows (worker → coordinator, and digests)
# ---------------------------------------------------------------------------
def unpack_predictions(packed: np.ndarray) -> List[PredictionEntry]:
    """Decode :data:`~repro.core.database.RESULT_DTYPE` rows into
    :class:`PredictionEntry` views (the log's own row decoder).  Nothing
    on the run path decodes: workers ship log rows and the merge keeps
    them as rows."""
    return PredictionLog.decode(packed)


def prediction_log_digest(db: FlowDatabase) -> str:
    """SHA-256 over the run's *deterministic* prediction outcome.

    Rows are read column-wise in the log's canonical ``(seq, key)``
    order and serialized over the fields that must agree across
    execution modes — flow key, telemetry timestamp, label, votes,
    final decision, and seq — one ``key|ts|label|votes|final|seq`` line
    each, spelled as the Python tuples / ``None`` of the entry view.
    Wall stamps are excluded — they come from per-process clocks.  Two
    runs are result-identical iff their digests match.
    """
    log = db.predictions
    columns = (*KEY_FIELDS, "ts_registered_ns", "label", "votes_mask",
               "votes_n", "final", "seq")
    votes_text: Dict[Tuple[int, int], str] = {}
    digest = hashlib.sha256()
    sep = ""
    for rows in log.chunks(log.canonical_order()):
        lines = []
        for k0, k1, k2, k3, k4, ts, label, mask, n_votes, final, seq in zip(
            *(rows[name].tolist() for name in columns)
        ):
            votes = votes_text.get((mask, n_votes))
            if votes is None:
                votes = votes_text[(mask, n_votes)] = str(
                    tuple((mask >> b) & 1 for b in range(n_votes))
                )
            decided = None if final < 0 else final
            lines.append(
                f"({k0}, {k1}, {k2}, {k3}, {k4})|{ts}|{label}|{votes}|"
                f"{decided}|{seq}"
            )
        # hashing the chunks' lines joined by "\n" == hashing all lines joined
        digest.update((sep + "\n".join(lines)).encode())
        sep = "\n"
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------
def _install_swap(det: "AutomatedDDoSDetector", blob: bytes) -> None:
    """Install a broadcast panel blob into a worker's serving module.

    Idempotent on replay: a respawned worker whose checkpoint already
    carries the swapped generation (reinstalled from the spec's panel
    archive) sees the replayed ``FRAME_SWAP`` again and must skip it —
    ``swap_panel`` requires a strictly increasing epoch, so a stale
    frame is a no-op instead of an error.
    """
    payload = unpack_panel(blob)
    epoch = int(payload["panel_epoch"])
    if epoch <= det.prediction.panel_epoch:
        return
    det.prediction.swap_panel(
        payload["scaler"],
        payload["models"],
        epoch,
        panel_content_hash(blob),
        feature_names=payload["feature_names"],
    )


def _reinstall_checkpointed_panel(
    det: "AutomatedDDoSDetector", panels: Dict[int, bytes]
) -> None:
    """After a checkpoint restore, put the *models* of the serving
    generation back (checkpoints carry epoch + content hash, never the
    model objects — those live in the supervisor's panel archive).
    A missing or hash-mismatched archive entry is a loud
    :class:`CheckpointError`: serving the wrong generation's models
    would silently diverge the merged log.
    """
    epoch = det.prediction.panel_epoch
    if epoch <= 0:
        return
    blob = panels.get(epoch)
    if blob is None:
        raise CheckpointError(
            f"checkpoint names panel epoch {epoch} but the worker spec's "
            f"panel archive only has epochs {sorted(panels)}"
        )
    got = panel_content_hash(blob)
    if det.prediction.panel_hash and got != det.prediction.panel_hash:
        raise CheckpointError(
            f"panel archive hash {got} != checkpointed serving hash "
            f"{det.prediction.panel_hash} for epoch {epoch}"
        )
    payload = unpack_panel(blob)
    det.prediction.load_panel(payload["scaler"], payload["models"])


def _shard_worker_main(spec: Dict[str, Any], conn: "Connection") -> None:
    """Worker entry point: consume framed telemetry until EOF.

    ``spec`` is a plain picklable dict (spawn-compatible even though the
    default start method is fork): ring coordinates, the trained bundle,
    the detector configuration, and — for supervised runs — the restore
    blob, checkpoint cadence, and any worker-side chaos fault plan.
    The worker runs a completely ordinary batched detector — sharding
    lives entirely outside it.

    Pipe protocol (worker → coordinator, all tuples):

    * ``("res", cycles_done, rows)`` — the predictions this cycle
      produced: the resident rows of the worker's log (``None`` for an
      empty cycle), which the worker then trims.
      Sent after *every* CYCLE frame, so it doubles as the liveness
      heartbeat;
    * ``("hb", cycles_done)`` — extra liveness ping during the post-EOF
      drain (between drain rounds, when no cycle boundary fires);
    * ``("checkpoint", cycles_done, last_seq, blob)`` — content-hashed
      state snapshot, every ``checkpoint_every`` CYCLE frames (sent
      *after* that cycle's result block, so a restore from cycle *c*
      composes exactly with the blocks for cycles ``<= c``);
    * ``("result", rows, stats, actions)`` — the final rows (EOF-drain
      predictions) plus the shard's mitigation flow-tier
      action log (None when no mitigation subsystem is attached);
    * ``("error", msg)`` — best-effort last words before dying.
    """
    # Local import: the mechanism module imports this one.
    from .mechanism import AutomatedDDoSDetector

    record_dtype = np.dtype(spec["record_dtype"])
    ring = SharedRing.attach(str(spec["ring_name"]), _UINT8,
                             int(spec["capacity_bytes"]))
    det = AutomatedDDoSDetector(
        bundle=spec["bundle"], batched=True, **spec["config"]
    )
    # Mitigation clone: attach BEFORE restore so a checkpointed
    # mitigation payload restores into it.  The spec ships a picklable
    # (factory, config) pair — the factory is a module-level function
    # imported by reference at unpickle time, so core never imports the
    # mitigation layer.
    mitigation_spec = spec.get("mitigation")
    if mitigation_spec is not None:
        factory, mitigation_cfg = mitigation_spec
        factory(mitigation_cfg).attach_to(det)
    cycle_budget = int(spec["cycle_budget"])
    timeout_s = float(spec["idle_timeout_s"])
    checkpoint_every = int(spec.get("checkpoint_every", 0))
    raise_at = int(spec.get("raise_at_cycle", 0))
    hang_at = int(spec.get("hang_at_cycle", 0))
    parent_pid = int(spec.get("parent_pid", 0))

    cycles_done = 0
    last_seq = -1
    restore_blob = spec.get("restore")
    if restore_blob is not None:
        payload = restore_detector(det, restore_blob)
        cycles_done = int(payload["cycles_done"])
        last_seq = int(payload["last_seq"])
        _reinstall_checkpointed_panel(det, spec.get("panels") or {})

    seq_checker: Optional[Any] = None
    if os.environ.get("REPRO_SANITIZE") == "1":
        # repro: allow[LAY001] env-gated diagnostic shim: imported only under REPRO_SANITIZE=1
        from repro.verify.sanitizer import FrameSeqChecker
        # The floor survives restores: the replayed suffix must deliver
        # seqs strictly after the checkpoint's last folded one.
        seq_checker = FrameSeqChecker(int(spec["shard"]), floor=last_seq)

    def coordinator_alive() -> bool:
        return os.getppid() == parent_pid

    alive: Optional[Callable[[], bool]] = (
        coordinator_alive if parent_pid else None
    )
    db = det.db

    def ship_cycle_block() -> None:
        """Stream this cycle's predictions up the pipe and trim them.

        Trimming is what keeps the worker's log — and therefore every
        checkpoint blob — O(flows) instead of O(stream): the coordinator
        is the system of record for shipped blocks, and on recovery it
        discards blocks newer than the restored checkpoint so the
        replayed worker can regenerate them.

        Sent every cycle even when empty (``None`` payload): the message
        doubles as the liveness heartbeat, halving per-cycle pipe
        traffic versus a separate ``hb`` send.  The rows travel as they
        sit in the log: the pipe pickles a copy before the trim.
        """
        resident = len(db.predictions)
        conn.send(("res", cycles_done,
                   db.predictions.rows if resident else None))
        db.trim_predictions(resident)

    try:
        while True:
            header = ring.pop_exact(
                FRAME_HEADER_BYTES, timeout=timeout_s, peer_alive=alive
            )
            kind, count, _seq_base, payload_bytes = read_frame_header(header)
            if kind == FRAME_SWAP:
                # Panel blob, not records: consume the payload before
                # the generic seq/record unpack (count is 0 here) and
                # switch generations at this exact frame position —
                # between the CYCLE that triggered the swap and the
                # next one, the same boundary on every shard.
                blob_arr = ring.pop_exact(
                    payload_bytes, timeout=timeout_s, peer_alive=alive
                )
                _install_swap(det, blob_arr.tobytes())
                continue
            if payload_bytes:
                payload = ring.pop_exact(
                    payload_bytes, timeout=timeout_s, peer_alive=alive
                )
                # Zero-copy views into the popped payload (worker-private
                # memory — see unpack_frame_payload's aliasing contract).
                seqs, records = unpack_frame_payload(
                    payload, count, record_dtype
                )
                if seq_checker is not None:
                    # live exactly-once check: frame seqs must strictly
                    # increase across the worker's lifetime, restores
                    # included
                    seq_checker.on_frame(seqs.tolist())
                det.collection.feed_batch(records, seqs=seqs)
                last_seq = int(seqs[-1])
            if kind == FRAME_DATA:
                continue
            if kind == FRAME_CYCLE:
                # The engine's mitigation sweep precedes the result/
                # checkpoint sends below, so snapshots are self-consistent
                # (flow cursor, action log and predictions aligned).
                det.step(cycle_budget)
                cycles_done += 1
                if raise_at and cycles_done == raise_at:
                    raise RuntimeError(
                        f"chaos: raise-in-worker at cycle {cycles_done}"
                    )
                if hang_at and cycles_done == hang_at:
                    # Simulated livelock: alive, silent, no progress.
                    # Only the supervisor's missed-heartbeat deadline
                    # can end this worker.
                    while True:
                        # repro: allow[DET002] chaos hang loop; killed externally by the supervisor
                        time.sleep(0.05)
                ship_cycle_block()
                if checkpoint_every and cycles_done % checkpoint_every == 0:
                    blob = snapshot_detector(det, cycles_done, last_seq)
                    conn.send(("checkpoint", cycles_done, last_seq, blob))
            else:  # FRAME_EOF
                # Liveness pings flow through a long final backlog.
                det.drain(
                    cycle_budget, lambda: conn.send(("hb", cycles_done))
                )
                break
        actions = (
            list(det.mitigation.action_log)
            if det.mitigation is not None else None
        )
        conn.send(
            ("result", db.predictions.rows, det.stats(), actions)
        )
    except BaseException as exc:  # noqa: BLE001 - report, then die
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise
    finally:
        conn.close()
        ring.close()


# ---------------------------------------------------------------------------
# coordinator / supervision
# ---------------------------------------------------------------------------
class _WorkerHung(RuntimeError):
    """Internal: a worker is alive but missed its heartbeat deadline."""


class Supervisor:
    """Worker lifecycle manager for one sharded run.

    Owns the rings, processes, and pipes; every frame pushed to a
    worker goes through :meth:`send`, which (1) records the frame in
    the shard's bounded replay buffer *before* pushing and (2) waits
    with liveness probes, so a dead consumer surfaces as
    :class:`~repro.common.buffers.PeerDead` (never an infinite
    backpressure hang) and triggers :meth:`recover` in place.

    Parameters
    ----------
    detector :
        The coordinator-side detector (supplies the bundle, the worker
        config recipe, and the watchdog that receives shard lifecycle
        health alerts).
    record_dtype, n_shards, ring_capacity, cycle_budget, idle_timeout_s,
    start_method :
        Run layout, as in :func:`run_sharded`.  ``ring_capacity`` is in
        *records*; the byte ring is sized for that many framed records
        plus header headroom.
    checkpoint_every : int
        CYCLE frames between worker checkpoints; 0 disables
        checkpointing (recovery then replays the whole stream).
    replay_buffer_records : int
        Per-shard replay-buffer bound in *records* (control frames are
        free).  Oldest frames are dropped (and counted) past the bound;
        a recovery that needed a dropped frame is *lossy* and degrades
        loudly.
    heartbeat_timeout_s : float
        An alive worker that neither messages nor consumes ring slots
        for this long (while the coordinator is waiting on it) is
        declared hung, killed, and recovered.
    process_chaos : ProcessChaos, optional
        Worker-kill plan (initial spawns only; respawns are never
        re-targeted).
    max_respawns : int
        Per-shard respawn budget; exceeding it aborts the run (a shard
        that keeps dying is a systemic failure, not a transient one).
    clock : callable() -> int, optional
        Monotonic ns source for heartbeat deadlines and restore-latency
        measurement; injectable for deterministic tests.
    """

    def __init__(
        self,
        detector: "AutomatedDDoSDetector",
        record_dtype: np.dtype,
        n_shards: int,
        ring_capacity: int,
        cycle_budget: int,
        idle_timeout_s: float,
        start_method: str = "fork",
        checkpoint_every: int = 16,
        replay_buffer_records: Optional[int] = None,
        heartbeat_timeout_s: float = 30.0,
        process_chaos: Optional[ProcessChaos] = None,
        max_respawns: int = 3,
        clock: Optional[Callable[[], int]] = None,
    ) -> None:
        self.detector = detector
        self.record_dtype = np.dtype(record_dtype)
        self.n_shards = int(n_shards)
        self.ring_capacity = int(ring_capacity)
        # Byte ring sized for `ring_capacity` framed records (payload =
        # record + int64 seq) plus headroom for the frame headers a
        # slice-per-frame protocol can have in flight.
        self.capacity_bytes = max(
            self.ring_capacity * (self.record_dtype.itemsize + _SEQ_BYTES)
            + 64 * FRAME_HEADER_BYTES,
            1 << 16,
        )
        self.cycle_budget = int(cycle_budget)
        self.idle_timeout_s = float(idle_timeout_s)
        self.checkpoint_every = int(checkpoint_every)
        if replay_buffer_records is None:
            # Default bound: several checkpoint intervals of slots, so a
            # clean run never outruns it even if every record lands on
            # one shard (checkpoints prune the buffer as they arrive).
            per_interval = max(self.checkpoint_every, 1) * 64 + 64
            replay_buffer_records = max(4 * per_interval, 4096)
        self.replay_buffer_records = int(replay_buffer_records)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.process_chaos = process_chaos
        self.max_respawns = int(max_respawns)
        self.clock: Callable[[], int] = (
            clock if clock is not None
            else time.monotonic_ns  # repro: allow[DET002] injectable default; supervision deadlines are wall-clock by nature
        )
        self._ctx = mp.get_context(start_method)
        self.rings: List[SharedRing] = []
        self.procs: List[Any] = []
        self.conns: List[Any] = []
        # Replay buffer: per shard, list of (tag, frame, n_records)
        # where tag is the number of CYCLE frames sent to that shard
        # before this frame.
        self._replay: List[List[Tuple[int, np.ndarray, int]]] = []
        self._replay_size: List[int] = []
        self._max_dropped_tag: List[int] = []
        # Last received checkpoint per shard: (cycle, last_seq, blob).
        self._checkpoints: List[Optional[Tuple[int, int, bytes]]] = []
        self._last_error: List[str] = []
        # Per-cycle result blocks streamed up the pipe, per shard, as
        # (cycle, rows) in cycle order; truncated on recovery.
        self._result_blocks: List[List[Tuple[int, np.ndarray]]] = []
        self._results: List[Optional[Tuple[np.ndarray, dict, Any]]] = []
        self._progress_ns: List[int] = []
        self._respawns: List[int] = []
        self.cycles_sent = 0
        # Panel archive: every broadcast generation's blob, keyed by
        # epoch.  Respawned workers get the whole archive in their spec
        # so a checkpoint naming a post-swap generation can reinstall
        # the exact models (hash-checked).
        self._panels: Dict[int, bytes] = {}
        # Counters for mechanism.stats().
        self.workers_died = 0
        self.workers_respawned = 0
        self.checkpoints_taken = 0
        self.lossy_recoveries = 0
        self.swap_broadcasts = 0
        self.replay_dropped_records = 0
        self.restore_latencies_s: List[float] = []
        self._empty_seqs = np.empty(0, dtype=np.int64)
        self._empty_records = np.empty(0, dtype=self.record_dtype)

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------
    def _mitigation_spec(self) -> Optional[Tuple[Any, Dict[str, Any]]]:
        """Picklable worker recipe for the attached mitigation subsystem
        (duck-typed — the controller lives in a higher layer)."""
        mitigation = getattr(self.detector, "mitigation", None)
        if mitigation is None:
            return None
        return mitigation.worker_spec()

    def _spawn(
        self, shard: int, restore: Optional[bytes], initial: bool = False
    ) -> None:
        """(Re)start one worker process on this shard's ring.

        ``restore`` carries the checkpoint blob for respawns (``None``
        when the shard died before its first checkpoint — the worker
        then starts fresh and the coordinator replays everything).
        Chaos fault plans are armed only on the ``initial`` spawn:
        re-arming a raise/hang on a respawn would crash-loop recovery.
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        raise_at = hang_at = 0
        if initial and self.process_chaos is not None:
            raise_at, hang_at = self.process_chaos.worker_fault(shard)
        spec: Dict[str, Any] = {
            "shard": shard,
            "ring_name": self.rings[shard].name,
            "capacity_bytes": self.capacity_bytes,
            "record_dtype": self.record_dtype,
            "bundle": self.detector.bundle,
            "config": self.detector.worker_config(),
            "cycle_budget": self.cycle_budget,
            "idle_timeout_s": self.idle_timeout_s,
            "checkpoint_every": self.checkpoint_every,
            "restore": restore,
            "raise_at_cycle": raise_at,
            "hang_at_cycle": hang_at,
            "parent_pid": os.getpid(),
            "mitigation": self._mitigation_spec(),
            "panels": dict(self._panels),
        }
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(spec, child_conn),
            name=f"shard-{shard}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self.procs[shard] = proc
        self.conns[shard] = parent_conn
        self._progress_ns[shard] = self.clock()

    def start(self) -> None:
        """Create the rings and launch every shard's initial worker."""
        for shard in range(self.n_shards):
            self.rings.append(SharedRing(_UINT8, self.capacity_bytes))
            self.procs.append(None)
            self.conns.append(None)
            self._replay.append([])
            self._replay_size.append(0)
            self._max_dropped_tag.append(-1)
            self._checkpoints.append(None)
            self._last_error.append("")
            self._result_blocks.append([])
            self._results.append(None)
            self._progress_ns.append(0)
            self._respawns.append(0)
            self._spawn(shard, restore=None, initial=True)

    # ------------------------------------------------------------------
    # pipe pumping (heartbeats, checkpoints, errors, results)
    # ------------------------------------------------------------------
    def _handle(self, shard: int, msg: Tuple[Any, ...]) -> None:
        self._progress_ns[shard] = self.clock()
        kind = msg[0]
        if kind == "hb":
            pass
        elif kind == "res":
            # None payload = empty cycle; the send still counts as a
            # heartbeat (progress stamp above) but buffers nothing.
            if msg[2] is not None:
                self._result_blocks[shard].append((int(msg[1]), msg[2]))
        elif kind == "checkpoint":
            cycle, last_seq, blob = int(msg[1]), int(msg[2]), msg[3]
            self._checkpoints[shard] = (cycle, last_seq, blob)
            self.checkpoints_taken += 1
            # Prune replay entries the checkpoint now covers.
            buf = self._replay[shard]
            keep = 0
            while keep < len(buf) and buf[keep][0] < cycle:
                self._replay_size[shard] -= buf[keep][2]
                keep += 1
            if keep:
                del buf[:keep]
        elif kind == "result":
            self._results[shard] = (
                msg[1], msg[2], msg[3] if len(msg) > 3 else None
            )
        elif kind == "error":
            self._last_error[shard] = str(msg[1])

    def _pump(self) -> None:
        """Drain every worker pipe without blocking.

        Called from ring-wait loops and the collect loop: keeps
        heartbeats fresh, prunes replay buffers as checkpoints land, and
        — critically — unblocks a worker stuck sending a large
        checkpoint blob while the coordinator is itself blocked pushing
        into that worker's full ring.

        One ``select.select`` over all live pipes per round instead of
        a per-pipe ``Connection.poll`` — ``poll`` builds and registers
        a fresh selector object per call, which at one pump per
        dispatched frame was a measurable slice of coordinator CPU.
        """
        watch: List[Any] = []
        shard_of: Dict[Any, int] = {}
        for shard, conn in enumerate(self.conns):
            if conn is None or self._results[shard] is not None:
                continue
            watch.append(conn)
            shard_of[conn] = shard
        while watch:
            try:
                ready = select.select(watch, [], [], 0)[0]
            except (OSError, ValueError):
                return  # a pipe died mid-wait; liveness probes handle it
            if not ready:
                return
            for conn in ready:
                shard = shard_of[conn]
                try:
                    self._handle(shard, conn.recv())
                except (EOFError, OSError):
                    # Worker died mid-send; liveness probes handle it.
                    if conn in watch:
                        watch.remove(conn)
                if self._results[shard] is not None and conn in watch:
                    watch.remove(conn)

    def _stale(self, shard: int) -> bool:
        elapsed_s = (self.clock() - self._progress_ns[shard]) / 1e9
        return elapsed_s > self.heartbeat_timeout_s

    # ------------------------------------------------------------------
    # guarded push + recovery
    # ------------------------------------------------------------------
    def _buffer(self, shard: int, frame: np.ndarray, tag: int,
                n_records: int) -> None:
        """Append a frame to the shard's replay buffer, enforcing the
        record bound by dropping oldest frames (loudly counted)."""
        buf = self._replay[shard]
        buf.append((tag, frame, n_records))
        self._replay_size[shard] += n_records
        while self._replay_size[shard] > self.replay_buffer_records and len(buf) > 1:
            old_tag, _old_frame, old_n = buf.pop(0)
            self._replay_size[shard] -= old_n
            self.replay_dropped_records += old_n
            if old_tag > self._max_dropped_tag[shard]:
                self._max_dropped_tag[shard] = old_tag

    def _push(self, shard: int, frame: np.ndarray) -> None:
        """Push with liveness probes; raises PeerDead/_WorkerHung."""
        ring = self.rings[shard]
        proc = self.procs[shard]
        fill_before = len(ring)

        def on_wait() -> None:
            nonlocal fill_before
            self._pump()
            fill = len(ring)
            if fill != fill_before:
                fill_before = fill
                self._progress_ns[shard] = self.clock()
            elif self._stale(shard):
                raise _WorkerHung(
                    f"shard {shard} consumed nothing for "
                    f"{self.heartbeat_timeout_s:.1f}s with a full ring"
                )

        ring.push(
            frame,
            timeout=self.idle_timeout_s,
            peer_alive=proc.is_alive,
            on_wait=on_wait,
        )

    def send(self, shard: int, frame: np.ndarray, tag: int,
             n_records: int) -> None:
        """Record a frame in the replay buffer, then push it.

        On consumer death (``PeerDead``), a missed heartbeat deadline,
        or a full-ring timeout, the shard is recovered in place — the
        current frame is already buffered, so the recovery replay
        delivers it and this call returns with the stream intact.
        """
        self._buffer(shard, frame, tag, n_records)
        try:
            self._push(shard, frame)
        except PeerDead:
            self.recover(shard, self._death_reason(shard))
        except (_WorkerHung, TimeoutError) as exc:
            self._kill(shard)
            self.recover(shard, f"hung: {exc}")

    def _death_reason(self, shard: int) -> str:
        proc = self.procs[shard]
        proc.join(timeout=self.idle_timeout_s)
        reason = f"exitcode {proc.exitcode}"
        if self._last_error[shard]:
            reason += f"; last error: {self._last_error[shard]}"
        return reason

    def _kill(self, shard: int) -> None:
        proc = self.procs[shard]
        try:
            proc.kill()
        except (ProcessLookupError, AttributeError):
            pass
        proc.join(timeout=self.idle_timeout_s)

    def recover(self, shard: int, reason: str) -> None:
        """Respawn a dead shard from its last checkpoint and replay the
        buffered suffix.  Emits DEGRADED → HEALTHY watchdog transitions
        (FAILED instead, when the crash outran the replay buffer)."""
        t0 = self.clock()
        watchdog = self.detector.watchdog
        module = f"shard-{shard}"
        self.workers_died += 1
        watchdog.degraded(module, f"worker died ({reason})")
        self._kill(shard)  # reap if not already gone
        try:
            self.conns[shard].close()
        except Exception:
            pass

        ckpt = self._checkpoints[shard]
        cycle, last_seq = (ckpt[0], ckpt[1]) if ckpt is not None else (0, -1)
        blob = ckpt[2] if ckpt is not None else None
        lossy = self._max_dropped_tag[shard] >= cycle
        if lossy:
            self.lossy_recoveries += 1
            watchdog.failed(
                module,
                f"crash outran the replay buffer: checkpoint cycle {cycle} "
                f"needs blocks up to tag {self._max_dropped_tag[shard]} that "
                "were dropped; recovered state will diverge",
            )

        for attempt in range(self.max_respawns):
            self._respawns[shard] += 1
            if self._respawns[shard] > self.max_respawns:
                raise RuntimeError(
                    f"shard {shard} exceeded {self.max_respawns} respawns "
                    f"({reason})"
                )
            # Re-read the newest checkpoint per attempt: a previous
            # attempt's worker may have checkpointed mid-replay (pumped
            # in through _push's on_wait), which already pruned the
            # replay buffer past the original checkpoint.
            ckpt = self._checkpoints[shard]
            cycle, last_seq = (
                (ckpt[0], ckpt[1]) if ckpt is not None else (0, -1)
            )
            blob = ckpt[2] if ckpt is not None else None
            # Drop result blocks for cycles after the checkpoint: the
            # restored worker re-consumes the replayed frame suffix and
            # regenerates those blocks bit-for-bit (its own log was
            # trimmed up to the checkpoint, so keeping ours would
            # double-count).  Re-done per attempt — a worker that dies
            # *during* replay may already have streamed new blocks.
            self._result_blocks[shard] = [
                blk for blk in self._result_blocks[shard] if blk[0] <= cycle
            ]
            replay_frames = [
                (tag, frame) for tag, frame, _n in list(self._replay[shard])
                if tag >= cycle
            ]
            if os.environ.get("REPRO_SANITIZE") == "1":
                # repro: allow[LAY001] env-gated diagnostic shim: imported only under REPRO_SANITIZE=1
                from repro.verify.sanitizer import assert_recover
                assert_recover(
                    shard, cycle,
                    [blk[0] for blk in self._result_blocks[shard]],
                    [tag for tag, _frame in replay_frames],
                    self.procs[shard].is_alive(),
                )
            # Fresh worker sees an empty ring (discards any partial
            # write the failed push left) and the checkpointed state.
            self.rings[shard].reset()
            self._spawn(shard, restore=blob)
            try:
                for _tag, frame in replay_frames:
                    self._push(shard, frame)
            except (PeerDead, _WorkerHung, TimeoutError):
                self._kill(shard)
                continue
            break
        else:
            raise RuntimeError(
                f"shard {shard} died {self.max_respawns} times during "
                f"recovery ({reason})"
            )

        self.workers_respawned += 1
        self.restore_latencies_s.append((self.clock() - t0) / 1e9)
        if not lossy:
            watchdog.healthy(
                module,
                f"respawned; restored from checkpoint cycle {cycle} "
                f"(seq {last_seq})",
            )

    # ------------------------------------------------------------------
    # stream driving
    # ------------------------------------------------------------------
    def dispatch(self, kind: int, delivered: np.ndarray,
                 seqs: np.ndarray) -> None:
        """Partition a delivered slice by canonical-key hash and push
        one frame per shard (tagged for replay).

        ``FRAME_CYCLE`` frames go to *every* shard — an empty partition
        still gets an (empty) CYCLE frame, preserving the barrier
        cadence — advance the replay tag, and trigger any scheduled
        SIGKILL chaos.  ``FRAME_DATA`` frames skip empty partitions;
        ``FRAME_EOF`` is always empty and goes everywhere.
        """
        n = int(delivered.shape[0])
        tag = self.cycles_sent
        if n == 0:
            if kind != FRAME_DATA:
                for shard in range(self.n_shards):
                    frame = pack_frame(
                        kind, self._empty_seqs, self._empty_records
                    )
                    self.send(shard, frame, tag=tag, n_records=0)
        elif self.n_shards == 1:
            # Single-shard fast path: no partition hash, one frame.
            self.send(
                0, pack_frame(kind, seqs, delivered), tag=tag, n_records=n
            )
        else:
            shards = shard_arrays(
                *canonical_key_arrays(delivered), self.n_shards
            )
            for shard in range(self.n_shards):
                sel = np.flatnonzero(shards == shard)
                if sel.size == 0 and kind == FRAME_DATA:
                    continue
                frame = pack_frame(kind, seqs[sel], delivered[sel])
                self.send(shard, frame, tag=tag, n_records=int(sel.size))
        if kind == FRAME_CYCLE:
            self.cycles_sent += 1
            if self.process_chaos is not None:
                for shard in self.process_chaos.sigkills_at(self.cycles_sent):
                    self._kill(shard)
        self._pump()

    def broadcast_swap(self, epoch: int, blob: bytes) -> None:
        """Broadcast a panel generation to every shard at the current
        CYCLE boundary (the swap barrier).

        Called right after the CYCLE frames for slice *k* were
        dispatched, so the swap frame sits between CYCLE *k* and CYCLE
        *k*+1 on every ring — each worker's ordered frame stream makes
        it install the panel at the same global boundary.  The frame is
        replay-tagged like any other (``tag = cycles_sent``), so a
        worker restored from an earlier checkpoint re-receives it in
        the right position; workers restored from a *later* checkpoint
        skip the stale replay idempotently.  Counts zero records
        against the replay-buffer bound (control frames are free).
        """
        self._panels[int(epoch)] = blob
        self.swap_broadcasts += 1
        frame = pack_blob_frame(FRAME_SWAP, int(epoch), blob)
        for shard in range(self.n_shards):
            self.send(shard, frame, tag=self.cycles_sent, n_records=0)
        self._pump()

    # ------------------------------------------------------------------
    # result collection
    # ------------------------------------------------------------------
    def collect(self) -> List[Tuple[np.ndarray, dict, Any]]:
        """Wait for every shard's result, recovering any worker that
        dies or hangs on the way out."""
        for shard in range(self.n_shards):
            while self._results[shard] is None:
                self._pump()
                if self._results[shard] is not None:
                    break
                proc = self.procs[shard]
                if not proc.is_alive():
                    self._pump()  # drain anything sent before death
                    if self._results[shard] is not None:
                        break
                    self.recover(shard, self._death_reason(shard))
                elif self._stale(shard):
                    self._kill(shard)
                    self.recover(
                        shard,
                        f"missed heartbeat deadline "
                        f"({self.heartbeat_timeout_s:.1f}s) while draining",
                    )
                else:
                    time.sleep(SharedRing.MAX_WAIT_SLEEP_S)  # repro: allow[DET002] coordinator wait loop; bounded by liveness probes above
        out: List[Tuple[np.ndarray, dict, Any]] = []
        for shard in range(self.n_shards):
            result = self._results[shard]
            assert result is not None
            out.append(result)
        return out

    def shard_rows(self, shard: int) -> np.ndarray:
        """A shard's full prediction log: the streamed per-cycle rows
        (in cycle order, post any recovery truncation) followed by the
        final EOF-drain rows.  Call after :meth:`collect`."""
        result = self._results[shard]
        assert result is not None
        blocks = [rows for _cycle, rows in self._result_blocks[shard]]
        blocks.append(result[0])
        return np.concatenate(blocks)

    def join_all(self) -> None:
        for proc in self.procs:
            if proc is not None:
                proc.join(timeout=self.idle_timeout_s)

    # ------------------------------------------------------------------
    # teardown + observability
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Terminate anything still alive and destroy the rings."""
        for proc in self.procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for ring in self.rings:
            try:
                ring.close()
                ring.unlink()
            except Exception:
                pass

    def stats(self) -> Dict[str, object]:
        """Supervision counters for the mechanism's stats surface."""
        return {
            "workers_died": self.workers_died,
            "workers_respawned": self.workers_respawned,
            "checkpoints_taken": self.checkpoints_taken,
            "lossy_recoveries": self.lossy_recoveries,
            "swap_broadcasts": self.swap_broadcasts,
            "replay_dropped_records": self.replay_dropped_records,
            "restore_latencies_s": list(self.restore_latencies_s),
        }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def run_sharded(
    detector: "AutomatedDDoSDetector",
    records: np.ndarray,
    n_shards: int,
    poll_every: int = 64,
    cycle_budget: int = 128,
    ring_capacity: Optional[int] = None,
    start_method: str = "fork",
    idle_timeout_s: float = 60.0,
    checkpoint_every: int = 16,
    replay_buffer_records: Optional[int] = None,
    heartbeat_timeout_s: float = 30.0,
    process_chaos: Optional[ProcessChaos] = None,
    max_respawns: int = 3,
) -> FlowDatabase:
    """Fan a record stream out over ``n_shards`` supervised workers.

    The coordinator drives the detector's own slice walk
    (:meth:`AutomatedDDoSDetector.walk` — the loop the single-process
    batched mode runs, fault injector and drift check included),
    assigning global sequence numbers to the delivered rows,
    partitioning them by canonical-key hash, and pushing each partition
    into its worker's ring.  Slice boundaries become CYCLE markers on
    *every* ring; EOF follows the final flush.  Results merge into
    ``detector.db`` sorted by ``(seq, shard)``; per-worker stats land on
    ``detector.shard_stats`` and supervision counters on
    ``detector.supervision_stats``.

    Worker crashes (including any scheduled by ``process_chaos``) are
    recovered transparently via checkpoint + replay — see
    :class:`Supervisor`; the merged log is byte-identical to an
    unfaulted run unless the crash outran the replay buffer, which is
    loudly surfaced instead.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1: {n_shards}")
    if poll_every < 1 or cycle_budget < 1:
        raise ValueError("poll_every and cycle_budget must be >= 1")
    gate = getattr(detector, "sketch_gate", None)
    if gate is not None and gate.config.partitions % n_shards != 0:
        # Sketch-cell co-location (repro.sketch.cms) requires the shard
        # count to divide the virtual-partition count; otherwise one
        # partition's flows split across workers and collision patterns
        # — hence admission decisions — would depend on n_shards.
        raise ValueError(
            f"sketch partitions ({gate.config.partitions}) must be a "
            f"multiple of n_shards ({n_shards}) for shard-count-"
            f"independent admission"
        )
    if ring_capacity is None:
        # Room (in records) for several slices per shard so a briefly-
        # stalled worker does not immediately backpressure the
        # coordinator; the Supervisor converts to ring bytes.
        ring_capacity = max(8 * poll_every, 1024)

    sup = Supervisor(
        detector,
        record_dtype=records.dtype,
        n_shards=n_shards,
        ring_capacity=ring_capacity,
        cycle_budget=cycle_budget,
        idle_timeout_s=idle_timeout_s,
        start_method=start_method,
        checkpoint_every=checkpoint_every,
        replay_buffer_records=replay_buffer_records,
        heartbeat_timeout_s=heartbeat_timeout_s,
        process_chaos=process_chaos,
        max_respawns=max_respawns,
    )
    try:
        sup.start()
        seq_base = 0

        def dispatch(kind: int, delivered: np.ndarray) -> None:
            nonlocal seq_base
            n = delivered.shape[0]
            seqs = np.arange(seq_base, seq_base + n, dtype=np.int64)
            seq_base += n
            sup.dispatch(kind, delivered, seqs)

        def deliver(delivered: np.ndarray, boundary: bool) -> None:
            if boundary:
                # Slice + barrier travel as one CYCLE frame per shard.
                dispatch(FRAME_CYCLE, delivered)
            elif delivered.shape[0]:
                dispatch(FRAME_DATA, delivered)

        # The single-process loop's own walk (same chaos transform, same
        # drift check); a swap decided at a boundary broadcasts right after
        # its CYCLE frames, so every shard switches before the next cycle.
        detector.walk(
            records, poll_every, deliver,
            swap=lambda cmd: sup.broadcast_swap(cmd.epoch, cmd.blob),
        )
        dispatch(FRAME_EOF, records[:0])

        shard_results = sup.collect()
        sup.join_all()

        db = detector.db
        # Merge: concatenate the shards' rows and sort by (seq, shard) —
        # lexsort keys are listed least-significant first.  The rows go
        # straight into the log, bypassing the store taps: the mitigation
        # flow tier already ran on the worker that owns each flow, and
        # absorb_run below fast-forwards the coordinator's flow cursor
        # past this merged log.
        rows_by_shard = [sup.shard_rows(shard) for shard in range(n_shards)]
        merged = np.concatenate(rows_by_shard)
        shard_col = np.repeat(
            np.arange(n_shards), [rows.shape[0] for rows in rows_by_shard]
        )
        db.predictions.extend(merged[np.lexsort((shard_col, merged["seq"]))])
        detector.shard_stats = [stats for _, stats, _ in shard_results]
        detector.supervision_stats = sup.stats()
        mitigation = getattr(detector, "mitigation", None)
        if mitigation is not None:
            worker_actions: List[Any] = []
            worker_mitigation_stats: List[dict] = []
            for _rows, stats, actions in shard_results:
                if actions:
                    worker_actions.extend(actions)
                shard_mit = (
                    stats.get("mitigation") if isinstance(stats, dict) else None
                )
                if shard_mit:
                    worker_mitigation_stats.append(shard_mit)
            mitigation.absorb_run(
                worker_actions, worker_mitigation_stats,
                lossy=sup.lossy_recoveries,
            )
            # Episode tier over the merged (seq, key)-sorted log — the
            # same input sequence for every worker count.
            mitigation.finish_run(db, lossy=0)
        return db
    finally:
        sup.shutdown()
