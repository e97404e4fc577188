"""The batch-frame ring protocol (PR 7).

Three layers of coverage for the sharded detector's wire format:

* **codec properties** (hypothesis): ``pack_frame`` →
  ``read_frame_header`` → ``unpack_frame_payload`` round-trips
  arbitrary cycle sizes — including 0-record CYCLE barriers and
  EOF-in-header — bit-exactly, with the unpacked arrays as zero-copy
  views of the popped payload;
* **transport**: frames crossing a deliberately tiny
  :class:`~repro.common.buffers.SharedRing` stay intact across slot
  wrap-around at frame boundaries, and oversized frames stream through
  a ring smaller than one frame; ``pop_exact`` honours its timeout and
  peer-liveness guards;
* **recovery**: the frame-tagged replay buffer restores a murdered
  worker bit-for-bit even when the ring is small enough that replayed
  frames wrap — the same digest invariant as
  ``test_recovery_equivalence.py``, down at the frame layer.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.buffers import (
    FRAME_CYCLE,
    FRAME_DATA,
    FRAME_EOF,
    FRAME_HEADER_BYTES,
    FRAME_MAGIC,
    FrameError,
    PeerDead,
    SharedRing,
    pack_frame,
    read_frame_header,
    unpack_frame_payload,
)
from repro.core import AutomatedDDoSDetector, pretrain
from repro.core.sharding import prediction_log_digest
from repro.features import extract_features
from repro.int_telemetry import REPORT_DTYPE
from repro.ml import GaussianNB, RandomForestClassifier
from repro.resilience.process_chaos import ProcessChaos

from .test_batch_equivalence import synthetic_records

#: Unaligned record layout (itemsize 11) — stresses the zero-copy view
#: reinterpretation harder than the naturally-aligned REPORT_DTYPE.
DT = np.dtype([("a", "<i8"), ("b", "<u2"), ("c", "<u1")])

_U8 = np.dtype(np.uint8)


def _make_records(n, seed=0):
    rng = np.random.default_rng(seed)
    rec = np.zeros(n, dtype=DT)
    rec["a"] = rng.integers(-(2**62), 2**62, size=n)
    rec["b"] = rng.integers(0, 2**16, size=n)
    rec["c"] = rng.integers(0, 2**8, size=n)
    return rec


def _roundtrip(frame, record_dtype):
    kind, count, seq_base, payload_bytes = read_frame_header(
        frame[:FRAME_HEADER_BYTES]
    )
    assert payload_bytes == frame.shape[0] - FRAME_HEADER_BYTES
    seqs, records = unpack_frame_payload(
        frame[FRAME_HEADER_BYTES:], count, record_dtype
    )
    return kind, seq_base, seqs, records


# ---------------------------------------------------------------------------
# codec round-trip properties
# ---------------------------------------------------------------------------
@given(
    n=st.integers(0, 200),
    kind=st.sampled_from([FRAME_DATA, FRAME_CYCLE]),
    seq0=st.integers(0, 2**40),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_frame_roundtrip_arbitrary_cycle_sizes(n, kind, seq0, seed):
    records = _make_records(n, seed=seed)
    seqs = np.arange(seq0, seq0 + n, dtype=np.int64)
    frame = pack_frame(kind, seqs, records)
    assert frame.dtype == _U8
    assert frame.shape[0] == FRAME_HEADER_BYTES + n * (8 + DT.itemsize)

    out_kind, seq_base, out_seqs, out_records = _roundtrip(frame, DT)
    assert out_kind == kind
    assert seq_base == (seq0 if n else -1)
    assert out_seqs.tolist() == seqs.tolist()
    assert np.array_equal(out_records, records)


@given(n=st.integers(1, 64), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_frame_roundtrip_report_dtype(n, seed):
    """The real telemetry dtype survives the wire byte-exactly."""
    rng = np.random.default_rng(seed)
    records = np.zeros(n, dtype=REPORT_DTYPE)
    records["ts_report"] = rng.integers(0, 2**60, size=n)
    records["src_ip"] = rng.integers(0, 2**32, size=n)
    records["length"] = rng.integers(0, 2**16, size=n)
    seqs = rng.integers(0, 2**50, size=n).astype(np.int64)
    frame = pack_frame(FRAME_CYCLE, seqs, records)
    _, _, out_seqs, out_records = _roundtrip(frame, REPORT_DTYPE)
    assert out_seqs.tolist() == seqs.tolist()
    assert out_records.tobytes() == records.tobytes()


def test_zero_record_cycle_and_eof_fold_into_header():
    """Control markers are header-only frames: 32 bytes, no payload."""
    empty = _make_records(0)
    no_seqs = np.empty(0, dtype=np.int64)
    for kind in (FRAME_CYCLE, FRAME_EOF):
        frame = pack_frame(kind, no_seqs, empty)
        assert frame.shape[0] == FRAME_HEADER_BYTES
        out_kind, count, seq_base, payload_bytes = read_frame_header(frame)
        assert (out_kind, count, seq_base, payload_bytes) == (kind, 0, -1, 0)
        seqs, records = unpack_frame_payload(
            frame[FRAME_HEADER_BYTES:], 0, DT
        )
        assert seqs.shape == (0,) and records.shape == (0,)


def test_unpack_is_zero_copy_view_of_payload():
    """The aliasing contract: unpacked arrays alias the popped payload
    (an owning copy), never a second allocation."""
    records = _make_records(16)
    seqs = np.arange(16, dtype=np.int64)
    frame = pack_frame(FRAME_DATA, seqs, records)
    payload = frame[FRAME_HEADER_BYTES:]
    out_seqs, out_records = unpack_frame_payload(payload, 16, DT)
    assert out_seqs.base is not None and out_records.base is not None
    # Mutating the payload must show through the views — proof they
    # share memory rather than copying.
    payload[:8] = 0xFF
    assert out_seqs[0] == np.int64(-1)


def test_header_validation_rejects_desynchronized_streams():
    records = _make_records(3)
    seqs = np.arange(3, dtype=np.int64)
    frame = pack_frame(FRAME_DATA, seqs, records)

    with pytest.raises(FrameError, match="32 bytes"):
        read_frame_header(frame[: FRAME_HEADER_BYTES - 1])

    bad_magic = frame[:FRAME_HEADER_BYTES].copy()
    bad_magic[0] ^= 0xFF
    with pytest.raises(FrameError, match="magic"):
        read_frame_header(bad_magic)

    bad_kind = frame.copy()
    bad_kind[4] = 99
    with pytest.raises(FrameError, match="kind"):
        read_frame_header(bad_kind[:FRAME_HEADER_BYTES])

    truncated = frame[FRAME_HEADER_BYTES:-1]
    with pytest.raises(FrameError, match="expected"):
        unpack_frame_payload(truncated, 3, DT)


def test_pack_frame_rejects_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        pack_frame(FRAME_DATA, np.arange(2, dtype=np.int64),
                   _make_records(3))


def test_frame_magic_spells_frm1():
    assert FRAME_MAGIC.to_bytes(4, "little") == b"FRM1"


# ---------------------------------------------------------------------------
# transport: frames across a SharedRing
# ---------------------------------------------------------------------------
def _push_frames(ring, frames):
    for frame in frames:
        ring.push(frame, timeout=30.0)


def _pop_frame(ring, record_dtype, timeout=30.0):
    header = ring.pop_exact(FRAME_HEADER_BYTES, timeout=timeout)
    kind, count, seq_base, payload_bytes = read_frame_header(header)
    if payload_bytes:
        payload = ring.pop_exact(payload_bytes, timeout=timeout)
        seqs, records = unpack_frame_payload(payload, count, record_dtype)
    else:
        seqs = np.empty(0, dtype=np.int64)
        records = np.empty(0, dtype=record_dtype)
    return kind, seq_base, seqs, records


@given(
    counts=st.lists(st.integers(0, 9), min_size=1, max_size=12),
    capacity=st.sampled_from([96, 128, 256]),
)
@settings(max_examples=40, deadline=None)
def test_frames_cross_ring_wraparound_at_frame_boundaries(counts, capacity):
    """A frame sequence whose cumulative length exceeds the ring many
    times over arrives intact and in order — slot wrap-around lands at
    arbitrary offsets inside headers and payloads."""
    frames, expect = [], []
    seq = 0
    for i, n in enumerate(counts):
        records = _make_records(n, seed=i)
        seqs = np.arange(seq, seq + n, dtype=np.int64)
        seq += n
        kind = FRAME_CYCLE if i % 2 else FRAME_DATA
        frames.append(pack_frame(kind, seqs, records))
        expect.append((kind, seqs, records))
    frames.append(pack_frame(FRAME_EOF, np.empty(0, np.int64),
                             _make_records(0)))

    with SharedRing(_U8, capacity=capacity) as ring:
        producer = threading.Thread(target=_push_frames, args=(ring, frames))
        producer.start()
        try:
            for kind, seqs, records in expect:
                out_kind, _, out_seqs, out_records = _pop_frame(ring, DT)
                assert out_kind == kind
                assert out_seqs.tolist() == seqs.tolist()
                assert np.array_equal(out_records, records)
            assert _pop_frame(ring, DT)[0] == FRAME_EOF
        finally:
            producer.join()


def test_oversized_frame_streams_through_smaller_ring():
    """One frame larger than the whole ring drains in pieces —
    ``pop_exact`` releases slots as it copies, so the producer's
    streaming ``push`` never deadlocks against it."""
    records = _make_records(40)  # 32 + 40*19 = 792 B frame
    frame = pack_frame(FRAME_DATA, np.arange(40, dtype=np.int64), records)
    with SharedRing(_U8, capacity=64) as ring:
        assert frame.shape[0] > ring.capacity
        producer = threading.Thread(target=_push_frames, args=(ring, [frame]))
        producer.start()
        try:
            _, _, out_seqs, out_records = _pop_frame(ring, DT)
            assert np.array_equal(out_records, records)
            assert out_seqs.tolist() == list(range(40))
        finally:
            producer.join()


def test_pop_exact_times_out_on_partial_frame():
    with SharedRing(_U8, capacity=64) as ring:
        ring.push(np.zeros(8, dtype=_U8), timeout=1.0)
        with pytest.raises(TimeoutError, match="8/32"):
            ring.pop_exact(FRAME_HEADER_BYTES, timeout=0.2)


def test_pop_exact_raises_peer_dead_before_timeout():
    with SharedRing(_U8, capacity=64) as ring:
        with pytest.raises(PeerDead):
            ring.pop_exact(FRAME_HEADER_BYTES, timeout=30.0,
                           peer_alive=lambda: False)


def test_pop_exact_zero_and_negative():
    with SharedRing(_U8, capacity=64) as ring:
        assert ring.pop_exact(0, timeout=1.0).shape == (0,)
        with pytest.raises(ValueError):
            ring.pop_exact(-1, timeout=1.0)


# ---------------------------------------------------------------------------
# recovery: the frame-tagged replay buffer
# ---------------------------------------------------------------------------
POLL_EVERY = 37
CYCLE_BUDGET = 256


@pytest.fixture(scope="module")
def bundle():
    ben = synthetic_records(attack=False)
    atk = synthetic_records(attack=True, t0=10**9)
    records = np.concatenate([ben, atk])
    fm = extract_features(records, source="int")
    y = np.array([0] * len(ben) + [1] * len(atk))
    return pretrain(
        fm.X, y, fm.names,
        panel={
            "rf": lambda: RandomForestClassifier(
                n_estimators=5, max_depth=6, seed=0
            ),
            "gnb": lambda: GaussianNB(),
        },
    )


@pytest.fixture(scope="module")
def stream():
    ben = synthetic_records(attack=False)
    atk = synthetic_records(attack=True, t0=10**9)
    records = np.concatenate([ben, atk])
    return records[np.random.default_rng(11).permutation(len(records))]


def test_replay_of_frame_tagged_buffer_survives_tiny_ring(bundle, stream):
    """Kill a worker behind a ring so small that both the live stream
    and the post-restore replay wrap it repeatedly: the frame-tagged
    replay buffer must reproduce the batched digest bit-for-bit.

    This is ``test_recovery_equivalence`` pushed down to the frame
    layer — replay re-pushes *frames* (tag = CYCLE frames sent before
    each one), so a correct recovery proves tags stay aligned with
    frame boundaries across wrap-around and ring reset.
    """
    det_ref = AutomatedDDoSDetector(bundle)
    db_ref = det_ref.run_stream(
        stream, poll_every=POLL_EVERY, cycle_budget=CYCLE_BUDGET
    )
    ref_digest = prediction_log_digest(db_ref)

    n_cycles = stream.shape[0] // POLL_EVERY
    plan = ProcessChaos(kills=((max(2, n_cycles // 2), 1, "sigkill"),))
    det = AutomatedDDoSDetector(bundle)
    db = det.run_stream(
        stream, poll_every=POLL_EVERY, cycle_budget=CYCLE_BUDGET,
        shards=2, process_chaos=plan, checkpoint_every=3,
        ring_capacity=16,  # frames for a 37-record slice always wrap
    )
    assert prediction_log_digest(db) == ref_digest
    sup = det.supervision_stats
    assert sup["workers_died"] == 1
    assert sup["workers_respawned"] == 1
    assert sup["lossy_recoveries"] == 0
