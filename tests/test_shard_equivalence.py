"""Shard-parallel vs single-process equivalence.

The sharded execution mode exists purely for horizontal throughput: for
any worker count, the merged prediction log must be *result-identical*
to the single-process batched run — same entries, same votes, same
windowed decisions, same sequence numbers — clean and under chaos.
Identity is asserted through :func:`prediction_log_digest`, a SHA-256
over the deterministic entry fields in canonical ``(seq, key)`` order
(wall stamps come from per-process clocks and are excluded by design).

Also here: the shard-stability property suite — partitioning runs on the
*canonical* five-tuple, so both directions of a conversation must land
on the same shard, and the scalar and vectorized hash must agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AutomatedDDoSDetector, pretrain
from repro.core.sharding import prediction_log_digest
from repro.features import extract_features
from repro.features.keys import (
    canonical_flow_key,
    canonical_key_arrays,
    shard_arrays,
    shard_of_key,
)
from repro.int_telemetry import REPORT_DTYPE
from repro.ml import GaussianNB, RandomForestClassifier
from repro.resilience.chaos import ChaosSchedule
from repro.resilience.process_chaos import ProcessChaos
from repro.sketch import SketchConfig

from .test_batch_equivalence import synthetic_records

POLL_EVERY = 37
# Generous budget: equivalence is defined in the no-backlog regime
# (every cycle clears everything a slice registered, in both modes).
CYCLE_BUDGET = 256

CHAOS = ChaosSchedule(
    drop_rate=0.05, burst_p=0.02, burst_r=0.3, burst_loss=0.8,
    duplicate_rate=0.03, reorder_rate=0.04, reorder_depth=3,
    corrupt_rate=0.02,
)


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
            "rf": lambda: RandomForestClassifier(n_estimators=5, max_depth=6, seed=0),
            "gnb": lambda: GaussianNB(),
        },
    )


@pytest.fixture(scope="module")
def stream():
    ben = synthetic_records(attack=False)
    atk = synthetic_records(attack=True, t0=10**9)
    records = np.concatenate([ben, atk])
    return records[np.random.default_rng(7).permutation(len(records))]


def run_mode(bundle, stream, chaos=None, shards=None):
    det = AutomatedDDoSDetector(
        bundle, batched=True, chaos=chaos, chaos_seed=123
    )
    db = det.run_stream(
        stream, poll_every=POLL_EVERY, cycle_budget=CYCLE_BUDGET,
        shards=shards,
    )
    return det, db


# ---------------------------------------------------------------------------
# merged-log identity
# ---------------------------------------------------------------------------


class TestShardedEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("chaos", [None, CHAOS], ids=["clean", "chaos"])
    def test_digest_identical_to_single_process(
        self, bundle, stream, chaos, n_shards
    ):
        _, db_ref = run_mode(bundle, stream, chaos=chaos)
        _, db_sh = run_mode(bundle, stream, chaos=chaos, shards=n_shards)
        assert len(db_ref.predictions) > 0
        assert len(db_sh.predictions) == len(db_ref.predictions)
        assert prediction_log_digest(db_sh) == prediction_log_digest(db_ref)

    def test_merge_order_is_by_seq_then_shard(self, bundle, stream):
        _, db = run_mode(bundle, stream, shards=2)
        seqs = [e.seq for e in db.predictions]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)  # one update per delivered packet

    def test_every_entry_keeps_full_votes(self, bundle, stream):
        _, db = run_mode(bundle, stream, shards=2)
        assert all(len(e.votes) == 2 for e in db.predictions)  # rf + gnb
        assert all(e.final_decision in (0, 1, None) for e in db.predictions)

    def test_shard_stats_aggregated(self, bundle, stream):
        det, db = run_mode(bundle, stream, shards=2)
        assert det.shard_stats is not None and len(det.shard_stats) == 2
        served = sum(s["predictions_served"] for s in det.shard_stats)
        assert served == len(db.predictions)
        # Each flow lives on one shard, so its decision window does too.
        windows = sum(s["decision_windows"] for s in det.shard_stats)
        assert windows == len({e.key for e in db.predictions})
        stats = det.stats()
        assert len(stats["shards"]) == 2

    @pytest.mark.parametrize("shards", [None, 2])
    def test_evicted_updates_counted(self, bundle, stream, shards):
        """With ``max_flows=1`` most pending updates belong to flow lives
        evicted before the poll: each is dropped and counted, never lost
        silently."""
        det = AutomatedDDoSDetector(bundle, batched=True, max_flows=1)
        det.run_stream(stream, poll_every=POLL_EVERY, cycle_budget=CYCLE_BUDGET,
                       shards=shards)
        stats = det.stats()
        for part in stats.get("shards") or [stats]:
            assert part["updates_evicted"] > 0
            assert part["updates_registered"] == (
                part["predictions_stored"] + part["updates_evicted"]
                + part["skipped_evicted"] + part["pending_updates"]
            )

    def test_chaos_replay_independent_of_worker_count(self, bundle, stream):
        _, db2 = run_mode(bundle, stream, chaos=CHAOS, shards=2)
        _, db4 = run_mode(bundle, stream, chaos=CHAOS, shards=4)
        assert prediction_log_digest(db2) == prediction_log_digest(db4)


# ---------------------------------------------------------------------------
# sketch-gated merged-log identity
# ---------------------------------------------------------------------------

#: Small sketch so collisions actually happen at test scale, promotion
#: low enough that some flows are admitted, decay on to exercise the
#: window cadence across execution modes.
SKETCH = SketchConfig(
    width=256, depth=3, partitions=16, promote_packets=3, decay_every=4
)


def run_gated(bundle, stream, chaos=None, shards=None, process_chaos=None):
    det = AutomatedDDoSDetector(
        bundle, batched=True, chaos=chaos, chaos_seed=123, sketch=SKETCH
    )
    kwargs = {}
    if process_chaos is not None:
        kwargs.update(process_chaos=process_chaos, checkpoint_every=3)
    db = det.run_stream(
        stream, poll_every=POLL_EVERY, cycle_budget=CYCLE_BUDGET,
        shards=shards, **kwargs,
    )
    return det, db


class TestSketchGatedEquivalence:
    """The admission gate must not break shard-count-independence: the
    sketch's virtual partitions ride the same splitmix64 hash as shard
    assignment, so collision patterns — hence promotions, hence the
    merged prediction log — are identical for any worker count dividing
    the partition count."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("chaos", [None, CHAOS], ids=["clean", "chaos"])
    def test_gated_digest_identical_to_single_process(
        self, bundle, stream, chaos, n_shards
    ):
        _, db_ref = run_gated(bundle, stream, chaos=chaos)
        _, db_sh = run_gated(bundle, stream, chaos=chaos, shards=n_shards)
        assert len(db_ref.predictions) > 0
        assert prediction_log_digest(db_sh) == prediction_log_digest(db_ref)

    def test_gate_actually_rejects(self, bundle, stream):
        """The gated run predicts strictly fewer updates than the exact
        path — otherwise these digests test nothing."""
        _, db_exact = run_mode(bundle, stream)
        det, db_gated = run_gated(bundle, stream)
        assert 0 < len(db_gated.predictions) < len(db_exact.predictions)
        sk = det.stats()["sketch"]
        assert sk["rejected_packets"] > 0
        assert sk["promotions"] > 0
        assert sk["residual_packets"] == sk["rejected_packets"]

    def test_gated_digest_survives_worker_kill(self, bundle, stream):
        """Sketch state rides RPRCKPT1: a SIGKILLed worker restores its
        counters and window tally from the checkpoint and replays, so
        post-recovery admission — and the merged log — are unchanged."""
        _, db_ref = run_gated(bundle, stream)
        n_cycles = stream.shape[0] // POLL_EVERY
        plan = ProcessChaos(kills=((max(2, n_cycles // 2), 1, "sigkill"),))
        det, db = run_gated(bundle, stream, shards=2, process_chaos=plan)
        assert prediction_log_digest(db) == prediction_log_digest(db_ref)
        sup = det.supervision_stats
        assert sup is not None and sup["workers_respawned"] >= 1
        assert sup["lossy_recoveries"] == 0

    def test_indivisible_partition_count_rejected(self, bundle, stream):
        cfg = SketchConfig(width=64, depth=2, partitions=9, promote_packets=3)
        det = AutomatedDDoSDetector(bundle, batched=True, sketch=cfg)
        with pytest.raises(ValueError, match="multiple of n_shards"):
            det.run_stream(
                stream, poll_every=POLL_EVERY, cycle_budget=CYCLE_BUDGET,
                shards=2,
            )


# ---------------------------------------------------------------------------
# shard-assignment stability (hypothesis)
# ---------------------------------------------------------------------------

ips = st.integers(0, 2**32 - 1)
ports = st.integers(0, 2**16 - 1)
protos = st.sampled_from([1, 6, 17])
shard_counts = st.integers(1, 16)


@given(src_ip=ips, dst_ip=ips, src_port=ports, dst_port=ports,
       proto=protos, n_shards=shard_counts)
@settings(max_examples=300, deadline=None)
def test_both_directions_same_shard(src_ip, dst_ip, src_port, dst_port,
                                    proto, n_shards):
    """A conversation's two packet directions share one worker."""
    fwd = shard_of_key(
        canonical_flow_key(src_ip, dst_ip, src_port, dst_port, proto),
        n_shards,
    )
    rev = shard_of_key(
        canonical_flow_key(dst_ip, src_ip, dst_port, src_port, proto),
        n_shards,
    )
    assert fwd == rev
    assert 0 <= fwd < n_shards


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 100),
       n_shards=shard_counts)
@settings(max_examples=60, deadline=None)
def test_vectorized_hash_matches_scalar(seed, n, n_shards):
    rng = np.random.default_rng(seed)
    rec = np.zeros(n, dtype=REPORT_DTYPE)
    rec["src_ip"] = rng.integers(0, 2**32, n)
    rec["dst_ip"] = rng.integers(0, 2**32, n)
    rec["src_port"] = rng.integers(0, 2**16, n)
    rec["dst_port"] = rng.integers(0, 2**16, n)
    rec["protocol"] = rng.choice([6, 17], n)
    cols = canonical_key_arrays(rec)
    vec = shard_arrays(*cols, n_shards)
    for i in range(n):
        key = canonical_flow_key(
            int(rec["src_ip"][i]), int(rec["dst_ip"][i]),
            int(rec["src_port"][i]), int(rec["dst_port"][i]),
            int(rec["protocol"][i]),
        )
        assert shard_of_key(key, n_shards) == int(vec[i])


def test_partition_covers_stream_disjointly():
    """Every record lands on exactly one shard; shard ids are in range."""
    rec = synthetic_records(n_flows=40, pkts_per_flow=3)
    shards = shard_arrays(*canonical_key_arrays(rec), 4)
    assert shards.shape == (rec.shape[0],)
    assert set(np.unique(shards)).issubset({0, 1, 2, 3})
    sizes = [int((shards == s).sum()) for s in range(4)]
    assert sum(sizes) == rec.shape[0]
