"""Sketch layer determinism and admission-gate semantics.

Covers the contracts the detector leans on:

* the seeded hash family is stdlib-``hash()``-free and its scalar and
  vectorized forms are bit-identical;
* count-min never undercounts (estimate ≥ true count) and estimates are
  monotone in further updates, for both update disciplines;
* checkpoint snapshot/restore is bit-identical;
* slice-granular updates are order- and partition-independent — the
  property behind shard-count-independent admission;
* ``FlowBatch.subset`` composes like a batch that never held the
  dropped records;
* the gate's promotion/residual accounting conserves packets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.batch import group_by_flow
from repro.features.keys import (
    canonical_key_arrays,
    key_hash_arrays,
    key_hash_of_key,
    shard_of_key,
)
from repro.sketch import (
    CountMinSketch,
    SketchConfig,
    SketchGate,
    cell_column,
    cell_columns,
    mix64,
    mix64_arrays,
    row_seeds,
)

from .test_batch_equivalence import synthetic_records

ips = st.integers(0, 2**32 - 1)
ports = st.integers(0, 2**16 - 1)
u64 = st.integers(0, 2**64 - 1)


# ---------------------------------------------------------------------------
# hash family
# ---------------------------------------------------------------------------


class TestHashFamily:
    @given(x=u64)
    @settings(max_examples=200, deadline=None)
    def test_scalar_vector_mix_identical(self, x):
        arr = mix64_arrays(np.array([x], dtype=np.uint64))
        assert int(arr[0]) == mix64(x)

    @given(kh=u64, seed=u64, width=st.integers(1, 1 << 20))
    @settings(max_examples=200, deadline=None)
    def test_scalar_vector_columns_identical(self, kh, seed, width):
        vec = cell_columns(np.array([kh], dtype=np.uint64), seed, width)
        col = cell_column(kh, seed, width)
        assert int(vec[0]) == col
        assert 0 <= col < width

    def test_row_seeds_deterministic_and_distinct(self):
        a = row_seeds(2024, 8)
        b = row_seeds(2024, 8)
        assert np.array_equal(a, b)
        assert len(set(a.tolist())) == 8
        assert not np.array_equal(a, row_seeds(2025, 8))

    @given(src=ips, dst=ips, sp=ports, dp=ports)
    @settings(max_examples=100, deadline=None)
    def test_key_hash_scalar_matches_vectorized(self, src, dst, sp, dp):
        ia, ib = (src, dst) if (src, sp) <= (dst, dp) else (dst, src)
        pa, pb = (sp, dp) if (src, sp) <= (dst, dp) else (dp, sp)
        vec = key_hash_arrays(
            np.array([ia], np.uint32), np.array([ib], np.uint32),
            np.array([pa], np.uint16), np.array([pb], np.uint16),
            np.array([6], np.uint8),
        )
        assert int(vec[0]) == key_hash_of_key((ia, ib, pa, pb, 6))


# ---------------------------------------------------------------------------
# count-min estimates
# ---------------------------------------------------------------------------

flow_slices = st.lists(
    st.tuples(st.integers(0, 31), st.integers(1, 50), st.integers(1, 1500)),
    min_size=1,
    max_size=60,
)


def _fold_slices(sketch, slices, n_ids=32):
    """Fold (flow_id, pkts, bytes) triples as one-slice-per-triple and
    return true per-flow totals keyed by a stable synthetic key hash."""
    kh_of = {i: mix64(i * 7919 + 13) for i in range(n_ids)}
    true_pkts = {}
    true_bytes = {}
    for fid, pk, by in slices:
        sketch.update_groups(
            np.array([kh_of[fid]], dtype=np.uint64),
            np.array([pk], dtype=np.int64),
            np.array([by], dtype=np.int64),
        )
        true_pkts[fid] = true_pkts.get(fid, 0) + pk
        true_bytes[fid] = true_bytes.get(fid, 0) + by
    return kh_of, true_pkts, true_bytes


class TestCountMin:
    @pytest.mark.parametrize("kind", ["cms", "cu"])
    @given(slices=flow_slices)
    @settings(max_examples=60, deadline=None)
    def test_estimate_never_undercounts(self, kind, slices):
        sk = CountMinSketch(width=16, depth=3, partitions=4, kind=kind)
        kh_of, true_pkts, true_bytes = _fold_slices(sk, slices)
        for fid, pk in true_pkts.items():
            est_p, est_b = sk.estimate(kh_of[fid])
            assert est_p >= pk
            assert est_b >= true_bytes[fid]

    @pytest.mark.parametrize("kind", ["cms", "cu"])
    @given(slices=flow_slices)
    @settings(max_examples=40, deadline=None)
    def test_estimates_monotone_in_updates(self, kind, slices):
        sk = CountMinSketch(width=16, depth=3, partitions=4, kind=kind)
        probe = np.uint64(mix64(424242))
        prev = 0
        for fid, pk, by in slices:
            sk.update_groups(
                np.array([mix64(fid * 7919 + 13)], dtype=np.uint64),
                np.array([pk], dtype=np.int64),
                np.array([by], dtype=np.int64),
            )
            cur, _ = sk.estimate(int(probe))
            assert cur >= prev
            prev = cur

    def test_cu_tighter_than_cms(self):
        """Conservative update's estimates are bounded by plain CMS."""
        rng = np.random.default_rng(3)
        kh = mix64_arrays(rng.integers(0, 2**63, 500, dtype=np.uint64))
        pk = rng.integers(1, 20, 500).astype(np.int64)
        by = pk * 100
        cms = CountMinSketch(width=8, depth=2, partitions=2, kind="cms")
        cu = CountMinSketch(width=8, depth=2, partitions=2, kind="cu")
        cms.update_groups(kh, pk, by)
        cu.update_groups(kh, pk, by)
        e_cms, _ = cms.estimate_batch(kh)
        e_cu, _ = cu.estimate_batch(kh)
        assert (e_cu <= e_cms).all()
        assert (e_cu >= pk).all()  # still never undercounts one slice

    def test_decay_halves_counters(self):
        sk = CountMinSketch(width=8, depth=2, partitions=2)
        kh = np.array([mix64(1)], dtype=np.uint64)
        sk.update_groups(kh, np.array([9]), np.array([901]))
        sk.decay()
        est_p, est_b = sk.estimate(mix64(1))
        assert est_p == 4  # floor(9/2)
        assert est_b == 450
        assert sk.decays == 1

    @given(slices=flow_slices)
    @settings(max_examples=30, deadline=None)
    def test_snapshot_restore_bit_identity(self, slices):
        sk = CountMinSketch(width=16, depth=3, partitions=4)
        _fold_slices(sk, slices)
        sk.decay()
        snap = sk.state_snapshot()
        other = CountMinSketch(width=16, depth=3, partitions=4)
        other.state_restore(snap)
        assert np.array_equal(other.packets, sk.packets)
        assert np.array_equal(other.bytes, sk.bytes)
        assert other.updates == sk.updates and other.decays == sk.decays
        # and the restored sketch keeps evolving identically
        kh = np.array([mix64(5)], dtype=np.uint64)
        sk.update_groups(kh, np.array([3]), np.array([300]))
        other.update_groups(kh, np.array([3]), np.array([300]))
        assert np.array_equal(other.packets, sk.packets)

    def test_snapshot_shape_mismatch_rejected(self):
        sk = CountMinSketch(width=16, depth=3, partitions=4)
        snap = sk.state_snapshot()
        with pytest.raises(ValueError):
            CountMinSketch(width=8, depth=3, partitions=4).state_restore(snap)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0)
        with pytest.raises(ValueError):
            CountMinSketch(kind="exact")


# ---------------------------------------------------------------------------
# partition/shard co-location — the shard-independence lemma
# ---------------------------------------------------------------------------


class TestPartitionColocation:
    @given(src=ips, dst=ips, sp=ports, dp=ports,
           n_shards=st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    @settings(max_examples=200, deadline=None)
    def test_partition_implies_shard(self, src, dst, sp, dp, n_shards):
        """partition p ⇒ shard p % n_shards whenever n_shards | P: all
        flows of one partition co-locate on one worker."""
        P = 64
        key = (src, dst, sp, dp, 6)
        kh = key_hash_of_key(key)
        assert shard_of_key(key, n_shards) == (kh % P) % n_shards

    @pytest.mark.parametrize("kind", ["cms", "cu"])
    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    def test_partitioned_fold_matches_unified(self, kind, n_parts):
        """Folding a slice split by partition-group equals the unified
        fold — the worker-count-independence property."""
        rng = np.random.default_rng(11)
        kh = mix64_arrays(rng.integers(0, 2**63, 300, dtype=np.uint64))
        pk = rng.integers(1, 9, 300).astype(np.int64)
        by = pk * 64
        P = 8
        unified = CountMinSketch(width=16, depth=3, partitions=P, kind=kind)
        unified.update_groups(kh, pk, by)
        split = CountMinSketch(width=16, depth=3, partitions=P, kind=kind)
        worker = (kh % np.uint64(P)).astype(np.int64) % n_parts
        for w in range(n_parts):
            sel = worker == w
            split.update_groups(kh[sel], pk[sel], by[sel])
        assert np.array_equal(split.packets, unified.packets)
        assert np.array_equal(split.bytes, unified.bytes)


# ---------------------------------------------------------------------------
# FlowBatch.subset
# ---------------------------------------------------------------------------


class TestBatchSubset:
    def _batch(self, n_flows=20, pkts=4):
        rec = synthetic_records(n_flows=n_flows, pkts_per_flow=pkts)
        rec = rec[np.random.default_rng(5).permutation(rec.shape[0])]
        return rec, group_by_flow(*canonical_key_arrays(rec))

    def test_subset_matches_brute_force_regroup(self):
        rec, batch = self._batch()
        rng = np.random.default_rng(9)
        keep = rng.random(batch.n_groups) < 0.5
        sub, rec_mask = batch.subset(keep)
        # Brute force: drop the records of rejected groups, regroup.
        ref = group_by_flow(*canonical_key_arrays(rec[rec_mask]))
        assert sub.n == ref.n
        assert np.array_equal(sub.key_col, ref.key_col)
        assert np.array_equal(sub.order, ref.order)
        assert np.array_equal(sub.starts, ref.starts)
        assert np.array_equal(sub.counts, ref.counts)
        assert np.array_equal(sub.key_hash, ref.key_hash)
        assert np.array_equal(sub.group_ip_a, ref.group_ip_a)

    def test_subset_keep_all_is_identity(self):
        _, batch = self._batch()
        sub, rec_mask = batch.subset(np.ones(batch.n_groups, bool))
        assert sub is batch
        assert rec_mask.all()

    def test_subset_keep_none_is_empty(self):
        _, batch = self._batch()
        sub, rec_mask = batch.subset(np.zeros(batch.n_groups, bool))
        assert sub.n == 0 and sub.n_groups == 0
        assert not rec_mask.any()

    def test_group_metadata_matches_scalar_hash(self):
        _, batch = self._batch()
        for g, key in enumerate(map(tuple, batch.key_col.tolist())):
            assert int(batch.key_hash[g]) == key_hash_of_key(key)
            assert int(batch.group_ip_a[g]) == key[0]


# ---------------------------------------------------------------------------
# gate semantics
# ---------------------------------------------------------------------------


class TestSketchGate:
    CFG = SketchConfig(width=64, depth=3, partitions=8, promote_packets=4)

    def test_promotion_threshold(self):
        gate = self.CFG.build()
        kh = np.array([mix64(1), mix64(2)], dtype=np.uint64)
        admit = gate.admit_slice(
            kh, np.array([5, 2]), np.array([500, 200]),
            np.zeros(2, bool), np.array([10, 20]),
        )
        assert admit.tolist() == [True, False]
        assert gate.promotions == 1
        # the small flow keeps accumulating and crosses on a later slice
        admit2 = gate.admit_slice(
            kh[1:], np.array([3]), np.array([300]),
            np.zeros(1, bool), np.array([20]),
        )
        assert admit2.tolist() == [True]
        assert gate.promotions == 2

    def test_resident_flows_always_admitted(self):
        gate = self.CFG.build()
        kh = np.array([mix64(3)], dtype=np.uint64)
        admit = gate.admit_slice(
            kh, np.array([1]), np.array([64]),
            np.array([True]), np.array([30]),
        )
        assert admit.tolist() == [True]
        assert gate.promotions == 0  # residency is not a promotion

    def test_residual_accounting_conserves_packets(self):
        gate = self.CFG.build()
        rng = np.random.default_rng(2)
        total = 0
        admitted_pkts = 0
        for _ in range(10):
            n = 20
            kh = mix64_arrays(rng.integers(0, 2**63, n, dtype=np.uint64))
            pk = rng.integers(1, 6, n).astype(np.int64)
            by = pk * 100
            admit = gate.admit_slice(
                kh, pk, by, np.zeros(n, bool),
                rng.integers(0, 2**32, n).astype(np.int64),
            )
            total += int(pk.sum())
            admitted_pkts += int(pk[admit].sum())
        st_ = gate.stats()
        assert admitted_pkts + st_["rejected_packets"] == total
        assert st_["residual_packets"] == st_["rejected_packets"]
        assert st_["residual_prefixes"] >= 1

    def test_residual_top_prefixes(self):
        gate = SketchConfig(
            width=64, depth=3, partitions=8,
            promote_packets=10**9, prefix_bits=16,
        ).build()
        kh = np.array([mix64(7)], dtype=np.uint64)
        src = (192 << 24) | (168 << 16) | (1 << 8) | 5
        gate.admit_slice(
            kh, np.array([9]), np.array([900]),
            np.zeros(1, bool), np.array([src]),
        )
        top = gate.residual.top_prefixes(1)
        assert top == (("192.168.0.0/16", 9, 900),)

    def test_window_decay_cadence(self):
        cfg = SketchConfig(
            width=64, depth=3, partitions=8, promote_packets=4, decay_every=3
        )
        gate = cfg.build()
        for _ in range(6):
            gate.end_window()
        assert gate.windows == 6
        assert gate.sketch.decays == 2

    def test_gate_snapshot_restore_bit_identity(self):
        gate = self.CFG.build()
        rng = np.random.default_rng(4)
        kh = mix64_arrays(rng.integers(0, 2**63, 50, dtype=np.uint64))
        gate.admit_slice(
            kh, rng.integers(1, 9, 50).astype(np.int64),
            rng.integers(64, 1500, 50).astype(np.int64),
            np.zeros(50, bool), rng.integers(0, 2**32, 50).astype(np.int64),
        )
        gate.end_window()
        other = self.CFG.build()
        other.state_restore(gate.state_snapshot())
        assert other.stats() == gate.stats()
        assert np.array_equal(other.sketch.packets, gate.sketch.packets)
        assert other.residual.packets == gate.residual.packets

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SketchConfig(promote_packets=0, promote_bytes=0)
        with pytest.raises(ValueError):
            SketchConfig(prefix_bits=33)
        with pytest.raises(ValueError):
            SketchConfig(decay_every=-1)
