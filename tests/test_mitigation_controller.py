"""Tests for the fault-tolerant mitigation control plane (PR 6).

Covers the pieces the closed loop's determinism contract rests on:

* token-bucket admit sequences are a pure function of the (injected)
  timestamp stream — including across a snapshot/restore boundary
  (hypothesis property);
* TTL expiry sweeps drop exactly the expired entries, in canonical
  order, regardless of install/sweep interleaving (hypothesis
  property) — the ``_next_expiry_ns`` fast-path bail must never skip a
  due expiry;
* ``RulesEngine.fires`` on both sides of its few-row switch equals
  scalar :meth:`ThresholdRule.matches`;
* the column-evaluated flow tier leaves exactly the state of the
  per-row walk it replaced (``OracleController``, hypothesis property);
* controller state survives a checkpoint round-trip bit-identically,
  and tampered/truncated blobs fail loudly (:class:`CheckpointError`);
* the operator command API works mid-run, and non-canonical operations
  (reads, unblock) never perturb the action-log digest;
* ``finish_run`` ends in the same state whether or not an episode sink
  makes it sort and replay the prediction log.
"""

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import (
    CheckpointError,
    restore_detector,
    snapshot_detector,
    unpack_state,
)
from repro.core.database import KEY_FIELDS, PredictionEntry, PredictionLog
from repro.features.flow_table import FlowTable
from repro.mitigation import (
    BlockTable,
    MitigationAction,
    MitigationConfig,
    MitigationController,
    RulesEngine,
    ThresholdRule,
    Whitelist,
    action_log_digest,
)
from repro.mitigation.controller import _BPS, _PACKETS, _PPS, PERMANENT

from .test_batch_equivalence import fold_packet
from .test_core_database import rows_of

SEC = 1_000_000_000
SERVER = 0x0A0A0050


# ---------------------------------------------------------------------------
# harness: a minimal detector stand-in for the flow tier — a prediction
# log and a real flow table fed with packets
# ---------------------------------------------------------------------------
class StubDB:
    def __init__(self):
        self.predictions = PredictionLog()
        self.flows = FlowTable()


class StubDetector:
    def __init__(self):
        self.db = StubDB()
        self.mitigation = None


def flow_key(i, port=80):
    attacker = 0xC0000000 + i
    return (SERVER, attacker, port, 40000 + i, 6)


def entry(key, ts, seq, decision=1):
    return PredictionEntry(
        key=key, ts_registered_ns=ts, wall_registered_ns=0,
        wall_predicted_ns=1, label=decision, votes=(decision,),
        final_decision=decision, seq=seq,
    )


def store(det, *entries):
    """Append prediction rows to the stub detector's log."""
    det.db.predictions.extend(rows_of(entries))


def feed_flow(det, key, packets, pps):
    """Feed ``packets`` 64-byte packets of ``key`` into the stub's flow
    table, ``1/pps`` s apart on the INT clock, continuing the flow."""
    flows = det.db.flows
    rec = flows.get(key)
    start = 0 if rec is None else rec.n_packets
    gap_ns = int(SEC / pps)
    for i in range(start, start + packets):
        fold_packet(flows, key, i * gap_ns, (i * gap_ns) % 2**32, 64.0, 6)


def hot_flow(det, i, ts, seq, pps=1000.0, packets=4):
    """Feed a flagged hot flow's packets + its prediction row to the stub."""
    key = flow_key(i)
    feed_flow(det, key, packets, pps)
    store(det, entry(key, ts, seq))
    return key


ONE_RULE = MitigationConfig(
    rules=(
        ThresholdRule(name="hot", pps_above=100.0, packets_above=3,
                      combine="and", scope="flow", action="block",
                      ttl_ns=30 * SEC),
    ),
)


# ---------------------------------------------------------------------------
# the oracle: the flow tier as a per-row walk with compiled rule closures,
# a per-flow no-op horizon and a per-flow target memo
# ---------------------------------------------------------------------------
class CompiledRulesEngine:
    """Ordered evaluation of :class:`ThresholdRule` entries.

    Every enabled matching rule fires (the controller deduplicates per
    flow/rule); rule order only affects the order actions are appended,
    and the canonical digest sorts, so order is cosmetic.
    """

    def __init__(self, rules: Sequence[ThresholdRule]) -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {names}")
        self.rules: Tuple[ThresholdRule, ...] = tuple(rules)
        # Pre-compile each live rule to a specialized predicate closure
        # — evaluate() runs once per stored prediction, so the generic
        # matches() walk is too slow for the hot path.
        compiled = []
        for r in self.rules:
            fn = self._compile(r)
            if fn is not None:
                compiled.append((r, fn))
        self._compiled: Tuple[Tuple[ThresholdRule, Any], ...] = tuple(compiled)

    @staticmethod
    def _compile(rule: ThresholdRule) -> Optional[Any]:
        """Specialized ``(pps, bps, packets) -> bool`` for one rule, or
        ``None`` if the rule can never match (disabled / no predicates).
        Semantics identical to :meth:`ThresholdRule.matches`."""
        if not rule.enabled:
            return None
        preds = []
        if rule.pps_above is not None:
            t = rule.pps_above
            preds.append(lambda pps, bps, pk, _t=t: pps > _t)
        if rule.bps_above is not None:
            t = rule.bps_above
            preds.append(lambda pps, bps, pk, _t=t: bps > _t)
        if rule.packets_above is not None:
            t = rule.packets_above
            preds.append(lambda pps, bps, pk, _t=t: pk > _t)
        if not preds:
            return None
        if len(preds) == 1:
            return preds[0]
        if rule.combine == "and":
            def all_of(pps, bps, pk, _preds=tuple(preds)):
                for p in _preds:
                    if not p(pps, bps, pk):
                        return False
                return True
            return all_of

        def any_of(pps, bps, pk, _preds=tuple(preds)):
            for p in _preds:
                if p(pps, bps, pk):
                    return True
            return False
        return any_of

    def evaluate(
        self, pps: float, bps: float, packets: int
    ) -> List[ThresholdRule]:
        return [r for r, fn in self._compiled if fn(pps, bps, packets)]


class OracleController(MitigationController):
    """The flow tier before its rows were evaluated as columns: every
    row walked once, each flagged row not under its flow's no-op horizon
    evaluated on its own.  The column evaluation must leave the same
    state behind."""

    def __init__(self, config=None, tables=()):
        super().__init__(config, tables)
        self._targets_memo = {}
        self._flow_next = {}

    # Every config change (constructor, set_config, restore) goes
    # through this attribute, so the oracle recompiles where the walk
    # it copies did.
    @property
    def engine(self):
        return self._engine

    @engine.setter
    def engine(self, engine):
        self._engine = CompiledRulesEngine(engine.rules)

    def command(self, request):
        out = super().command(request)
        if request.get("op") == "set_config" and out["ok"]:
            self._flow_next.clear()  # horizons assume the old rules
        return out

    @staticmethod
    def _service_of(key: tuple) -> Tuple[int, int, int]:
        ip_a, ip_b, port_a, port_b, proto = key
        if port_a <= port_b:
            return (int(ip_a), int(port_a), int(proto))
        return (int(ip_b), int(port_b), int(proto))

    def _enforcement_targets(self, key: tuple) -> Tuple[Tuple[Any, ...], ...]:
        """Every block-table target this flow's packets would match."""
        return (
            ("flow",) + tuple(int(v) for v in key),
            ("source", self._attacker_of(key)),
            ("service",) + self._service_of(key),
        )

    def _targets_for(self, key: tuple) -> Tuple[Tuple[Any, ...], ...]:
        t = self._targets_memo.get(key)
        if t is None:
            if len(self._targets_memo) > 65536:
                self._targets_memo.clear()
            t = self._targets_memo[key] = self._enforcement_targets(key)
        return t

    def _account(self, key: tuple, now_ns: int) -> None:
        """Shadow enforcement accounting: would this packet have been
        dropped/shed by the active blocks?  Counters only — never part
        of the canonical log (source/service blocks are not visible to
        sibling shards mid-run)."""
        entries = self.blocks.entries
        for target in self._targets_for(key):
            e = entries.get(target)
            if e is None or (
                e.expires_ns is not None and now_ns >= e.expires_ns
            ):
                continue
            if e.action == "block":
                e.hits += 1
                self.counters["packets_dropped"] += 1
            elif not self.blocks.admit(e, now_ns):
                e.shed += 1
                self.counters["packets_rate_shed"] += 1
            else:
                e.hits += 1
            return

    def on_cycle(self) -> None:
        """Flow tier: consume predictions stored since the last cycle.

        Invoked by the mechanism (and shard workers) at every cycle
        boundary, before the next ingest — so the flow-table state read
        here is byte-identical to what a per-store hook would have
        seen.  Every emitted action is a pure function of the entry and
        its flow's local state (record metrics + emit history), so
        shard placement cannot change the canonical log.
        """
        db = self._db
        if db is None:
            return
        log = db.predictions
        # The cursor is an *absolute* stream position; sharded workers
        # trim shipped rows off the front of the resident log, so
        # resident index = absolute index - log.base.  Trims only ever
        # happen after this sweep ran over the trimmed rows (worker
        # order: cycle → on_cycle → ship+trim), so the cursor can never
        # point below the base.
        pos = self._flow_pos
        if pos >= log.total:
            return
        self._flow_pos = log.total
        rows = log.rows[pos - log.base :]
        # Hot loop over the new rows' columns: local aliases, cheap
        # checks inline, rare work in helper calls.
        blocks = self.blocks
        block_entries = blocks.entries
        flow_next = self._flow_next
        account = self._account
        process = self._process_flagged
        last = self._last_ts_ns
        for key, now, final, seq in zip(
            zip(*(rows[f].tolist() for f in KEY_FIELDS)),
            rows["ts_registered_ns"].tolist(),
            rows["final"].tolist(),
            rows["seq"].tolist(),
        ):
            if now > last:
                last = now
            if block_entries:
                nx = blocks._next_expiry_ns
                if nx is not None and now >= nx:
                    self._sweep_expired(now)
                account(key, now)
            if final == 1:
                horizon = flow_next.get(key, 0)
                if horizon == 0 or (horizon is not None and now >= horizon):
                    self._last_ts_ns = int(last)
                    process(key, seq, now, horizon)
        self._last_ts_ns = int(last)

    def _process_flagged(
        self, key: tuple, seq: int, now: int, horizon: int
    ) -> List[MitigationAction]:
        """Rule evaluation for one flagged prediction (the rare path)."""
        row = self._db.flows.feature_row(key) if self._db is not None else None
        if row is None:
            # Coordinator-side merge replay (no ingest here) or an
            # evicted flow: the flow tier already ran where the flow
            # lives.
            return []
        pps, bps = row.item(_PPS), row.item(_BPS)
        out: List[MitigationAction] = []
        for rule in self.engine.evaluate(pps, bps, int(row.item(_PACKETS))):
            emit_key = (key, rule.name)
            deadline = self._flow_emits.get(emit_key, 0)
            if deadline is None or (deadline != 0 and now < deadline):
                continue  # already emitted and still covered
            verdict = "refreshed" if deadline != 0 else "installed"
            self._flow_emits[emit_key] = (
                None if rule.ttl_ns is None else now + rule.ttl_ns
            )
            attacker = self._attacker_of(key)
            if self.whitelist.covers(attacker):
                verdict = "whitelisted"
            target: Tuple[Any, ...] = (
                ("flow",) + tuple(int(v) for v in key)
                if rule.scope == "flow" else ("source", attacker)
            )
            out.append(self._emit(
                seq=seq, now_ns=now, tier="flow", rule=rule.name,
                verdict=verdict, action=rule.action, scope=rule.scope,
                target=target, ttl_ns=rule.ttl_ns, rate_pps=rule.rate_pps,
            ))
        if out or horizon != 0:
            self._refresh_flow_horizon(key)
        return out

    def _refresh_flow_horizon(self, key: tuple) -> None:
        """Recompute the consolidated no-op horizon for one flow.

        Present only when every compiled rule has an emit on record for
        the flow; then the flow tier provably cannot fire again before
        the earliest re-emit deadline, and :meth:`on_cycle` may skip
        the evaluation loop outright until that instant."""
        emits = self._flow_emits
        deadlines: List[int] = []
        for rule, _fn in self.engine._compiled:
            d = emits.get((key, rule.name), 0)
            if d == 0:
                self._flow_next.pop(key, None)
                return
            if d is not None:
                deadlines.append(d)
        self._flow_next[key] = min(deadlines) if deadlines else None


# ---------------------------------------------------------------------------
# token-bucket determinism (hypothesis)
# ---------------------------------------------------------------------------
class TestTokenBucketDeterminism:
    @staticmethod
    def _admits(table, target, offsets_ns):
        e = table.entries[target]
        return [table.admit(e, e.last_ns + off) for off in offsets_ns]

    @given(
        rate=st.floats(min_value=1.0, max_value=10_000.0),
        burst=st.floats(min_value=1.0, max_value=100.0),
        gaps=st.lists(st.integers(min_value=0, max_value=10**9),
                      min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_admit_sequence_pure_in_time(self, rate, burst, gaps):
        """Two tables fed the identical timestamp stream admit
        identically — no hidden wall-clock or ordering state."""
        seqs = []
        for _ in range(2):
            t = BlockTable(burst=burst)
            t.install(("source", 7), "r", "rate_limit", rate, 0, None, 0)
            e = t.entries[("source", 7)]
            now, out = 0, []
            for g in gaps:
                now += g
                out.append(t.admit(e, now))
            seqs.append(out)
        assert seqs[0] == seqs[1]

    @given(
        rate=st.floats(min_value=1.0, max_value=10_000.0),
        burst=st.floats(min_value=1.0, max_value=100.0),
        gaps=st.lists(st.integers(min_value=0, max_value=10**9),
                      min_size=2, max_size=60),
        cut=st.integers(min_value=1, max_value=59),
    )
    @settings(max_examples=60, deadline=None)
    def test_admit_sequence_survives_snapshot_restore(
        self, rate, burst, gaps, cut
    ):
        """Snapshot/restore mid-stream must not perturb a single admit
        decision (token level and last-update stamp both ride the
        checkpoint)."""
        cut = min(cut, len(gaps) - 1)

        def drive(table, gap_seq, start_now):
            e = table.entries[("source", 7)]
            now, out = start_now, []
            for g in gap_seq:
                now += g
                out.append(table.admit(e, now))
            return out, now

        straight = BlockTable(burst=burst)
        straight.install(("source", 7), "r", "rate_limit", rate, 0, None, 0)
        want, _ = drive(straight, gaps, 0)

        first = BlockTable(burst=burst)
        first.install(("source", 7), "r", "rate_limit", rate, 0, None, 0)
        head, now = drive(first, gaps[:cut], 0)
        resumed = BlockTable()
        resumed.state_restore(first.state_snapshot())
        tail, _ = drive(resumed, gaps[cut:], now)
        assert head + tail == want


# ---------------------------------------------------------------------------
# TTL expiry ordering (hypothesis)
# ---------------------------------------------------------------------------
class TestExpiryOrdering:
    @given(
        installs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),    # target id
                st.integers(min_value=0, max_value=10**6),  # install time
                st.one_of(st.none(),
                          st.integers(min_value=1, max_value=10**6)),  # ttl
            ),
            min_size=1, max_size=40,
        ),
        sweeps=st.lists(st.integers(min_value=0, max_value=3 * 10**6),
                        min_size=1, max_size=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_sweep_exact_and_canonically_ordered(self, installs, sweeps):
        """After any install/sweep interleaving: every returned entry
        was expired, no expired entry survives (the fast-path bail may
        only defer work to the sweep that's due, never drop it), and
        returned entries come in (expires_ns, target) order."""
        table = BlockTable()
        installs = sorted(installs, key=lambda t: t[1])
        now = 0
        for tid, ts, ttl in installs:
            now = max(now, ts)
            table.install(("source", tid), "r", "block", 0.0, now, ttl, 0)
        for sweep_at in sorted(sweeps):
            now = max(now, sweep_at)
            dead = table.expire(now)
            assert all(e.expired(now) for e in dead)
            keys = [(e.expires_ns or 0, e.target) for e in dead]
            assert keys == sorted(keys)
            assert not any(
                e.expired(now) for e in table.entries.values()
            ), "fast-path bail skipped a due expiry"

    def test_refresh_extends_never_shortens(self):
        table = BlockTable()
        t = ("source", 1)
        table.install(t, "r", "block", 0.0, 0, 100, 0)
        assert table.install(t, "r", "block", 0.0, 10, 50, 1) == "refreshed"
        assert table.entries[t].expires_ns == 100  # 10+50=60 < 100: kept
        table.install(t, "r", "block", 0.0, 20, 500, 2)
        assert table.entries[t].expires_ns == 520
        table.install(t, "r", "block", 0.0, 30, None, 3)
        assert table.entries[t].expires_ns is None  # upgraded to permanent


# ---------------------------------------------------------------------------
# compiled predicates == reference semantics (hypothesis)
# ---------------------------------------------------------------------------
_rule_st = st.builds(
    ThresholdRule,
    name=st.just("r"),
    pps_above=st.one_of(st.none(), st.floats(0, 10**6)),
    bps_above=st.one_of(st.none(), st.floats(0, 10**9)),
    packets_above=st.one_of(st.none(), st.integers(0, 10**6)),
    combine=st.sampled_from(["and", "or"]),
    enabled=st.booleans(),
)


class TestCompiledRules:
    @given(
        rules=st.lists(_rule_st, min_size=1, max_size=3),
        rows=st.lists(
            st.tuples(st.floats(0, 2 * 10**6), st.floats(0, 2 * 10**9),
                      st.integers(0, 2 * 10**6)),
            max_size=2 * RulesEngine.FEW_ROWS,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_compiled_matches_reference(self, rules, rows):
        """``fires`` on both sides of its few-row switch, from a float
        array or from Python tuples, equals scalar ``matches``."""
        rules = [
            ThresholdRule(**{**r.to_dict(), "name": f"r{i}"})
            for i, r in enumerate(rules)
        ]
        engine = RulesEngine(rules)
        want = [[r.matches(*row) for r in rules] for row in rows]
        few = RulesEngine.FEW_ROWS - 1
        for part in (rows, rows[:few]):
            array = np.array(part, dtype=np.float64).reshape(len(part), 3)
            assert engine.fires(array) == want[: len(part)]
            assert engine.fires(part) == want[: len(part)]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RulesEngine([ThresholdRule(name="a", pps_above=1.0)] * 2)


# ---------------------------------------------------------------------------
# flow tier semantics on the stub detector
# ---------------------------------------------------------------------------
class TestFlowTier:
    def loop(self, config=ONE_RULE):
        det = StubDetector()
        ctrl = MitigationController(config).attach_to(det)
        return det, ctrl

    def test_flagged_hot_flow_blocked_once(self):
        det, ctrl = self.loop()
        key = hot_flow(det, 1, ts=0, seq=0)
        store(det, entry(key, 1000, 1))  # same flow again
        ctrl.on_cycle()
        installs = [a for a in ctrl.action_log if a.verdict == "installed"]
        assert len(installs) == 1
        assert installs[0].target == ("flow",) + key
        assert ctrl.blocks.lookup(("flow",) + key, 1000) is not None

    def test_reemit_after_ttl_as_refreshed(self):
        det, ctrl = self.loop()
        key = hot_flow(det, 1, ts=0, seq=0)
        ctrl.on_cycle()
        store(det, entry(key, 31 * SEC, 1))
        ctrl.on_cycle()
        assert [a.verdict for a in ctrl.action_log] == [
            "installed", "refreshed"
        ]

    def test_whitelist_precedence(self):
        cfg = MitigationConfig(
            rules=ONE_RULE.rules, whitelist=((0xC0000000, 8),)
        )
        det, ctrl = self.loop(cfg)
        hot_flow(det, 1, ts=0, seq=0)
        ctrl.on_cycle()
        (act,) = ctrl.action_log
        assert act.verdict == "whitelisted"
        assert ctrl.blocks.entries == {}  # logged, never installed
        assert ctrl.counters["whitelist_hits"] == 1
        everyone, one = Whitelist([(0xC0000001, 0)]), Whitelist([(0xC0000001, 32)])
        assert everyone.prefixes == ((0, 0),)
        assert one.prefixes == ((0xC0000001, 0xFFFFFFFF),)
        assert everyone.covers(0) and everyone.covers(0xFFFFFFFF)
        assert one.covers(0xC0000001)
        assert not one.covers(0xC0000000) and not one.covers(0xC0000002)

    def test_permanent_rule_never_reemits(self):
        cfg = MitigationConfig(rules=(
            ThresholdRule(name="perm", pps_above=100.0, scope="source",
                          action="block", ttl_ns=None),
        ))
        det, ctrl = self.loop(cfg)
        key = hot_flow(det, 1, ts=0, seq=0)
        store(det, entry(key, 10**15, 1))
        ctrl.on_cycle()
        assert len(ctrl.action_log) == 1
        assert ctrl.action_log[0].ttl_ns == PERMANENT
        assert ctrl.blocks.entries[("source", 0xC0000001)].expires_ns is None

    def test_benign_and_undecided_ignored(self):
        det, ctrl = self.loop()
        key = flow_key(1)
        feed_flow(det, key, 100, 1000.0)
        store(
            det,
            entry(key, 0, 0, decision=0),
            PredictionEntry(key, 0, 0, 1, 1, (1,), None, seq=1),
        )
        ctrl.on_cycle()
        assert ctrl.action_log == []

    def test_non_resident_flow_fires_nothing(self):
        """A flagged row whose flow is not in the table reads no feature
        row — not even the table's last slot while that slot is live —
        on both sides of the few-row switch."""
        det, ctrl = self.loop(MitigationConfig(
            rules=(ThresholdRule(name="any", packets_above=0),)
        ))
        last_slot = np.array([-1])
        while det.db.flows.features_at(last_slot)[0, _PACKETS] == 0:
            feed_flow(det, flow_key(100 + len(det.db.flows)), 1, 5000.0)
        for n in (1, RulesEngine.FEW_ROWS):
            store(det, *(entry(flow_key(1), j, j) for j in range(n)))
            ctrl.on_cycle()
        assert ctrl.action_log == []

    def test_partly_covered_flow_is_still_evaluated(self):
        """A few-row block skips a flagged row only when every rule's
        last emit still covers it: a rule whose shorter TTL ran out
        re-emits while the other rule's block is still live."""
        det, ctrl = self.loop(MitigationConfig(rules=(
            ThresholdRule(name="long", pps_above=1.0, ttl_ns=100 * SEC),
            ThresholdRule(name="short", pps_above=1.0, ttl_ns=SEC),
        )))
        key = hot_flow(det, 1, ts=0, seq=0)
        ctrl.on_cycle()
        store(det, entry(key, 2 * SEC, 1))
        ctrl.on_cycle()
        assert [(a.rule, a.verdict) for a in ctrl.action_log] == [
            ("long", "installed"), ("short", "installed"), ("short", "refreshed"),
        ]

    def test_chunked_on_cycle_equals_one_shot(self):
        """The flow cursor makes cycle granularity irrelevant: any
        split of the prediction log over on_cycle() calls yields the
        identical canonical log."""
        def build(chunks):
            det, ctrl = self.loop()
            seq = 0
            for chunk in chunks:
                for i in chunk:
                    hot_flow(det, i, ts=seq * 1000, seq=seq)
                    seq += 1
                ctrl.on_cycle()
            return ctrl.action_log_digest()

        flows = [1, 2, 1, 3, 2, 1, 4]
        assert (
            build([flows])
            == build([flows[:2], flows[2:5], flows[5:]])
            == build([[f] for f in flows])
        )


# ---------------------------------------------------------------------------
# column evaluation == the per-row oracle (hypothesis)
# ---------------------------------------------------------------------------
@st.composite
def flow_rules(draw):
    rules = []
    for i in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["block", "rate_limit"]))
        rules.append(ThresholdRule(
            name=f"rule{i}",
            pps_above=draw(st.sampled_from([None, 1.0, 40.0, 400.0, 4000.0])),
            bps_above=draw(st.sampled_from([None, 1e3, 1e5, 1e6])),
            packets_above=draw(st.sampled_from([None, 0, 2, 5])),
            combine=draw(st.sampled_from(["and", "or"])),
            scope=draw(st.sampled_from(["flow", "source"])),
            action=action,
            rate_pps=(draw(st.sampled_from([0.5, 5.0, 500.0]))
                      if action == "rate_limit" else 0.0),
            ttl_ns=draw(st.one_of(st.none(), st.integers(1, 20 * SEC))),
            enabled=draw(st.sampled_from([True, True, True, False])),
        ))
    return rules


@st.composite
def flow_tier_streams(draw):
    """Keys ``0..resident-1`` live in the flow table; the rest were
    never fed (not resident).  Blocks of 1–200 rows (often fewer than
    24, so both sides of the few-row switch run) with unordered stamps,
    so TTL deadlines fall due mid-block."""
    n_keys = draw(st.integers(1, 8))
    resident = draw(st.integers(0, n_keys))
    feeds = [
        (draw(st.integers(1, 6)), draw(st.sampled_from([5.0, 50.0, 500.0, 5000.0])))
        for _ in range(resident)
    ]
    row = st.tuples(st.integers(0, n_keys - 1), st.integers(0, 60 * SEC),
                    st.sampled_from([1, 1, 0, None]))
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(1, 24) | st.integers(1, 200))
        grow = draw(st.lists(st.integers(0, resident - 1), max_size=2)) if resident else []
        blocks.append((grow, draw(st.lists(row, min_size=size, max_size=size))))
    spared = draw(st.sets(st.integers(0, n_keys - 1), max_size=2))
    config = MitigationConfig(
        rules=tuple(draw(flow_rules())),
        whitelist=tuple((0xC0000000 + i, 32) for i in spared),
        burst=draw(st.sampled_from([1.0, 3.0, 20.0])),
    )
    change = draw(st.none() | st.tuples(
        st.integers(0, len(blocks) - 1), flow_rules(),
        st.sets(st.integers(0, n_keys - 1), max_size=2),
    ))
    return feeds, blocks, config, change


def flow_tier_state(ctrl):
    return {
        "actions": list(ctrl.action_log),
        "counters": dict(ctrl.counters),
        "blocks": ctrl.blocks.state_snapshot(),
        "activity": ctrl.activity.state_snapshot(),
        "flow_emits": dict(ctrl._flow_emits),
        "last_ts_ns": ctrl._last_ts_ns,
    }


class TestColumnFlowTier:
    @given(stream=flow_tier_streams())
    @settings(deadline=None)
    def test_column_evaluation_matches_per_row_oracle(self, stream):
        feeds, blocks, config, change = stream
        det = StubDetector()
        for i, (packets, pps) in enumerate(feeds):
            feed_flow(det, flow_key(i), packets, pps)
        ctrl = MitigationController(config).attach_to(det)
        oracle = OracleController(config).attach_to(det)
        seq = 0
        for b, (grow, rows) in enumerate(blocks):
            for i in grow:
                feed_flow(det, flow_key(i), 2, feeds[i][1])
            store(det, *(
                PredictionEntry(flow_key(k), ts, 0, 1, 1, (1,), final, seq=seq + j)
                for j, (k, ts, final) in enumerate(rows)
            ))
            seq += len(rows)
            if change is not None and change[0] == b:
                update = {"op": "set_config", "config": {
                    "rules": [r.to_dict() for r in change[1]],
                    "whitelist": [[0xC0000000 + i, 32] for i in sorted(change[2])],
                }}
                assert ctrl.command(update)["ok"] and oracle.command(update)["ok"]
            for side in (ctrl, oracle):
                side.on_cycle()
                side.on_cycle()  # nothing new: a no-op
            assert flow_tier_state(ctrl) == flow_tier_state(oracle)


# ---------------------------------------------------------------------------
# checkpoint round-trip
# ---------------------------------------------------------------------------
class TestControllerCheckpoint:
    def populated(self):
        det = StubDetector()
        ctrl = MitigationController(ONE_RULE).attach_to(det)
        for i in range(6):
            hot_flow(det, i % 3, ts=i * SEC, seq=i)
        ctrl.on_cycle()
        ctrl.command({"op": "set_config", "config": {"episode_rate_pps": 40.0}})
        return det, ctrl

    def test_round_trip_bit_identical(self):
        det, ctrl = self.populated()
        restored = MitigationController()
        restored.state_restore(ctrl.state_snapshot())
        assert restored.action_log_digest() == ctrl.action_log_digest()
        assert restored.counters == ctrl.counters
        assert restored.config.to_dict() == ctrl.config.to_dict()
        assert restored.blocks.state_snapshot() == ctrl.blocks.state_snapshot()
        assert restored._flow_pos == ctrl._flow_pos
        assert restored._flow_emits == ctrl._flow_emits

    def test_divergence_after_restore_is_identical(self):
        """The restored controller continues the run exactly like the
        original would have."""
        det, ctrl = self.populated()
        restored = MitigationController()
        restored.state_restore(ctrl.state_snapshot())
        restored.attach_to(det)
        for i in range(6, 12):
            hot_flow(det, i % 4, ts=i * 40 * SEC, seq=i)
        ctrl.on_cycle()
        restored.on_cycle()
        assert restored.action_log_digest() == ctrl.action_log_digest()


class TestDetectorCheckpointWithMitigation:
    @pytest.fixture()
    def running_detector(self):
        from repro.core import AutomatedDDoSDetector, pretrain
        from repro.features import extract_features
        from repro.ml import GaussianNB

        from .test_batch_equivalence import synthetic_records

        ben = synthetic_records(attack=False)
        atk = synthetic_records(attack=True, t0=10**9)
        records = np.concatenate([ben, atk])
        fm = extract_features(records, source="int")
        y = np.array([0] * len(ben) + [1] * len(atk))
        bundle = pretrain(fm.X, y, fm.names,
                          panel={"gnb": lambda: GaussianNB()})

        def build():
            det = AutomatedDDoSDetector(bundle)
            ctrl = MitigationController().attach_to(det)
            return det, ctrl

        det, ctrl = build()
        det.run_stream(records, poll_every=64)
        assert ctrl.counters["rules_installed"] > 0
        return det, ctrl, build

    def test_mitigation_rides_the_blob(self, running_detector):
        det, ctrl, build = running_detector
        blob = snapshot_detector(det, cycles_done=5, last_seq=42)
        assert unpack_state(blob)["mitigation"]["flow_pos"] == ctrl._flow_pos
        det2, ctrl2 = build()
        restore_detector(det2, blob)
        assert ctrl2.action_log_digest() == ctrl.action_log_digest()
        assert ctrl2.counters == ctrl.counters
        assert ctrl2._flow_pos == ctrl._flow_pos
        assert (
            ctrl2.blocks.state_snapshot() == ctrl.blocks.state_snapshot()
        )

    def test_tampered_blob_fails_loudly(self, running_detector):
        det, _, build = running_detector
        blob = bytearray(snapshot_detector(det, 5, 42))
        blob[len(blob) // 2] ^= 0xFF
        det2, _ = build()
        with pytest.raises(CheckpointError):
            restore_detector(det2, bytes(blob))

    def test_truncated_blob_fails_loudly(self, running_detector):
        det, _, build = running_detector
        blob = snapshot_detector(det, 5, 42)
        det2, _ = build()
        for cut in (0, 4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CheckpointError):
                restore_detector(det2, blob[:cut])


# ---------------------------------------------------------------------------
# operator command API
# ---------------------------------------------------------------------------
class TestCommandAPI:
    def loop(self):
        det = StubDetector()
        return det, MitigationController(ONE_RULE).attach_to(det)

    def test_get_and_set_config(self):
        _, ctrl = self.loop()
        got = ctrl.command({"op": "get_config"})
        assert got["ok"] and got["result"]["rules"][0]["name"] == "hot"
        out = ctrl.command({
            "op": "set_config",
            "config": {"episode_rate_pps": 25.0,
                       "whitelist": [[0x0A000000, 8]]},
        })
        assert out["ok"] and out["result"]["episode_rate_pps"] == 25.0
        assert ctrl.whitelist.covers(0x0A000001)
        assert ctrl.counters["config_updates"] == 1

    def test_set_config_resizes_the_activity_feed(self):
        _, ctrl = self.loop()
        for i in range(5):
            ctrl.activity.push(i, "note", f"event {i}")
        out = ctrl.command({"op": "set_config",
                            "config": {"activity_capacity": 2}})
        assert out["ok"] and out["result"]["activity_capacity"] == 2
        assert ctrl.activity.capacity == 2
        feed = ctrl.command({"op": "activity_feed", "limit": 10})["result"]
        assert [e["detail"] for e in feed][:1] == ["event 4"]
        assert [e["kind"] for e in feed] == ["note", "config"]
        # The shrink evicts three of the five; the config event that
        # follows pushes out one more.
        assert ctrl.command({"op": "stats"})["result"]["activity_evicted"] == 4
        snap = ctrl.activity.state_snapshot()
        assert snap["capacity"] == 2 and len(snap["events"]) == 2

    def test_invalid_config_rejected_atomically(self):
        _, ctrl = self.loop()
        before = ctrl.config.to_dict()
        out = ctrl.command({
            "op": "set_config",
            "config": {"rules": [{"name": "bad", "combine": "xor"}]},
        })
        assert not out["ok"] and "combine" in out["error"]
        assert ctrl.config.to_dict() == before

    @pytest.mark.parametrize("config", [
        {"brust": 5},
        {"rules": [{**ONE_RULE.rules[0].to_dict(), "pps_abov": 100.0}]},
        {"rules": [{**ONE_RULE.rules[0].to_dict(), "pps_above": "fast"}]},
        {"rules": [{**ONE_RULE.rules[0].to_dict(), "bps_above": float("inf")}]},
        {"burst": -1},
        {"activity_capacity": 0},
        {"episode_ttl_ns": -5},
        {"episode_rate_pps": 0.0},
    ], ids=["unknown-key", "misspelt-predicate", "string-threshold",
            "infinite-threshold", "negative-burst", "zero-activity-capacity",
            "negative-episode-ttl", "zero-episode-rate"])
    def test_malformed_config_rejected(self, config):
        _, ctrl = self.loop()
        before = ctrl.config.to_dict()
        out = ctrl.command({"op": "set_config", "config": config})
        assert not out["ok"], out
        assert ctrl.command({"op": "get_config"})["result"] == before
        assert ctrl.counters["config_updates"] == 0

    def test_stats_blocked_unblock_activity(self):
        det, ctrl = self.loop()
        key = hot_flow(det, 1, ts=0, seq=0)
        ctrl.on_cycle()
        stats = ctrl.command({"op": "stats"})["result"]
        assert stats["counters"]["rules_installed"] == 1
        assert stats["active_blocks"] == 1
        blocked = ctrl.command({"op": "blocked_list"})["result"]
        assert [tuple(b["target"]) for b in blocked] == [("flow",) + key]
        out = ctrl.command({"op": "unblock", "target": ("flow",) + key})
        assert out["ok"] and out["result"]["removed"]
        assert ctrl.command({"op": "blocked_list"})["result"] == []
        feed = ctrl.command({"op": "activity_feed", "limit": 10})["result"]
        assert [e["kind"] for e in feed] == ["installed", "unblock"]

    def test_unknown_op(self):
        _, ctrl = self.loop()
        out = ctrl.command({"op": "reboot"})
        assert not out["ok"] and "reboot" in out["error"]

    def test_noncanonical_commands_never_move_the_digest(self):
        """Reads and unblocks mid-run must not perturb the canonical
        log: verdicts depend only on the flow's emit history, never on
        current BlockTable contents."""
        def run(with_commands):
            det, ctrl = self.loop()
            seq = 0
            for round_ in range(4):
                for i in range(3):
                    hot_flow(det, i, ts=(seq + 1) * 20 * SEC, seq=seq)
                    seq += 1
                ctrl.on_cycle()
                if with_commands:
                    ctrl.command({"op": "stats"})
                    ctrl.command({"op": "blocked_list"})
                    ctrl.command({"op": "activity_feed"})
                    ctrl.command(
                        {"op": "unblock",
                         "target": ("flow",) + flow_key(round_ % 3)}
                    )
            return ctrl.action_log_digest()

        assert run(False) == run(True)

    def test_set_config_steers_the_flow_tier(self):
        det, ctrl = self.loop()
        hot_flow(det, 1, ts=0, seq=0)
        ctrl.on_cycle()
        ctrl.command({
            "op": "set_config",
            "config": {"rules": [
                {**ONE_RULE.rules[0].to_dict(), "enabled": False}
            ]},
        })
        hot_flow(det, 2, ts=SEC, seq=1)
        ctrl.on_cycle()
        assert len(ctrl.action_log) == 1  # disabled rule stopped firing


# ---------------------------------------------------------------------------
# finish_run: sink replay (sorted log) == no sink (one max() over the log)
# ---------------------------------------------------------------------------
class TestFinishRun:
    @staticmethod
    def finish(log, sink=None, attach=True):
        """Store ``(flow, ts, seq)`` entries, then end the run.
        ``attach=False`` is the coordinator's view after ``absorb_run``:
        no flow tier here, so only finish_run reads the log."""
        det = StubDetector()
        ctrl = MitigationController(ONE_RULE)
        if attach:
            ctrl.attach_to(det)
        if sink is not None:
            ctrl.set_episode_sink(sink)
        for i, ts, seq in log:
            hot_flow(det, i, ts, seq)
        ctrl.finish_run(det.db)
        return ctrl

    @given(
        log=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 100 * SEC),
                      st.integers(0, 5)),
            max_size=30,
        ),
        attach=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_noop_sink_changes_nothing(self, log, attach):
        bare = self.finish(log, None, attach)
        replayed = []
        sunk = self.finish(log, replayed.extend, attach)
        assert len(replayed) == len(log)
        assert sunk._last_ts_ns == bare._last_ts_ns
        assert sunk.blocks.state_snapshot() == bare.blocks.state_snapshot()
        assert sunk.stats() == bare.stats()
        assert sunk.action_log_digest() == bare.action_log_digest()

    def test_seq_key_tie_resolves_to_later_entry(self):
        """Entries equal on (seq, key): the stable sort ends on the one
        later in log order, and so must the sort-free path."""
        log = [(1, 5 * SEC, 0), (1, 2 * SEC, 0)]
        sunk = self.finish(log, lambda entries: None, attach=False)
        assert self.finish(log, attach=False)._last_ts_ns == 2 * SEC
        assert sunk._last_ts_ns == 2 * SEC


# ---------------------------------------------------------------------------
# stream-level determinism of the full controller (hypothesis)
# ---------------------------------------------------------------------------
class TestControllerDeterminism:
    @given(
        flows=st.lists(st.integers(min_value=0, max_value=5),
                       min_size=1, max_size=40),
        boundaries=st.sets(st.integers(min_value=1, max_value=39)),
    )
    @settings(max_examples=50, deadline=None)
    def test_digest_invariant_to_cycle_boundaries(self, flows, boundaries):
        def run(cuts):
            det = StubDetector()
            ctrl = MitigationController(ONE_RULE).attach_to(det)
            for seq, i in enumerate(flows):
                hot_flow(det, i, ts=seq * 7 * SEC, seq=seq)
                if seq in cuts:
                    ctrl.on_cycle()
            ctrl.finish_run(det.db)
            return ctrl.action_log_digest()

        assert run(set()) == run(boundaries)

    def test_digest_orders_canonically(self):
        """Same actions in different append order → same digest."""
        det = StubDetector()
        ctrl = MitigationController(ONE_RULE).attach_to(det)
        for seq, i in enumerate([3, 1, 2]):
            hot_flow(det, i, ts=seq * 1000, seq=seq)
        ctrl.on_cycle()
        shuffled = list(reversed(ctrl.action_log))
        assert action_log_digest(shuffled) == ctrl.action_log_digest()
