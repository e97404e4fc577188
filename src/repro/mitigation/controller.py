"""The fault-tolerant mitigation control plane (closing the loop).

The paper stops at detection; its cited blueprint (Flood Defender [17],
the P4/5G IDS [20]) and the Ryu-style SDN demos stop at "push a rule to
the switch".  What a production loop additionally needs — and what this
module provides on top of the PR-5 supervised sharded runtime — is a
mitigation subsystem whose *state survives process death* and whose
*decisions are reproducible* for any worker count:

* :class:`ThresholdRule` / :class:`RulesEngine` — per-rule PPS/BPS/
  packet-count thresholds with AND/OR predicate combination, temporary
  (auto-expiring) or permanent actions, drop vs token-bucket rate
  limit, flow- or source-scoped;
* :class:`BlockTable` — the durable enforcement state: active blocks
  keyed by canonical target, TTL deadlines, per-entry token buckets
  (time injected — simulation/telemetry timestamps only, never the
  wall clock), idempotent install/refresh, operator unblock;
* :class:`Whitelist` — prefix-based precedence: whitelisted sources are
  never blocked, only counted;
* :class:`MitigationController` — consumes the detector's stored
  predictions (flow tier) and AlertManager episodes (episode tier, via
  :class:`repro.controlplane.bridge.EpisodeBridge`), maintains the
  canonical **action log**, answers the operator JSON command API
  (``get_config`` / ``set_config`` / ``stats`` / ``blocked_list`` /
  ``unblock`` / ``activity_feed``), and snapshots/restores all of it
  through the RPRCKPT1 checkpoint frames.

Determinism contract (the action-log digest)
--------------------------------------------
:func:`action_log_digest` is the mitigation counterpart of
``prediction_log_digest``: SHA-256 over the canonically-ordered
:class:`MitigationAction` records.  It must be byte-identical across
worker counts, clean and under telemetry chaos + worker-kill.  Two
design rules make that hold:

* **flow tier** actions are a pure function of the triggering
  prediction entry plus *flow-local* state (the flow's own record
  metrics and this flow's previous emissions).  Sharding partitions by
  canonical flow key, so flow-local state is always worker-local;
  cross-flow suppression is deliberately absent from the canonical log
  (duplicate same-source actions are emitted and deduplicated
  *idempotently* at the block table instead).
* **episode tier** actions are derived from the globally merged,
  ``(seq, key)``-sorted prediction log at end of run — the identical
  input sequence for every worker count.

Wall-clock never enters: every timestamp in the subsystem is the
telemetry time of the evidence.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.database import KEY_FIELDS, PredictionEntry, PredictionLog
from repro.features.flow_record import FEATURE_ORDER

from .enforcement import AclTable
from .rules import FlowRule, RuleAction

__all__ = [
    "ThresholdRule",
    "RulesEngine",
    "Whitelist",
    "BlockEntry",
    "BlockTable",
    "ActivityRing",
    "MitigationAction",
    "MitigationConfig",
    "MitigationController",
    "action_log_digest",
    "build_controller",
]

#: The flow-table feature columns the flow tier's rules read.
_PACKETS, _PPS, _BPS = (
    FEATURE_ORDER.index(name)
    for name in ("n_packets", "packets_per_second", "bytes_per_second")
)

#: ttl_ns sentinel meaning "permanent" inside action records (None does
#: not survive the structured digest line cleanly).
PERMANENT = -1


# ---------------------------------------------------------------------------
# configuration: threshold rules + whitelist
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ThresholdRule:
    """One configurable detection→action rule.

    Predicates (``pps_above`` / ``bps_above`` / ``packets_above``) test
    the flagged flow's record metrics; ``None`` leaves a predicate out.
    ``combine`` joins the *defined* predicates with AND or OR.  A rule
    with no predicates never fires.

    ``scope`` picks the block target: the exact flow, or the attacking
    source host.  ``ttl_ns=None`` makes the block permanent.
    """

    name: str
    pps_above: Optional[float] = None
    bps_above: Optional[float] = None
    packets_above: Optional[int] = None
    combine: str = "and"
    scope: str = "flow"
    action: str = "block"
    rate_pps: float = 0.0
    ttl_ns: Optional[int] = 60_000_000_000
    enabled: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("rule needs a name")
        if self.combine not in ("and", "or"):
            raise ValueError(f"combine must be 'and' or 'or': {self.combine!r}")
        if self.scope not in ("flow", "source"):
            raise ValueError(f"scope must be 'flow' or 'source': {self.scope!r}")
        if self.action not in ("block", "rate_limit"):
            raise ValueError(
                f"action must be 'block' or 'rate_limit': {self.action!r}"
            )
        if self.action == "rate_limit" and self.rate_pps <= 0:
            raise ValueError("rate_limit rules need rate_pps > 0")
        if self.ttl_ns is not None and self.ttl_ns <= 0:
            raise ValueError(f"ttl_ns must be positive or None: {self.ttl_ns}")

    def matches(self, pps: float, bps: float, packets: int) -> bool:
        """Evaluate the defined predicates against flow metrics."""
        if not self.enabled:
            return False
        checks: List[bool] = []
        if self.pps_above is not None:
            checks.append(pps > self.pps_above)
        if self.bps_above is not None:
            checks.append(bps > self.bps_above)
        if self.packets_above is not None:
            checks.append(packets > self.packets_above)
        if not checks:
            return False
        return all(checks) if self.combine == "and" else any(checks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "pps_above": self.pps_above,
            "bps_above": self.bps_above,
            "packets_above": self.packets_above,
            "combine": self.combine,
            "scope": self.scope,
            "action": self.action,
            "rate_pps": self.rate_pps,
            "ttl_ns": self.ttl_ns,
            "enabled": self.enabled,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ThresholdRule":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})


class RulesEngine:
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


class Whitelist:
    """Source prefixes that must never be blocked.

    Entries are ``(base_ip, prefix_len)``; a covered source still
    generates a (canonical) ``whitelisted`` action so operators see the
    suppressed response, but nothing is installed.
    """

    def __init__(self, entries: Iterable[Tuple[int, int]] = ()) -> None:
        norm: List[Tuple[int, int]] = []
        for base, bits in entries:
            bits = int(bits)
            if not 0 <= bits <= 32:
                raise ValueError(f"prefix length out of range: {bits}")
            mask = 0 if bits == 0 else (0xFFFFFFFF << (32 - bits)) & 0xFFFFFFFF
            norm.append((int(base) & mask, bits))
        self.entries: Tuple[Tuple[int, int], ...] = tuple(norm)

    def covers(self, ip: int) -> bool:
        for base, bits in self.entries:
            mask = 0 if bits == 0 else (0xFFFFFFFF << (32 - bits)) & 0xFFFFFFFF
            if (int(ip) & mask) == base:
                return True
        return False


# ---------------------------------------------------------------------------
# durable block state
# ---------------------------------------------------------------------------
@dataclass
class BlockEntry:
    """One active mitigation target (flow / source / service)."""

    target: Tuple[Any, ...]
    rule: str
    action: str               # "block" | "rate_limit"
    rate_pps: float
    installed_ns: int
    expires_ns: Optional[int]  # None = permanent
    seq: int
    hits: int = 0              # packets that matched (dropped for "block")
    shed: int = 0              # rate-limit rejections
    refreshes: int = 0
    tokens: float = 0.0
    last_ns: int = 0

    def expired(self, now_ns: int) -> bool:
        return self.expires_ns is not None and now_ns >= self.expires_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": list(self.target),
            "rule": self.rule,
            "action": self.action,
            "rate_pps": self.rate_pps,
            "installed_ns": self.installed_ns,
            "expires_ns": self.expires_ns,
            "seq": self.seq,
            "hits": self.hits,
            "shed": self.shed,
            "refreshes": self.refreshes,
        }


class BlockTable:
    """Durable mitigation state: targets → :class:`BlockEntry`.

    Install is **idempotent**: re-installing an active target refreshes
    its expiry (extending, never shortening) instead of duplicating —
    this is what lets the canonical action log carry duplicate
    same-source actions from different shards without the enforcement
    state diverging.

    Token buckets for rate-limit entries are fed exclusively with
    injected timestamps (telemetry/simulation time), so the admit
    sequence is a pure function of the evidence stream.
    """

    def __init__(self, burst: float = 20.0) -> None:
        if burst <= 0:
            raise ValueError(f"burst must be positive: {burst}")
        self.burst = float(burst)
        self.entries: Dict[Tuple[Any, ...], BlockEntry] = {}
        # Lower bound on the earliest TTL deadline (None = no TTL
        # entries).  Lets the per-prediction expiry sweep bail in O(1);
        # it may run stale-low after a refresh/unblock, which only costs
        # an occasional full scan, never a missed expiry.
        self._next_expiry_ns: Optional[int] = None

    def install(
        self,
        target: Tuple[Any, ...],
        rule: str,
        action: str,
        rate_pps: float,
        now_ns: int,
        ttl_ns: Optional[int],
        seq: int,
    ) -> str:
        """Install or refresh; returns ``"installed"`` or ``"refreshed"``."""
        expires = None if ttl_ns is None else now_ns + int(ttl_ns)
        cur = self.entries.get(target)
        if cur is not None and not cur.expired(now_ns):
            cur.refreshes += 1
            if cur.expires_ns is not None:
                if expires is None:
                    cur.expires_ns = None
                else:
                    cur.expires_ns = max(cur.expires_ns, expires)
            return "refreshed"
        self.entries[target] = BlockEntry(
            target=target, rule=rule, action=action, rate_pps=float(rate_pps),
            installed_ns=int(now_ns), expires_ns=expires, seq=int(seq),
            tokens=self.burst, last_ns=int(now_ns),
        )
        if expires is not None and (
            self._next_expiry_ns is None or expires < self._next_expiry_ns
        ):
            self._next_expiry_ns = expires
        return "installed"

    def lookup(
        self, target: Tuple[Any, ...], now_ns: int
    ) -> Optional[BlockEntry]:
        e = self.entries.get(target)
        if e is None or e.expired(now_ns):
            return None
        return e

    def admit(self, entry: BlockEntry, now_ns: int) -> bool:
        """Token-bucket decision for a rate-limit entry (pure in time)."""
        entry.tokens = min(
            self.burst,
            entry.tokens + (now_ns - entry.last_ns) * 1e-9 * entry.rate_pps,
        )
        entry.last_ns = int(now_ns)
        if entry.tokens >= 1.0:
            entry.tokens -= 1.0
            return True
        return False

    def expire(self, now_ns: int) -> List[BlockEntry]:
        """Drop TTL-expired entries; returns them in canonical order."""
        if self._next_expiry_ns is None or now_ns < self._next_expiry_ns:
            return []
        dead = sorted(
            (e for e in self.entries.values() if e.expired(now_ns)),
            key=lambda e: (e.expires_ns or 0, e.target),
        )
        for e in dead:
            del self.entries[e.target]
        live = [
            e.expires_ns for e in self.entries.values()
            if e.expires_ns is not None
        ]
        self._next_expiry_ns = min(live) if live else None
        return dead

    def unblock(self, target: Tuple[Any, ...]) -> bool:
        return self.entries.pop(target, None) is not None

    def active(self, now_ns: int) -> List[BlockEntry]:
        return sorted(
            (e for e in self.entries.values() if not e.expired(now_ns)),
            key=lambda e: e.target,
        )

    # -- checkpoint support -------------------------------------------
    def state_snapshot(self) -> dict:
        return {
            "burst": self.burst,
            "entries": [
                {**e.to_dict(), "tokens": e.tokens, "last_ns": e.last_ns,
                 "target": e.target}
                for e in self.entries.values()
            ],
        }

    def state_restore(self, state: dict) -> None:
        self.burst = float(state["burst"])
        self.entries = {}
        for d in state["entries"]:
            target = tuple(d["target"])
            self.entries[target] = BlockEntry(
                target=target, rule=d["rule"], action=d["action"],
                rate_pps=d["rate_pps"], installed_ns=d["installed_ns"],
                expires_ns=d["expires_ns"], seq=d["seq"], hits=d["hits"],
                shed=d["shed"], refreshes=d["refreshes"],
                tokens=d["tokens"], last_ns=d["last_ns"],
            )
        live = [
            e.expires_ns for e in self.entries.values()
            if e.expires_ns is not None
        ]
        self._next_expiry_ns = min(live) if live else None


class ActivityRing:
    """Bounded operator-visible event feed (oldest evicted first)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = int(capacity)
        self.events: List[Dict[str, Any]] = []
        self.evicted = 0

    def push(self, ts_ns: int, kind: str, detail: str) -> None:
        self.events.append({"ts_ns": int(ts_ns), "kind": kind, "detail": detail})
        overflow = len(self.events) - self.capacity
        if overflow > 0:
            del self.events[:overflow]
            self.evicted += overflow

    def tail(self, limit: int) -> List[Dict[str, Any]]:
        limit = max(1, int(limit))
        return [dict(e) for e in self.events[-limit:]]

    def state_snapshot(self) -> dict:
        return {
            "capacity": self.capacity,
            "events": [dict(e) for e in self.events],
            "evicted": self.evicted,
        }

    def state_restore(self, state: dict) -> None:
        self.capacity = int(state["capacity"])
        self.events = [dict(e) for e in state["events"]]
        self.evicted = int(state["evicted"])


# ---------------------------------------------------------------------------
# the canonical action log
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MitigationAction:
    """One canonical mitigation decision (the digest's unit).

    ``seq`` is the triggering prediction entry's global stream sequence
    number and ``ts_ns`` its telemetry timestamp — both are properties
    of the delivered stream, never of the executing process.
    """

    seq: int
    ts_ns: int
    tier: str      # "flow" | "episode"
    rule: str
    verdict: str   # "installed" | "refreshed" | "whitelisted"
    action: str    # "block" | "rate_limit"
    scope: str     # "flow" | "source" | "service"
    target: Tuple[Any, ...]
    ttl_ns: int    # PERMANENT (-1) for permanent blocks
    rate_pps: float

    def sort_key(self) -> tuple:
        return (self.seq, self.tier, self.rule, self.scope,
                self.target, self.verdict)

    def canonical(self) -> str:
        return (
            f"{self.seq}|{self.ts_ns}|{self.tier}|{self.rule}|{self.verdict}|"
            f"{self.action}|{self.scope}|{self.target}|{self.ttl_ns}|"
            f"{self.rate_pps!r}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq, "ts_ns": self.ts_ns, "tier": self.tier,
            "rule": self.rule, "verdict": self.verdict, "action": self.action,
            "scope": self.scope, "target": list(self.target),
            "ttl_ns": self.ttl_ns, "rate_pps": self.rate_pps,
        }


def action_log_digest(actions: Iterable[MitigationAction]) -> str:
    """SHA-256 over the canonically ordered action log.

    Actions are sorted by ``(seq, tier, rule, scope, target, verdict)``
    — a total order independent of shard interleaving — and serialized
    over the deterministic fields only.  Two runs installed the same
    mitigation response iff their digests match.
    """
    lines = [a.canonical() for a in sorted(actions, key=lambda a: a.sort_key())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# configuration bundle
# ---------------------------------------------------------------------------
def default_rules() -> Tuple[ThresholdRule, ...]:
    """The out-of-the-box ruleset: block hot flagged flows, rate-limit
    the moderately hot, and source-block sustained attackers."""
    return (
        ThresholdRule(
            name="flow-burst-block", pps_above=100.0, packets_above=3,
            combine="and", scope="flow", action="block",
            ttl_ns=60_000_000_000,
        ),
        ThresholdRule(
            name="flow-soft-limit", pps_above=10.0, bps_above=50_000.0,
            combine="or", scope="flow", action="rate_limit", rate_pps=50.0,
            ttl_ns=30_000_000_000,
        ),
        ThresholdRule(
            name="source-sustained-block", pps_above=500.0, packets_above=20,
            combine="and", scope="source", action="block",
            ttl_ns=120_000_000_000,
        ),
    )


@dataclass(frozen=True)
class MitigationConfig:
    """Controller configuration (JSON-able; the command API edits it)."""

    rules: Tuple[ThresholdRule, ...] = field(default_factory=default_rules)
    whitelist: Tuple[Tuple[int, int], ...] = ()
    burst: float = 20.0
    activity_capacity: int = 256
    #: episode tier: rate allowed to a flooded service, and how long
    #: episode-installed responses live (None = permanent).
    episode_rate_pps: float = 100.0
    episode_ttl_ns: Optional[int] = 120_000_000_000

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rules": [r.to_dict() for r in self.rules],
            "whitelist": [list(w) for w in self.whitelist],
            "burst": self.burst,
            "activity_capacity": self.activity_capacity,
            "episode_rate_pps": self.episode_rate_pps,
            "episode_ttl_ns": self.episode_ttl_ns,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "MitigationConfig":
        kw: Dict[str, Any] = {}
        if "rules" in d:
            kw["rules"] = tuple(
                r if isinstance(r, ThresholdRule) else ThresholdRule.from_dict(r)
                for r in d["rules"]
            )
        if "whitelist" in d:
            kw["whitelist"] = tuple(
                (int(b), int(p)) for b, p in d["whitelist"]
            )
        for k in ("burst", "activity_capacity", "episode_rate_pps",
                  "episode_ttl_ns"):
            if k in d:
                kw[k] = d[k]
        return cls(**kw)


def build_controller(config: Dict[str, Any]) -> "MitigationController":
    """Module-level factory for shard workers (picklable by reference)."""
    return MitigationController(MitigationConfig.from_dict(config))


# ---------------------------------------------------------------------------
# the controller
# ---------------------------------------------------------------------------
class MitigationController:
    """Consumes detector output, installs blocks, answers operators.

    Attach with :meth:`attach_to`; the detector then owns the flow tier
    (stored predictions are swept at cycle boundaries by
    :meth:`on_cycle`) and calls
    :meth:`finish_run` at end of stream, which runs the episode tier
    over the merged, ``(seq, key)``-sorted prediction log.  In sharded
    mode each worker carries a clone built from :meth:`worker_spec`;
    the coordinator absorbs the workers' flow-tier action logs with
    :meth:`absorb_run` before its own episode pass.
    """

    COUNTER_KEYS = (
        "rules_installed", "rules_refreshed", "rules_expired",
        "rules_pruned", "packets_dropped", "packets_rate_shed",
        "whitelist_hits", "episode_escalations", "config_updates",
        "unblocks",
    )

    def __init__(
        self,
        config: Optional[MitigationConfig] = None,
        tables: Iterable[AclTable] = (),
    ) -> None:
        self.config = config if config is not None else MitigationConfig()
        self.tables: List[AclTable] = list(tables)
        self.engine = RulesEngine(self.config.rules)
        self.whitelist = Whitelist(self.config.whitelist)
        self.blocks = BlockTable(burst=self.config.burst)
        self.activity = ActivityRing(self.config.activity_capacity)
        self.action_log: List[MitigationAction] = []
        self.counters: Dict[str, int] = {k: 0 for k in self.COUNTER_KEYS}
        #: (flow_key, rule_name) -> re-emit deadline (None = never again).
        self._flow_emits: Dict[Tuple[tuple, str], Optional[int]] = {}
        self._db: Optional[Any] = None
        self._episode_sink: Optional[
            Callable[[List[PredictionEntry]], None]
        ] = None
        self._inline_episodes = False
        self._episode_pos = 0
        self._flow_pos = 0
        self._lossy_recoveries = 0
        self._last_ts_ns = 0
        # Derived caches (pure functions of durable state; never
        # checkpointed, cleared when the inputs change):
        # flow key -> the three block-table targets its packets match.
        self._targets_memo: Dict[tuple, List[Tuple[Any, ...]]] = {}
        # flow key -> consolidated no-op horizon, present only once
        # EVERY compiled rule has emitted for the flow: None = all
        # permanent (skip forever), int = earliest re-emit deadline
        # (skip until then).  Exact — until that instant the rule loop
        # is a guaranteed no-op, so skipping cannot change the log.
        self._flow_next: Dict[tuple, Optional[int]] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_to(self, detector: Any) -> "MitigationController":
        """Register as a detector's ``mitigation`` subsystem
        (checkpointed, sharded, surfaced in stats).

        The flow tier consumes the prediction log at cycle boundaries
        (:meth:`on_cycle`, invoked by the mechanism's cycle loop) rather
        than wrapping ``store_predictions`` per block: nothing ingests
        between a cycle's stores and its boundary, so the flow state
        read is bit-identical to store time — and the hot path stays a
        single call per cycle instead of one per prediction."""
        self._db = detector.db
        detector.mitigation = self
        return self

    def worker_spec(self) -> Tuple[Callable[[Dict[str, Any]], Any], Dict[str, Any]]:
        """Picklable ``(factory, config)`` recipe for shard workers."""
        return (build_controller, self.config.to_dict())

    def set_episode_sink(
        self, sink: Callable[[List[PredictionEntry]], None],
        inline: bool = False,
    ) -> None:
        """Register the episode consumer (the controlplane bridge).

        ``inline=True`` means the bridge already taps the live stream
        (DES demo mode); :meth:`finish_run` then skips the replay pass
        — inline episode order is storage order, which is documented as
        non-canonical.
        """
        self._episode_sink = sink
        self._inline_episodes = bool(inline)

    # ------------------------------------------------------------------
    # flow tier
    # ------------------------------------------------------------------
    @staticmethod
    def _attacker_of(key: tuple) -> int:
        """The non-service endpoint of a canonical (bidirectional) key:
        the service is the lower-port side, matching AlertManager's
        orientation heuristic."""
        ip_a, ip_b, port_a, port_b, _proto = key
        return int(ip_b) if port_a <= port_b else int(ip_a)

    @staticmethod
    def _service_of(key: tuple) -> Tuple[int, int, int]:
        ip_a, ip_b, port_a, port_b, proto = key
        if port_a <= port_b:
            return (int(ip_a), int(port_a), int(proto))
        return (int(ip_b), int(port_b), int(proto))

    def _enforcement_targets(
        self, key: tuple
    ) -> List[Tuple[Any, ...]]:
        """Every block-table target this flow's packets would match."""
        return [
            ("flow",) + tuple(int(v) for v in key),
            ("source", self._attacker_of(key)),
            ("service",) + self._service_of(key),
        ]

    def _targets_for(self, key: tuple) -> List[Tuple[Any, ...]]:
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

    def _acl_rule_for(
        self, target: Tuple[Any, ...], action: str, rate_pps: float,
        now_ns: int, ttl_ns: Optional[int], rule: str,
    ) -> FlowRule:
        expires = None if ttl_ns is None else now_ns + int(ttl_ns)
        act = RuleAction.DROP if action == "block" else RuleAction.RATE_LIMIT
        if target[0] == "flow":
            src, dst, sport, dport, proto = target[1:]
            return FlowRule(
                src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
                protocol=proto, action=act, rate_pps=rate_pps,
                expires_ns=expires, reason=rule,
            )
        if target[0] == "source":
            return FlowRule(
                src_ip=target[1], src_prefix_len=32, action=act,
                rate_pps=rate_pps, expires_ns=expires, reason=rule,
            )
        ip, port, proto = target[1:]
        return FlowRule(
            dst_ip=ip, dst_port=port, protocol=proto, action=act,
            rate_pps=rate_pps, expires_ns=expires, reason=rule,
        )

    def _emit(
        self, *, seq: int, now_ns: int, tier: str, rule: str, verdict: str,
        action: str, scope: str, target: Tuple[Any, ...],
        ttl_ns: Optional[int], rate_pps: float,
    ) -> MitigationAction:
        """Append a canonical action and (unless whitelisted) install."""
        act = MitigationAction(
            seq=int(seq), ts_ns=int(now_ns), tier=tier, rule=rule,
            verdict=verdict, action=action, scope=scope, target=target,
            ttl_ns=PERMANENT if ttl_ns is None else int(ttl_ns),
            rate_pps=float(rate_pps),
        )
        self.action_log.append(act)
        if verdict == "whitelisted":
            self.counters["whitelist_hits"] += 1
            self.activity.push(now_ns, "whitelisted",
                               f"{rule}: spared {target}")
            return act
        state = self.blocks.install(
            target, rule, action, rate_pps, now_ns, ttl_ns, seq
        )
        if state == "installed":
            self.counters["rules_installed"] += 1
        else:
            self.counters["rules_refreshed"] += 1
        for table in self.tables:
            table.install(self._acl_rule_for(
                target, action, rate_pps, now_ns, ttl_ns, rule
            ))
        self.activity.push(
            now_ns, state, f"{tier}/{rule}: {action} {target}"
        )
        return act

    def _sweep_expired(self, now_ns: int) -> None:
        for e in self.blocks.expire(now_ns):
            self.counters["rules_expired"] += 1
            self.activity.push(
                now_ns, "expired", f"{e.rule}: {e.action} {e.target}"
            )

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

    # ------------------------------------------------------------------
    # episode tier
    # ------------------------------------------------------------------
    def escalate(self, alert: Any, entry: PredictionEntry) -> MitigationAction:
        """Respond to one opened episode (called by the bridge, once per
        service, in merged-log order — deterministic input, see
        :class:`repro.controlplane.bridge.EpisodeBridge`)."""
        now = entry.ts_registered_ns
        self.counters["episode_escalations"] += 1
        cfg = self.config
        victim_ip, port, proto = alert.service
        if port == 0:
            # Port sweep: block the probing host.
            attacker = self._attacker_of(entry.key)
            verdict = (
                "whitelisted" if self.whitelist.covers(attacker) else "installed"
            )
            return self._emit(
                seq=entry.seq, now_ns=now, tier="episode",
                rule="episode-sweep-block", verdict=verdict, action="block",
                scope="source", target=("source", attacker),
                ttl_ns=cfg.episode_ttl_ns, rate_pps=0.0,
            )
        # Service flood: rate-limit the victim service (spoofed sources
        # make per-source blocks useless).
        return self._emit(
            seq=entry.seq, now_ns=now, tier="episode",
            rule="episode-service-limit", verdict="installed",
            action="rate_limit", scope="service",
            target=("service", int(victim_ip), int(port), int(proto)),
            ttl_ns=cfg.episode_ttl_ns, rate_pps=cfg.episode_rate_pps,
        )

    def finish_run(self, db: Any, lossy: int = 0) -> None:
        """End-of-run hook: run the episode tier over the merged,
        canonically sorted prediction log, then a final expiry sweep.

        Incremental: only entries beyond the last processed position
        are replayed, so driving a stream in chunks (mid-run command
        tests) does not double-escalate.
        """
        self.on_cycle()  # flow-tier sweep of any final-drain stores
        self._lossy_recoveries += int(lossy)
        log = db.predictions
        order = log.canonical_order()
        if order.size:
            self._last_ts_ns = max(
                self._last_ts_ns,
                int(log.rows["ts_registered_ns"][order[-1]]),
            )
        if self._episode_sink is not None and not self._inline_episodes:
            new = order[self._episode_pos:]
            self._episode_pos = int(order.size)
            if new.size:
                self._episode_sink(PredictionLog.decode(log.rows[new]))
        self._sweep_expired(self._last_ts_ns)

    def absorb_run(
        self,
        actions: List[MitigationAction],
        worker_stats: List[Dict[str, Any]],
        lossy: int = 0,
    ) -> None:
        """Coordinator-side merge of the workers' flow-tier output.

        The workers' action logs join the canonical log verbatim;
        their block state is replayed into this controller's table
        (idempotently, without re-counting — the workers' own counters
        are summed instead).  The coordinator's flow cursor is
        fast-forwarded past the merged log: each entry's flow tier
        already ran on the worker that owns the flow."""
        if self._db is not None:
            self._flow_pos = self._db.predictions.total
        self._lossy_recoveries += int(lossy)
        for a in sorted(actions, key=lambda a: a.sort_key()):
            self.action_log.append(a)
            if a.verdict == "whitelisted":
                continue
            ttl = None if a.ttl_ns == PERMANENT else a.ttl_ns
            self.blocks.install(
                a.target, a.rule, a.action, a.rate_pps, a.ts_ns, ttl, a.seq
            )
        for ws in worker_stats:
            counters = ws.get("counters", {})
            for k in self.COUNTER_KEYS:
                self.counters[k] += int(counters.get(k, 0))

    # ------------------------------------------------------------------
    # observability + operator command API
    # ------------------------------------------------------------------
    def action_log_digest(self) -> str:
        return action_log_digest(self.action_log)

    def stats(self) -> Dict[str, Any]:
        active = self.blocks.active(self._last_ts_ns)
        return {
            "counters": dict(self.counters),
            "active_blocks": len(active),
            "permanent_blocks": sum(
                1 for e in active if e.expires_ns is None
            ),
            "actions_logged": len(self.action_log),
            "activity_evicted": self.activity.evicted,
            "lossy_recoveries": self._lossy_recoveries,
            "state_authoritative": self._lossy_recoveries == 0,
        }

    def command(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """In-process JSON command API (the operator control surface).

        ``request`` and the response are JSON-able dicts; the optional
        stdlib HTTP driver (:mod:`repro.controlplane.httpapi`) is a thin
        transport over exactly this method.
        """
        op = request.get("op")
        try:
            if op == "get_config":
                return {"ok": True, "result": self.config.to_dict()}
            if op == "set_config":
                merged = self.config.to_dict()
                merged.update(request.get("config", {}))
                self.config = MitigationConfig.from_dict(merged)
                self.engine = RulesEngine(self.config.rules)
                self.whitelist = Whitelist(self.config.whitelist)
                self.blocks.burst = float(self.config.burst)
                self._flow_next.clear()  # horizons assume the old rules
                self.counters["config_updates"] += 1
                self.activity.push(
                    self._last_ts_ns, "config",
                    f"configuration updated ({len(self.config.rules)} rules, "
                    f"{len(self.config.whitelist)} whitelist entries)",
                )
                return {"ok": True, "result": self.config.to_dict()}
            if op == "stats":
                return {"ok": True, "result": self.stats()}
            if op == "blocked_list":
                now = int(request.get("now_ns", self._last_ts_ns))
                return {
                    "ok": True,
                    "result": [e.to_dict() for e in self.blocks.active(now)],
                }
            if op == "unblock":
                target = tuple(request.get("target", ()))
                removed = self.blocks.unblock(target)
                if removed:
                    self.counters["rules_pruned"] += 1
                    self.counters["unblocks"] += 1
                    self.activity.push(
                        self._last_ts_ns, "unblock", f"operator: {target}"
                    )
                return {"ok": True, "result": {"removed": removed}}
            if op == "activity_feed":
                limit = int(request.get("limit", 50))
                return {"ok": True, "result": self.activity.tail(limit)}
        except (TypeError, ValueError, KeyError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return {"ok": False, "error": f"unknown op: {op!r}"}

    # ------------------------------------------------------------------
    # checkpoint support (rides the RPRCKPT1 frames)
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "blocks": self.blocks.state_snapshot(),
            "activity": self.activity.state_snapshot(),
            "actions": [a.to_dict() for a in self.action_log],
            "flow_emits": [
                [list(k[0]), k[1], v] for k, v in self._flow_emits.items()
            ],
            "counters": dict(self.counters),
            "episode_pos": self._episode_pos,
            "flow_pos": self._flow_pos,
            "lossy_recoveries": self._lossy_recoveries,
            "last_ts_ns": self._last_ts_ns,
        }

    def state_restore(self, state: dict) -> None:
        self.config = MitigationConfig.from_dict(state["config"])
        self.engine = RulesEngine(self.config.rules)
        self.whitelist = Whitelist(self.config.whitelist)
        self.blocks.state_restore(state["blocks"])
        self.activity.state_restore(state["activity"])
        self.action_log = [
            MitigationAction(
                seq=d["seq"], ts_ns=d["ts_ns"], tier=d["tier"], rule=d["rule"],
                verdict=d["verdict"], action=d["action"], scope=d["scope"],
                target=tuple(d["target"]), ttl_ns=d["ttl_ns"],
                rate_pps=d["rate_pps"],
            )
            for d in state["actions"]
        ]
        self._flow_emits = {
            (tuple(k), name): v for k, name, v in state["flow_emits"]
        }
        self.counters = {
            key: int(state["counters"].get(key, 0))
            for key in self.COUNTER_KEYS
        }
        self._episode_pos = int(state["episode_pos"])
        self._flow_pos = int(state.get("flow_pos", 0))
        self._lossy_recoveries = int(state["lossy_recoveries"])
        self._last_ts_ns = int(state["last_ts_ns"])
        # Derived caches rebuild lazily against the restored state.
        self._targets_memo.clear()
        self._flow_next.clear()
