"""The fault-tolerant mitigation control plane (closing the loop).

The paper stops at detection; its cited blueprint (Flood Defender [17],
the P4/5G IDS [20]) and the Ryu-style SDN demos stop at "push a rule to
the switch".  On top of the supervised sharded runtime, this module
adds a mitigation subsystem whose *state survives process death* and
whose *decisions are reproducible* for any worker count:

* :class:`ThresholdRule` / :class:`RulesEngine` — PPS/BPS/packet-count
  thresholds joined by AND/OR, temporary or permanent, drop vs
  token-bucket rate limit, flow- or source-scoped.  One predicate,
  :meth:`ThresholdRule.matches`, serves scalars and columns;
  :meth:`RulesEngine.fires` evaluates a cycle's flagged rows at once;
* :class:`BlockTable` — the durable enforcement state: active blocks
  keyed by canonical target, TTL deadlines, per-entry token buckets
  fed with telemetry timestamps only, idempotent install/refresh;
* :class:`Whitelist` — prefix-based precedence: whitelisted sources are
  never blocked, only counted;
* :class:`MitigationController` — consumes the detector's stored
  predictions (flow tier) and AlertManager episodes (episode tier, via
  :class:`repro.controlplane.bridge.EpisodeBridge`), keeps the
  canonical **action log**, answers the operator JSON command API
  (``get_config`` / ``set_config`` / ``stats`` / ``blocked_list`` /
  ``unblock`` / ``activity_feed``), and snapshots/restores all of it
  through the RPRCKPT1 checkpoint frames.

Determinism contract (the action-log digest)
--------------------------------------------
:func:`action_log_digest` (SHA-256 over the canonically ordered
:class:`MitigationAction` records) is byte-identical across worker
counts, clean and under telemetry chaos + worker-kill, because:

* **flow tier** actions are a pure function of the triggering
  prediction entry plus *flow-local* state (the flow's own record
  metrics and this flow's previous emissions).  Sharding partitions by
  canonical flow key, so flow-local state is always worker-local;
  duplicate same-source actions from different flows are emitted and
  deduplicated *idempotently* at the block table;
* **episode tier** actions are derived from the globally merged,
  ``(seq, key)``-sorted prediction log at end of run — the identical
  input sequence for every worker count.

Wall-clock never enters: every timestamp is the evidence's telemetry time.
"""

from __future__ import annotations

import hashlib
import operator
from collections import deque
from dataclasses import asdict, dataclass, field
from functools import reduce
from typing import (
    Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.core.database import KEY_FIELDS, KEY_VIEW, PredictionEntry, PredictionLog
from repro.features.flow_record import FEATURE_ORDER

from .enforcement import AclTable
from .rules import FlowRule, RuleAction, _prefix_mask

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
def _check_number(where: str, value: Any, *, optional: bool = False,
                  integral: bool = False, positive: bool = False) -> None:
    """Reject a JSON config value of the wrong type or out of int64 range."""
    if value is None and optional:
        return
    if (isinstance(value, bool)
            or not isinstance(value, int if integral else (int, float))
            or not (0 < value if positive else 0 <= value)
            or not value < 2**63):
        raise ValueError(f"{where} must be a number {'>' if positive else '>='} 0 "
                         f"and below 2**63: {value!r}")


def _known_keys(cls: Any, d: Dict[str, Any]) -> Dict[str, Any]:
    """``d``, with an unknown (misspelt) field an error, never dropped."""
    unknown = sorted(set(d) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {unknown}")
    return dict(d)


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
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"rule needs a name: {self.name!r}")
        where = f"rule {self.name!r}:"
        for name in ("pps_above", "bps_above"):
            _check_number(f"{where} {name}", getattr(self, name), optional=True)
        _check_number(f"{where} packets_above", self.packets_above,
                      optional=True, integral=True)
        _check_number(f"{where} rate_pps", self.rate_pps)
        _check_number(f"{where} ttl_ns", self.ttl_ns, optional=True,
                      integral=True, positive=True)
        if not isinstance(self.enabled, bool):
            raise ValueError(f"{where} enabled must be a bool: {self.enabled!r}")
        for name, allowed in (("combine", ("and", "or")),
                              ("scope", ("flow", "source")),
                              ("action", ("block", "rate_limit"))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{where} {name} must be one of {allowed}: "
                                 f"{getattr(self, name)!r}")
        if self.action == "rate_limit" and self.rate_pps <= 0:
            raise ValueError("rate_limit rules need rate_pps > 0")

    def matches(self, pps: Any, bps: Any, packets: Any) -> Any:
        """Evaluate the defined predicates on flow metrics: scalars give a
        bool, equal-length arrays a mask (or ``False`` if it cannot fire)."""
        checks = []
        if self.pps_above is not None:
            checks.append(pps > self.pps_above)
        if self.bps_above is not None:
            checks.append(bps > self.bps_above)
        if self.packets_above is not None:
            checks.append(packets > self.packets_above)
        if not self.enabled or not checks:
            return False
        return reduce(operator.and_ if self.combine == "and" else operator.or_,
                      checks)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ThresholdRule":
        return cls(**_known_keys(cls, d))


class RulesEngine:
    """Column evaluation of :class:`ThresholdRule` entries.

    Every enabled matching rule fires (the controller deduplicates per
    flow/rule); rule order only affects the order actions are appended,
    and the canonical digest sorts, so order is cosmetic.
    """

    #: Below this many rows numpy's fixed per-call cost exceeds the work.
    FEW_ROWS = 16

    def __init__(self, rules: Sequence[ThresholdRule]) -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {names}")
        self.rules: Tuple[ThresholdRule, ...] = tuple(rules)

    def fires(self, metrics: Any) -> List[List[bool]]:
        """The (rows × rules) mask, a list of booleans per row in :attr:`rules`
        order, of ``(pps, bps, packets)`` rows (a float array, or tuples).
        From :attr:`FEW_ROWS` rows on each :meth:`ThresholdRule.matches` runs
        once over the columns; below, once per row on Python floats."""
        if len(metrics) < self.FEW_ROWS:
            rows = metrics.tolist() if isinstance(metrics, np.ndarray) else metrics
            return [[rule.matches(*row) for rule in self.rules] for row in rows]
        pps, bps, packets = np.asarray(metrics, dtype=np.float64).T
        mask = np.empty((len(pps), len(self.rules)), dtype=bool)
        for j, rule in enumerate(self.rules):
            mask[:, j] = rule.matches(pps, bps, packets)
        return mask.tolist()


class Whitelist:
    """Source prefixes that must never be blocked.

    Entries are ``(base_ip, prefix_len)``; a covered source still
    generates a (canonical) ``whitelisted`` action so operators see the
    suppressed response, but nothing is installed.
    """

    def __init__(self, entries: Iterable[Tuple[int, int]] = ()) -> None:
        masks = [(int(base), _prefix_mask(int(bits))) for base, bits in entries]
        #: ``(base & mask, mask)`` per prefix, masks computed once.
        self.prefixes: Tuple[Tuple[int, int], ...] = tuple(
            (base & mask, mask) for base, mask in masks
        )

    def covers(self, ip: int) -> bool:
        ip = int(ip)
        return any((ip & mask) == base for base, mask in self.prefixes)


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
        self._rescan_expiry()
        return dead

    def _rescan_expiry(self) -> None:
        """Set the expiry fast-path bound to the exact earliest deadline."""
        live = [e.expires_ns for e in self.entries.values() if e.expires_ns is not None]
        self._next_expiry_ns = min(live, default=None)

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
        restored = (BlockEntry(**{**d, "target": tuple(d["target"])})
                    for d in state["entries"])
        self.entries = {e.target: e for e in restored}
        self._rescan_expiry()


class ActivityRing:
    """Bounded operator-visible event feed (oldest evicted first)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.events: Deque[Dict[str, Any]] = deque(maxlen=int(capacity))
        self.evicted = 0

    @property
    def capacity(self) -> int:
        return self.events.maxlen

    def resize(self, capacity: int) -> None:
        """Hold at most ``capacity`` events; a shrink evicts the oldest."""
        self.evicted += max(0, len(self.events) - capacity)
        self.events = deque(self.events, maxlen=int(capacity))

    def push(self, ts_ns: int, kind: str, detail: str) -> None:
        if len(self.events) == self.capacity:
            self.evicted += 1
        self.events.append({"ts_ns": int(ts_ns), "kind": kind, "detail": detail})

    def tail(self, limit: int) -> List[Dict[str, Any]]:
        limit = max(1, int(limit))
        return [dict(e) for e in list(self.events)[-limit:]]

    def state_snapshot(self) -> dict:
        return {
            "capacity": self.capacity,
            "events": [dict(e) for e in self.events],
            "evicted": self.evicted,
        }

    def state_restore(self, state: dict) -> None:
        self.events = deque((dict(e) for e in state["events"]),
                            maxlen=int(state["capacity"]))
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

    def __post_init__(self) -> None:
        _check_number("burst", self.burst, positive=True)
        _check_number("activity_capacity", self.activity_capacity,
                      integral=True, positive=True)
        _check_number("episode_rate_pps", self.episode_rate_pps, positive=True)
        _check_number("episode_ttl_ns", self.episode_ttl_ns, optional=True,
                      integral=True, positive=True)

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "rules": [r.to_dict() for r in self.rules],
                "whitelist": [list(w) for w in self.whitelist]}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "MitigationConfig":
        kw = _known_keys(cls, d)
        if "rules" in d:
            kw["rules"] = tuple(
                r if isinstance(r, ThresholdRule) else ThresholdRule.from_dict(r)
                for r in d["rules"]
            )
        if "whitelist" in d:
            kw["whitelist"] = tuple((int(b), int(p)) for b, p in d["whitelist"])
        return cls(**kw)


def build_controller(config: Dict[str, Any]) -> "MitigationController":
    """Module-level factory for shard workers (picklable by reference)."""
    return MitigationController(MitigationConfig.from_dict(config))


def _due(deadline: Optional[int], now: int) -> bool:
    """An emit is due: none on record (0), or its deadline (None: never) passed."""
    return deadline == 0 or (deadline is not None and now >= deadline)


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
        self._adopt(config if config is not None else MitigationConfig())
        self.tables: List[AclTable] = list(tables)
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

    def _adopt(self, config: MitigationConfig) -> None:
        """Switch to ``config`` whole, or raise and keep the current one."""
        engine, whitelist = RulesEngine(config.rules), Whitelist(config.whitelist)
        self.config, self.engine, self.whitelist = config, engine, whitelist

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

    def _enforcement_targets(self, key: tuple) -> Tuple[Tuple[Any, ...], ...]:
        """Every block-table target this flow's packets would match: the
        flow, its attacker and its service (the lower-port side, as in
        :meth:`_attacker_of`)."""
        ip_a, ip_b, port_a, port_b, proto = key
        if port_a <= port_b:
            return (("flow",) + key, ("source", ip_b),
                    ("service", ip_a, port_a, proto))
        return (("flow",) + key, ("source", ip_a),
                ("service", ip_b, port_b, proto))

    def _account(self, key: tuple, now_ns: int) -> None:
        """Shadow enforcement accounting: would this packet have been
        dropped/shed by the active blocks?  Counters only — never part
        of the canonical log (source/service blocks are not visible to
        sibling shards mid-run)."""
        entries = self.blocks.entries
        for target in self._enforcement_targets(key):
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

        The rules are evaluated once over the block's flagged rows
        (:meth:`_fired`); the walk then does, in storage order, only what
        depends on it: the expiry sweep at the row where a deadline falls
        due, shadow accounting, and the emit step where a rule fired.
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
        keys = list(zip(*(rows[f].tolist() for f in KEY_FIELDS)))
        stamps = rows["ts_registered_ns"].tolist()
        seqs = rows["seq"].tolist()
        flagged = [i for i, final in enumerate(rows["final"].tolist()) if final == 1]
        fired = iter(self._fired(db.flows, rows, keys, stamps, flagged)
                     if flagged else ())
        at, mask = next(fired, (-1, None))
        blocks, entries, account = self.blocks, self.blocks.entries, self._account
        for i, (key, now) in enumerate(zip(keys, stamps)):
            if entries:
                nx = blocks._next_expiry_ns
                if nx is not None and now >= nx:
                    self._sweep_expired(now)
                account(key, now)
            if i == at:
                self._emit_fired(key, seqs[i], now, mask)
                at, mask = next(fired, (-1, None))
        self._last_ts_ns = max(self._last_ts_ns, max(stamps))

    def _fired(
        self, flows: Any, rows: np.ndarray, keys: List[tuple], stamps: List[int],
        flagged: List[int],
    ) -> List[Tuple[int, List[bool]]]:
        """``(row, rule mask)`` of each flagged row on which a rule fires,
        in row order.  A flow no longer resident (evicted, or the
        coordinator's merge replay: the flow tier ran on its worker) fires
        nothing.  The flagged rows' key columns are looked up at once; of
        few rows, one is skipped unread while every rule's last emit for
        its flow covers its stamp: emits only move deadlines forward, so
        it cannot emit in the walk."""
        if len(flagged) < RulesEngine.FEW_ROWS:
            flagged = [i for i in flagged if not self._covered(keys[i], stamps[i])]
            if not flagged:
                return []
        key_col = rows.view(KEY_VIEW)["key"].take(flagged, axis=0)
        feats, resident = flows.feature_rows(key_col)
        at = np.asarray(flagged)[resident].tolist()
        metrics = feats[resident][:, (_PPS, _BPS, _PACKETS)]
        return [(i, m) for i, m in zip(at, self.engine.fires(metrics)) if any(m)]

    def _covered(self, key: tuple, now: int) -> bool:
        """Whether every rule's last emit for this flow covers ``now``."""
        for rule in self.engine.rules:
            if _due(self._flow_emits.get((key, rule.name), 0), now):
                return False
        return True

    def _emit_fired(self, key: tuple, seq: int, now: int, mask: List[bool]) -> None:
        """The emit step for one flagged row: each fired rule emits
        unless this flow's previous emit for it still covers ``now``."""
        for rule, fired in zip(self.engine.rules, mask):
            deadline = self._flow_emits.get((key, rule.name), 0)
            if not fired or not _due(deadline, now):
                continue  # no match, or already emitted and still covered
            self._flow_emits[key, rule.name] = (
                None if rule.ttl_ns is None else now + rule.ttl_ns
            )
            attacker = self._attacker_of(key)
            verdict = ("whitelisted" if self.whitelist.covers(attacker)
                       else "refreshed" if deadline != 0 else "installed")
            target = ("flow",) + key if rule.scope == "flow" else ("source", attacker)
            self._emit(seq=seq, now_ns=now, tier="flow", rule=rule.name,
                       verdict=verdict, action=rule.action, scope=rule.scope,
                       target=target, ttl_ns=rule.ttl_ns, rate_pps=rule.rate_pps)

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
            verdict = "whitelisted" if self.whitelist.covers(attacker) else "installed"
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
                self._adopt(MitigationConfig.from_dict(merged))
                self.blocks.burst = float(self.config.burst)
                self.activity.resize(self.config.activity_capacity)
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
        self._adopt(MitigationConfig.from_dict(state["config"]))
        self.blocks.state_restore(state["blocks"])
        self.activity.state_restore(state["activity"])
        self.action_log = [
            MitigationAction(**{**d, "target": tuple(d["target"])})
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
