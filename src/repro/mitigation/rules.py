"""ACL rules (the Flood Defender pattern [17]).

A :class:`FlowRule` matches on any subset of the five-tuple (wildcards
allowed) plus an optional source prefix, and carries an action (drop or
rate-limit) with an expiry.  The
:class:`~repro.mitigation.controller.MitigationController` synthesizes
them from its block targets, choosing match granularity by scope:

* a flagged flow → exact five-tuple rule;
* a source-scoped threshold rule or a port-sweep episode → source-host
  (/32) drop;
* a service-flood episode → rate limit on the victim ``(dst, port,
  proto)`` — dropping by source is useless when sources are spoofed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.dataplane.packet import Packet

__all__ = ["RuleAction", "FlowRule"]


class RuleAction(Enum):
    """What an ACL match does to a packet."""

    DROP = "drop"
    RATE_LIMIT = "rate_limit"


def _prefix_mask(bits: int) -> int:
    if not 0 <= bits <= 32:
        raise ValueError(f"prefix length out of range: {bits}")
    return 0 if bits == 0 else (0xFFFFFFFF << (32 - bits)) & 0xFFFFFFFF


@dataclass(frozen=True)
class FlowRule:
    """An ACL entry.  ``None`` fields are wildcards.

    Attributes
    ----------
    src_ip, src_prefix_len : match source against a prefix.
    dst_ip : exact destination match.
    src_port, dst_port, protocol : exact L4 matches.
    action : drop or rate-limit.
    rate_pps : packets/second allowed when rate-limiting.
    expires_ns : absolute simulation expiry (None = permanent).
    reason : human-readable provenance (attack type + evidence).
    """

    src_ip: Optional[int] = None
    src_prefix_len: int = 32
    dst_ip: Optional[int] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    protocol: Optional[int] = None
    action: RuleAction = RuleAction.DROP
    rate_pps: float = 0.0
    expires_ns: Optional[int] = None
    reason: str = ""

    def __post_init__(self) -> None:
        _prefix_mask(self.src_prefix_len)  # validates
        if self.action is RuleAction.RATE_LIMIT and self.rate_pps <= 0:
            raise ValueError("rate limit rules need rate_pps > 0")

    def matches(self, pkt: Packet) -> bool:
        """Does this rule apply to ``pkt``?"""
        if self.src_ip is not None:
            mask = _prefix_mask(self.src_prefix_len)
            if (pkt.src_ip & mask) != (self.src_ip & mask):
                return False
        if self.dst_ip is not None and pkt.dst_ip != self.dst_ip:
            return False
        if self.src_port is not None and pkt.src_port != self.src_port:
            return False
        if self.dst_port is not None and pkt.dst_port != self.dst_port:
            return False
        if self.protocol is not None and pkt.protocol != self.protocol:
            return False
        return True

    def expired(self, now_ns: int) -> bool:
        return self.expires_ns is not None and now_ns >= self.expires_ns
