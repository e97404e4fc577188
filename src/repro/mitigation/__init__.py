"""DDoS mitigation: the paper's declared next step, built out.

The paper stops at detection ("we do not address mitigation", §III fn.2)
and cites ONOS Flood Defender [17] and the P4/5G IDS of [20] as the
blueprint for closing the loop.  This package implements that loop over
our data plane with one detect→mitigate driver:

* :class:`~repro.mitigation.controller.MitigationController` — the
  fault-tolerant control plane: configurable threshold rules over
  flagged flows (flow tier, swept at cycle boundaries), alert-episode
  escalation (episode tier, via
  :class:`repro.controlplane.bridge.EpisodeBridge`), durable
  auto-expiring blocks with whitelist precedence, an operator JSON
  command API, checkpointed state, and a canonical action log whose
  digest is byte-identical across shard counts, chaos, and worker-kill
  recovery.

Its block targets become drop/rate-limit rules
(:mod:`~repro.mitigation.rules`) enforced as switch ACL hooks
(:mod:`~repro.mitigation.enforcement`) on every attached table.
"""

from .controller import (
    ActivityRing,
    BlockEntry,
    BlockTable,
    MitigationAction,
    MitigationConfig,
    MitigationController,
    RulesEngine,
    ThresholdRule,
    Whitelist,
    action_log_digest,
    build_controller,
)
from .enforcement import AclTable, attach_acl
from .rules import FlowRule, RuleAction

__all__ = [
    "AclTable",
    "attach_acl",
    "ActivityRing",
    "BlockEntry",
    "BlockTable",
    "MitigationAction",
    "MitigationConfig",
    "MitigationController",
    "RulesEngine",
    "ThresholdRule",
    "Whitelist",
    "action_log_digest",
    "build_controller",
    "FlowRule",
    "RuleAction",
]
