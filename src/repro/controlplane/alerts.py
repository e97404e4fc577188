"""Episode-level alerting from per-flow detector decisions.

Per-packet decisions are far too granular for an operator; the control
plane wants *one* ticket per attack: which service, since when, how big,
is it still going.  :class:`AlertManager` performs that aggregation:

* flagged flows are grouped by victim service ``(dst_ip, dst_port,
  protocol)`` using the raw directional view of the canonical key (the
  service is whichever endpoint holds the monitored server);
* an alert OPENs when ``open_threshold`` distinct flows are flagged
  within ``window_ns``;
* while open, new evidence UPDATEs the alert (flow count, rate, and a
  severity ladder);
* ``quiet_ns`` without new evidence CLOSEs it, stamping the episode's
  observed duration — which an operator can compare against Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.database import PredictionEntry, PredictionLog

# Pipeline-health alert types are defined in repro.resilience.degradation
# (they must not depend on repro.core, which this module imports) and
# re-exported here: the control plane is where operators consume both
# attack-episode alerts and module-health alerts.
from repro.resilience.degradation import (  # noqa: E402  (re-export)
    HealthAlert,
    HealthLogSink,
    HealthSink,
    ModuleHealth,
)

# Lifecycle decisions (drift WARN/ALARM, swap, rollback) are the third
# alert family an operator consumes here; the events themselves are
# produced by repro.lifecycle (a lower layer) and re-exported.
from repro.lifecycle import LifecycleEvent  # noqa: E402  (re-export)

__all__ = [
    "AlertSeverity",
    "Alert",
    "AlertSink",
    "AlertManager",
    "LogSink",
    "ModuleHealth",
    "HealthAlert",
    "HealthSink",
    "HealthLogSink",
    "LifecycleEvent",
]


class AlertSeverity(IntEnum):
    """Severity ladder by distinct flagged flows."""

    LOW = 1
    MEDIUM = 2
    HIGH = 3
    CRITICAL = 4


@dataclass
class Alert:
    """One attack episode against one service."""

    service: Tuple[int, int, int]  # (victim_ip, port, protocol)
    opened_ns: int
    last_evidence_ns: int
    flows: Set[tuple] = field(default_factory=set)
    closed_ns: Optional[int] = None

    @property
    def n_flows(self) -> int:
        return len(self.flows)

    @property
    def is_open(self) -> bool:
        return self.closed_ns is None

    @property
    def duration_ns(self) -> int:
        end = self.closed_ns if self.closed_ns is not None else self.last_evidence_ns
        return end - self.opened_ns

    @property
    def severity(self) -> AlertSeverity:
        n = self.n_flows
        if n >= 1000:
            return AlertSeverity.CRITICAL
        if n >= 100:
            return AlertSeverity.HIGH
        if n >= 10:
            return AlertSeverity.MEDIUM
        return AlertSeverity.LOW


AlertSink = Callable[[str, Alert], None]
"""Sink signature: ``sink(event, alert)`` with event in
{"open", "update", "close"}.  "update" fires only on severity change."""


class LogSink:
    """Collects alert events in memory (and optionally prints them)."""

    def __init__(self, echo: bool = False) -> None:
        self.events: List[Tuple[str, Alert]] = []
        self.echo = bool(echo)

    def __call__(self, event: str, alert: Alert) -> None:
        self.events.append((event, alert))
        if self.echo:  # pragma: no cover - console side effect
            ip = alert.service[0]
            print(
                f"[{event.upper():6s}] service {ip:#010x}:{alert.service[1]} "
                f"severity={alert.severity.name} flows={alert.n_flows} "
                f"duration={alert.duration_ns / 1e9:.3f}s"
            )


class AlertManager:
    """Aggregates flagged decisions into per-service alerts.

    Parameters
    ----------
    server_ips : set of int, optional
        Known monitored-server addresses; used to orient the canonical
        (bidirectional) flow key so the victim side is identified.  If
        omitted, the endpoint with the lower port number is assumed to
        be the service (ports < 1024 or the minimum of the two).
    open_threshold : int
        Distinct flagged flows within ``window_ns`` required to open.
    window_ns : int
        Evidence window for the open decision.
    quiet_ns : int
        Idle time after which an open alert closes.
    sweep_threshold : int
        Distinct destination ports of one host flagged within the window
        before a *port-sweep* alert opens (service port 0 = wildcard).
        A scan never concentrates on one service, so per-service
        aggregation alone would miss it.
    sinks : list of AlertSink
    """

    def __init__(
        self,
        server_ips: Optional[Set[int]] = None,
        open_threshold: int = 3,
        window_ns: int = 1_000_000_000,
        quiet_ns: int = 2_000_000_000,
        sweep_threshold: int = 20,
        sinks: Optional[List[AlertSink]] = None,
    ) -> None:
        if open_threshold < 1:
            raise ValueError(f"open_threshold must be >= 1: {open_threshold}")
        if window_ns <= 0 or quiet_ns <= 0:
            raise ValueError("window/quiet must be positive")
        if sweep_threshold < 2:
            raise ValueError(f"sweep_threshold must be >= 2: {sweep_threshold}")
        self.server_ips = set(server_ips) if server_ips else None
        self.open_threshold = int(open_threshold)
        self.window_ns = int(window_ns)
        self.quiet_ns = int(quiet_ns)
        self.sweep_threshold = int(sweep_threshold)
        self.sinks = list(sinks) if sinks else []
        self.alerts: List[Alert] = []
        self._open: Dict[Tuple[int, int, int], Alert] = {}
        # pre-open evidence: service -> [(ts, key)]
        self._evidence: Dict[Tuple[int, int, int], List[Tuple[int, tuple]]] = {}
        # sweep evidence: (victim_ip, proto) -> [(ts, port, key)]
        self._sweep_evidence: Dict[Tuple[int, int], List[Tuple[int, int, tuple]]] = {}

    # ------------------------------------------------------------------
    def _service_of(self, key: tuple) -> Tuple[int, int, int]:
        ip_a, ip_b, port_a, port_b, proto = key
        if self.server_ips is not None:
            if ip_a in self.server_ips:
                return (ip_a, port_a, proto)
            if ip_b in self.server_ips:
                return (ip_b, port_b, proto)
        # fall back: the lower port is the service side
        if port_a <= port_b:
            return (ip_a, port_a, proto)
        return (ip_b, port_b, proto)

    def _emit(self, event: str, alert: Alert) -> None:
        for sink in self.sinks:
            sink(event, alert)

    # ------------------------------------------------------------------
    def on_decision(self, entry: PredictionEntry) -> Optional[Alert]:
        """Consume one detector output; returns the affected open alert."""
        now = entry.ts_registered_ns
        self.expire(now)
        if entry.final_decision != 1:
            return None
        service = self._service_of(entry.key)

        alert = self._open.get(service)
        if alert is not None:
            prev_sev = alert.severity
            alert.flows.add(entry.key)
            alert.last_evidence_ns = now
            if alert.severity != prev_sev:
                self._emit("update", alert)
            return alert

        evidence = self._evidence.setdefault(service, [])
        evidence.append((now, entry.key))
        cutoff = now - self.window_ns
        evidence[:] = [(t, k) for t, k in evidence if t >= cutoff]
        if len({k for _, k in evidence}) >= self.open_threshold:
            alert = Alert(
                service=service,
                opened_ns=evidence[0][0],
                last_evidence_ns=now,
                flows={k for _, k in evidence},
            )
            self._open[service] = alert
            self.alerts.append(alert)
            del self._evidence[service]
            self._emit("open", alert)
            return alert
        return self._sweep_decision(service, entry.key, now)

    def _sweep_decision(
        self, service: Tuple[int, int, int], key: tuple, now: int
    ) -> Optional[Alert]:
        """Host-level aggregation: many flagged ports on one host."""
        victim_ip, port, proto = service
        host = (victim_ip, proto)
        sweep_service = (victim_ip, 0, proto)  # port 0 = wildcard alert

        alert = self._open.get(sweep_service)
        if alert is not None:
            prev_sev = alert.severity
            alert.flows.add(key)
            alert.last_evidence_ns = now
            if alert.severity != prev_sev:
                self._emit("update", alert)
            return alert

        evidence = self._sweep_evidence.setdefault(host, [])
        evidence.append((now, port, key))
        cutoff = now - self.window_ns
        evidence[:] = [(t, p, k) for t, p, k in evidence if t >= cutoff]
        if len({p for _, p, _ in evidence}) >= self.sweep_threshold:
            alert = Alert(
                service=sweep_service,
                opened_ns=evidence[0][0],
                last_evidence_ns=now,
                flows={k for _, _, k in evidence},
            )
            self._open[sweep_service] = alert
            self.alerts.append(alert)
            del self._sweep_evidence[host]
            self._emit("open", alert)
            return alert
        return None

    def expire(self, now_ns: int) -> List[Alert]:
        """Close alerts whose evidence went quiet; returns those closed."""
        closed = []
        for service, alert in list(self._open.items()):
            if now_ns - alert.last_evidence_ns >= self.quiet_ns:
                alert.closed_ns = alert.last_evidence_ns
                del self._open[service]
                self._emit("close", alert)
                closed.append(alert)
        return closed

    def close_all(self, now_ns: int) -> None:
        """End-of-run flush: close every open alert."""
        for service, alert in list(self._open.items()):
            alert.closed_ns = now_ns
            del self._open[service]
            self._emit("close", alert)

    def attach_to(self, detector) -> None:
        """Tap an AutomatedDDoSDetector's prediction stream."""
        db = detector.db
        original = db.store_predictions

        def wrapped(block: np.ndarray) -> None:
            original(block)
            for entry in PredictionLog.decode(block):
                self.on_decision(entry)

        db.store_predictions = wrapped

    @property
    def open_alerts(self) -> List[Alert]:
        return list(self._open.values())
