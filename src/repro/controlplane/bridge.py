"""Episode → action bridge: AlertManager drives the mitigation tier.

:class:`~repro.controlplane.alerts.AlertManager` turns per-flow
decisions into per-service episodes; this module closes the remaining
gap to enforcement by escalating each *opened* episode into a
mitigation response exactly once:

* a service-flood alert → rate-limit the victim service (spoofed
  sources make per-source blocks useless);
* a port-sweep alert (wildcard port 0) → block the probing host.

Determinism contract: the bridge consumes the **merged,
(seq, key)-sorted prediction log** handed to it by
:meth:`MitigationController.finish_run` — the identical sequence for
every worker count — and escalates a service at most once
(``escalated`` set), so the episode tier contributes the same canonical
actions to the action-log digest regardless of sharding, chaos, or
worker-kill recovery.

For live discrete-event demos :meth:`EpisodeBridge.attach_inline` taps
the store stream directly; inline episode order is storage order, which
is documented as non-canonical (demo ergonomics, not the digest path).
"""

from __future__ import annotations

from typing import Any, List, Optional, Set, Tuple

import numpy as np

from repro.core.database import PredictionEntry, PredictionLog

from .alerts import Alert, AlertManager

__all__ = ["EpisodeBridge"]


class EpisodeBridge:
    """Feeds detector decisions through alerting into the controller.

    Parameters
    ----------
    controller :
        The :class:`~repro.mitigation.controller.MitigationController`
        receiving :meth:`escalate` calls.  The bridge registers itself
        as the controller's episode sink.
    alerts : AlertManager, optional
        Episode aggregation; a default-config manager is created if
        omitted.
    min_severity : int
        Alerts below this severity (distinct-flow ladder) are tracked
        but not escalated into enforcement.
    """

    def __init__(
        self,
        controller: Any,
        alerts: Optional[AlertManager] = None,
        min_severity: int = 1,
    ) -> None:
        self.controller = controller
        self.alerts = alerts if alerts is not None else AlertManager()
        self.min_severity = int(min_severity)
        self.escalated: Set[Tuple[int, int, int]] = set()
        self.inline = False
        controller.set_episode_sink(self.consume)

    # ------------------------------------------------------------------
    def consume(self, entries: List[PredictionEntry]) -> None:
        """Process a batch of decisions in canonical order.

        Called by ``MitigationController.finish_run`` with the merged
        ``(seq, key)``-sorted log (or per entry when attached inline).
        """
        last_ts = 0
        for entry in entries:
            last_ts = max(last_ts, int(entry.ts_registered_ns))
            alert = self.alerts.on_decision(entry)
            if alert is None or not alert.is_open:
                continue
            if int(alert.severity) < self.min_severity:
                continue
            if alert.service in self.escalated:
                continue
            self.escalated.add(alert.service)
            self.controller.escalate(alert, entry)
        if entries:
            self.alerts.expire(last_ts)

    def close_episodes(self, now_ns: int) -> None:
        """End-of-run flush: close every open alert."""
        self.alerts.close_all(int(now_ns))

    # ------------------------------------------------------------------
    def attach_inline(self, detector: Any) -> "EpisodeBridge":
        """Live-DES mode: escalate as predictions are stored.

        Storage order is flow-grouped rather than seq-sorted, so inline
        escalation order is *not* the canonical episode order — use the
        default finish-time path when the action-log digest matters.
        """
        self.inline = True
        self.controller.set_episode_sink(self.consume, inline=True)
        db = detector.db
        original = db.store_predictions

        def wrapped(block: np.ndarray) -> None:
            original(block)
            for entry in PredictionLog.decode(block):
                self.consume([entry])

        db.store_predictions = wrapped
        return self

    # ------------------------------------------------------------------
    @property
    def open_alerts(self) -> List[Alert]:
        return self.alerts.open_alerts

    def stats(self) -> dict:
        return {
            "alerts_total": len(self.alerts.alerts),
            "alerts_open": len(self.alerts.open_alerts),
            "services_escalated": len(self.escalated),
            "inline": self.inline,
        }
