"""INT collector.

The collector is the off-switch endpoint of Fig 1: it receives one
telemetry report per packet from the sink switch and accumulates them in
a structured-array buffer.  The INT Data Collection module of the
automated mechanism (paper §III-1) reads from here, either in bulk
(offline training) or, in a live run, as the rows that arrived since the
detector's last poll boundary (one slice per ``step``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.common.buffers import GrowableRecordBuffer

from .report import REPORT_DTYPE, TelemetryReport, report_to_row

__all__ = ["IntCollector"]


class IntCollector:
    """Accumulates telemetry reports as :data:`REPORT_DTYPE` rows.

    Parameters
    ----------
    keep_stacks : bool
        Retain the full per-hop metadata objects alongside the flat rows
        (needed by a few tests and the Fig 1 walkthrough; costs memory,
        off by default).
    """

    def __init__(self, keep_stacks: bool = False) -> None:
        self._buffer = GrowableRecordBuffer(REPORT_DTYPE, initial_capacity=4096)
        self.keep_stacks = keep_stacks
        self.stacks: List[tuple] = []
        self.reports_ingested = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def ingest(self, report: TelemetryReport) -> None:
        """Receive one report from a sink switch."""
        self._buffer.append_row(report_to_row(report))
        if self.keep_stacks:
            self.stacks.append(report.hop_stack)
        self.reports_ingested += 1

    def to_records(self) -> np.ndarray:
        """Owning structured array of everything collected so far."""
        return self._buffer.compact()

    def view(self) -> np.ndarray:
        """Zero-copy view (invalidated by the next buffer growth)."""
        return self._buffer.view()

    def clear(self) -> None:
        """Drop everything collected (storage retained)."""
        self._buffer.clear()
        self.stacks.clear()
        self.reports_ingested = 0
