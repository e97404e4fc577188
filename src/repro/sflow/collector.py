"""sFlow collector.

Receives datagrams from agents, unpacks the flow samples into a
structured-array buffer, and exposes the data the same way the INT
collector does so the feature extractor can treat both sources uniformly
(the paper's comparison hinges on feeding the same pipeline from either
source).
"""

from __future__ import annotations

import numpy as np

from repro.common.buffers import GrowableRecordBuffer

from .datagram import SAMPLE_DTYPE, SFlowDatagram

__all__ = ["SFlowCollector"]


class SFlowCollector:
    """Accumulates sampled packet records."""

    def __init__(self) -> None:
        self._buffer = GrowableRecordBuffer(SAMPLE_DTYPE, initial_capacity=1024)
        self.datagrams_received = 0
        self.samples_received = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def ingest_datagram(self, dgram: SFlowDatagram, ts_collector: int) -> None:
        """Unpack one datagram arriving at ``ts_collector``."""
        self.datagrams_received += 1
        for sample in dgram.samples:
            self._buffer.append_row(sample.to_row(ts_collector))
            self.samples_received += 1

    def to_records(self) -> np.ndarray:
        """Owning structured array of all samples collected so far."""
        return self._buffer.compact()

    def view(self) -> np.ndarray:
        """Zero-copy view (invalidated by the next buffer growth)."""
        return self._buffer.view()

    def clear(self) -> None:
        self._buffer.clear()
        self.datagrams_received = 0
        self.samples_received = 0
