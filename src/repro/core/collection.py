"""INT Data Collection module (Fig 2, module 1).

Reads from the INT collector — telemetry header, metadata, and IP header
information (§III-1) — and forwards the per-packet fields the Data
Processor needs (step ②).  There is one ingest path, the vectorized
``feed_batch`` over a :data:`~repro.int_telemetry.report.REPORT_DTYPE`
slice: a replay hands it one captured slice per poll interval, a live
run the rows an :class:`~repro.int_telemetry.collector.IntCollector`
gathered since the last poll boundary (see
:meth:`~repro.core.mechanism.AutomatedDDoSDetector.attach_live`).

An sFlow-fed variant replays sampled data through the same slice
interface for the comparison experiments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.features.batch import group_by_flow
from repro.features.keys import canonical_key_arrays

from .processor import DataProcessor

__all__ = ["IntDataCollection", "SFlowDataCollection"]


class IntDataCollection:
    """Bridges INT telemetry reports into the Data Processor."""

    def __init__(self, processor: DataProcessor) -> None:
        self.processor = processor
        self.reports_consumed = 0

    def state_snapshot(self) -> dict:
        return {"reports_consumed": self.reports_consumed}

    def state_restore(self, state: dict) -> None:
        self.reports_consumed = int(state["reports_consumed"])

    def feed_batch(
        self, records: np.ndarray, seqs: Optional[np.ndarray] = None
    ) -> None:
        """Consume a REPORT_DTYPE slice through the vectorized ingest
        path (one grouping pass per slice).

        ``seqs`` carries coordinator-assigned global sequence numbers in
        sharded runs; omitted, the processor numbers records itself.
        """
        n = records.shape[0]
        if n == 0:
            return
        batch = group_by_flow(*canonical_key_arrays(records))
        self.processor.ingest_batch(
            batch,
            ts_sim_ns=records["ts_report"].astype(np.int64),
            ingress_ts32=records["ingress_ts"].astype(np.int64),
            length=records["length"].astype(np.float64),
            protocol=records["protocol"].astype(np.int64),
            queue_occupancy=records["queue_occupancy"].astype(np.float64),
            hop_latency_ns=records["hop_latency"].astype(np.float64),
            seqs=seqs,
        )
        self.reports_consumed += n


class SFlowDataCollection:
    """Same bridge, fed from sFlow samples (no queue metadata)."""

    def __init__(self, processor: DataProcessor) -> None:
        self.processor = processor
        self.samples_consumed = 0

    def state_snapshot(self) -> dict:
        return {"samples_consumed": self.samples_consumed}

    def state_restore(self, state: dict) -> None:
        self.samples_consumed = int(state["samples_consumed"])

    def feed_batch(
        self, records: np.ndarray, seqs: Optional[np.ndarray] = None
    ) -> None:
        """Consume a SAMPLE_DTYPE slice through the vectorized ingest
        path (sFlow carries no queue metadata, so it stays zero)."""
        n = records.shape[0]
        if n == 0:
            return
        batch = group_by_flow(*canonical_key_arrays(records))
        self.processor.ingest_batch(
            batch,
            ts_sim_ns=records["ts_collector"].astype(np.int64),
            ingress_ts32=records["ts_sample"].astype(np.int64) % (2**32),
            length=records["length"].astype(np.float64),
            protocol=records["protocol"].astype(np.int64),
            seqs=seqs,
        )
        self.samples_consumed += n
