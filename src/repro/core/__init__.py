"""The paper's contribution: the automated DDoS detection mechanism.

Fig 2's four modules — INT Data Collection
(:mod:`~repro.core.collection`), Data Processor
(:mod:`~repro.core.processor`), CentralServer
(:mod:`~repro.core.central`), Prediction (:mod:`~repro.core.prediction`)
— around the shared database (:mod:`~repro.core.database`), with the
ensemble/sliding-window decision logic (:mod:`~repro.core.ensemble`),
offline pre-training (:mod:`~repro.core.training`), latency bookkeeping
(:mod:`~repro.core.latency`), and the assembled detector
(:mod:`~repro.core.mechanism`).
"""

from .central import CentralServer
from .collection import IntDataCollection, SFlowDataCollection
from .database import FlowDatabase, PredictionEntry
from .ensemble import SlidingDecision
from .latency import LatencyTracker
from .mechanism import AutomatedDDoSDetector, score_by_type
from .prediction import PredictionModule
from .processor import DataProcessor
from .training import TrainedBundle, default_panel, pretrain, pretrain_from_records

__all__ = [
    "CentralServer",
    "IntDataCollection",
    "SFlowDataCollection",
    "FlowDatabase",
    "PredictionEntry",
    "SlidingDecision",
    "LatencyTracker",
    "AutomatedDDoSDetector",
    "score_by_type",
    "PredictionModule",
    "DataProcessor",
    "TrainedBundle",
    "default_panel",
    "pretrain",
    "pretrain_from_records",
]
