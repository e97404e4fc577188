"""One cycle engine: every drive runs the same hook sequence.

``AutomatedDDoSDetector.step`` / ``drain`` / ``finish`` / ``walk`` are
the only place the per-boundary order (window tick → cycle → mitigation
sweep → drift check) and the end-of-stream tail are written.  These
tests hold that three ways:

* a spy records the hook calls of every in-process drive —
  ``run_stream``, a manual ``feed_batch`` + ``step`` + ``finish`` loop,
  the per-record oracle of the batch-equivalence suite, and the live
  ``attach_live`` drive — and the sequences must be identical (a spy
  that reads zero calls fails too: that is the tracer-blindness failure
  the frozen e2e benchmark reports as ``missing_hooks``);
* the live drive reads the collector's rows as one slice per ``step``,
  so its prediction log equals ``run_stream``'s — exact, under
  ``max_flows`` and sketch-gated;
* a structural guard greps ``src/repro`` for second call sites of the
  hooks and for the names the engine, the one run mode and the one
  ingest path replaced;
* empty and shorter-than-one-slice streams under chaos behave the same
  in-process, with a lifecycle manager, and sharded.
"""

import inspect
import re
from pathlib import Path

import pytest

from repro.core import AutomatedDDoSDetector
from repro.core.central import CentralServer
from repro.core.prediction import PredictionModule
from repro.core.sharding import prediction_log_digest
from repro.features.flow_table import FlowTable
from repro.int_telemetry import IntCollector, TelemetryReport
from repro.int_telemetry.metadata import HopMetadata
from repro.lifecycle import LifecycleConfig, LifecycleManager
from repro.mitigation import MitigationController
from repro.resilience.chaos import ChaosSchedule, FaultInjector
from repro.sketch import SketchConfig

from .test_batch_equivalence import CHAOS, oracle_stream
from .test_batch_equivalence import bundle, stream  # noqa: F401 (fixtures)

POLL_EVERY = 37
BUDGET = 256
ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# spy: one hook sequence, every drive
# ---------------------------------------------------------------------------
HOOKS = {
    "end_window": ("sketch_gate", "end_window"),
    "cycle": ("central", "cycle"),
    "on_cycle": ("mitigation", "on_cycle"),
    "on_slice": ("lifecycle", "on_slice"),
    "finish_run": ("mitigation", "finish_run"),
}


def spied_detector(bundle):
    """Detector with every layer attached and an instance-attribute spy
    on each hook, installed after construction the way the e2e tracer
    does — so a hook reached through a cached bound method reads zero."""
    # promote_packets=1 admits every flow of every slice, so the gate
    # ticks without changing what the cycles see.
    det = AutomatedDDoSDetector(bundle, sketch=SketchConfig(promote_packets=1))
    MitigationController().attach_to(det)
    LifecycleManager(LifecycleConfig()).attach_to(det)
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name, (owner, attr) in HOOKS.items():
        module = getattr(det, owner)
        if module is not None:
            setattr(module, attr, spy(name, getattr(module, attr)))
    return det, calls


def as_report(row):
    hop = HopMetadata(
        switch_id=1,
        ingress_ts=int(row["ingress_ts"]),
        egress_ts=(int(row["ingress_ts"]) + int(row["hop_latency"])) % 2**32,
        queue_occupancy=int(row["queue_occupancy"]),
    )
    return TelemetryReport(
        *(int(row[f]) for f in (
            "ts_report", "src_ip", "dst_ip", "src_port", "dst_port",
            "protocol", "tcp_flags", "length",
        )),
        hop_stack=(hop,),
    )


def test_every_drive_runs_one_hook_sequence(bundle, stream):  # noqa: F811
    assert stream.shape[0] % POLL_EVERY  # a partial tail slice is covered

    det, replay = spied_detector(bundle)
    det.run_stream(stream, poll_every=POLL_EVERY, cycle_budget=BUDGET)
    for name in HOOKS:
        assert name in replay, f"spy on {name} saw no call"
    n_boundaries = stream.shape[0] // POLL_EVERY
    boundary = ["end_window", "cycle", "on_cycle", "on_slice"]
    assert replay[: 4 * n_boundaries] == boundary * n_boundaries
    # the tail: drain rounds, one sweep, the episode pass (which sweeps
    # once more itself) — and never a window tick
    tail = replay[4 * n_boundaries :]
    assert set(tail[:-3]) == {"cycle"}
    assert tail[-3:] == ["on_cycle", "finish_run", "on_cycle"]
    # only the slice walk hands slices to the lifecycle manager
    want = [name for name in replay if name != "on_slice"]

    det, oracle = spied_detector(bundle)
    oracle_stream(det, stream, poll_every=POLL_EVERY, cycle_budget=BUDGET)
    assert oracle == want

    det, manual = spied_detector(bundle)
    for start in range(0, stream.shape[0], POLL_EVERY):
        chunk = stream[start : start + POLL_EVERY]
        det.collection.feed_batch(chunk)
        if chunk.shape[0] == POLL_EVERY:
            det.step(BUDGET)
    det.finish(BUDGET)
    assert manual == want

    det, live = spied_detector(bundle)
    db = live_drive(det, stream)
    assert live == want
    assert len(db.predictions) == stream.shape[0]


def live_drive(det, records):
    """The live drive: one ``IntCollector.ingest`` per report, a ``step``
    every ``POLL_EVERY`` reports, then ``finish``."""
    collector = IntCollector()
    det.attach_live(collector)
    for i in range(records.shape[0]):
        collector.ingest(as_report(records[i]))
        if (i + 1) % POLL_EVERY == 0:
            det.step(BUDGET)
    return det.finish(BUDGET)


# ---------------------------------------------------------------------------
# one ingest path: live reads the collector's rows, one slice per step
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [{}, {"max_flows": 7}, {"sketch": SketchConfig(promote_packets=3)}],
    ids=["exact", "max_flows", "sketch"],
)
def test_live_drive_matches_replay(bundle, stream, kwargs):  # noqa: F811
    """A live run feeds the same slices as ``run_stream`` and so stores
    the same prediction log — sketch-gated runs included."""
    live = live_drive(AutomatedDDoSDetector(bundle, **kwargs), stream)
    replay = AutomatedDDoSDetector(bundle, **kwargs).run_stream(
        stream, poll_every=POLL_EVERY, cycle_budget=BUDGET
    )
    assert len(live.predictions) > 0
    assert prediction_log_digest(live) == prediction_log_digest(replay)


def test_live_drive_skips_rows_collected_before_attach(bundle, stream):  # noqa: F811
    collector = IntCollector()
    for i in range(5):
        collector.ingest(as_report(stream[i]))
    det = AutomatedDDoSDetector(bundle)
    det.attach_live(collector)
    collector.ingest(as_report(stream[5]))
    det.finish(BUDGET)
    assert det.stats()["reports_consumed"] == 1


def test_live_collector_cleared_mid_run_raises(bundle, stream):  # noqa: F811
    """A cursor into a buffer that shrank would silently skip reports
    until it grew back: the pull refuses instead."""
    collector = IntCollector()
    det = AutomatedDDoSDetector(bundle)
    det.attach_live(collector)
    for i in range(POLL_EVERY):
        collector.ingest(as_report(stream[i]))
    det.step(BUDGET)
    collector.clear()
    collector.ingest(as_report(stream[POLL_EVERY]))
    with pytest.raises(RuntimeError, match="shrank"):
        det.step(BUDGET)


# ---------------------------------------------------------------------------
# structural guard: one writer of the order
# ---------------------------------------------------------------------------
def call_sites(pattern):
    """``(file, enclosing def)`` of every match under ``src/repro``."""
    sites = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        enclosing = None
        for line in path.read_text().splitlines():
            found = re.match(r"\s*def (\w+)", line)
            if found:
                enclosing = found.group(1)
            if re.search(pattern, line):
                sites.append((path.name, enclosing))
    return sites


def test_each_hook_has_one_call_site():
    assert call_sites(r"\._pull_live\(\)") == [
        ("mechanism.py", "step"), ("mechanism.py", "drain"),
    ]
    assert call_sites(r"\.end_window\(\)") == [("mechanism.py", "step")]
    assert call_sites(r"\.transform_batch\(") == [("mechanism.py", "walk")]
    assert call_sites(r"\.transform_flush\(") == [("mechanism.py", "walk")]
    assert call_sites(r"\.on_slice\(") == [("mechanism.py", "walk")]
    assert call_sites(r"\.on_cycle\(\)") == [
        ("mechanism.py", "step"), ("mechanism.py", "drain"),
        ("controller.py", "finish_run"),
    ]
    assert call_sites(r"\.cycle\(") == [
        ("central.py", "drain"), ("mechanism.py", "step"),
    ]


def test_replaced_names_are_gone():
    # spelled in halves so this file passes its own check
    gone = [
        "live" + "_cycle", "_collection" + "_inner",
        "_forward" + "_batch", "_last" + "_dtype",
        "_dispatch" + "_batched", "predict" + "_one", "features" + "_for",
        "feed" + "_record", "failure" + "_threshold",
    ]
    # the per-packet ingest stack, as whole words ("classification_report"
    # is not a report callback)
    gone_words = [
        "ingest" + "_packet", "admit" + "_one", "on" + "_report",
        "add" + "_one", "subscri" + "ber",
    ]
    files = [ROOT / "README.md", ROOT / "DESIGN.md"]
    for top in ("src", "tests", "benchmarks", "examples"):
        files += sorted((ROOT / top).rglob("*.py"))
        files += sorted((ROOT / top).rglob("*.md"))
    hits = [
        (str(path.relative_to(ROOT)), name)
        for path in files
        for name in gone
        if name in path.read_text()
    ]
    hits += [
        (str(path.relative_to(ROOT)), name)
        for path in files
        for name in gone_words
        if re.search(rf"\b{name}\b", path.read_text())
    ]
    assert hits == []
    assert not hasattr(FlowTable, "update")


def test_one_run_mode():
    """No run-mode switch, no streaming fault injector: the settable
    values the one run mode removed are gone from the signatures, and
    nothing in ``src/repro`` passes or reads them."""
    # spelled in halves so this file passes its own checks
    removed = {"batched", "inner", "failure" + "_threshold"}
    for fn in (AutomatedDDoSDetector, CentralServer, PredictionModule,
               FaultInjector):
        assert removed.isdisjoint(inspect.signature(fn).parameters), fn
    assert call_sites(r"\bbatch" + r"ed\s*=|\.batch" + r"ed\b") == []
    assert call_sites(r"\binner" + r"=") == []


# ---------------------------------------------------------------------------
# empty and short streams under chaos, every run mode
# ---------------------------------------------------------------------------
REORDER = ChaosSchedule(reorder_rate=0.5, reorder_depth=4, duplicate_rate=0.1)


@pytest.mark.parametrize("schedule", [CHAOS, REORDER], ids=["mixed", "reorder"])
@pytest.mark.parametrize("n_records", [0, POLL_EVERY - 5], ids=["empty", "short"])
def test_short_stream_under_chaos_same_in_every_mode(
    bundle, stream, schedule, n_records  # noqa: F811
):
    records = stream[:n_records]

    def run(lifecycle=False, **run_kwargs):
        det = AutomatedDDoSDetector(
            bundle, chaos=schedule, chaos_seed=123
        )
        if lifecycle:
            LifecycleManager(LifecycleConfig()).attach_to(det)
        db = det.run_stream(
            records, poll_every=POLL_EVERY, cycle_budget=BUDGET, **run_kwargs
        )
        return prediction_log_digest(db), len(db.predictions)

    want = run()
    assert run(lifecycle=True) == want
    assert run(shards=1) == want
    assert (want[1] == 0) == (n_records == 0)
