"""Tests for the sliding decision window (§IV-C4).

The window is two flow-table columns and :class:`SlidingDecision` the
rule over them; a hypothesis property checks it against the per-flow
deque implementation it replaced, kept here verbatim as the oracle.
The per-update vote it consumes is ``repro.ml.majority_vote``, tested in
``test_ml_ensemble``.
"""

from collections import deque
from typing import Dict, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ensemble import SlidingDecision
from repro.features.flow_table import FlowTable

from .test_batch_equivalence import fold_packet


class DequeDecision:
    """The pre-column ``SlidingDecision``: one deque per flow key."""

    def __init__(self, window: int = 3, emit_partial: bool = False) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1: {window}")
        self.window = int(window)
        self.emit_partial = bool(emit_partial)
        self._history: Dict[tuple, deque] = {}
        self.decisions_emitted = 0
        self.waiting = 0

    def push(self, key: tuple, label: int) -> Optional[int]:
        """Record one aggregated prediction; return the flow decision or
        ``None`` while the window is still filling."""
        hist = self._history.get(key)
        if hist is None:
            hist = deque(maxlen=self.window)
            self._history[key] = hist
        hist.append(int(label))
        if len(hist) < self.window and not self.emit_partial:
            self.waiting += 1
            return None
        self.decisions_emitted += 1
        ones = sum(hist)
        return 1 if 2 * ones >= len(hist) else 0

    def forget(self, key: tuple) -> None:
        """Drop a flow's history (eviction hook)."""
        self._history.pop(key, None)


def key(i):
    return (i, 10 + i, 1000 + i, 80, 6)


class Windows:
    """A flow table's window columns driven one push at a time."""

    def __init__(self, window=3, emit_partial=False):
        self.rule = SlidingDecision(window, emit_partial=emit_partial)
        self.table = FlowTable()

    def slot(self, f):
        if key(f) not in self.table:
            fold_packet(self.table, key(f), 0, 0, 64.0, 6)
        return int(self.table.lookup([key(f)])[0])

    def push_block(self, pushes):
        slots = np.array([self.slot(f) for f, _ in pushes], np.int64)
        labels = np.array([lbl for _, lbl in pushes], np.int64)
        out = self.rule.push(
            self.table.window_bits, self.table.window_fill, slots, labels
        )
        return [None if v < 0 else int(v) for v in out.tolist()]

    def push(self, f, label):
        return self.push_block([(f, label)])[0]

    def evict(self, f):
        self.table._release(self.table.lookup([key(f)]))


class TestSlidingDecision:
    def test_waits_for_three(self):
        """Paper: 'we wait for three predictions'."""
        d = Windows(window=3)
        assert d.push(0, 1) is None
        assert d.push(0, 1) is None
        assert d.push(0, 1) == 1

    def test_paper_example_101(self):
        """'if the last three predictions were [1, 0, 1], the final
        decision would be 1'."""
        d = Windows(window=3)
        d.push(0, 1)
        d.push(0, 0)
        assert d.push(0, 1) == 1

    def test_majority_zero(self):
        d = Windows(window=3)
        d.push(0, 0)
        d.push(0, 1)
        assert d.push(0, 0) == 0

    def test_window_slides(self):
        d = Windows(window=3)
        for v in (1, 1, 1):
            d.push(0, v)
        # three 0s push the 1s out
        assert d.push(0, 0) == 1  # [1,1,0]
        assert d.push(0, 0) == 0  # [1,0,0]
        assert d.push(0, 0) == 0  # [0,0,0]

    def test_flows_independent(self):
        d = Windows(window=3)
        for _ in range(3):
            d.push(0, 1)
        assert d.push(1, 0) is None  # flow 1's window still filling

    def test_emit_partial(self):
        d = Windows(window=3, emit_partial=True)
        assert d.push(0, 1) == 1
        assert d.push(0, 0) == 1  # [1,0] ties to attack
        assert d.push(0, 0) == 0  # [1,0,0]

    def test_forget(self):
        """A window is freed with its flow's slot."""
        d = Windows(window=3)
        for _ in range(3):
            d.push(0, 1)
        d.evict(0)
        assert d.push(0, 1) is None  # history gone

    def test_counters(self):
        d = Windows(window=3)
        d.push_block([(0, 1), (0, 1), (0, 1)])
        assert d.rule.waiting == 2
        assert d.rule.decisions_emitted == 1

    def test_window_one_is_passthrough(self):
        d = Windows(window=1)
        assert d.push(0, 1) == 1
        assert d.push(0, 0) == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SlidingDecision(window=0)
        with pytest.raises(ValueError):
            SlidingDecision(window=64)  # one uint64 column holds 63 labels


@given(st.lists(st.integers(0, 1), min_size=3, max_size=60))
@settings(max_examples=100)
def test_window_matches_reference(labels):
    """Sliding decision equals majority over the trailing 3 labels."""
    d = Windows(window=3)
    for i, v in enumerate(labels):
        out = d.push(0, v)
        if i < 2:
            assert out is None
        else:
            last3 = labels[i - 2 : i + 1]
            expected = 1 if sum(last3) >= 2 else 0
            assert out == expected


window_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)), max_size=12),
        ),
        st.tuples(st.just("evict"), st.integers(0, 4)),
    ),
    max_size=16,
)


@given(ops=window_ops, window=st.integers(1, 5), partial=st.booleans())
@settings(max_examples=300, deadline=None)
def test_columns_match_deque_oracle(ops, window, partial):
    """Block pushes over the window columns (a flow may repeat within a
    block) decide exactly as the deque walk, and eviction is ``forget``."""
    cols, oracle = Windows(window, partial), DequeDecision(window, partial)
    for op, arg in ops:
        if op == "evict":
            if key(arg) in cols.table:
                cols.evict(arg)
            oracle.forget(key(arg))
            continue
        want = [oracle.push(key(f), lbl) for f, lbl in arg]
        assert cols.push_block(arg) == want
        assert (cols.rule.waiting, cols.rule.decisions_emitted) == (
            oracle.waiting, oracle.decisions_emitted
        )
