"""Tests for the sliding decision window (§IV-C4).

The per-update vote it consumes is ``repro.ml.majority_vote``, tested in
``test_ml_ensemble``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ensemble import SlidingDecision


class TestSlidingDecision:
    def test_waits_for_three(self):
        """Paper: 'we wait for three predictions'."""
        d = SlidingDecision(window=3)
        assert d.push(("f",), 1) is None
        assert d.push(("f",), 1) is None
        assert d.push(("f",), 1) == 1

    def test_paper_example_101(self):
        """'if the last three predictions were [1, 0, 1], the final
        decision would be 1'."""
        d = SlidingDecision(window=3)
        d.push(("f",), 1)
        d.push(("f",), 0)
        assert d.push(("f",), 1) == 1

    def test_majority_zero(self):
        d = SlidingDecision(window=3)
        d.push(("f",), 0)
        d.push(("f",), 1)
        assert d.push(("f",), 0) == 0

    def test_window_slides(self):
        d = SlidingDecision(window=3)
        for v in (1, 1, 1):
            d.push(("f",), v)
        # three 0s push the 1s out
        assert d.push(("f",), 0) == 1  # [1,1,0]
        assert d.push(("f",), 0) == 0  # [1,0,0]
        assert d.push(("f",), 0) == 0  # [0,0,0]

    def test_flows_independent(self):
        d = SlidingDecision(window=3)
        for _ in range(3):
            d.push(("a",), 1)
        assert d.push(("b",), 0) is None  # b's window still filling

    def test_emit_partial(self):
        d = SlidingDecision(window=3, emit_partial=True)
        assert d.push(("f",), 1) == 1
        assert d.push(("f",), 0) == 1  # [1,0] ties to attack
        assert d.push(("f",), 0) == 0  # [1,0,0]

    def test_forget(self):
        d = SlidingDecision(window=3)
        for _ in range(3):
            d.push(("f",), 1)
        d.forget(("f",))
        assert d.push(("f",), 1) is None  # history gone

    def test_counters(self):
        d = SlidingDecision(window=3)
        d.push(("f",), 1)
        d.push(("f",), 1)
        d.push(("f",), 1)
        assert d.waiting == 2
        assert d.decisions_emitted == 1

    def test_window_one_is_passthrough(self):
        d = SlidingDecision(window=1)
        assert d.push(("f",), 1) == 1
        assert d.push(("f",), 0) == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SlidingDecision(window=0)


@given(st.lists(st.integers(0, 1), min_size=3, max_size=60))
@settings(max_examples=100)
def test_window_matches_reference(labels):
    """Sliding decision equals majority over the trailing 3 labels."""
    d = SlidingDecision(window=3)
    for i, v in enumerate(labels):
        out = d.push(("f",), v)
        if i < 2:
            assert out is None
        else:
            last3 = labels[i - 2 : i + 1]
            expected = 1 if sum(last3) >= 2 else 0
            assert out == expected
