"""Decision logic of the live mechanism (paper §IV-C4).

Two layers, both reproduced exactly:

1. **Model vote** — per update, the MLP/RF/GNB votes collapse to one
   aggregated label by majority ("if two or more of the predictions are
   1, then it is classified as an attack flow").  The one tie rule is
   :func:`repro.ml.voting.majority_vote`, applied to a whole block of
   updates at once by the data processor.
2. **Sliding window** — aggregated labels are not acted on immediately:
   "we wait for three predictions.  If two or more of the last three
   predictions are 1, then it is classified as an attack flow."  The
   window is per flow and slides, so every update after the third yields
   a decision.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

__all__ = ["SlidingDecision"]


class SlidingDecision:
    """Per-flow last-N majority decision window.

    Parameters
    ----------
    window : int
        Number of recent aggregated predictions considered (paper: 3).
    emit_partial : bool
        If True, emit a majority decision even before the window fills
        (used by the window-size ablation); the paper's mechanism waits.
    """

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

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """Window contents + counters as a plain picklable dict."""
        return {
            "history": [(k, list(h)) for k, h in self._history.items()],
            "decisions_emitted": self.decisions_emitted,
            "waiting": self.waiting,
        }

    def state_restore(self, state: dict) -> None:
        """Rebuild the per-flow windows captured by
        :meth:`state_snapshot` (deques get this instance's ``maxlen``,
        so the restoring process must be configured with the same
        window size)."""
        self._history = {
            k: deque(labels, maxlen=self.window)
            for k, labels in state["history"]
        }
        self.decisions_emitted = int(state["decisions_emitted"])
        self.waiting = int(state["waiting"])

    def __len__(self) -> int:
        return len(self._history)
