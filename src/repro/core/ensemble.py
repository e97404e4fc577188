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
   a decision.  It lives in two flow-table columns and is freed with the
   flow's slot.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["SlidingDecision"]


class SlidingDecision:
    """The last-N majority rule over per-flow window columns: ``bits``
    holds a flow's last aggregated labels, newest in bit 0, and ``fill``
    how many (at most ``window``); an empty window is ``(0, 0)``.

    Parameters
    ----------
    window : int
        Number of recent aggregated predictions considered (paper: 3;
        at most 63, the labels one ``uint64`` holds).
    emit_partial : bool
        If True, emit a majority decision even before the window fills
        (used by the window-size ablation); the paper's mechanism waits.
    """

    def __init__(self, window: int = 3, emit_partial: bool = False) -> None:
        if not 1 <= window <= 63:
            raise ValueError(f"window must be in 1..63: {window}")
        self.window = int(window)
        self.emit_partial = bool(emit_partial)
        self.decisions_emitted = 0
        self.waiting = 0

    def push(
        self, bits: np.ndarray, fill: np.ndarray, slots: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Push ``labels[i]`` onto the window of ``slots[i]`` in order (a
        slot may repeat), updating ``bits`` / ``fill`` in place; returns
        each push's decision, -1 while its window is still filling.

        A block is at most one dispatch chunk, so the walk is in plain
        ints (numpy's per-call cost would dominate): each touched window
        is read once, advanced per push, and written back once.
        """
        w, mask = self.window, (1 << self.window) - 1
        windows: Dict[int, List[int]] = {}
        out = []
        for s, label in zip(slots.tolist(), labels.tolist()):
            window = windows.get(s)
            if window is None:
                window = windows[s] = [bits.item(s), fill.item(s)]
            b = window[0] = ((window[0] << 1) | label) & mask
            f = window[1] = min(window[1] + 1, w)
            out.append(-1 if f < w and not self.emit_partial else 2 * b.bit_count() >= f)
        for s, (b, f) in windows.items():
            bits[s], fill[s] = b, f
        waiting = out.count(-1)
        self.waiting += waiting
        self.decisions_emitted += len(out) - waiting
        return np.array(out, np.int8)

    # checkpoint/restore: the counters only (the windows ride the flow
    # table's snapshot)
    def state_snapshot(self) -> dict:
        return {"decisions_emitted": self.decisions_emitted, "waiting": self.waiting}

    def state_restore(self, state: dict) -> None:
        self.decisions_emitted = int(state["decisions_emitted"])
        self.waiting = int(state["waiting"])
