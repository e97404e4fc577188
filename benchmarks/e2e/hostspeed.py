"""Host-speed probe: how fast is this machine *right now*?

The reference host is a shared 2-vCPU VM that switches, for 10-30 minutes at
a time, between a fast regime and one up to 1.6x slower (user CPU time inflates
with it, steal time stays ~0), with bursts of seconds on top.  Identical laps
then differ by 50 % between runs, so neither medians nor minima repeat.

A fixed kernel timed right before and right after every lap follows the
regime: over 23 minutes that contained three regime switches, window medians
of raw lap time spread 17 % (quartile distance / median; range 51 %), the same
laps divided by their own probe readings 3.6 % (range 13 %).  The kernels
below were picked by that experiment — interpreter-heavy dict/tuple, text and
small-array work like the detector's own mix; a bare arithmetic loop followed
only half of the slowdown.

``factor()`` is probe time / ``REFERENCE_S``: 1.0 in the fast regime of the
reference host, 1.5 when the host runs 1.5x slower.  The harness divides
every measured time by the factor around it and reports the raw value next to
the normalised one.  The probe never touches the program under test.
"""

from __future__ import annotations

import json
import re
import time
from typing import List

import numpy as np

__all__ = ["REFERENCE_S", "probe_s", "factor"]

#: Probe time in the fast regime of the reference host (seconds).  Only a
#: scale: it makes normalised == raw there.
REFERENCE_S = 0.0400

_ROWS = [
    {"id": i, "key": [i, i * 3, 80, 443, 6], "name": f"flow-{i}",
     "vals": [i * 0.5, i * 1.5, float(i)], "tags": {"a": i % 7, "b": str(i)}}
    for i in range(1500)
]
_NAME = re.compile(r"flow-(\d+)")
_RNG = np.random.default_rng(1)
_X = _RNG.random((128, 15))
_W = [_RNG.random(shape) for shape in ((15, 64), (64, 32), (32, 16))]
_KEYS = _RNG.integers(0, 50, 128)


def _dict_churn() -> int:
    table = {}
    for i in range(30000):
        table[(i, i * 7, 80, 443, 6)] = [i]
    for i in range(30000):
        table[(i, i * 7, 80, 443, 6)].append(i)
    return sum(len(v) for v in table.values())


def _text_churn() -> int:
    rows = json.loads(json.dumps(_ROWS))
    rows.sort(key=lambda r: (r["tags"]["a"], -r["id"]))
    lines = [f"{r['name']}|{r['vals'][0]:.3f}|{r['tags']['b']}" for r in rows]
    return sum(int(_NAME.match(line).group(1)) for line in lines)


def _array_churn() -> float:
    total = 0.0
    for _ in range(300):
        h = _X
        for w in _W:
            h = np.maximum(h @ w, 0)
        order = np.argsort(_KEYS, kind="stable")
        starts = np.flatnonzero(np.diff(_KEYS[order], prepend=-1))
        total += np.add.reduceat(_X[order, 0], starts).tolist()[0] + h[0, 0]
    return total


_KERNELS = (_dict_churn, _text_churn, _array_churn)


def probe_s(repeats: int = 3) -> float:
    """Sum over the kernels of the fastest of ``repeats`` timings (bursts
    only ever add time, so the minimum reads the regime)."""
    total = 0.0
    for kernel in _KERNELS:
        best: List[float] = []
        for _ in range(repeats):
            started = time.perf_counter()
            kernel()
            best.append(time.perf_counter() - started)
        total += min(best)
    return total


def factor() -> float:
    return probe_s() / REFERENCE_S
