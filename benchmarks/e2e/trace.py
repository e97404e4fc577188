"""Span tracer that wraps the program's public methods from outside.

Nothing under ``src/`` knows about it: :meth:`Tracer.hook` shadows a bound
method with an instance attribute (or replaces a function on a class or
module), records one span per call — name, start, end, parent — in memory,
and :meth:`Tracer.unhook` puts everything back.  The benchmark is single
threaded in the traced process, so a plain stack gives the parent.

Self time of a span is its duration minus the part its child spans cover;
children of one parent never overlap, so that is a plain subtraction.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["Tracer"]


class Tracer:
    #: Marks "attribute does not exist" apart from "attribute is None".
    ABSENT = object()

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index]``; parent -1 = root.
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def hook(self, owner: Any, attr: str, name: str) -> bool:
        """Trace ``owner.attr`` as ``name``; False if it is not there (or
        ``owner`` cannot take attributes), leaving ``owner`` untouched."""
        original = getattr(owner, attr, self.ABSENT)
        if owner is None or original is self.ABSENT or not callable(original):
            return False
        try:
            own = vars(owner).get(attr, self.ABSENT)
            setattr(owner, attr, self.wrap(name, original))
        except (TypeError, AttributeError):
            return False
        self._undo.append((owner, attr, own))
        return True

    def hook_function(self, package: str, attr: str, name: str) -> bool:
        """Trace a module-level function everywhere ``package`` imported
        it, so the caller's global lookup finds the wrapper whichever
        module the function lives in."""
        prefix = package + "."
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(prefix))
        ]
        originals = {
            id(vars(m)[attr]): vars(m)[attr]
            for m in modules
            if callable(vars(m).get(attr))
        }
        wrapped = {key: self.wrap(name, fn) for key, fn in originals.items()}
        for module in modules:
            fn = vars(module).get(attr)
            if id(fn) in wrapped:
                self._undo.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])
        return bool(wrapped)

    def unhook(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is self.ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per span name: ``calls``, ``total_ns`` and ``self_ns``."""
        covered = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Dict[str, int]] = {}
        for (name, start, end, _parent), child_ns in zip(self.spans, covered):
            row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns
        return out

    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        """One JSON file: ``names`` table plus ``spans`` rows of
        ``[name_index, start_ns, end_ns, parent_row]`` (-1 = no parent),
        times relative to the first span."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0
        rows = [
            [index[name], start - origin, end - origin, parent]
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {
                "meta": meta,
                "columns": ["name", "start_ns", "end_ns", "parent"],
                "names": names,
                "summary": self.summary(),
                "spans": rows,
            },
            separators=(",", ":"),
        ) + "\n")
