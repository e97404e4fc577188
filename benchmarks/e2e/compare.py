#!/usr/bin/env python3
"""Compare two result files of the e2e benchmark against its bounds.

    python benchmarks/e2e/compare.py A.json B.json

Each file is a set written by ``run.py --all``/``--repeat`` or a single
``out/report_<workload>.json``.  For every workload x end-to-end metric the
medians are compared: B may be worse than A by at most the metric's bound (a
share of A's median).  Runs made with the same seed must also agree exactly
on the prediction-log digest.  Exit status 1 on any breach.

The quartile spread of each side is printed next to it: where a spread is
wider than the bound the comparison is unresolved rather than passed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional


def load(path: str) -> Dict[str, Dict[str, Any]]:
    """``{workload: {"seeds", "digests", "metrics": {name: {...values}}}}``"""
    data = json.loads(Path(path).read_text())
    if data.get("benchmark") == "e2e":
        return {data["workload"]: {
            "seeds": [data["seed"]],
            "digests": [data["digest"]],
            "metrics": {
                name: {**entry, "values": [entry["value"]]}
                for name, entry in data["end_to_end"].items()
            },
        }}
    if data.get("benchmark") == "e2e-set":
        return {
            name: {"seeds": w["seeds"], "digests": w["digests"], "metrics": w["end_to_end"]}
            for name, w in data["workloads"].items()
        }
    raise SystemExit(f"{path}: not an e2e report or set file")


def spread(values: List[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_all, b_all = load(argv[0]), load(argv[1])
    breaches = 0
    print(f"{'workload':<18} {'metric':<18} {'A median':>12} {'B median':>12} "
          f"{'B worse by':>10} {'bound':>7} {'spread A':>9} {'spread B':>9}  verdict")
    for workload in sorted(set(a_all) & set(b_all)):
        a, b = a_all[workload], b_all[workload]
        for name, a_metric in a["metrics"].items():
            b_metric = b["metrics"].get(name)
            if b_metric is None:
                continue
            a_med = statistics.median(a_metric["values"])
            b_med = statistics.median(b_metric["values"])
            worse = (b_med - a_med) / a_med
            if a_metric["better"] == "higher":
                worse = -worse
            bound = a_metric["bound"]
            spreads = [spread(a_metric["values"]), spread(b_metric["values"])]
            if worse > bound:
                verdict = "BREACH"
                breaches += 1
            elif any(s is not None and s > bound for s in spreads):
                verdict = "unresolved (spread > bound)"
            else:
                verdict = "ok"
            shown = ["-" if s is None else f"{s:.2%}" for s in spreads]
            print(f"{workload:<18} {name:<18} {a_med:>12.5g} {b_med:>12.5g} "
                  f"{worse:>+10.2%} {bound:>7.1%} {shown[0]:>9} {shown[1]:>9}  {verdict}")
        b_digest = dict(zip(b["seeds"], b["digests"]))
        for seed, digest in zip(a["seeds"], a["digests"]):
            if seed in b_digest and b_digest[seed] != digest:
                print(f"{workload:<18} digest differs at seed {seed}  BREACH")
                breaches += 1
    missing = sorted(set(a_all) ^ set(b_all))
    if missing:
        print(f"workloads present on one side only: {missing}")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
