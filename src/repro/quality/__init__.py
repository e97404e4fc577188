"""reprolint — AST-based determinism & concurrency lint for this repo.

PRs 2–3 made the detector's correctness contract *bit-identity*: the
vectorized path must equal the per-record walk, and the shard-parallel merge
must equal the single-process run for any worker count, clean and under
chaos.  End-to-end digest tests enforce that contract after the fact;
one stray ``time.time()``, unseeded ``np.random.default_rng()``,
set-order-dependent fold, or misordered :class:`SharedRing` cursor
write silently breaks it and costs hours of digest-bisecting.  This
package catches those regressions *at analysis time* with three
project-specific rule sets:

* **determinism** (:mod:`.rules_determinism`) — bans wall-clock reads,
  the stdlib ``random`` module, unseeded NumPy RNGs, OS entropy and
  ``id()`` inside the determinism-scoped packages (``core``, ``ml``,
  ``features``, ``resilience``); flags set-iteration feeding numeric
  reductions and bare float equality everywhere.
* **concurrency** (:mod:`.rules_concurrency`) — checks the SharedRing
  SPSC publication protocol (slot data written before the cursor store,
  cursor stores monotonic) and flags mutable module globals and
  closure-captured state crossing ``multiprocessing`` spawn boundaries.
* **layering** (:mod:`.rules_layering`) — enforces the import contract
  ``common → dataplane → leaf stacks → features → resilience →
  datasets → core → analysis → mitigation/controlplane/harness → cli``
  with no back-edges, over all of ``src/repro``.

Run it with ``python -m repro.quality.lint src/repro``.  Findings print
as ``path:line: RULE-ID message``; deliberate exceptions carry a
``# repro: allow[RULE-ID] reason`` comment (reason required), and
grandfathered findings live in the checked-in ``baseline.json``.

The framework itself is dependency-free (stdlib ``ast`` only) and sits
outside the layer stack: it may import nothing from the rest of
``repro``, which is enforced by its own layering rule.
"""

from .engine import (
    Finding,
    LintResult,
    ModuleInfo,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
)

__all__ = [
    "Finding",
    "LintResult",
    "ModuleInfo",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
]
