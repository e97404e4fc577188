"""Process-level fault injection for the sharded runtime.

PR 1's :class:`~repro.resilience.chaos.FaultInjector` attacks the *data*
— reports are dropped, duplicated, reordered, corrupted.  This module
attacks the *processes*: a :class:`ProcessChaos` plan names shard
workers to kill at chosen CYCLE boundaries, and the sharded
coordinator's :class:`~repro.core.sharding.Supervisor` executes (or
arranges) the kills while the detection run is in flight.  The recovery
invariant under test: the merged prediction log of a murdered run is
byte-identical to the unfaulted single-process run.

Three kill modes:

* ``"sigkill"`` — the coordinator SIGKILLs the worker right after
  broadcasting the chosen CYCLE marker (hard external death: OOM
  killer, ``kill -9``, node crash);
* ``"raise"``   — the worker raises an unhandled exception after
  processing the chosen marker (internal bug; the worker dies with a
  traceback and a nonzero exit code);
* ``"hang"``    — the worker stops making progress after the chosen
  marker without dying (livelock / stuck syscall); only the
  supervisor's missed-heartbeat deadline can catch this one.

Plans are frozen and seedable (:meth:`ProcessChaos.seeded`) so a chaos
run is exactly reproducible, mirroring the data-layer ChaosSchedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.common.rng import SeedLike, as_generator

__all__ = ["ProcessChaos", "KILL_MODES"]

#: Supported kill modes, in the documentation order above.
KILL_MODES = ("sigkill", "raise", "hang")


@dataclass(frozen=True)
class ProcessChaos:
    """Declarative worker-kill plan for one sharded run.

    Parameters
    ----------
    kills : tuple of (cycle, shard, mode)
        Each entry murders worker ``shard`` at CYCLE boundary ``cycle``
        (1-based: the kill lands right after the ``cycle``-th CYCLE
        marker is broadcast / processed) using one of
        :data:`KILL_MODES`.  A worker is killed at most once per plan —
        respawned workers are never re-targeted, so a plan cannot
        produce an infinite crash loop by itself.
    """

    kills: Tuple[Tuple[int, int, str], ...] = ()

    def __post_init__(self) -> None:
        seen_shards = set()
        norm = []
        for cycle, shard, mode in self.kills:
            cycle, shard = int(cycle), int(shard)
            if cycle < 1:
                raise ValueError(f"kill cycle must be >= 1: {cycle}")
            if shard < 0:
                raise ValueError(f"kill shard must be >= 0: {shard}")
            if mode not in KILL_MODES:
                raise ValueError(
                    f"unknown kill mode {mode!r}; expected one of {KILL_MODES}"
                )
            if shard in seen_shards:
                raise ValueError(
                    f"shard {shard} targeted twice; one kill per shard"
                )
            seen_shards.add(shard)
            norm.append((cycle, shard, mode))
        object.__setattr__(self, "kills", tuple(sorted(norm)))

    @property
    def is_noop(self) -> bool:
        return not self.kills

    @classmethod
    def seeded(
        cls,
        seed: SeedLike,
        n_cycles: int,
        n_shards: int,
        n_kills: int = 1,
        modes: Tuple[str, ...] = ("sigkill",),
    ) -> "ProcessChaos":
        """Draw a reproducible kill plan from a seed.

        Victims (distinct shards) and kill cycles are drawn uniformly:
        cycles from ``[1, n_cycles]``, one mode per kill from ``modes``.
        ``n_kills`` is clamped to ``n_shards`` (one kill per shard).
        """
        if n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1: {n_cycles}")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1: {n_shards}")
        rng = as_generator(seed)
        n_kills = min(int(n_kills), int(n_shards))
        victims = rng.permutation(n_shards)[:n_kills]
        kills: List[Tuple[int, int, str]] = []
        for shard in victims.tolist():
            cycle = int(rng.integers(1, n_cycles, endpoint=True))
            mode = modes[int(rng.integers(len(modes)))]
            kills.append((cycle, int(shard), mode))
        return cls(kills=tuple(kills))

    # ------------------------------------------------------------------
    def sigkills_at(self, cycle: int) -> List[int]:
        """Shards the *coordinator* must SIGKILL right after CYCLE
        marker ``cycle``."""
        return [s for c, s, m in self.kills if c == cycle and m == "sigkill"]

    def worker_fault(self, shard: int) -> Tuple[int, int]:
        """Worker-side fault plan for one shard's *initial* spawn:
        ``(raise_at_cycle, hang_at_cycle)`` with 0 meaning "never".

        Respawned workers must get ``(0, 0)`` — re-arming a raise on the
        respawn would crash-loop the recovery forever.
        """
        raise_at = hang_at = 0
        for cycle, s, mode in self.kills:
            if s != shard:
                continue
            if mode == "raise":
                raise_at = cycle
            elif mode == "hang":
                hang_at = cycle
        return raise_at, hang_at

    def describe(self) -> str:
        """One-line human summary of the plan."""
        if not self.kills:
            return "no kills"
        return ", ".join(
            f"{mode} shard {shard} @ cycle {cycle}"
            for cycle, shard, mode in self.kills
        )
