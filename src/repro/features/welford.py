"""Streaming mean/variance (Welford's algorithm).

The online Data Processor must maintain per-flow averages and standard
deviations (Table II's *avg* / *std* feature variants) one packet at a
time without storing packet history.  Welford's update is the numerically
stable way to do that — naive sum/sum-of-squares accumulation loses
precision exactly in the regime the detector cares about (long flows with
small inter-arrival variance).

:func:`push_moments` and :func:`std_of` are the arithmetic on plain
``(n, mean, m2)`` values, shared with the flow record's plain fields.
"""

from __future__ import annotations

import math

__all__ = ["Welford", "push_moments", "std_of"]


def push_moments(n: int, mean: float, m2: float, x: float) -> tuple:
    """Fold observation ``x`` in as the ``n``-th one: the new ``(mean, m2)``."""
    delta = x - mean
    mean += delta / n
    return mean, m2 + delta * (x - mean)


def std_of(n: int, m2: float) -> float:
    """Population standard deviation (0.0 with fewer than two observations)."""
    return math.sqrt(max(m2 / n if n >= 2 else 0.0, 0.0))


class Welford:
    """Single-variable streaming moments.

    Attributes
    ----------
    n : int
        Observations so far.
    mean : float
        Running mean (0.0 when empty).
    """

    __slots__ = ("n", "mean", "_m2")

    def __init__(self, n: int = 0, mean: float = 0.0, m2: float = 0.0) -> None:
        self.n = n
        self.mean = mean
        self._m2 = m2

    def push(self, x: float) -> None:
        """Fold one observation into the moments."""
        self.n += 1
        self.mean, self._m2 = push_moments(self.n, self.mean, self._m2, x)

    def state(self) -> tuple:
        """``(n, mean, m2)`` — the raw accumulator triple."""
        return (self.n, self.mean, self._m2)

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two observations)."""
        if self.n < 2:
            return 0.0
        return self._m2 / self.n

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return std_of(self.n, self._m2)

    def merge(self, other: "Welford") -> "Welford":
        """Combine two streams (parallel-merge form of the update)."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n, self.mean, self._m2 = other.n, other.mean, other._m2
            return self
        n = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + delta * other.n / n
        m2 = self._m2 + other._m2 + delta * delta * self.n * other.n / n
        self.n, self.mean, self._m2 = n, mean, m2
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Welford(n={self.n}, mean={self.mean:.6g}, std={self.std:.6g})"
