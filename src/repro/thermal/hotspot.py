"""Provisioning-constraint violation tracking.

Two notions of "thermal trouble" appear in the paper's Figure 18 study:

* a physical **hotspot** — a core temperature exceeding the junction
  threshold (Figure 18 reports the RC model's recorded maximum);
* a **constraint violation** — the provisioning-level proxy the
  thermal-aware policy enforces: adjacent islands jointly provisioned
  more than a cap for consecutive GPM intervals, or one island holding an
  outsized share for too long.  :class:`ViolationTracker` counts how often
  a provisioning sequence violates these constraints, which is exactly
  what Figure 18(c) reports for the performance-aware policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

import numpy as np

__all__ = ["ThermalConstraints", "ViolationTracker"]


@dataclass(frozen=True)
class ThermalConstraints:
    """The provisioning constraints of the paper's thermal-aware policy.

    The paper states the caps qualitatively (the OCR drops the numbers);
    the defaults here are our documented choices:

    * no *adjacent island pair* may jointly receive more than
      ``pair_share_cap`` of the chip budget for more than
      ``pair_consecutive_limit`` consecutive GPM intervals;
    * no *single island* may receive more than ``single_share_cap`` for
      more than ``single_consecutive_limit`` consecutive GPM intervals.
    """

    adjacent_pairs: FrozenSet[Tuple[int, int]]
    pair_share_cap: float = 0.50
    pair_consecutive_limit: int = 2
    single_share_cap: float = 0.40
    single_consecutive_limit: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.pair_share_cap <= 1.0:
            raise ValueError("pair_share_cap must be in (0, 1]")
        if not 0.0 < self.single_share_cap <= 1.0:
            raise ValueError("single_share_cap must be in (0, 1]")
        if self.pair_consecutive_limit < 1 or self.single_consecutive_limit < 1:
            raise ValueError("consecutive limits must be >= 1")


@dataclass
class ViolationTracker:
    """Streak-based checker for :class:`ThermalConstraints`.

    Feed it each GPM interval's island *shares of the chip budget* (they
    should sum to ~1); it tracks consecutive-interval streaks and counts an
    island/pair as violating in any interval where its streak exceeds the
    allowed length.
    """

    constraints: ThermalConstraints
    n_islands: int
    _pair_streaks: Dict[Tuple[int, int], int] = field(default_factory=dict)
    _single_streaks: np.ndarray | None = None
    pair_violation_intervals: Dict[Tuple[int, int], int] = field(default_factory=dict)
    single_violation_intervals: np.ndarray | None = None
    total_intervals: int = 0

    def __post_init__(self) -> None:
        if self.n_islands < 1:
            raise ValueError("need at least one island")
        for pair in self.constraints.adjacent_pairs:
            a, b = pair
            if not (0 <= a < self.n_islands and 0 <= b < self.n_islands):
                raise ValueError(f"pair {pair} references unknown islands")
            self._pair_streaks[pair] = 0
            self.pair_violation_intervals[pair] = 0
        self._single_streaks = np.zeros(self.n_islands, dtype=np.int64)
        self.single_violation_intervals = np.zeros(self.n_islands, dtype=np.int64)

    def observe(self, island_shares: np.ndarray) -> bool:
        """Record one GPM interval of shares; returns True if violating."""
        shares = np.asarray(island_shares, dtype=float)
        if shares.shape != (self.n_islands,):
            raise ValueError("need one share per island")
        self.total_intervals += 1
        c = self.constraints
        violated = False

        for pair in c.adjacent_pairs:
            a, b = pair
            if shares[a] + shares[b] > c.pair_share_cap + 1e-12:
                self._pair_streaks[pair] += 1
            else:
                self._pair_streaks[pair] = 0
            if self._pair_streaks[pair] > c.pair_consecutive_limit:
                self.pair_violation_intervals[pair] += 1
                violated = True

        over = shares > c.single_share_cap + 1e-12
        self._single_streaks = np.where(over, self._single_streaks + 1, 0)
        single_violating = self._single_streaks > c.single_consecutive_limit
        self.single_violation_intervals += single_violating
        violated = violated or bool(single_violating.any())
        return violated

    def violation_fraction(self) -> float:
        """Fraction of observed intervals with any violation."""
        if self.total_intervals == 0:
            return 0.0
        per_pair = sum(self.pair_violation_intervals.values())
        per_single = int(self.single_violation_intervals.sum())
        # An interval can violate several constraints at once; bound at 1.
        return min(1.0, (per_pair + per_single) / self.total_intervals)

    def island_violation_fractions(self) -> np.ndarray:
        """Per-island fraction of intervals in violation (pairs attributed
        to both members), the quantity Figure 18(c) plots per core."""
        if self.total_intervals == 0:
            return np.zeros(self.n_islands)
        counts = self.single_violation_intervals.astype(float).copy()
        for (a, b), n in self.pair_violation_intervals.items():
            counts[a] += n
            counts[b] += n
        return np.minimum(1.0, counts / self.total_intervals)
