"""Provisioning-policy interface and shared helpers.

A policy sees a :class:`GPMContext` — the measurement history and static
platform facts a supervisor-level power manager plausibly has — and
returns per-island power set-points.  Decoupling policies from the
controller tier is the architectural point of the paper: the PICs will
track whatever a policy provisions, so policies only reason about *how
much* each island should get.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..cmpsim.telemetry import WindowStats
from ..unit_types import (
    GigaHz,
    GigaHzArray,
    PowerFraction,
    PowerFractionArray,
)

__all__ = [
    "GPMContext",
    "ProvisioningPolicy",
    "UniformPolicy",
    "clamp_and_redistribute",
]


@dataclass(frozen=True)
class GPMContext:
    """What a provisioning policy may look at when dividing the budget."""

    #: Budget available to the islands (chip budget minus the uncore
    #: share), as a fraction of max chip power.
    budget: PowerFraction
    n_islands: int
    #: Completed GPM-window aggregates, oldest first.
    windows: Sequence[WindowStats]
    #: Static per-island feasible power range (fractions).
    island_min: PowerFractionArray
    island_max: PowerFractionArray
    #: Adjacent island pairs from the floorplan (thermal policies).
    adjacent_pairs: frozenset[tuple[int, int]]
    #: Per-island leakage multipliers (variation policies).
    island_leakage: np.ndarray
    #: Island frequencies during the last interval (None before any
    #: measurement) — lets the manager detect demand-limited islands.
    island_frequency: GigaHzArray | None = None
    #: Top of the DVFS ladder, GHz.
    f_max: GigaHz = float("nan")

    def equal_split(self) -> PowerFractionArray:
        """The initial provisioning: the budget divided equally."""
        return np.full(self.n_islands, self.budget / self.n_islands)


@runtime_checkable
class ProvisioningPolicy(Protocol):
    """The GPM's pluggable brain."""

    name: str

    def provision(self, context: GPMContext) -> PowerFractionArray:
        """Return per-island set-points summing to (at most) the budget."""


@dataclass(eq=False)
class UniformPolicy:
    """Always split the budget equally (the no-GPM-intelligence ablation)."""

    name = "uniform"

    def provision(self, context: GPMContext) -> PowerFractionArray:
        return context.equal_split()


def clamp_and_redistribute(
    shares: PowerFractionArray,
    total: PowerFraction,
    lower: PowerFractionArray,
    upper: PowerFractionArray,
) -> PowerFractionArray:
    """Scale ``shares`` to sum to ``total`` while honouring per-island bounds.

    Water-filling: clamp everything into [lower, upper], then move the
    remaining surplus/deficit proportionally among the islands that still
    have headroom, for at most 8 rounds.  If the bounds make ``total``
    infeasible the closest feasible vector is returned (all-lower or
    all-upper).
    """
    shares = np.asarray(shares, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if shares.shape != lower.shape or shares.shape != upper.shape:
        raise ValueError("shares and bounds must have matching shapes")
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")
    if total <= float(lower.sum()):
        return lower.copy()
    if total >= float(upper.sum()):
        return upper.copy()

    result = np.clip(shares, lower, upper)
    for _ in range(8):
        gap = total - float(result.sum())
        if abs(gap) < 1e-12:
            break
        if gap > 0:
            headroom = upper - result
            movable = headroom.sum()
            if movable <= 0:
                break
            result = result + headroom * min(1.0, gap / movable)
        else:
            footroom = result - lower
            movable = footroom.sum()
            if movable <= 0:
                break
            result = result - footroom * min(1.0, -gap / movable)
        result = np.clip(result, lower, upper)
    return result
