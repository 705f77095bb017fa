"""Variation-aware provisioning (§IV-B: greedy energy-per-instruction search).

Implements the greedy-search policy the paper adapts from Magklis et al.
via Herbert/Marculescu: each island's provisioning level performs
hill-climbing on *energy per instruction* (power/throughput), assuming
EPI is convex in the provisioning level.  Per GPM invocation and island:

* if the island is in a **hold**, count it down and keep the level;
* otherwise compare the island's EPI over the last window to the one
  before: if it improved, take another step in the same direction; if it
  degraded, the optimum was overshot — reverse direction, step back, and
  hold for a fixed number of intervals before continuing to explore.

Leakier islands (higher process multiplier) see worse EPI at high V/F, so
the search naturally parks them at lower provisioning — "operate the more
leaky islands at lower V/F levels" — trading a little throughput for a
better power/throughput ratio, which is what Figures 19/20 report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import units
from ..cmpsim.telemetry import WindowStats
from ..unit_types import PowerFractionArray
from .policy import GPMContext, clamp_and_redistribute

__all__ = ["VariationAwarePolicy"]


@dataclass(eq=False)
class VariationAwarePolicy:
    """Per-island greedy EPI hill-climbing under the chip budget.

    Parameters
    ----------
    step_fraction:
        Exploration step as a fraction of the island's equal share.
    hold_intervals:
        GPM intervals to stay put after overshooting the optimum
        (the paper holds for 10 PIC intervals = 1 GPM interval at the
        default cadence).
    epi_smoothing:
        EWMA weight on the newest EPI sample; per-window EPI is noisy
        (workload phases) and an unsmoothed comparison turns the
        hill-climb into a random walk.
    """

    name = "variation-aware"

    step_fraction: float = 0.06
    hold_intervals: int = 1
    epi_smoothing: float = 0.5
    _levels: np.ndarray | None = field(default=None, init=False, repr=False)
    _directions: np.ndarray | None = field(default=None, init=False, repr=False)
    _holds: np.ndarray | None = field(default=None, init=False, repr=False)
    _previous_epi: np.ndarray | None = field(default=None, init=False, repr=False)
    _epi_state: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must be in (0, 1)")
        if self.hold_intervals < 0:
            raise ValueError("hold_intervals must be non-negative")
        if not 0.0 < self.epi_smoothing <= 1.0:
            raise ValueError("epi_smoothing must be in (0, 1]")

    def reset(self) -> None:
        self._levels = None
        self._directions = None
        self._holds = None
        self._previous_epi = None
        self._epi_state = None

    @staticmethod
    def _epi(window: WindowStats) -> np.ndarray:
        """Energy per instruction over a window, nJ/instruction."""
        instructions = np.maximum(window.island_instructions, 1.0)
        return units.to_nj(window.island_energy_j / instructions)

    def provision(self, context: GPMContext) -> PowerFractionArray:
        n = context.n_islands
        equal = context.budget / n
        if self._levels is None:
            self._levels = np.full(n, equal)
            # Explore downward first: at a binding budget every island
            # starts at its ceiling, so an upward move is a no-op after
            # renormalization and teaches the search nothing.
            self._directions = -np.ones(n)
            self._holds = np.zeros(n, dtype=np.int64)
            self._previous_epi = None

        if len(context.windows) >= 1:
            raw_epi = self._epi(context.windows[-1])
            if self._epi_state is None:
                self._epi_state = raw_epi
            else:
                s = self.epi_smoothing
                self._epi_state = s * raw_epi + (1.0 - s) * self._epi_state
            current_epi = self._epi_state
            if self._previous_epi is not None:
                step = self.step_fraction * equal
                for i in range(n):
                    if self._holds[i] > 0:
                        self._holds[i] -= 1
                        continue
                    if current_epi[i] <= self._previous_epi[i]:
                        # EPI improved (or held): keep exploring this way.
                        self._levels[i] += self._directions[i] * step
                    else:
                        # Overshot the optimum: reverse, back off, hold.
                        self._directions[i] = -self._directions[i]
                        self._levels[i] += self._directions[i] * step
                        self._holds[i] = self.hold_intervals
            self._previous_epi = current_epi

        # The greedy may under-use the budget (that is the point: leaky
        # islands are parked low); only scale *down* if it over-asks.
        levels = np.clip(self._levels, context.island_min, context.island_max)
        total = float(levels.sum())
        if total > context.budget:
            levels = clamp_and_redistribute(
                levels, context.budget, context.island_min, context.island_max
            )
        self._levels = levels.copy()
        return levels
