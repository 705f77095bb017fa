"""Energy-aware provisioning with a minimum performance guarantee.

Section II of the paper lists this as one of the "many other policies"
its decoupled architecture admits: "power provisioning for reducing
energy consumption by providing a minimum guarantee on the performance".
This module implements it.

Per GPM interval the policy estimates, from the last window's
measurements, each island's *power demand* and its *frequency
sensitivity* (the same counter-derived quantities MaxBIPS uses), then
provisions the least total power that keeps predicted chip throughput at
or above ``performance_floor`` of its unthrottled value.  The search is
a marginal-cost greedy: repeatedly trim budget from the island whose
predicted BIPS loss per reclaimed watt is smallest, until the
performance floor would be crossed.

Unlike the performance-aware policy (which spends the whole budget), the
energy-aware policy deliberately *underspends* — that is its purpose —
so runs under it show chip power below the configured budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import units
from ..cmpsim.core import frequency_speedup
from ..unit_types import PowerFractionArray
from .policy import GPMContext

__all__ = ["EnergyAwarePolicy"]


@dataclass(eq=False)
class EnergyAwarePolicy:
    """Minimize provisioned power subject to a chip-throughput floor.

    Parameters
    ----------
    performance_floor:
        Minimum predicted chip BIPS as a fraction of the unthrottled
        (full-provision) estimate.  0.95 = "give back power until
        throughput would drop 5%".
    trim_step:
        Budget removed per greedy step, as a fraction of an island's
        equal share.
    max_trims:
        Safety bound on greedy iterations per invocation.
    """

    name = "energy-aware"

    performance_floor: float = 0.95
    trim_step: float = 0.02
    max_trims: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.performance_floor <= 1.0:
            raise ValueError("performance_floor must be in (0, 1]")
        if not 0.0 < self.trim_step < 1.0:
            raise ValueError("trim_step must be in (0, 1)")
        if self.max_trims < 1:
            raise ValueError("max_trims must be positive")

    def reset(self) -> None:
        """Stateless: nothing to clear (kept for the policy interface)."""

    # ------------------------------------------------------------------
    def _estimates(self, context: GPMContext):
        """Per-island (demand, bips, elasticity) from the last window.

        Elasticity is d ln BIPS / d ln f at the island's operating point,
        inferred from utilization — memory-bound islands have low values.
        The window's utilization is activity-weighted cycle rate; islands
        far below full utilization at their frequency are stall-dominated.
        """
        w = context.windows[-1]
        demand = np.maximum(w.island_power_frac, units.MICRO)
        bips = np.maximum(w.island_bips, units.EPS)
        # De-throttle to the island's *unthrottled* demand and throughput:
        # the last window ran at context.island_frequency, possibly well
        # below f_max because of this very policy — rebasing on throttled
        # measurements would ratchet the baseline down every interval.
        if context.island_frequency is not None and np.isfinite(context.f_max):
            f_ratio = np.clip(
                context.f_max / np.maximum(context.island_frequency, units.MILLI),
                1.0,
                context.f_max / 0.3,
            )
            demand = demand * f_ratio**2  # local P ~ f^2 (V tracks f)
            bips = bips * f_ratio  # optimistic linear rescale; the busy
            # term below discounts memory-bound islands in the speedup
            # model, so the optimism cancels where it matters.
        # Busy proxy: utilization relative to its ceiling.  Map to the
        # CPI-stack elasticity cpi_on / cpi_total ~ busy.
        busy = np.clip(w.island_utilization / max(w.island_utilization.max(), units.EPS),
                       0.05, 1.0)
        return demand, bips, busy

    def provision(self, context: GPMContext) -> PowerFractionArray:
        if not context.windows:
            return context.equal_split()
        demand, bips, busy = self._estimates(context)
        n = context.n_islands

        # Start from each island's demand (nothing to gain above it),
        # bounded by the budget.
        full = np.minimum(demand * 1.02, context.island_max)
        scale_cap = context.budget / max(full.sum(), units.EPS)
        provision = full * min(1.0, scale_cap)

        # Predicted BIPS at a provisioning level: power maps to an
        # effective frequency ratio (P ~ V^2 f ~ f^2 locally), and BIPS
        # follows the counter-derived speedup model.
        def predicted_bips(p: np.ndarray) -> float:
            ratio = np.clip(p / np.maximum(full, units.EPS), 0.05, 1.0)
            f_ratio = np.sqrt(ratio)  # local P ~ f^2
            total = 0.0
            for i in range(n):
                mem_coeff = (1.0 - busy[i]) / max(busy[i], units.MILLI)
                total += bips[i] * frequency_speedup(
                    1.0, float(f_ratio[i]), 1.0, mem_coeff
                )
            return total

        baseline = predicted_bips(full)
        floor = self.performance_floor * baseline
        step = self.trim_step * context.budget / n

        for _ in range(self.max_trims):
            current = predicted_bips(provision)
            if current < floor:
                break
            # Marginal loss per watt for trimming each island.
            best_island, best_loss = -1, np.inf
            for i in range(n):
                if provision[i] - step < context.island_min[i]:
                    continue
                trial = provision.copy()
                trial[i] -= step
                loss = current - predicted_bips(trial)
                if loss < best_loss:
                    best_loss, best_island = loss, i
            if best_island < 0:
                break
            trial = provision.copy()
            trial[best_island] -= step
            if predicted_bips(trial) < floor:
                break
            provision = trial
        return np.clip(provision, context.island_min, context.island_max)
