"""Thermal-aware provisioning (the Figure 18 policy).

Wraps a base policy (performance-aware by default) and *preventively*
enforces the paper's spatial constraints on its output:

* an adjacent island pair may exceed ``pair_share_cap`` of the budget for
  at most ``pair_consecutive_limit`` consecutive GPM intervals;
* a single island may exceed ``single_share_cap`` for at most
  ``single_consecutive_limit`` consecutive intervals.

When granting the base policy's request would extend a streak past its
limit, the offenders are clamped to the cap; the trimmed power is then
redistributed among islands whose caps are *not* active (the clamped
islands' upper bounds stay frozen during redistribution, so enforcement
cannot be undone).  Because enforcement happens before actuation, a CPM
running this policy never violates — the claim of Figure 18(b)/(c) — at
the cost of extra performance degradation relative to the unconstrained
performance-aware policy.

Feasibility caveat: with ``k`` disjoint constrained pairs the caps must
satisfy ``k * pair_share_cap >= 1`` (and analogously for the single
caps), otherwise the budget cannot be fully placed; the policy then
deliberately leaves budget unused rather than violate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..thermal.hotspot import ThermalConstraints
from ..unit_types import PowerFractionArray
from .performance_aware import PerformanceAwarePolicy
from .policy import GPMContext, ProvisioningPolicy, clamp_and_redistribute

__all__ = ["ThermalAwarePolicy"]


@dataclass(eq=False)
class ThermalAwarePolicy:
    """Spatial-constraint wrapper around any base provisioning policy.

    ``adjacent_pairs`` overrides the floorplan-derived adjacency in the
    :class:`~repro.gpm.policy.GPMContext` (the paper's Figure 18a study
    constrains specific side-by-side pairs).
    """

    name = "thermal-aware"
    #: Tells the GlobalPowerManager that this policy's output already
    #: satisfies all bounds and must not be redistributed (per-island
    #: clamps cannot express the pair constraints).
    self_constrained = True

    base: ProvisioningPolicy = field(default_factory=PerformanceAwarePolicy)
    pair_share_cap: float = 0.50
    pair_consecutive_limit: int = 2
    single_share_cap: float = 0.40
    single_consecutive_limit: int = 4
    adjacent_pairs: frozenset[tuple[int, int]] | None = None
    _pair_streaks: dict[tuple[int, int], int] = field(
        default_factory=dict, init=False, repr=False
    )
    _single_streaks: np.ndarray | None = field(default=None, init=False, repr=False)

    def reset(self) -> None:
        self._pair_streaks.clear()
        self._single_streaks = None
        if hasattr(self.base, "reset"):
            self.base.reset()

    def _pairs(self, context: GPMContext) -> frozenset[tuple[int, int]]:
        return (
            self.adjacent_pairs
            if self.adjacent_pairs is not None
            else context.adjacent_pairs
        )

    def constraints(self, context: GPMContext) -> ThermalConstraints:
        """The constraint set this policy enforces on ``context``'s chip."""
        return ThermalConstraints(
            adjacent_pairs=self._pairs(context),
            pair_share_cap=self.pair_share_cap,
            pair_consecutive_limit=self.pair_consecutive_limit,
            single_share_cap=self.single_share_cap,
            single_consecutive_limit=self.single_consecutive_limit,
        )

    def provision(self, context: GPMContext) -> PowerFractionArray:
        proposal = np.asarray(self.base.provision(context), dtype=float).copy()
        # An over-asking base policy is capped at the budget here; the
        # manager skips redistribution for self-constrained policies, so
        # this is the last line of defence.
        total = min(float(proposal.sum()), context.budget)
        if total <= 0:
            return proposal
        pairs = self._pairs(context)
        if self._single_streaks is None:
            self._single_streaks = np.zeros(context.n_islands, dtype=np.int64)
            self._pair_streaks = {pair: 0 for pair in pairs}

        budget = context.budget
        pair_cap = self.pair_share_cap * budget
        single_cap = self.single_share_cap * budget

        # Upper bounds for redistribution; tightened wherever a cap is
        # about to bind so redistribution cannot undo the enforcement.
        upper = context.island_max.copy()

        # Redistribute, then enforce, and repeat: each enforcement pass
        # freezes the offenders' upper bounds, so redistribution (which
        # moves trimmed power to islands with headroom, possibly pushing
        # a streak-limited pair over its cap) converges in at most one
        # pass per constrained pair.  The loop only exits through a pass
        # whose redistribution produced no violation, or by giving up on
        # redistribution entirely (budget left unspent, never violated).
        single_limited = self._single_streaks >= self.single_consecutive_limit
        limited_pairs = [
            p for p in sorted(pairs)
            if self._pair_streaks[p] >= self.pair_consecutive_limit
        ]
        clean = False
        for _ in range(len(limited_pairs) + 3):
            lower = np.minimum(context.island_min, upper)
            proposal = clamp_and_redistribute(proposal, total, lower, upper)
            violated = False
            over_single = single_limited & (proposal > single_cap + 1e-12)
            if over_single.any():
                proposal = np.where(over_single, single_cap, proposal)
                upper = np.where(over_single, single_cap, upper)
                violated = True
            for (a, b) in limited_pairs:
                pair_sum = proposal[a] + proposal[b]
                if pair_sum > pair_cap + 1e-12:
                    scale = pair_cap / pair_sum
                    proposal[a] *= scale
                    proposal[b] *= scale
                    upper[a] = min(upper[a], proposal[a])
                    upper[b] = min(upper[b], proposal[b])
                    violated = True
            if not violated:
                clean = True
                break
        if not clean:
            # Iteration budget exhausted mid-enforcement: keep the (valid)
            # clamped proposal without redistributing the last trim.
            proposal = np.clip(
                proposal, np.minimum(context.island_min, upper), upper
            )

        # Advance streaks based on what was actually granted.
        granted_over = proposal > single_cap + 1e-12
        self._single_streaks = np.where(
            granted_over, self._single_streaks + 1, 0
        )
        for pair in pairs:
            a, b = pair
            if proposal[a] + proposal[b] > pair_cap + 1e-12:
                self._pair_streaks[pair] += 1
            else:
                self._pair_streaks[pair] = 0
        return proposal
