"""The Global Power Manager: runs a policy and sanitizes its output.

The GPM is the supervisor-level component of Figure 3: every ``T_global``
it builds the measurement context, asks its policy for a split, then
guarantees the invariants the PIC tier relies on —

* set-points are clamped into each island's feasible power range;
* the sum never exceeds the distributable budget (Equation 6's property
  that provisioned power always totals the budget is preserved when the
  policy already sums there, and enforced when it does not).
"""

from __future__ import annotations

import numpy as np

from .. import units
from ..unit_types import PowerFractionArray
from .policy import GPMContext, ProvisioningPolicy, clamp_and_redistribute

__all__ = ["GlobalPowerManager"]


class GlobalPowerManager:
    """First-tier manager: policy + feasibility enforcement."""

    #: Relative margin above a demand-limited island's measured power
    #: kept when reclaiming its surplus budget (the paper: "the GPM would
    #: realize this fact and provision less power budget ... allocate the
    #: extra budget ... to some other application").
    DEMAND_HEADROOM = 0.04

    def __init__(self, policy: ProvisioningPolicy) -> None:
        self.policy = policy

    def _demand_caps(self, context: GPMContext) -> PowerFractionArray:
        """Per-island effective upper bounds, tightened for islands that
        ran at the top of the ladder yet consumed below their set-point —
        those cannot use more budget, so granting it would only be wasted.
        """
        caps = context.island_max.copy()
        if context.island_frequency is None or not context.windows:
            return caps
        window = context.windows[-1]
        pinned = context.island_frequency >= context.f_max - units.EPS
        unused = window.island_power_frac < window.island_setpoints - 1e-4
        limited = pinned & unused
        caps[limited] = np.minimum(
            caps[limited],
            window.island_power_frac[limited] * (1.0 + self.DEMAND_HEADROOM),
        )
        return np.maximum(caps, context.island_min)

    def provision(self, context: GPMContext) -> PowerFractionArray:
        """Produce the final per-island set-points for the next window."""
        raw = np.asarray(self.policy.provision(context), dtype=float)
        if raw.shape != (context.n_islands,):
            raise ValueError(
                f"policy {self.policy.name!r} returned {raw.shape}, "
                f"expected ({context.n_islands},)"
            )
        if np.any(~np.isfinite(raw)) or np.any(raw < 0):
            raise ValueError(
                f"policy {self.policy.name!r} returned invalid set-points {raw}"
            )
        # Self-constrained policies (thermal-aware) enforce couplings a
        # per-island clamp cannot express; redistribution here would undo
        # them, so their output is only validated against the budget.
        if getattr(self.policy, "self_constrained", False):
            if float(raw.sum()) > context.budget + units.EPS:
                raise ValueError(
                    f"self-constrained policy {self.policy.name!r} exceeded "
                    f"the budget: {raw.sum():.4f} > {context.budget:.4f}"
                )
            return raw
        # Policies may deliberately leave budget unused (variation-aware);
        # preserve their total unless it exceeds the budget.
        target_total = min(float(raw.sum()), context.budget)
        if target_total <= 0.0:
            return context.island_min.copy()
        caps = self._demand_caps(context)
        return clamp_and_redistribute(
            raw, target_total, context.island_min, caps
        )
