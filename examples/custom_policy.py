#!/usr/bin/env python3
"""Scenario: writing your own provisioning policy.

The decoupling the paper advertises — "the controller makes the policy
and the actuator enforces it" — means a new chip-wide strategy is one
small class: anything with a ``name`` and a ``provision(context)`` can
drive the GPM tier while the per-island PID controllers keep doing the
capping.

This example implements a *QoS-priority* policy: island 1 hosts a
latency-critical service and is guaranteed a fixed share of the budget;
the remaining islands share whatever is left through the standard
performance-aware heuristic.  The script verifies the guarantee holds
while the chip as a whole stays at its budget.  It drives a
``Simulation`` directly; a policy used in a ``RunRequest`` must be a
module-level dataclass, like the built-in policies, so the request's
scheme spec can name it.

Run:  python examples/custom_policy.py
"""

import numpy as np

from repro import DEFAULT_CONFIG, CPMScheme, PerformanceAwarePolicy, Simulation
from repro.gpm.policy import GPMContext
from repro.reporting import as_percent, format_table

__all__ = [
    "BUDGET",
    "GUARANTEED_ISLAND",
    "GUARANTEED_SHARE",
    "QoSPriorityPolicy",
    "main",
]

BUDGET = 0.78
GUARANTEED_ISLAND = 0
GUARANTEED_SHARE = 0.26  # of the distributable budget


class QoSPriorityPolicy:
    """Fixed guarantee for one island; performance-aware for the rest.

    Demonstrates policy *composition*: the inner policy reasons about the
    non-guaranteed islands only, by rescaling its output into the budget
    that remains after the guarantee is carved out.
    """

    name = "qos-priority"

    def __init__(self, island: int, share: float):
        self.island = island
        self.share = share
        self.inner = PerformanceAwarePolicy()

    def reset(self) -> None:
        self.inner.reset()

    def provision(self, context: GPMContext) -> np.ndarray:
        guaranteed = self.share * context.budget
        out = np.asarray(self.inner.provision(context), dtype=float).copy()
        # Rescale the others into the leftover budget.
        others = np.arange(context.n_islands) != self.island
        leftover = context.budget - guaranteed
        out[others] *= leftover / max(out[others].sum(), 1e-12)
        out[self.island] = guaranteed
        return out


def main() -> None:
    policy = QoSPriorityPolicy(GUARANTEED_ISLAND, GUARANTEED_SHARE)
    sim = Simulation(
        DEFAULT_CONFIG, CPMScheme(policy=policy), budget_fraction=BUDGET
    )
    result = sim.run(25)

    ticks = result.telemetry.gpm_tick_indices()[3:]
    setpoints = result.telemetry["island_setpoint_frac"][ticks]
    power = result.telemetry["island_power_frac"][30:]
    distributable = BUDGET - DEFAULT_CONFIG.uncore_fraction

    rows = []
    for i in range(DEFAULT_CONFIG.n_islands):
        rows.append(
            [
                f"island {i + 1}" + (" (QoS)" if i == GUARANTEED_ISLAND else ""),
                float(setpoints[:, i].mean() / distributable),
                float(setpoints[:, i].std()),
                float(power[:, i].mean()),
            ]
        )
    print(
        format_table(
            ["island", "mean share of budget", "share stddev", "mean power"],
            rows,
            title=f"QoS guarantee: island 1 pinned at "
            f"{as_percent(GUARANTEED_SHARE, 0)} of the distributable budget",
        )
    )

    # A guarantee only holds for power the island can physically consume:
    # ask for more than its demand and the manager's reclaim hands the
    # surplus back (the paper's "GPM would realize this" behaviour).
    qos_share = setpoints[:, GUARANTEED_ISLAND] / distributable
    assert np.allclose(qos_share, GUARANTEED_SHARE, atol=0.02), (
        "guarantee violated"
    )
    chip = result.telemetry["chip_power_frac"][30:]
    print(f"\nChip power: {as_percent(float(chip.mean()))} "
          f"(budget {as_percent(BUDGET, 0)}) — the PIC tier is oblivious "
          "to which policy produced its set-points.")


if __name__ == "__main__":
    main()
