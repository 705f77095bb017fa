"""No power management: all cores at maximum frequency, always.

The paper's performance reference: "the case where no power management is
done and all CPUs are allowed to operate at the maximum possible
frequency.  This scheme achieves better performance but may overshoot the
power [budget] by a large degree."  Every performance-degradation figure
is measured against this scheme's throughput.
"""

from __future__ import annotations

from ..cmpsim.simulator import Simulation

__all__ = ["NoManagementScheme"]


class NoManagementScheme:
    """Pin every island at the top of the DVFS ladder."""

    name = "no-management"

    def bind(self, sim: Simulation) -> None:
        sim.chip.set_island_frequencies([sim.chip.dvfs.f_max] * sim.config.n_islands)
        # For telemetry, "set-point" is the physical per-island maximum.
        _, island_max = sim.chip.island_power_bounds()
        sim.setpoints = island_max

    def on_gpm(self, sim: Simulation) -> None:
        """No provisioning: nothing to do."""

    def on_pic(self, sim: Simulation) -> None:
        """No capping: nothing to do, and sensing is pass-through."""
        if sim.last_result is not None:
            sim.sensed_power = sim.last_result.island_power_frac.copy()
