"""CPMScheme: the coordinated two-tier power manager of Figure 3.

``CPMScheme`` plugs into :class:`repro.cmpsim.simulator.Simulation` and
realizes the architecture end to end:

* every GPM interval it assembles the measurement context and lets the
  :class:`~repro.gpm.manager.GlobalPowerManager` (with any provisioning
  policy) rewrite the per-island set-points;
* every PIC interval the :class:`~repro.pic.bank.PICBank` advances each
  island's controller: it senses utilization, transduces it to power,
  and nudges the island's frequency to track the set-point.

The bank is built from an offline :class:`~repro.core.calibration.
Calibration` (system gain → pole-placement PID gains; per-island
transducers); by default the memoized calibration for the simulation's
platform and mix is used, unless a caller that precomputed it hands it
over first (:meth:`CPMScheme.use_calibration`).
"""

from __future__ import annotations

import functools

import numpy as np

from ..config import CMPConfig
from ..gpm.manager import GlobalPowerManager
from ..gpm.performance_aware import PerformanceAwarePolicy
from ..gpm.policy import GPMContext, ProvisioningPolicy
from ..pic.bank import PICBank
from ..rng import DEFAULT_SEED
from ..unit_types import PowerFraction
from ..workloads.mixes import Mix
from .calibration import Calibration, CalibrationPoint

__all__ = ["CPMScheme", "run_cpm"]


class CPMScheme:
    """The paper's scheme: GPM provisioning + PID power capping."""

    name = "cpm"

    def __init__(
        self,
        policy: ProvisioningPolicy | None = None,
        calibration: Calibration | None = None,
    ) -> None:
        self.policy = policy or PerformanceAwarePolicy()
        self.manager = GlobalPowerManager(self.policy)
        self._calibration = calibration
        #: Every island's controller; built by :meth:`bind`.
        self.bank: PICBank | None = None
        self._context_static: dict | None = None

    @property
    def calibration(self) -> Calibration:
        if self._calibration is None:
            raise RuntimeError("scheme not bound yet; calibration unavailable")
        return self._calibration

    def calibration_point(
        self, config: CMPConfig, mix: Mix | None, seed: int
    ) -> CalibrationPoint | None:
        """The default calibration :meth:`bind` would compute for a run of
        ``(config, mix, seed)``, or None if the scheme already has one."""
        if self._calibration is not None:
            return None
        return CalibrationPoint.of(config, mix, seed)

    def use_calibration(self, calibration: Calibration) -> None:
        """Adopt a precomputed default calibration; an explicit
        ``calibration=`` given at construction is never overridden."""
        if self._calibration is None:
            self._calibration = calibration

    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        if hasattr(self.policy, "reset"):
            self.policy.reset()
        point = self.calibration_point(sim.config, sim.mix, sim.seeds.root_seed)
        if point is not None:
            self._calibration = point.calibration()
        cal = self.calibration
        quantized = sim.config.dvfs.mode == "quantized"
        # Seed the operating point proportionally to the budget: a 100%
        # budget starts at the top of the ladder (nothing to cap), tighter
        # budgets start lower — shrinks the start-up transient before the
        # controllers have any measurements.
        table = sim.chip.dvfs
        f0 = table.f_min + (table.f_max - table.f_min) * min(
            1.0, sim.budget_fraction
        )

        # Each PID step is limited to the bank's default 1 GHz.
        self.bank = self._make_bank(
            gains=cal.pid_gains,
            transducers=[
                cal.island_transducers[i] for i in range(sim.config.n_islands)
            ],
            table=table,
            quantized=quantized,
            initial_frequency=f0,
        )
        sim.chip.island_frequency[:] = self.bank.frequency

        island_min, island_max = sim.chip.island_power_bounds()
        island_leakage = np.array(
            [
                float(
                    np.mean(
                        sim.chip.leakage_multipliers[
                            sim.chip.island_of_core == i
                        ]
                    )
                )
                for i in range(sim.config.n_islands)
            ]
        )
        self._context_static = {
            "island_min": island_min,
            "island_max": island_max,
            "adjacent_pairs": sim.chip.floorplan.adjacent_island_pairs(
                sim.chip.island_of_core
            ),
            "island_leakage": island_leakage,
        }
        # Initial provisioning: the budget split equally (paper: P_i(0)).
        sim.setpoints = np.full(
            sim.config.n_islands, sim.distributable_budget / sim.config.n_islands
        )

    def _make_bank(self, **kwargs) -> PICBank:
        """Build the islands' controller bank; subclasses may substitute.

        ``repro.resilience.GuardedCPMScheme`` overrides this to arm the
        sensor guard without re-implementing ``bind``.
        """
        return PICBank(**kwargs)

    # ------------------------------------------------------------------
    def _context(self, sim) -> GPMContext:
        assert self._context_static is not None
        frequency = None
        if sim.last_result is not None:
            frequency = sim.last_result.island_frequency_ghz
        return GPMContext(
            budget=sim.distributable_budget,
            n_islands=sim.config.n_islands,
            windows=sim.windows,
            island_frequency=frequency,
            f_max=sim.chip.dvfs.f_max,
            **self._context_static,
        )

    def on_gpm(self, sim) -> None:
        sim.setpoints = self.manager.provision(self._context(sim))

    def on_pic(self, sim) -> None:
        if sim.last_result is None:
            return  # nothing measured yet; hold the initial operating point
        assert self.bank is not None
        self.bank.step(
            sim.setpoints.tolist(), sim.last_result.island_utilization.tolist()
        )
        sim.chip.island_frequency[:] = self.bank.frequency
        sim.sensed_power[:] = self.bank.sensed_power


def run_cpm(
    config: CMPConfig,
    mix: Mix | None = None,
    policy: ProvisioningPolicy | None = None,
    budget_fraction: PowerFraction = 0.8,
    n_gpm_intervals: int = 20,
    seed: int = DEFAULT_SEED,
):
    """Convenience entry point: run one CPM simulation through
    :func:`repro.runner.run_one` (no result cache).  ``policy`` becomes
    an argument of the request's scheme spec, so a custom policy must be
    a module-level dataclass.

    Returns the :class:`~repro.cmpsim.simulator.SimulationResult`.
    """
    from ..runner import RunRequest, run_one

    scheme = functools.partial(CPMScheme, policy=policy)
    request = RunRequest(config, scheme, mix, budget_fraction, seed, n_gpm_intervals)
    return run_one(request)
