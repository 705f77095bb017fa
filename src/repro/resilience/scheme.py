"""GuardedCPMScheme: the paper's CPM with both resilience tiers armed.

Composes the sensor guard (:mod:`repro.pic.guard`) under every island's
PID and the GPM guard (:mod:`repro.gpm.guard`) over the provisioning
step.  With healthy telemetry both guards are transparent, so a guarded
clean run is bit-identical to plain :class:`~repro.core.cpm.CPMScheme`;
under injected faults the guards detect, degrade and recover, and every
decision lands in the run's :class:`~repro.cmpsim.telemetry.ResilienceLog`
(``sim.log``, returned as ``SimulationResult.log`` and, once bound, also
:attr:`GuardedCPMScheme.log`) for the chaos harness (``repro chaos``) and
the tests to assert on.
"""

from __future__ import annotations

from ..cmpsim.telemetry import ResilienceLog
from ..core.cpm import CPMScheme
from ..gpm.guard import GPMGuard
from ..pic.bank import PICBank, SensorGuardConfig

__all__ = ["GuardedCPMScheme"]


class GuardedCPMScheme(CPMScheme):
    """CPM with sensor validation, safe mode, and GPM-tier quarantine."""

    name = "cpm-guarded"

    def __init__(self, policy=None, calibration=None) -> None:
        super().__init__(policy=policy, calibration=calibration)
        #: The bound run's log (``sim.log``); empty until bound.
        self.log = ResilienceLog()
        self._gpm_guard_state: GPMGuard | None = None

    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        # The run's own log, so a re-run starts empty.  Before
        # super().bind, because _make_bank hands it to the sensor guard.
        self.log = sim.log
        super().bind(sim)
        assert self._context_static is not None
        self._gpm_guard_state = GPMGuard(
            island_min=self._context_static["island_min"],
            island_max=self._context_static["island_max"],
            log=self.log,
            self_constrained=getattr(self.policy, "self_constrained", False),
        )

    def _make_bank(self, **kwargs) -> PICBank:
        return PICBank(guard=SensorGuardConfig(), log=self.log, **kwargs)

    # ------------------------------------------------------------------
    def on_gpm(self, sim) -> None:
        self.log.now = sim.tick
        super().on_gpm(sim)
        assert self._gpm_guard_state is not None
        frequency = None
        if sim.last_result is not None:
            frequency = sim.last_result.island_frequency_ghz
        sim.setpoints = self._gpm_guard_state.review(
            sim.setpoints,
            sim.windows,
            sim.distributable_budget,
            island_frequency=frequency,
            f_floor=sim.chip.dvfs.f_min,
        )

    def on_pic(self, sim) -> None:
        self.log.now = sim.tick
        super().on_pic(sim)
