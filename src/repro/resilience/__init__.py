"""repro.resilience — fault detection, safe mode, graceful degradation.

The paper assumes sensors and actuators behave; this package supplies
the guard/watchdog discipline a production power manager needs when they
do not:

* the sensor guard (:class:`~repro.pic.bank.SensorGuardConfig`, armed
  on every island of a :class:`~repro.pic.bank.PICBank`; per island,
  :class:`~repro.pic.guard.GuardedPerIslandController`) — validates each
  utilization reading (NaN / out-of-range / stuck), holds last-known-good
  input with a frozen integrator, clamps to a fail-safe frequency floor
  after persistent faults, and re-arms automatically;
* :class:`~repro.gpm.guard.GPMGuard` — enforces provision conservation,
  quarantines islands that persistently violate their caps, and
  redistributes the reclaimed budget to healthy islands;
* :class:`GuardedCPMScheme` — the paper's CPM with both tiers armed and
  a :class:`~repro.cmpsim.telemetry.ResilienceLog` recording every guard
  decision.

Scheduled (time-windowed) faults live in :mod:`repro.faults`; the chaos
sweep that exercises all of this end to end is
:mod:`repro.experiments.chaos` (``repro chaos`` on the CLI).
"""

from ..cmpsim.telemetry import ResilienceEvent, ResilienceLog
from ..gpm.guard import GPMGuard, GPMGuardConfig
from ..pic.bank import MODE_FAILSAFE, MODE_HOLD, MODE_NOMINAL, SensorGuardConfig
from ..pic.guard import GuardedPerIslandController
from .scheme import GuardedCPMScheme

__all__ = [
    "MODE_FAILSAFE",
    "MODE_HOLD",
    "MODE_NOMINAL",
    "GPMGuard",
    "GPMGuardConfig",
    "GuardedCPMScheme",
    "GuardedPerIslandController",
    "ResilienceEvent",
    "ResilienceLog",
    "SensorGuardConfig",
]
