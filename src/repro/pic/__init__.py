"""PIC — the local Per-Island Controller tier (second tier of CPM).

Each island runs a pole-placement-designed PID that tracks the
GPM-provisioned power set-point by scaling the island's
voltage/frequency, observing power indirectly through the utilization
transducer of Figure 6.  The run path advances every island at once in
a :class:`~repro.pic.bank.PICBank`; the per-island
:class:`~repro.pic.controller.PerIslandController` (and its guarded
form) is the same law for one island, for standalone loops and as the
bank's test oracle.
"""

from .actuator import DVFSActuator
from .bank import PICBank, SensorGuardConfig
from .controller import PerIslandController, PICInvocation
from .guard import GuardedPerIslandController

__all__ = [
    "DVFSActuator",
    "GuardedPerIslandController",
    "PICBank",
    "PerIslandController",
    "PICInvocation",
    "SensorGuardConfig",
]
