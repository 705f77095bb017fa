"""Interval-based CMP simulator (the Simics/GEMS analogue).

The simulator advances in PIC-sized intervals (0.5 ms by default).  Per
interval, each core's synthetic workload produces a phase sample; the
analytic CPI stack converts (sample, frequency) into retired
instructions, busy fraction and utilization; the power models convert the
same state into watts; and a lumped-RC model advances temperatures.  A
pluggable :class:`~repro.cmpsim.simulator.PowerScheme` receives callbacks
at PIC and GPM cadence and actuates island frequencies — the paper's CPM
architecture and the MaxBIPS/no-management baselines are all schemes.
Caches are not simulated: the CPI stack reads each workload phase's
L1/L2 MPKI constants, which are set by hand to its Table III class.

* :mod:`repro.cmpsim.dvfs` — the 8-point Pentium-M V/F table, voltage
  interpolation, quantization.
* :mod:`repro.cmpsim.core` — the analytic CPI stack.
* :mod:`repro.cmpsim.chip` — vectorized per-interval evaluation of all
  cores, islands and the chip, plus the max-power normalization.
* :mod:`repro.cmpsim.telemetry` — per-interval recording.
* :mod:`repro.cmpsim.simulator` — the simulation driver and scheme hooks.
"""

from .chip import Chip, IntervalResult
from .core import cpi_stack
from .dvfs import DVFSTable
from .simulator import PowerScheme, Simulation, SimulationResult
from .telemetry import Telemetry

__all__ = [
    "Chip",
    "DVFSTable",
    "IntervalResult",
    "PowerScheme",
    "Simulation",
    "SimulationResult",
    "Telemetry",
    "cpi_stack",
]
