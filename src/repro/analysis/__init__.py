"""Higher-level analysis utilities built on the simulator.

* :mod:`repro.analysis.sweeps` — a scheme swept across budgets with a
  paired no-management reference and a tabular summary; the machinery
  behind the CLI's ``sweep`` command.
* :mod:`repro.analysis.breakdown` — offline energy accounting: by
  island, dynamic/static/uncore, and per microarchitectural structure,
  with a verification of the reconstruction against recorded totals.
"""

from .breakdown import EnergyBreakdown, energy_breakdown, verify_reconstruction
from .sweeps import SweepPoint, SweepResult, budget_sweep

__all__ = [
    "EnergyBreakdown",
    "SweepPoint",
    "SweepResult",
    "budget_sweep",
    "energy_breakdown",
    "verify_reconstruction",
]
