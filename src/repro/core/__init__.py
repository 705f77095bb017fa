"""CPM — the paper's contribution: coordinated two-tier power management.

* :mod:`repro.core.calibration` — the offline pipeline of Section II:
  white-noise DVFS excitation runs, system-gain identification
  (Equation 8 / Figure 5), utilization→power transducer fits (Figure 6),
  pole-placement PID design and the stability-margin analysis
  (Equations 12–13).
* :mod:`repro.core.cpm` — :class:`CPMScheme`, wiring a
  :class:`~repro.gpm.manager.GlobalPowerManager` over a
  :class:`~repro.pic.bank.PICBank` of per-island controllers into the
  simulator's two-rate cadence, plus the :func:`run_cpm` convenience
  entry point.
* :mod:`repro.core.metrics` — performance degradation against the
  no-management reference and budget-tracking robustness metrics.
"""

from .calibration import (
    Calibration,
    WhiteNoiseDVFSScheme,
    calibrate,
    default_calibration,
)
from .cpm import CPMScheme, run_cpm
from .metrics import (
    chip_tracking_metrics,
    performance_degradation,
    performance_degradation_series,
)

__all__ = [
    "CPMScheme",
    "Calibration",
    "WhiteNoiseDVFSScheme",
    "calibrate",
    "chip_tracking_metrics",
    "default_calibration",
    "performance_degradation",
    "performance_degradation_series",
    "run_cpm",
]
