"""Evaluation metrics: performance degradation and budget tracking.

Two quantities dominate the paper's results section:

* **performance degradation** — throughput loss relative to the
  no-management run (all cores at maximum frequency).  Runs compared with
  the *same seed* execute identical workload streams (the phase machines
  are independent of controller actions), so the comparison is paired.
* **tracking quality** — how tightly actual power follows the budget,
  summarized with the Section II robustness metrics (overshoot, settling
  time, steady-state error).  Per-island tracking within each GPM window
  is Figure 9's (:mod:`repro.experiments.fig09_pic_tracking`).
"""

from __future__ import annotations

import numpy as np

from ..control.analysis import ResponseMetrics, response_metrics
from ..cmpsim.simulator import SimulationResult

__all__ = [
    "chip_tracking_metrics",
    "performance_degradation",
    "performance_degradation_series",
]


def performance_degradation(
    managed: SimulationResult, reference: SimulationResult
) -> float:
    """Fractional throughput loss of ``managed`` vs ``reference``.

    Uses total retired instructions over the run (robust to interval
    boundaries).  Negative values mean the managed run was faster, which
    only happens within noise at a 100% budget.
    """
    if reference.total_instructions <= 0:
        raise ValueError("reference run retired no instructions")
    return 1.0 - managed.total_instructions / reference.total_instructions


def performance_degradation_series(
    managed: SimulationResult, reference: SimulationResult
) -> np.ndarray:
    """Per-GPM-window degradation series (the Figure 14 quantity)."""
    n = min(len(managed.telemetry.windows), len(reference.telemetry.windows))
    if n == 0:
        raise ValueError("runs have no completed GPM windows")
    out = np.empty(n)
    for k in range(n):
        ref_bips = float(reference.telemetry.windows[k].island_bips.sum())
        got_bips = float(managed.telemetry.windows[k].island_bips.sum())
        out[k] = 1.0 - got_bips / ref_bips if ref_bips > 0 else 0.0
    return out


def chip_tracking_metrics(
    result: SimulationResult,
    tolerance: float = 0.02,
    skip_intervals: int = 10,
) -> ResponseMetrics:
    """How well total chip power tracked the chip-wide budget (Figure 10).

    ``skip_intervals`` drops the initial transient (the controllers start
    from an arbitrary operating point).
    """
    series = result.telemetry["chip_power_frac"][skip_intervals:]
    if series.size == 0:
        raise ValueError("run too short for the requested warmup skip")
    return response_metrics(series, result.budget_fraction, tolerance=tolerance)
