"""Figure 10: chip-wide power tracking of an 80% budget.

The sum of the islands' actual power (plus the uncore) is compared
against the chip-wide budget over time; the paper reports overshoot and
undershoot "mostly within 4% of the allocated power budget".
"""

from __future__ import annotations

import numpy as np

from ..core.metrics import chip_tracking_metrics
from .common import ExperimentResult, Results, WARMUP_INTERVALS, experiment
from .fig07_provisioning import plan  # the same run as Figure 7

__all__ = ["plan", "render", "run"]


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    (res,) = results
    chip_power = res.telemetry["chip_power_frac"]
    skip = min(WARMUP_INTERVALS, chip_power.size // 3)
    rel = chip_power[skip:] / res.budget_fraction

    result = ExperimentResult(
        experiment="fig10",
        description="chip-wide power vs the 80% budget over time",
        headers=("metric", "value"),
    )
    result.add_row("mean chip power / budget", float(rel.mean()))
    result.add_row("max overshoot above budget", float(max(rel.max() - 1.0, 0.0)))
    result.add_row("max undershoot below budget", float(max(1.0 - rel.min(), 0.0)))
    result.add_row("p5 / p95 of chip power / budget",
                   f"{np.percentile(rel, 5):.4f} / {np.percentile(rel, 95):.4f}")
    within = float(np.mean(np.abs(rel - 1.0) <= 0.04))
    result.add_row("fraction of time within ±4% of budget", within)
    metrics = chip_tracking_metrics(res, tolerance=0.04, skip_intervals=skip)
    result.add_row("steady-state error (4% band)", metrics.steady_state_error)
    result.add_series("chip power (fraction of max)", chip_power)
    result.add_series("budget", np.full_like(chip_power, res.budget_fraction))
    result.notes.append("paper: overshoot/undershoot mostly within 4% of budget")
    return result


run = experiment(plan, render)
