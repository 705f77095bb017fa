"""Figure 8: per-island target vs actual power over time.

The paper's four panels show 10 GPM invocations (x10 PIC invocations
each) per island: the GPM moves the target every 5 ms and the PIC tracks
it at 0.5 ms granularity.  This experiment reports the per-island
tracking error statistics and emits the same target/actual series.
"""

from __future__ import annotations

import numpy as np

from .. import units
from ..config import DEFAULT_CONFIG
from .common import ExperimentResult, Results, WARMUP_INTERVALS, experiment
from .fig07_provisioning import plan  # the same run as Figure 7

__all__ = ["plan", "render", "run"]


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    config = DEFAULT_CONFIG
    (res,) = results
    telemetry = res.telemetry
    target = telemetry["island_setpoint_frac"]
    actual = telemetry["island_power_frac"]
    skip = min(WARMUP_INTERVALS, target.shape[0] // 3)

    result = ExperimentResult(
        experiment="fig08",
        description="per-island target vs actual power (8 cores, 2/island)",
        headers=(
            "island",
            "mean |actual-target| / target",
            "p95 |actual-target| / target",
        ),
    )
    for i in range(config.n_islands):
        rel = np.abs(actual[skip:, i] - target[skip:, i]) / np.maximum(
            target[skip:, i], units.EPS
        )
        result.add_row(f"island {i + 1}", float(rel.mean()), float(np.percentile(rel, 95)))
        result.add_series(f"island {i + 1} target", target[:, i])
        result.add_series(f"island {i + 1} actual", actual[:, i])
    result.notes.append(
        "the PIC tracks each GPM-provisioned target between successive "
        "GPM invocations; see fig09 for the within-window robustness "
        "metrics"
    )
    return result


run = experiment(plan, render)
