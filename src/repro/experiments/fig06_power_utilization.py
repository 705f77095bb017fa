"""Figure 6: power vs processor utilization, per benchmark.

For each of the eight PARSEC applications, the paper plots island power
against measured utilization over a DVFS-exercised run and fits a line
``P = k0 U + k1``; the average coefficient of determination is ~0.96,
with the memory-bound kernels (canneal, vips) showing the steepest
slopes.  This experiment reproduces the fits from the calibration runs:
its plan is the default platform's calibration runs, and the fits come
from fitting them.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_CONFIG
from ..core.calibration import CalibrationPoint, calibration_requests, fit_once
from ..runner import RunRequest
from ..workloads.parsec import SHORT_NAMES
from .common import ExperimentResult, Results, experiment

__all__ = ["plan", "render", "run"]


def plan(seed: int, quick: bool) -> list[RunRequest]:
    return calibration_requests(CalibrationPoint.of(DEFAULT_CONFIG, None, seed))


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    cal = fit_once(CalibrationPoint.of(DEFAULT_CONFIG, None, seed), results)

    result = ExperimentResult(
        experiment="fig06",
        description="power = k0*utilization + k1 linear fits per benchmark",
        headers=("benchmark", "k0 (slope)", "k1", "R^2"),
    )
    r2 = []
    for name in sorted(cal.benchmark_transducers):
        t = cal.benchmark_transducers[name]
        result.add_row(SHORT_NAMES.get(name, name), t.k0, t.k1, t.r_squared)
        r2.append(t.r_squared)
    result.add_row("average", float("nan"), float("nan"), float(np.mean(r2)))
    result.notes.append(
        "paper: average R^2 = 0.96; memory-bound kernels (canneal, vips) "
        "have the steepest slopes"
    )
    return result


run = experiment(plan, render)
