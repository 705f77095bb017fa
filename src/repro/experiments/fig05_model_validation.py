"""Figure 5: actual power vs open-loop model prediction.

The paper validates ``P(t+1) = P(t) + a * df(t)`` by running the held-out
benchmark (bodytrack) on every island under white-noise DVFS and
comparing the measured power trace against the model's one-step-ahead
prediction; the reported error is well within 10%.
Its plan is the default platform's calibration runs, which give the
model, and a fresh white-noise run of the hold-out benchmark (the next
seed, the experiment's horizon), which the model predicts.
"""

from __future__ import annotations

import functools

import numpy as np

from ..config import DEFAULT_CONFIG
from ..control.identification import predict_power, prediction_error
from ..core.calibration import (
    HOLDOUT,
    CalibrationPoint,
    WhiteNoiseDVFSScheme,
    calibration_requests,
    fit_once,
    homogeneous_mix,
)
from ..runner import RunRequest
from .common import ExperimentResult, Results, experiment, horizon

__all__ = ["plan", "render", "run"]


def plan(seed: int, quick: bool) -> list[RunRequest]:
    config = DEFAULT_CONFIG
    holdout = RunRequest(
        config,
        functools.partial(WhiteNoiseDVFSScheme, seed=seed + 1),
        homogeneous_mix(config, HOLDOUT),
        1.0,
        seed + 1,
        horizon(quick),
    )
    return calibration_requests(CalibrationPoint.of(config, None, seed)) + [holdout]


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    config = DEFAULT_CONFIG
    *calibration_runs, run_result = results
    cal = fit_once(CalibrationPoint.of(config, None, seed), calibration_runs)
    freq = run_result.telemetry["island_frequency_ghz"]
    power = run_result.telemetry["island_power_frac"]

    result = ExperimentResult(
        experiment="fig05",
        description=(
            f"one-step model prediction vs actual power "
            f"({HOLDOUT} under white-noise DVFS, a={cal.system_gain:.4f})"
        ),
        headers=("island", "mean |error| (one-step, relative)"),
    )
    errors = []
    for island in range(config.n_islands):
        err = prediction_error(
            power[:, island], np.diff(freq[:, island]), cal.system_gain
        )
        errors.append(err)
        result.add_row(f"island {island + 1}", err)
    result.add_row("mean", float(np.mean(errors)))

    # The Figure 5 trace itself: actual vs open-loop rollout on island 0.
    rollout = predict_power(
        float(power[0, 0]), np.diff(freq[:, 0]), cal.system_gain
    )
    result.add_series("actual power (island 1)", power[:, 0])
    result.add_series("model rollout (island 1)", rollout)
    result.notes.append(
        "paper: average prediction error well within 10%; the rollout "
        "series shows the open-loop model tracking the measured trace"
    )
    return result


run = experiment(plan, render)
