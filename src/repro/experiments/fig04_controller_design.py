"""Controller design analysis (Section II, Equations 9–13).

Reports the identified system gain, the pole-placement PID design, the
closed-loop poles (all strictly inside the unit circle — Equation 12's
stability statement), the analytic step-response robustness metrics, and
the stability range of the gain multiplier ``g`` (Equation 13: the paper
found its design stable for g up to ~2.1 of the nominal gain).
Its plan is the default platform's calibration runs; everything comes
from their fit.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_CONFIG
from ..control.analysis import response_metrics
from ..control.pole_placement import closed_loop
from ..core.calibration import CalibrationPoint, calibration_requests, fit_once
from ..runner import RunRequest
from .common import ExperimentResult, Results, experiment

__all__ = ["plan", "render", "run"]


def plan(seed: int, quick: bool) -> list[RunRequest]:
    return calibration_requests(CalibrationPoint.of(DEFAULT_CONFIG, None, seed))


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    cal = fit_once(CalibrationPoint.of(DEFAULT_CONFIG, None, seed), results)
    gains = cal.pid_gains

    loop = closed_loop(cal.system_gain, gains)
    poles = np.sort_complex(loop.poles())
    response = loop.step_response(12 if quick else 40)
    metrics = response_metrics(response, reference=1.0, tolerance=0.02)

    result = ExperimentResult(
        experiment="controller-design",
        description="PID pole placement on the identified island model",
        headers=("quantity", "value"),
    )
    result.add_row("system gain a (frac max power / GHz)", cal.system_gain)
    result.add_row("K_P", gains.kp)
    result.add_row("K_I", gains.ki)
    result.add_row("K_D", gains.kd)
    for i, pole in enumerate(poles):
        result.add_row(f"closed-loop pole {i + 1}", f"{pole:.4f} (|.|={abs(pole):.3f})")
    result.add_row("analytic step overshoot", metrics.max_overshoot)
    result.add_row("analytic settling (invocations, 2% band)", metrics.settling_steps)
    result.add_row("analytic steady-state error", metrics.steady_state_error)
    result.add_row("stability gain limit g (paper: ~2.1)", cal.stability_limit)
    result.add_series("step response", response)
    result.notes.append(
        "all closed-loop poles lie strictly inside the unit circle; the "
        "loop stays stable for true gains up to g x the design gain"
    )
    return result


run = experiment(plan, render)
