"""Figure 11: budget curves — actual consumption vs budget, CPM vs MaxBIPS.

Sweeping the chip-wide budget, the paper shows its scheme's consumption
closely tracking the budget without overshooting it, while MaxBIPS
always lands below the budget (quantized knobs + worst-case open-loop
provisioning cannot dial consumption onto the set-point).
"""

from __future__ import annotations

import numpy as np

from ..baselines.maxbips import MaxBIPSScheme
from ..config import DEFAULT_CONFIG
from ..core.cpm import CPMScheme
from ..runner import RunRequest
from ..workloads.mixes import MIX1
from .common import ExperimentResult, Results, WARMUP_INTERVALS, experiment, horizon

__all__ = ["BUDGETS", "plan", "render", "run"]

BUDGETS = (0.95, 0.90, 0.85, 0.80, 0.75)


def plan(seed: int, quick: bool) -> list[RunRequest]:
    """CPM and MaxBIPS at each budget, default platform, Mix-1."""
    return [
        RunRequest(DEFAULT_CONFIG, factory, MIX1, budget, seed, horizon(quick))
        for budget in (BUDGETS[1::2] if quick else BUDGETS)
        for factory in (CPMScheme, MaxBIPSScheme)
    ]


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    budgets = [cpm.budget_fraction for cpm in results[0::2]]
    result = ExperimentResult(
        experiment="fig11",
        description="actual chip power vs budget: CPM tracks, MaxBIPS undershoots",
        headers=(
            "budget",
            "CPM mean power",
            "CPM max power",
            "MaxBIPS mean power",
            "MaxBIPS max power",
        ),
    )
    cpm_curve, maxbips_curve = [], []
    for budget, cpm, maxbips in zip(budgets, results[0::2], results[1::2]):
        skip = min(WARMUP_INTERVALS, cpm.telemetry.n_intervals // 3)
        cpm_power = cpm.telemetry["chip_power_frac"][skip:]
        mb_power = maxbips.telemetry["chip_power_frac"][skip:]
        cpm_curve.append(float(cpm_power.mean()))
        maxbips_curve.append(float(mb_power.mean()))
        result.add_row(
            budget,
            float(cpm_power.mean()),
            float(cpm_power.max()),
            float(mb_power.mean()),
            float(mb_power.max()),
        )
    result.add_series("budget", np.asarray(budgets))
    result.add_series("CPM consumption", np.asarray(cpm_curve))
    result.add_series("MaxBIPS consumption", np.asarray(maxbips_curve))
    result.notes.append(
        "budgets above the chip's natural draw are demand-limited: both "
        "schemes consume the unmanaged power and the budget does not bind"
    )
    result.notes.append(
        "paper: our scheme closely tracks the budgeted power; MaxBIPS's "
        "consumption is always lower than the budget"
    )
    return result


run = experiment(plan, render)
