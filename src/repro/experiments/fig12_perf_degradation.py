"""Figure 12: performance degradation vs power budget.

Average performance loss relative to the no-power-management run (all
cores at maximum frequency) as the chip budget shrinks; the paper
reports ~4% degradation at an 80% budget, rising as the budget tightens.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_CONFIG
from ..core.cpm import CPMScheme
from ..core.metrics import performance_degradation
from ..runner import RunRequest
from ..workloads.mixes import MIX1
from .common import ExperimentResult, Results, experiment, horizon, reference

__all__ = ["BUDGETS", "plan", "render", "run"]

BUDGETS = (1.00, 0.95, 0.90, 0.85, 0.80, 0.75)


def plan(seed: int, quick: bool) -> list[RunRequest]:
    """The reference, then CPM at each budget; default platform, Mix-1."""
    n_gpm = horizon(quick)
    return [reference(DEFAULT_CONFIG, MIX1, seed=seed, n_gpm=n_gpm)] + [
        RunRequest(DEFAULT_CONFIG, CPMScheme, MIX1, budget, seed, n_gpm)
        for budget in (BUDGETS[::2] if quick else BUDGETS)
    ]


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    reference_result, *runs = results
    result = ExperimentResult(
        experiment="fig12",
        description="performance degradation vs chip power budget (Mix-1)",
        headers=("budget", "mean chip power", "perf degradation"),
    )
    degradations = []
    for res in runs:
        deg = performance_degradation(res, reference_result)
        degradations.append(deg)
        result.add_row(res.budget_fraction, res.mean_chip_power_frac, deg)
    result.add_series("degradation vs budget", np.asarray(degradations))
    result.notes.append("paper: ~4% degradation at the 80% budget")
    return result


run = experiment(plan, render)
