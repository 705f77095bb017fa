"""Figure 16: sensitivity to the application mix (Mix-1 vs Mix-2).

Mix-2 schedules homogeneous islands (C,C / M,M): slowing an island with
two memory-bound applications barely hurts, so the manager can shift
budget toward the compute-bound islands and overall degradation drops
relative to Mix-1's paired C,M islands.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_CONFIG
from ..core.cpm import CPMScheme
from ..core.metrics import performance_degradation
from ..runner import RunRequest
from ..workloads.mixes import MIX1, MIX2
from .common import ExperimentResult, Results, experiment, horizon, reference

__all__ = ["BUDGETS", "MIXES", "plan", "render", "run"]

BUDGETS = (0.90, 0.85, 0.80, 0.75)
MIXES = (MIX1, MIX2)


def plan(seed: int, quick: bool) -> list[RunRequest]:
    """Each mix's reference, then CPM for both mixes at each budget."""
    n_gpm = horizon(quick)
    return [
        reference(DEFAULT_CONFIG, mix, seed=seed, n_gpm=n_gpm) for mix in MIXES
    ] + [
        RunRequest(DEFAULT_CONFIG, CPMScheme, mix, budget, seed, n_gpm)
        for budget in ((0.80,) if quick else BUDGETS)
        for mix in MIXES
    ]


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig16",
        description="degradation for Mix-1 (C,M islands) vs Mix-2 (homogeneous)",
        headers=("budget", "Mix-1 degradation", "Mix-2 degradation"),
    )
    references, runs = results[: len(MIXES)], results[len(MIXES) :]
    curves: dict[str, list[float]] = {mix.name: [] for mix in MIXES}
    for k in range(0, len(runs), len(MIXES)):
        row = [runs[k].budget_fraction]
        for mix, reference_result, res in zip(MIXES, references, runs[k:]):
            deg = performance_degradation(res, reference_result)
            row.append(deg)
            curves[mix.name].append(deg)
        result.add_row(*row)
    for name, values in curves.items():
        result.add_series(name, np.asarray(values))
    result.notes.append(
        "paper: Mix-2 degrades less — lowering the frequency of an island "
        "with two memory-bound applications does not hurt performance as "
        "much as slowing a mixed island"
    )
    return result


run = experiment(plan, render)
