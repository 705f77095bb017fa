"""Figure 15: scalability — 16- and 32-core CMPs, CPM vs MaxBIPS.

The paper evaluates 16 and 32 cores with 4 cores per island (Mix-3,
replicated twice for 32 cores) across budgets: CPM stays near 4%
degradation at the 80% budget while MaxBIPS degrades to 14–16%.
"""

from __future__ import annotations

import numpy as np

from ..baselines.maxbips import MaxBIPSScheme
from ..config import DEFAULT_CONFIG
from ..core.cpm import CPMScheme
from ..core.metrics import performance_degradation
from ..runner import RunRequest
from .common import ExperimentResult, Results, experiment, horizon, reference

__all__ = ["BUDGETS", "CORE_COUNTS", "plan", "render", "run"]

BUDGETS = (0.90, 0.85, 0.80, 0.75)
CORE_COUNTS = (16, 32)


def plan(seed: int, quick: bool) -> list[RunRequest]:
    """Per core count: the reference, then CPM and MaxBIPS at each budget."""
    n_gpm = horizon(quick)
    requests = []
    for n_cores in CORE_COUNTS:
        config = DEFAULT_CONFIG.with_islands(n_cores, n_cores // 4)
        requests.append(reference(config, seed=seed, n_gpm=n_gpm))
        requests.extend(
            RunRequest(config, factory, None, budget, seed, n_gpm)
            for budget in ((0.80,) if quick else BUDGETS)
            for factory in (CPMScheme, MaxBIPSScheme)
        )
    return requests


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig15",
        description="16/32-core scalability: CPM vs MaxBIPS across budgets",
        headers=("cores", "budget", "CPM degradation", "MaxBIPS degradation"),
    )
    curves: dict[str, list[float]] = {}
    per_size = len(results) // len(CORE_COUNTS)
    for k, n_cores in enumerate(CORE_COUNTS):
        reference_result, *runs = results[k * per_size : (k + 1) * per_size]
        for cpm, maxbips in zip(runs[0::2], runs[1::2]):
            cpm_deg = performance_degradation(cpm, reference_result)
            mb_deg = performance_degradation(maxbips, reference_result)
            result.add_row(n_cores, cpm.budget_fraction, cpm_deg, mb_deg)
            curves.setdefault(f"CPM {n_cores}c", []).append(cpm_deg)
            curves.setdefault(f"MaxBIPS {n_cores}c", []).append(mb_deg)
    for name, values in curves.items():
        result.add_series(name, np.asarray(values))
    result.notes.append(
        "paper @80%: CPM ~4% for both sizes; MaxBIPS 14% (16c) / 16.2% (32c)"
    )
    return result


run = experiment(plan, render)
