"""Figure 14: performance degradation over time at a 100% budget.

With the budget at 100% of maximum chip power, the controllers should be
nearly invisible: the paper reports an average degradation of ~0.9%
(maximum ~2.2%) coming only from slight provisioning mispredictions and
actuation overheads.  This experiment compares per-GPM-window throughput
against the paired no-management run (same seed = identical workload
streams, so the comparison is exact).
"""

from __future__ import annotations

from ..config import DEFAULT_CONFIG
from ..core.cpm import CPMScheme
from ..core.metrics import performance_degradation_series
from ..runner import RunRequest
from ..workloads.mixes import MIX1
from .common import ExperimentResult, Results, experiment, horizon, reference

__all__ = ["plan", "render", "run"]


def plan(seed: int, quick: bool) -> list[RunRequest]:
    """The reference and CPM at a 100% budget; default platform, Mix-1."""
    n_gpm = horizon(quick)
    cpm = RunRequest(DEFAULT_CONFIG, CPMScheme, MIX1, 1.0, seed, n_gpm)
    return [reference(DEFAULT_CONFIG, MIX1, seed=seed, n_gpm=n_gpm), cpm]


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    reference_result, res = results
    series = performance_degradation_series(res, reference_result)

    result = ExperimentResult(
        experiment="fig14",
        description="per-interval degradation over time at a 100% budget",
        headers=("metric", "value"),
    )
    result.add_row("average degradation", float(series.mean()))
    result.add_row("maximum degradation", float(series.max()))
    result.add_row("minimum degradation", float(series.min()))
    result.add_series("degradation per GPM window", series)
    result.notes.append(
        "paper: ~0.9% average (max ~2.2%) from provisioning mispredictions"
    )
    return result


run = experiment(plan, render)
