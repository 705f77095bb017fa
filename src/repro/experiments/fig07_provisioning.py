"""Figure 7: dynamic power provisioning across four islands.

Shows the GPM dividing an 80%-of-max chip budget across the four islands
of the default platform over time: each island's provisioned share varies
per GPM interval with the workload dynamics, and the shares always sum to
the distributable budget.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_CONFIG
from ..core.cpm import CPMScheme
from ..runner import RunRequest
from ..workloads.mixes import MIX1
from .common import ExperimentResult, Results, experiment, horizon

__all__ = ["plan", "render", "run"]


def plan(seed: int, quick: bool) -> list[RunRequest]:
    """CPM on the default platform, Mix-1, 80% budget."""
    return [RunRequest(DEFAULT_CONFIG, CPMScheme, MIX1, 0.8, seed, horizon(quick))]


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    config = DEFAULT_CONFIG
    (res,) = results
    telemetry = res.telemetry
    ticks = telemetry.gpm_tick_indices()
    setpoints = telemetry["island_setpoint_frac"][ticks]
    actual = np.array([w.island_power_frac for w in telemetry.windows])

    result = ExperimentResult(
        experiment="fig07",
        description="GPM power provisioning across 4 islands, 80% budget",
        headers=("island", "apps", "min share", "mean share", "max share"),
    )
    labels = [" + ".join(names) for names in MIX1.islands]
    for i in range(config.n_islands):
        result.add_row(
            f"island {i + 1}",
            labels[i],
            float(setpoints[:, i].min()),
            float(setpoints[:, i].mean()),
            float(setpoints[:, i].max()),
        )
    for i in range(config.n_islands):
        result.add_series(f"island {i + 1} provisioned", setpoints[:, i])
        result.add_series(f"island {i + 1} actual", actual[: len(ticks), i])
    result.add_series("sum of provisions", setpoints.sum(axis=1))
    result.notes.append(
        "provisions always sum to the distributable budget "
        f"({res.budget_fraction:.2f} minus the uncore share)"
    )
    return result


run = experiment(plan, render)
