"""Figures 19/20 (§IV-B): variation-aware power provisioning.

The CMP's islands have skewed leakage (islands 1–3 leak 1.2x / 1.5x / 2x
as much as island 4).  The variation-aware policy greedily searches each
island's provisioning level for the minimum energy-per-instruction,
parking leaky islands at lower V/F.  Reported per island, relative to
the performance-aware policy on the same platform:

* percentage throughput degradation (the cost), and
* percentage power/throughput improvement (the win — largest on the
  leakiest islands).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .. import units
from ..config import DEFAULT_CONFIG
from ..core.cpm import CPMScheme
from ..gpm.variation_aware import VariationAwarePolicy
from ..runner import RunRequest
from ..variation.leakage_variation import PAPER_ISLAND_MULTIPLIERS
from ..workloads.mixes import MIX1
from .common import ExperimentResult, Results, experiment, horizon

__all__ = ["BUDGET", "CONFIG", "plan", "render", "run"]

#: The budget must bind (sit below the chip's natural draw) for the
#: greedy search's provisioning levels to have any effect on the islands.
BUDGET = 0.78
#: The platform: the paper's skewed island leakage.
CONFIG = dataclasses.replace(
    DEFAULT_CONFIG, island_leakage_multipliers=PAPER_ISLAND_MULTIPLIERS
)


def _island_stats(result) -> tuple[np.ndarray, np.ndarray]:
    """(throughput BIPS, power/throughput W-per-BIPS) per island."""
    windows = result.telemetry.windows[2:]
    bips = np.mean([w.island_bips for w in windows], axis=0)
    energy = np.sum([w.island_energy_j for w in windows], axis=0)
    duration = sum(w.duration_s for w in windows)
    power_w = energy / duration
    return bips, power_w / np.maximum(bips, units.EPS)


def plan(seed: int, quick: bool) -> list[RunRequest]:
    """CPM under the performance-aware, then the variation-aware policy."""
    n_gpm = horizon(quick) * 3  # the greedy search needs room to converge
    variation = functools.partial(CPMScheme, policy=VariationAwarePolicy())
    return [
        RunRequest(CONFIG, factory, MIX1, BUDGET, seed, n_gpm)
        for factory in (CPMScheme, variation)
    ]


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    perf, variation = results
    perf_bips, perf_ppt = _island_stats(perf)
    var_bips, var_ppt = _island_stats(variation)
    throughput_degradation = 1.0 - var_bips / perf_bips
    ppt_improvement = 1.0 - var_ppt / perf_ppt

    result = ExperimentResult(
        experiment="fig19",
        description="variation-aware vs performance-aware per island "
        f"(leakage multipliers {PAPER_ISLAND_MULTIPLIERS})",
        headers=(
            "island",
            "leakage x",
            "throughput degradation",
            "power/throughput improvement",
        ),
    )
    for i in range(CONFIG.n_islands):
        result.add_row(
            f"island {i + 1}",
            PAPER_ISLAND_MULTIPLIERS[i],
            float(throughput_degradation[i]),
            float(ppt_improvement[i]),
        )
    result.add_row(
        "chip",
        float("nan"),
        1.0 - float(var_bips.sum() / perf_bips.sum()),
        1.0
        - float(
            (var_ppt * var_bips).sum()
            / var_bips.sum()
            / ((perf_ppt * perf_bips).sum() / perf_bips.sum())
        ),
    )
    result.add_series("variation-aware setpoints (last)",
                      variation.telemetry["island_setpoint_frac"][-1])
    result.notes.append(
        "paper: the greedy EPI search operates leakier islands at lower "
        "V/F — power/throughput improves most where leakage is worst, at "
        "a modest throughput cost"
    )
    return result


run = experiment(plan, render)
