"""Figure 13: performance degradation vs island size (cores per island).

On the 8-core platform at an 80% budget, the paper varies the island
granularity (1, 2, 4 cores per island).  Finer islands give the manager
more freedom — per-application power shaping at 1 core/island — and the
1-core case is "the architecture targeted in MaxBIPS", where the paper
found CPM and MaxBIPS close (CPM ~3.75 points better).
"""

from __future__ import annotations

import numpy as np

from ..baselines.maxbips import MaxBIPSScheme
from ..config import DEFAULT_CONFIG
from ..core.cpm import CPMScheme
from ..core.metrics import performance_degradation
from ..runner import RunRequest
from .common import ExperimentResult, Results, experiment, horizon, reference

__all__ = ["CORES_PER_ISLAND", "SCHEMES", "plan", "render", "run"]

CORES_PER_ISLAND = (1, 2, 4)
SCHEMES = (CPMScheme, MaxBIPSScheme)


def plan(seed: int, quick: bool) -> list[RunRequest]:
    """Reference, CPM and MaxBIPS at 80% for each island size (8 cores)."""
    n_gpm = horizon(quick)
    requests = []
    for cpi in CORES_PER_ISLAND:
        config = DEFAULT_CONFIG.with_islands(8, 8 // cpi)
        requests.append(reference(config, seed=seed, n_gpm=n_gpm))
        requests += [RunRequest(config, f, None, 0.8, seed, n_gpm) for f in SCHEMES]
    return requests


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig13",
        description="degradation vs cores/island (8 cores, 80% budget)",
        headers=("cores/island", "CPM degradation", "MaxBIPS degradation"),
    )
    cpm_curve, mb_curve = [], []
    for cpi, reference_result, cpm, maxbips in zip(
        CORES_PER_ISLAND, results[0::3], results[1::3], results[2::3]
    ):
        cpm_deg = performance_degradation(cpm, reference_result)
        mb_deg = performance_degradation(maxbips, reference_result)
        cpm_curve.append(cpm_deg)
        mb_curve.append(mb_deg)
        result.add_row(cpi, cpm_deg, mb_deg)
    result.add_series("CPM vs cores/island", np.asarray(cpm_curve))
    result.add_series("MaxBIPS vs cores/island", np.asarray(mb_curve))
    result.notes.append(
        "paper: degradation grows with island size; 1 core/island is the "
        "MaxBIPS-style architecture where the two schemes are closest"
    )
    return result


run = experiment(plan, render)
