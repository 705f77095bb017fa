"""Figure 17: sensitivity to the GPM/PIC invocation intervals.

Compares the default cadence (GPM 5 ms, PIC 0.5 ms) against a degenerate
one where the PIC runs only as often as the GPM (5 ms, 5 ms), across
island sizes of 1, 2 and 4 cores per island.  With one PIC shot per GPM
window, the capping tier cannot settle onto the set-point, so budgets
must effectively be met open-loop — more degradation, exactly the
paper's argument for the two-rate design.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..config import DEFAULT_CONFIG, ControlConfig
from ..core.cpm import CPMScheme
from ..core.metrics import performance_degradation
from ..runner import RunRequest
from ..units import ms
from .common import ExperimentResult, Results, experiment, horizon, reference

__all__ = ["CADENCES", "CORES_PER_ISLAND", "plan", "render", "run"]

CADENCES = (
    ("(5ms, 0.5ms)", ms(5), ms(0.5)),
    ("(5ms, 5ms)", ms(5), ms(5)),
)
CORES_PER_ISLAND = (1, 2, 4)


def plan(seed: int, quick: bool) -> list[RunRequest]:
    """The reference and CPM at 80% for every (island size, cadence)."""
    n_gpm = horizon(quick)
    requests = []
    for cpi in (2,) if quick else CORES_PER_ISLAND:
        base = DEFAULT_CONFIG.with_islands(8, 8 // cpi)
        for _, gpm_s, pic_s in CADENCES:
            control = ControlConfig(
                gpm_interval_s=gpm_s,
                pic_interval_s=pic_s,
                desired_poles=base.control.desired_poles,
            )
            config = dataclasses.replace(base, control=control)
            requests.append(reference(config, seed=seed, n_gpm=n_gpm))
            requests.append(RunRequest(config, CPMScheme, None, 0.8, seed, n_gpm))
    return requests


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig17",
        description="degradation and tracking vs (GPM, PIC) intervals, 80% budget",
        headers=(
            "cores/island",
            "(GPM, PIC)",
            "degradation",
            "mean |power-budget| / budget",
            "time above budget +2%",
            "worst budget overshoot",
        ),
    )
    label = {(gpm_s, pic_s): name for name, gpm_s, pic_s in CADENCES}
    for reference_result, res in zip(results[0::2], results[1::2]):
        control = res.config.control
        deg = performance_degradation(res, reference_result)
        chip = res.telemetry["chip_power_frac"]
        skip = max(2, chip.size // 4)
        rel = chip[skip:] / res.budget_fraction
        result.add_row(
            res.config.cores_per_island,
            label[control.gpm_interval_s, control.pic_interval_s],
            deg,
            float(np.mean(np.abs(rel - 1.0))),
            float(np.mean(rel > 1.02)),
            float(max(rel.max() - 1.0, 0.0)),
        )
    result.notes.append(
        "paper: the (5ms, 0.5ms) cadence degrades less thanks to more "
        "accurate within-window capping; too-small intervals would raise "
        "controller overhead instead"
    )
    result.notes.append(
        "in this substrate the coarse PIC's within-window budget "
        "overshoots go uncorrected and convert into throughput, so its "
        "degradation can read lower — the compliance columns show what "
        "that costs: the fine cadence is what actually keeps the chip "
        "under the budget"
    )
    return result


run = experiment(plan, render)
