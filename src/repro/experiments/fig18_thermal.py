"""Figure 18: thermal-aware power provisioning.

The study runs four CPU-bound SPEC applications (mesa, bzip2, gcc,
sixtrack), one per core, on an 8-core CMP with single-core islands
(Figure 18a).  The thermal-aware policy constrains how much of the
budget adjacent islands may hold for consecutive GPM intervals; the
evaluation compares

* (b) its performance degradation against the performance-aware policy,
* (c) the fraction of time the performance-aware policy *would have*
  violated the thermal constraints (per island),

and verifies the thermal-aware run itself never violates and produces no
hotspots.

The paper's exact share caps are lost to OCR; with eight equal islands a
constrained pair naturally holds ~25% of the budget, so the caps here
sit just above the natural shares (pair 26%, single 14.5%, for at most
2/4 consecutive intervals): the performance-aware policy's provisioning
drift crosses them regularly, while a compliant allocation of the full
budget still exists (4 pairs x 26% > 100%).
"""

from __future__ import annotations

import functools

import numpy as np

from .. import units
from ..config import DEFAULT_CONFIG
from ..core.cpm import CPMScheme
from ..core.metrics import performance_degradation
from ..gpm.performance_aware import PerformanceAwarePolicy
from ..gpm.thermal_aware import ThermalAwarePolicy
from ..runner import RunRequest
from ..thermal.hotspot import ThermalConstraints, ViolationTracker
from ..workloads.mixes import thermal_mix
from .common import ExperimentResult, Results, experiment, horizon, reference

__all__ = [
    "BUDGET",
    "CONSTRAINED_PAIRS",
    "PAIR_SHARE_CAP",
    "SINGLE_SHARE_CAP",
    "plan",
    "render",
    "run",
]

#: Cores are constrained in side-by-side pairs (1,2), (3,4), (5,6), (7,8)
#: as in the paper's Figure 18(a) layout.
CONSTRAINED_PAIRS = frozenset((i, i + 1) for i in range(0, 8, 2))
PAIR_SHARE_CAP = 0.26
SINGLE_SHARE_CAP = 0.145
BUDGET = 0.80


def _violation_fractions(result, constraints: ThermalConstraints) -> np.ndarray:
    """Per-island fraction of GPM intervals violating ``constraints``.

    Shares are normalized by the *distributable* budget (chip budget minus
    the uncore share) — the same basis the policies cap against; a policy
    that deliberately leaves budget unspent must not have its shares
    inflated by a smaller denominator.
    """
    tracker = ViolationTracker(
        constraints=constraints, n_islands=result.telemetry.n_islands
    )
    ticks = result.telemetry.gpm_tick_indices()
    setpoints = result.telemetry["island_setpoint_frac"][ticks]
    distributable = result.budget_fraction - result.config.uncore_fraction
    shares = setpoints / max(distributable, units.EPS)
    for row in shares:
        tracker.observe(row)
    return tracker.island_violation_fractions()


def plan(seed: int, quick: bool) -> list[RunRequest]:
    """The reference, then CPM under the performance-aware and the
    thermal-aware policy; 8 single-core islands, thermal mix."""
    config = DEFAULT_CONFIG.with_islands(8, 8)
    mix = thermal_mix()
    n_gpm = horizon(quick)
    policy = ThermalAwarePolicy(
        base=PerformanceAwarePolicy(), pair_share_cap=PAIR_SHARE_CAP,
        single_share_cap=SINGLE_SHARE_CAP, adjacent_pairs=CONSTRAINED_PAIRS,
    )
    thermal = functools.partial(CPMScheme, policy=policy)
    return [reference(config, mix, seed=seed, n_gpm=n_gpm)] + [
        RunRequest(config, factory, mix, BUDGET, seed, n_gpm)
        for factory in (CPMScheme, thermal)
    ]


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    reference_result, perf, thermal = results
    mix = thermal_mix()
    constraints = ThermalConstraints(
        adjacent_pairs=CONSTRAINED_PAIRS,
        pair_share_cap=PAIR_SHARE_CAP,
        single_share_cap=SINGLE_SHARE_CAP,
    )
    perf_violations = _violation_fractions(perf, constraints)
    thermal_violations = _violation_fractions(thermal, constraints)

    result = ExperimentResult(
        experiment="fig18",
        description="thermal-aware vs performance-aware provisioning "
        "(8 single-core islands, mesa/bzip2/gcc/sixtrack x2)",
        headers=("metric", "performance-aware", "thermal-aware"),
    )
    result.add_row(
        "perf degradation vs no-management",
        performance_degradation(perf, reference_result),
        performance_degradation(thermal, reference_result),
    )
    result.add_row(
        "mean chip power", perf.mean_chip_power_frac, thermal.mean_chip_power_frac
    )
    result.add_row(
        "max core temperature (C)",
        float(perf.telemetry["core_temperature_c"].max()),
        float(thermal.telemetry["core_temperature_c"].max()),
    )
    result.add_row(
        "constraint-violating interval fraction (any island)",
        float(perf_violations.max()),
        float(thermal_violations.max()),
    )
    apps = [names[0] for names in mix.islands]
    for i, app in enumerate(apps):
        result.add_row(
            f"violation fraction core {i + 1} ({app})",
            float(perf_violations[i]),
            float(thermal_violations[i]),
        )
    result.notes.append(
        "paper: the thermal-aware policy never violates (no hotspots) and "
        "costs more performance than the performance-aware policy, which "
        "violates the constraints part of the time"
    )
    return result


run = experiment(plan, render)
