"""Declarative parameter sweeps over the simulator.

Most of the paper's figures are sweeps: run a scheme across budgets,
always against the paired no-management reference.  This module
centralizes that pattern so the CLI and user notebooks share one
implementation; a sweep runs its reference in the same
:func:`~repro.runner.run_many` call as its points.  (Several schemes at
one budget is ``repro compare``.)

Example::

    from repro.analysis import budget_sweep
    from repro.core.cpm import CPMScheme

    result = budget_sweep(CPMScheme, budgets=[0.75, 0.8, 0.85, 0.9])
    print(result.as_table())
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

from ..cmpsim.simulator import PowerScheme, SimulationResult
from ..config import CMPConfig, DEFAULT_CONFIG
from ..baselines.no_management import NoManagementScheme
from ..core.metrics import performance_degradation
from ..reporting import format_table
from ..rng import DEFAULT_SEED
from ..runner import RunRequest, run_many
from ..workloads.mixes import Mix

__all__ = [
    "SchemeFactory",
    "SweepPoint",
    "SweepResult",
    "budget_sweep",
]

#: A factory is required (not an instance) because schemes are stateful:
#: every sweep point needs a fresh one.  It is a scheme spec (a class, a
#: function or a ``functools.partial``; see :class:`~repro.runner.RunRequest`).
SchemeFactory = Callable[[], PowerScheme]


@dataclass(frozen=True)
class SweepPoint:
    """One simulated point of a sweep."""

    label: str
    budget_fraction: float
    result: SimulationResult
    degradation: float

    @property
    def mean_power(self) -> float:
        return self.result.mean_chip_power_frac

    @property
    def max_power(self) -> float:
        return float(self.result.telemetry["chip_power_frac"].max())


@dataclass(frozen=True)
class SweepResult:
    """All points of a sweep plus rendering helpers."""

    title: str
    points: List[SweepPoint] = field(default_factory=list)

    def as_table(self) -> str:
        rows = [
            [
                p.label,
                p.budget_fraction,
                p.mean_power,
                p.max_power,
                p.degradation,
            ]
            for p in self.points
        ]
        return format_table(
            ["point", "budget", "mean power", "max power", "degradation"],
            rows,
            title=self.title,
        )


def budget_sweep(
    scheme_factory: SchemeFactory,
    budgets: Sequence[float],
    config: CMPConfig = DEFAULT_CONFIG,
    mix: Mix | None = None,
    n_gpm_intervals: int = 25,
    seed: int = DEFAULT_SEED,
    title: str = "budget sweep",
    jobs: int | None = 1,
    cache_dir: str | pathlib.Path | None = None,
) -> SweepResult:
    """One scheme across several budgets, paired against no-management.

    The reference runs the same platform, mix, seed and horizon at a
    100% budget.  The points are independent runs;
    ``jobs``/``cache_dir`` forward to :func:`repro.runner.run_many`
    (results are ordered and identical across ``jobs`` settings).
    """
    if not budgets:
        raise ValueError("need at least one budget")
    requests = [
        RunRequest(config, scheme_factory, mix, budget, seed, n_gpm_intervals)
        for budget in budgets
    ]
    reference_request = RunRequest(
        config, NoManagementScheme, mix, 1.0, seed, n_gpm_intervals
    )
    reference, *results = run_many(
        [reference_request, *requests], jobs=jobs, cache_dir=cache_dir
    )
    points = [
        SweepPoint(
            label=f"budget {budget:.2f}",
            budget_fraction=request.budget_fraction,
            result=result,
            degradation=performance_degradation(result, reference),
        )
        for budget, request, result in zip(budgets, requests, results)
    ]
    return SweepResult(title=title, points=points)
