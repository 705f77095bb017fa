"""Declarative parameter sweeps over the simulator.

Most of the paper's figures are sweeps: run a scheme across budgets, or
several schemes at one budget, always against the paired no-management
reference.  This module centralizes that pattern so the CLI and user
notebooks share one implementation; each sweep runs its reference in
the same :func:`~repro.runner.run_many` call as its points.

Example::

    from repro.analysis import budget_sweep
    from repro.core.cpm import CPMScheme

    result = budget_sweep(CPMScheme, budgets=[0.75, 0.8, 0.85, 0.9])
    print(result.as_table())
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

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
    "scheme_sweep",
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

    def degradations(self) -> np.ndarray:
        return np.array([p.degradation for p in self.points])

    def mean_powers(self) -> np.ndarray:
        return np.array([p.mean_power for p in self.points])


def _sweep(
    title: str,
    labels: Sequence[str],
    requests: Sequence[RunRequest],
    jobs: int | None,
    cache_dir: str | pathlib.Path | None,
) -> SweepResult:
    """Run ``requests`` and their no-management reference (the first
    request's platform, mix, seed and horizon at a 100% budget) in one
    :func:`~repro.runner.run_many` call."""
    reference_request = dataclasses.replace(
        requests[0], scheme_factory=NoManagementScheme, budget_fraction=1.0
    )
    reference, *results = run_many(
        [reference_request, *requests], jobs=jobs, cache_dir=cache_dir
    )
    points = [
        SweepPoint(
            label=label,
            budget_fraction=request.budget_fraction,
            result=result,
            degradation=performance_degradation(result, reference),
        )
        for label, request, result in zip(labels, requests, results)
    ]
    return SweepResult(title=title, points=points)


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

    The points are independent runs; ``jobs``/``cache_dir`` forward to
    :func:`repro.runner.run_many` (results are ordered and identical
    across ``jobs`` settings).
    """
    if not budgets:
        raise ValueError("need at least one budget")
    requests = [
        RunRequest(config, scheme_factory, mix, budget, seed, n_gpm_intervals)
        for budget in budgets
    ]
    labels = [f"budget {budget:.2f}" for budget in budgets]
    return _sweep(title, labels, requests, jobs, cache_dir)


def scheme_sweep(
    scheme_factories: dict[str, SchemeFactory],
    budget: float,
    config: CMPConfig = DEFAULT_CONFIG,
    mix: Mix | None = None,
    n_gpm_intervals: int = 25,
    seed: int = DEFAULT_SEED,
    title: str | None = None,
    jobs: int | None = 1,
    cache_dir: str | pathlib.Path | None = None,
) -> SweepResult:
    """Several schemes at one budget, paired against no-management.

    ``jobs``/``cache_dir`` forward to :func:`repro.runner.run_many`.
    """
    if not scheme_factories:
        raise ValueError("need at least one scheme")
    requests = [
        RunRequest(config, factory, mix, budget, seed, n_gpm_intervals)
        for factory in scheme_factories.values()
    ]
    title = title or f"schemes @ budget {budget:.2f}"
    return _sweep(title, list(scheme_factories), requests, jobs, cache_dir)
