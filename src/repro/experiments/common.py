"""Shared infrastructure for the experiment modules.

Keeps experiments terse: a result container with a uniform renderer, the
standard run lengths, the unmanaged :func:`reference` run a plan pairs
its runs against, and :func:`run_plans`, which runs any number of plans
through one :func:`~repro.runner.run_many` call with the on-disk result
cache (set ``REPRO_CACHE=0`` to turn the cache off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..baselines.no_management import NoManagementScheme
from ..cmpsim.simulator import SimulationResult
from ..config import CMPConfig
from ..reporting import format_series, format_table
from ..rng import DEFAULT_SEED
from ..runner import RunRequest, run_many
from ..workloads.mixes import Mix

__all__ = [
    "ExperimentResult",
    "FULL_HORIZON",
    "QUICK_HORIZON",
    "Results",
    "WARMUP_INTERVALS",
    "experiment",
    "horizon",
    "no_runs",
    "reference",
    "run_plans",
]

#: Default GPM horizons: full runs for the benchmark harness, quick runs
#: for smoke tests.
FULL_HORIZON = 25
QUICK_HORIZON = 6

#: Intervals skipped before computing steady metrics (controller start-up).
WARMUP_INTERVALS = 20


@dataclass(frozen=True)
class ExperimentResult:
    """Uniform output of one experiment run.

    Frozen: the identity of a result (which experiment, what headers) is
    fixed at construction; ``add_row``/``add_series`` grow the *contents*
    of the held containers, which freezing deliberately still allows.
    """

    experiment: str
    description: str
    headers: Sequence[str] = ()
    rows: List[Sequence] = field(default_factory=list)
    series: Dict[str, np.ndarray] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        self.rows.append(list(cells))

    def add_series(self, name: str, values) -> None:
        self.series[name] = np.asarray(values, dtype=float)

    def render(self, width: int = 60) -> str:
        parts = [f"== {self.experiment} — {self.description} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        if self.series:
            parts.append(format_series(self.series, width=width))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)


def horizon(quick: bool) -> int:
    return QUICK_HORIZON if quick else FULL_HORIZON


#: What a plan's runs come back as: one result per request, in order.
Results = List[SimulationResult]
_Plan = Callable[[int, bool], List[RunRequest]]
_Render = Callable[[Results, int, bool], ExperimentResult]


def reference(
    config: CMPConfig, mix: Mix | None = None, *, seed: int, n_gpm: int
) -> RunRequest:
    """The unmanaged run (every core at f_max) a degradation is against."""
    return RunRequest(config, NoManagementScheme, mix, 1.0, seed, n_gpm)


def no_runs(seed: int, quick: bool) -> List[RunRequest]:
    """An empty plan: nothing for the runner (the module docstring says why)."""
    return []


def run_plans(
    plans: Sequence[Sequence[RunRequest]], jobs: int | None = 1
) -> List[Results]:
    """Execute several plans as one :func:`~repro.runner.run_many` call on
    ``jobs`` workers with the ``"auto"`` result cache; return each plan's
    results.  A request several plans declare is simulated once."""
    flat = [r for plan in plans for r in plan]
    results = iter(run_many(flat, jobs=jobs, cache_dir="auto"))
    return [[next(results) for _ in plan] for plan in plans]


def experiment(plan: _Plan, render: _Render) -> Callable[..., ExperimentResult]:
    """The ``run(seed=, quick=, jobs=)`` entry point of a plan and its
    renderer: run the plan through :func:`run_plans`, then render."""

    def run(
        seed: int = DEFAULT_SEED, quick: bool = False, jobs: int | None = 1
    ) -> ExperimentResult:
        (results,) = run_plans([plan(seed, quick)], jobs=jobs)
        return render(results, seed, quick)

    return run
