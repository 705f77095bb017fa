"""Experiment harness: one module per table/figure of the paper.

Every module declares its runs and renders their results in two steps:
``plan(seed, quick)`` returns its runs as ``RunRequest`` objects
(unmanaged references and calibration excitation runs included; an
empty plan's module docstring says why), and ``render(results, seed,
quick)`` builds the :class:`ExperimentResult` from their results, in
plan order.  ``run = common.experiment(plan, render)`` gives
``run(seed=, quick=, jobs=)``.  ``repro experiment NAME|all``
concatenates the plans into one :func:`~repro.runner.run_many` call, so
a run several figures share is simulated once, then renders in
``ALL_EXPERIMENTS`` order.  Figs. 4–6 plan the default platform's
calibration runs and render from their memoized fit
(:func:`~repro.core.calibration.fit_once`).  Chaos declares no plan: its
renderer sends its fault grid through a ``run_many`` call of its own
that quarantines the expected crash
(:func:`repro.experiments.chaos.run_cases`).  DESIGN.md maps each module
to its figure; EXPERIMENTS.md records paper-vs-measured values.
``quick=True`` shrinks horizons for CI-speed smoke runs.
"""

from .common import ExperimentResult

__all__ = ["ALL_EXPERIMENTS", "ExperimentResult"]

#: Module names of every experiment, in paper order.  Used by the test
#: suite and the ``benchmarks/`` harness to enumerate coverage.
ALL_EXPERIMENTS = (
    "fig04_controller_design",
    "fig05_model_validation",
    "fig06_power_utilization",
    "fig07_provisioning",
    "fig08_island_tracking",
    "fig09_pic_tracking",
    "fig10_chip_tracking",
    "fig11_budget_curves",
    "fig12_perf_degradation",
    "fig13_island_size",
    "fig14_perf_time",
    "fig15_scalability",
    "fig16_mix_sensitivity",
    "fig17_interval_sensitivity",
    "fig18_thermal",
    "fig19_variation",
    "tables",
    "chaos",
)
