"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``run``        — simulate one power-management scheme and report/export.
* ``calibrate``  — run the offline calibration pipeline and print it.
* ``compare``    — CPM vs MaxBIPS vs no-management at one budget.
* ``sweep``      — one scheme across a range of budgets.
* ``experiment`` — run one (or all) paper experiments by name.
* ``chaos``      — scheduled-fault resilience report (guarded vs not).

Every command runs its simulations through :func:`repro.runner.run_many`
with the ``"auto"`` result cache (``REPRO_CACHE=0`` turns it off).

Examples::

    python -m repro run --budget 0.8 --cores 16 --islands 4 --out results/
    python -m repro calibrate --cores 8 --islands 4
    python -m repro compare --budget 0.8
    python -m repro experiment fig12_perf_degradation
    python -m repro experiment all --quick
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys
from typing import Sequence

import numpy as np

from .baselines.maxbips import MaxBIPSScheme
from .baselines.no_management import NoManagementScheme
from .baselines.static_uniform import StaticUniformScheme
from .config import CMPConfig, DEFAULT_CONFIG
from .core.cpm import CPMScheme
from .core.metrics import performance_degradation
from .gpm import (
    EnergyAwarePolicy,
    PerformanceAwarePolicy,
    ThermalAwarePolicy,
    UniformPolicy,
    VariationAwarePolicy,
)
from .reporting import as_percent, format_series, format_table
from .rng import DEFAULT_SEED
from .runner import RunRequest, run_many, run_one
from . import units

__all__ = [
    "POLICIES",
    "SCHEMES",
    "build_parser",
    "cmd_calibrate",
    "cmd_chaos",
    "cmd_compare",
    "cmd_experiment",
    "cmd_run",
    "cmd_sweep",
    "main",
]

POLICIES = {
    "performance": PerformanceAwarePolicy,
    "thermal": ThermalAwarePolicy,
    "variation": VariationAwarePolicy,
    "energy": EnergyAwarePolicy,
    "uniform": UniformPolicy,
}

SCHEMES = {
    "cpm": CPMScheme,
    "maxbips": MaxBIPSScheme,
    "none": NoManagementScheme,
    "static": StaticUniformScheme,
}


def _build_config(args: argparse.Namespace) -> CMPConfig:
    config = DEFAULT_CONFIG
    if args.cores != config.n_cores or args.islands != config.n_islands:
        config = config.with_islands(args.cores, args.islands)
    return config


def _scheme(args: argparse.Namespace):
    """The scheme spec ``--scheme`` names; ``--policy`` drives cpm's GPM.

    The default policy is CPMScheme's own, so a default run is spelled
    ``CPMScheme`` like in ``compare`` and every experiment plan, and
    shares their cache entries.
    """
    if args.scheme == "cpm" and args.policy != "performance":
        return functools.partial(CPMScheme, policy=POLICIES[args.policy]())
    return SCHEMES[args.scheme]


def _checked(convert, accept, what: str):
    """An argparse type: ``convert``, then reject (exit 2) unless ``accept``."""

    def parse(raw: str):
        value = convert(raw)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{raw} is not {what}")
        return value

    parse.__name__ = convert.__name__
    return parse


_fraction = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_count = _checked(int, lambda v: v >= 0, "a non-negative integer")


def _budget_range(raw: str) -> list[float]:
    """Parse ``start:stop:step`` into budgets, stop included."""
    start, stop, step = map(float, raw.split(":"))
    if not (0.0 < start <= stop <= 1.0 and step > 0.0):
        message = f"{raw}: need 0 < start <= stop <= 1 and step > 0"
        raise argparse.ArgumentTypeError(message)
    return [round(b, 6) for b in np.arange(start, stop + units.EPS, step)]


_budget_range.__name__ = "start:stop:step"  # argparse: "invalid start:stop:step value"


def _jobs_value(raw: str) -> int | None:
    """Parse ``--jobs``: a worker count, or ``all`` for every core."""
    return None if raw == "all" else _count(raw)


def _add_platform_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cores", type=int, default=8, help="core count")
    parser.add_argument("--islands", type=int, default=4, help="island count")
    parser.add_argument("--seed", type=_count, default=DEFAULT_SEED)


def _request(args: argparse.Namespace, scheme_factory, budget: float) -> RunRequest:
    config = _build_config(args)
    return RunRequest(config, scheme_factory, None, budget, args.seed, args.intervals)


def cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    result = run_one(_request(args, _scheme(args), args.budget), cache_dir="auto")

    chip = result.telemetry["chip_power_frac"]
    print(
        format_table(
            ["quantity", "value"],
            [
                ["scheme", result.scheme_name],
                ["mix", result.mix_name],
                ["budget", as_percent(args.budget, 0)],
                ["mean chip power", as_percent(result.mean_chip_power_frac)],
                ["max chip power", as_percent(float(chip.max()))],
                ["throughput (BIPS)", result.mean_chip_bips],
                ["instructions retired", f"{result.total_instructions:.3e}"],
            ],
            title=f"{config.n_cores}-core / {config.n_islands}-island run "
            f"({args.intervals} GPM intervals)",
        )
    )
    print()
    print(format_series({"chip power": chip}, width=64))
    if args.out:
        from .io import save_run

        paths = save_run(result, args.out, stem=f"{result.scheme_name}")
        for kind, path in paths.items():
            print(f"wrote {kind}: {path}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from .core.calibration import (
        HOLDOUT,
        CalibrationPoint,
        calibration_requests,
        fit,
    )

    point = CalibrationPoint.of(_build_config(args), None, args.seed)
    cal = fit(point, run_many(calibration_requests(point), cache_dir="auto"))
    rows = [
        ["system gain a", cal.system_gain],
        ["K_P / K_I / K_D",
         f"{cal.pid_gains.kp:.4f} / {cal.pid_gains.ki:.4f} / {cal.pid_gains.kd:.4f}"],
        ["validation error (holdout)", as_percent(cal.validation_error)],
        ["stability gain limit g", cal.stability_limit],
        ["mean transducer R^2", cal.mean_transducer_r_squared],
    ]
    for name, fit in sorted(cal.per_benchmark_gains.items()):
        marker = " (holdout)" if name == HOLDOUT else ""
        rows.append([f"gain: {name}{marker}", fit.gain])
    print(format_table(["quantity", "value"], rows, title="Calibration"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    schemes = {
        "cpm (performance-aware)": CPMScheme,
        "maxbips": MaxBIPSScheme,
        "static-uniform": StaticUniformScheme,
    }
    reference, *results = run_many(
        [_request(args, NoManagementScheme, 1.0)]
        + [_request(args, factory, args.budget) for factory in schemes.values()],
        cache_dir="auto",
    )
    rows = []
    for name, result in zip(["no-management", *schemes], [reference, *results]):
        lost = performance_degradation(result, reference)
        rows.append([name, as_percent(result.mean_chip_power_frac), as_percent(lost)])
    print(
        format_table(
            ["scheme", "mean chip power", "perf degradation"],
            rows,
            title=f"Scheme comparison @ budget {as_percent(args.budget, 0)}",
        )
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.sweeps import budget_sweep

    config = _build_config(args)
    result = budget_sweep(
        _scheme(args),
        budgets=args.budgets,
        config=config,
        n_gpm_intervals=args.intervals,
        seed=args.seed,
        title=f"{args.scheme} across budgets on "
        f"{config.n_cores}c/{config.n_islands}i",
        jobs=args.jobs,
        cache_dir="auto",
    )
    print(result.as_table())
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import ALL_EXPERIMENTS

    names = ALL_EXPERIMENTS if args.name == "all" else (args.name,)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s) {unknown}; choose from: "
            f"{', '.join(ALL_EXPERIMENTS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    from .experiments.common import run_plans

    modules = [importlib.import_module(f"repro.experiments.{n}") for n in names]
    plans = [module.plan(args.seed, args.quick) for module in modules]
    for module, results in zip(modules, run_plans(plans, jobs=args.jobs)):
        print(module.render(results, args.seed, args.quick).render())
        print()
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .experiments.chaos import run as run_chaos

    result = run_chaos(seed=args.seed, quick=args.quick)
    print(result.render())
    if args.out:
        import json
        import pathlib

        payload = {
            "experiment": result.experiment,
            "description": result.description,
            "headers": list(result.headers),
            "rows": [[str(cell) for cell in row] for row in result.rows],
            "notes": list(result.notes),
        }
        path = pathlib.Path(args.out)
        if path.parent != pathlib.Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote report: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CPM-in-CMPs: coordinated CMP power management (SC 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scheme")
    _add_platform_args(run)
    run.add_argument("--scheme", choices=SCHEMES, default="cpm")
    run.add_argument("--policy", choices=sorted(POLICIES), default="performance")
    run.add_argument("--budget", type=_fraction, default=0.8,
                     help="chip budget, fraction of max power")
    run.add_argument("--intervals", type=_positive_int, default=25,
                     help="GPM intervals to simulate")
    run.add_argument("--out", help="directory for CSV/JSON export")
    run.set_defaults(func=cmd_run)

    cal = sub.add_parser("calibrate", help="run the offline calibration")
    _add_platform_args(cal)
    cal.set_defaults(func=cmd_calibrate)

    cmp_ = sub.add_parser("compare", help="CPM vs baselines at one budget")
    _add_platform_args(cmp_)
    cmp_.add_argument("--budget", type=_fraction, default=0.8)
    cmp_.add_argument("--intervals", type=_positive_int, default=25)
    cmp_.set_defaults(func=cmd_compare)

    swp = sub.add_parser("sweep", help="one scheme across budgets")
    _add_platform_args(swp)
    swp.add_argument("--scheme", choices=SCHEMES, default="cpm")
    swp.add_argument("--policy", choices=sorted(POLICIES), default="performance")
    swp.add_argument("--budgets", type=_budget_range, default="0.75:1.0:0.05",
                     help="start:stop:step budget range")
    swp.add_argument("--intervals", type=_positive_int, default=25)
    swp.add_argument("--jobs", type=_jobs_value, default=1,
                     help="worker processes (a count, or 'all')")
    swp.set_defaults(func=cmd_sweep)

    exp = sub.add_parser("experiment", help="run paper experiments")
    exp.add_argument("name", help="experiment module name, or 'all'")
    exp.add_argument("--quick", action="store_true",
                     help="shortened horizons")
    exp.add_argument("--seed", type=_count, default=DEFAULT_SEED)
    exp.add_argument("--jobs", type=_jobs_value, default=1,
                     help="worker processes (a count, or 'all')")
    exp.set_defaults(func=cmd_experiment)

    chaos = sub.add_parser(
        "chaos", help="scheduled-fault resilience report (guarded vs not)"
    )
    chaos.add_argument("--quick", action="store_true",
                       help="shortened fault grid")
    chaos.add_argument("--seed", type=_count, default=DEFAULT_SEED)
    chaos.add_argument("--out", help="write the report as JSON")
    chaos.set_defaults(func=cmd_chaos)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "cores"):
            try:
                _build_config(args)
            except ValueError as exc:
                parser.error(f"--cores {args.cores} --islands {args.islands}: {exc}")
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
