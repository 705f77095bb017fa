"""The benchmark's workloads: inputs from a seed, set-up, timed pass, checks.

Each workload class turns the benchmark seed into the requests the
program receives, does its set-up (everything before the first timed
operation), runs one timed pass at a time, and checks each pass's
outputs outside the timed region.  See ``README.md`` for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import os
import pickle
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import benchstats

__all__ = ["PassResult", "WORKLOADS", "Workload", "model_probe"]

#: Platform shapes of the per-tick workload: (cores, islands).
STEADY_SHAPES = {"8c4i": (8, 4), "32c8i": (32, 8), "64c16i": (64, 16)}
#: GPM windows per steady_tick run (4x the paper's 25-window horizon).
STEADY_WINDOWS = 100
STEADY_BUDGET = 0.8
#: Budgets of the paper-style sweep (Figs. 11-16 use this range).
SWEEP_BUDGETS = (0.7, 0.8, 0.9)
#: PIC ticks per GPM window on the default platform.
PICS_PER_GPM = 10


@dataclass
class PassResult:
    """One timed pass: its host time and what it delivered."""

    seconds: float
    ticks: int = 0
    files: int = 0
    #: Simulation results (or the lint report) the pass produced.
    outputs: list = field(default_factory=list)
    #: Host seconds of each simulated run, keyed by run label.
    run_seconds: dict[str, float] = field(default_factory=dict)


class Workload:
    """Defaults for the hooks a workload may leave out."""

    name: str
    #: Module whose import the workload's process times first.
    imports = "repro"
    #: Whether the timed passes start pool workers (counted in RSS).
    pool_in_passes = False
    #: Simulated PIC ticks per run (0 for a workload that simulates none).
    ticks_per_run = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self, timings: dict) -> None:
        """Everything before the first timed operation."""

    def sim_metrics(self, result: PassResult) -> tuple[float, float] | None:
        return sim_summary(result.outputs)

    def finish(self) -> tuple[int, list[str]]:
        """Checks after the timed passes: (operations attempted, failures)."""
        return 0, []

    def requests_per_pass(self) -> int:
        return 0

    def trace_targets(self) -> list[tuple[object, str, str]]:
        return _sim_trace_targets()

    def trace_extras(self, result: PassResult) -> dict:
        return {}

    def cleanup(self) -> None:
        pass


def _rng(seed: int, role: str) -> random.Random:
    return random.Random(f"perfbench/{role}/{seed}")


def _run_seed(seed: int, role: str) -> int:
    return _rng(seed, role).randrange(1, 2**31)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_over_budget_pct(result) -> float:
    """Largest GPM-window mean chip power as a percentage of the budget.

    100 means the worst window sat exactly on the budget; the excess
    over 100 is the overshoot.
    """
    power = result.telemetry["chip_power_frac"]
    n = len(power) // PICS_PER_GPM
    windows = power[: n * PICS_PER_GPM].reshape(n, PICS_PER_GPM).mean(axis=1)
    return float(windows.max() / result.budget_fraction * 100.0)


def sim_summary(results) -> tuple[float, float]:
    """(mean chip BIPS, mean peak-window power % of budget) over the
    plain CPM runs in ``results``."""
    cpm = [r for r in results if r.scheme_name == "cpm"]
    bips = sum(r.mean_chip_bips for r in cpm) / len(cpm)
    peak = sum(peak_over_budget_pct(r) for r in cpm) / len(cpm)
    return bips, peak


def _sim_trace_targets() -> list[tuple[object, str, str]]:
    from repro import runner
    from repro.baselines.maxbips import MaxBIPSScheme
    from repro.baselines.no_management import NoManagementScheme
    from repro.cmpsim.chip import Chip
    from repro.cmpsim.simulator import Simulation
    from repro.cmpsim.telemetry import Telemetry
    from repro.core import calibration
    from repro.core.cpm import CPMScheme
    from repro.faults import FaultySchemeWrapper
    from repro.pic.controller import PerIslandController
    from repro.pic.guard import GuardedPerIslandController
    from repro.resilience import GuardedCPMScheme
    from repro.workloads.benchmark import BenchmarkInstance

    return [
        (Simulation, "__init__", "sim.init"),
        (Simulation, "run", "sim.run"),
        (Chip, "compute_interval", "chip.compute_interval"),
        (Telemetry, "record", "telemetry.record"),
        (BenchmarkInstance, "advance_block", "workloads.advance_block"),
        (calibration, "calibrate", "calibration.calibrate"),
        (CPMScheme, "bind", "scheme.bind"),
        (GuardedCPMScheme, "bind", "scheme.bind"),
        (MaxBIPSScheme, "bind", "scheme.bind"),
        (NoManagementScheme, "bind", "scheme.bind"),
        (FaultySchemeWrapper, "bind", "scheme.bind"),
        (CPMScheme, "on_gpm", "cpm.on_gpm"),
        (CPMScheme, "on_pic", "cpm.on_pic"),
        (PerIslandController, "invoke", "pic.invoke"),
        (GuardedCPMScheme, "on_gpm", "guard.on_gpm"),
        (GuardedCPMScheme, "on_pic", "guard.on_pic"),
        (GuardedPerIslandController, "invoke", "guard.invoke"),
        (MaxBIPSScheme, "on_gpm", "maxbips.on_gpm"),
        (runner, "cache_key", "runner.cache_key"),
        (runner, "run_one", "runner.run_one"),
        (runner, "run_many", "runner.run_many"),
    ]


# ----------------------------------------------------------------------
# steady_tick
# ----------------------------------------------------------------------
class SteadyTick(Workload):
    """Long-horizon serial CPM runs at three shapes plus one guarded run
    under a transient sensor dropout; no result cache."""

    name = "steady_tick"
    ticks_per_run = STEADY_WINDOWS * PICS_PER_GPM

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.config import DEFAULT_CONFIG
        from repro.faults import FaultWindow, TransientSensorDropout

        super().__init__(seed, workdir)
        rng = _rng(seed, "steady_tick")
        self.runs = []  # (label, config, run seed, fault or None)
        for label, (cores, islands) in STEADY_SHAPES.items():
            config = DEFAULT_CONFIG.with_islands(cores, islands)
            self.runs.append((label, config, _run_seed(seed, label), None))
        # The guarded run shares the plain 32c8i run's seed (and so its
        # calibration); the dropout hits one island for one GPM window.
        _, config32, seed32, _ = self.runs[1]
        start = rng.randrange(10, STEADY_WINDOWS - 10) * PICS_PER_GPM
        fault = TransientSensorDropout(
            island=rng.randrange(config32.n_islands),
            window=FaultWindow(start, start + PICS_PER_GPM),
        )
        self.runs.append(("guarded_32c8i", config32, seed32, fault))
        self.schemes: list = []
        self.first_digests: list[str] | None = None

    def _scheme(self, fault):
        from repro.core.cpm import CPMScheme
        from repro.faults import inject
        from repro.resilience import GuardedCPMScheme

        if fault is None:
            return CPMScheme()
        return inject(GuardedCPMScheme(), fault)

    def setup(self, timings: dict) -> None:
        t0 = time.perf_counter()
        import scipy.signal  # noqa: F401 - the workload model's lazy import

        timings["imports.scipy_signal_s"] = time.perf_counter() - t0
        from repro.cmpsim.simulator import Simulation
        from repro.core.calibration import default_calibration

        for _, config, run_seed, fault in self.runs:
            default_calibration(config, seed=run_seed)
            # Warm-up: a short run of the same scheme and shape.
            Simulation(
                config, self._scheme(fault), budget_fraction=STEADY_BUDGET,
                seed=run_seed,
            ).run(2)

    def run_pass(self) -> PassResult:
        from repro.cmpsim.simulator import Simulation

        outputs, run_seconds, schemes = [], {}, []
        t_pass = time.perf_counter()
        for label, config, run_seed, fault in self.runs:
            t0 = time.perf_counter()
            scheme = self._scheme(fault)
            sim = Simulation(
                config, scheme, budget_fraction=STEADY_BUDGET, seed=run_seed
            )
            outputs.append(sim.run(STEADY_WINDOWS))
            run_seconds[label] = time.perf_counter() - t0
            schemes.append(scheme)
        seconds = time.perf_counter() - t_pass
        self.schemes = schemes
        return PassResult(
            seconds=seconds,
            ticks=self.ticks_per_run * len(self.runs),
            files=len(self.runs),
            outputs=outputs,
            run_seconds=run_seconds,
        )

    def check_pass(self, result: PassResult) -> list[str]:
        problems = []
        for (label, *_), output in zip(self.runs, result.outputs):
            if not benchstats.is_finite_result(output, self.ticks_per_run):
                problems.append(f"{label}: telemetry not finite or wrong length")
        digests = [benchstats.result_digest(r) for r in result.outputs]
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            problems.append("telemetry digests changed between passes")
        log = self.schemes[-1].log
        for kind in ("sensor_fault_detected", "failsafe_entered"):
            if log.count_of(kind) < 1:
                problems.append(f"guarded run logged no {kind}")
        return problems

    def trace_extras(self, result: PassResult) -> dict:
        sizes = [len(pickle.dumps(r)) for r in result.outputs]
        return {
            "telemetry.entry_kb": sum(sizes) / len(sizes) / 1024,
            "guard.events": len(self.schemes[-1].log.events),
        }


# ----------------------------------------------------------------------
# sweep_cold / replay_warm
# ----------------------------------------------------------------------
def sweep_requests(seed: int) -> list:
    """The paper-style sweep: 4 platform/mix points x 3 budgets x
    {cpm, maxbips, none} at the paper horizon, one run seed per point."""
    from repro.baselines.maxbips import MaxBIPSScheme
    from repro.baselines.no_management import NoManagementScheme
    from repro.config import DEFAULT_CONFIG
    from repro.core.cpm import CPMScheme
    from repro.experiments.common import FULL_HORIZON
    from repro.runner import RunRequest
    from repro.workloads.mixes import MIX1, MIX2

    points = [
        ("8c4i-mix1", DEFAULT_CONFIG, MIX1),
        ("8c4i-mix2", DEFAULT_CONFIG, MIX2),
        ("16c4i", DEFAULT_CONFIG.with_islands(16, 4), None),
        ("32c8i", DEFAULT_CONFIG.with_islands(32, 8), None),
    ]
    return [
        RunRequest(
            config=config,
            scheme_factory=factory,
            mix=mix,
            budget_fraction=budget,
            seed=_run_seed(seed, label),
            n_gpm_intervals=FULL_HORIZON,
        )
        for label, config, mix in points
        for budget in SWEEP_BUDGETS
        for factory in (CPMScheme, MaxBIPSScheme, NoManagementScheme)
    ]


def _read_summaries(results) -> None:
    """What a sweep's caller does with each result: read its summary."""
    for result in results:
        result.mean_chip_bips  # noqa: B018 - the read is the point
        result.mean_chip_power_frac  # noqa: B018


def _cache_files(directory: Path) -> dict[str, int]:
    return {
        str(p): p.stat().st_mtime_ns for p in sorted(directory.rglob("*.pkl"))
    }


class _SweepBase(Workload):
    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.requests = sweep_requests(seed)
        self.jobs = _nproc()
        self.ticks_per_run = self.requests[0].n_gpm_intervals * PICS_PER_GPM
        self.entry_kb = 0.0

    def requests_per_pass(self) -> int:
        return len(self.requests)

    def trace_extras(self, result: PassResult) -> dict:
        return {"telemetry.entry_kb": self.entry_kb}

    def _timed_sweep(self, cache_dir: Path) -> PassResult:
        from repro import runner

        t0 = time.perf_counter()
        results = runner.run_many(self.requests, jobs=self.jobs, cache_dir=cache_dir)
        _read_summaries(results)
        seconds = time.perf_counter() - t0
        return PassResult(
            seconds=seconds,
            ticks=self.ticks_per_run * len(results),
            files=len(results),
            outputs=results,
        )

    def _finite_problems(self, result: PassResult) -> list[str]:
        return [
            f"request {i}: telemetry not finite or wrong length"
            for i, r in enumerate(result.outputs)
            if not benchstats.is_finite_result(r, self.ticks_per_run)
        ]

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class SweepCold(_SweepBase):
    """The sweep through a process pool into a fresh, empty cache each
    pass; the parent never calibrates or imports scipy first."""

    name = "sweep_cold"
    pool_in_passes = True

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.first_digests: list[str] | None = None
        self.passes = 0

    def setup(self, timings: dict) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def run_pass(self) -> PassResult:
        if "scipy.signal" in sys.modules:
            raise RuntimeError("sweep_cold parent imported scipy before a pass")
        self.passes += 1
        cache_dir = self.workdir / f"cache-{self.passes}"
        result = self._timed_sweep(cache_dir)
        sizes = [p.stat().st_size for p in cache_dir.rglob("*.pkl")]
        self.entry_kb = sum(sizes) / max(1, len(sizes)) / 1024
        shutil.rmtree(cache_dir)
        return result

    def check_pass(self, result: PassResult) -> list[str]:
        problems = self._finite_problems(result)
        digests = [benchstats.result_digest(r) for r in result.outputs]
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            problems.append("telemetry digests changed between passes")
        return problems

    def finish(self) -> tuple[int, list[str]]:
        """Recompute one sampled request serially in this process."""
        from repro import runner

        index = _rng(self.seed, "sweep_cold/sample").randrange(len(self.requests))
        serial = runner.run_one(self.requests[index], cache_dir=None)
        if benchstats.result_digest(serial) != self.first_digests[index]:
            return 1, [f"request {index}: serial result differs from pooled"]
        return 1, []


class ReplayWarm(_SweepBase):
    """The sweep's requests again, served from a cache set-up filled."""

    name = "replay_warm"
    pool_in_passes = False

    def setup(self, timings: dict) -> None:
        from repro import runner

        self.cache_dir = self.workdir / "cache"
        stored = runner.run_many(
            self.requests, jobs=self.jobs, cache_dir=self.cache_dir
        )
        self.stored_digests = [benchstats.result_digest(r) for r in stored]
        self.stored_files = _cache_files(self.cache_dir)
        sizes = [p.stat().st_size for p in self.cache_dir.rglob("*.pkl")]
        self.entry_kb = sum(sizes) / len(sizes) / 1024

    def run_pass(self) -> PassResult:
        return self._timed_sweep(self.cache_dir)

    def check_pass(self, result: PassResult) -> list[str]:
        problems = self._finite_problems(result)
        digests = [benchstats.result_digest(r) for r in result.outputs]
        problems += [
            f"request {i}: cache served a different result"
            for i, (got, want) in enumerate(zip(digests, self.stored_digests))
            if got != want
        ]
        if _cache_files(self.cache_dir) != self.stored_files:
            problems.append("a replay pass wrote to the cache (not all hits)")
        return problems


# ----------------------------------------------------------------------
# lint_tree
# ----------------------------------------------------------------------
class LintTree(Workload):
    """All three lint analyses over ``src/`` with a cold parse cache."""

    name = "lint_tree"
    imports = "repro.lintkit"

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.lintkit.engine import iter_python_files

        super().__init__(seed, workdir)
        # The seed only orders the file list; the report must not depend
        # on it (the check below compares every pass with the first).
        self.files = iter_python_files(["src"])
        _rng(seed, "lint_tree").shuffle(self.files)
        self.first_report: dict | None = None
        self.findings = 0

    def run_pass(self) -> PassResult:
        from repro.lintkit import engine

        engine.clear_module_cache()
        t0 = time.perf_counter()
        report = engine.lint_paths(self.files)
        seconds = time.perf_counter() - t0
        return PassResult(seconds=seconds, files=len(self.files), outputs=[report])

    def check_pass(self, result: PassResult) -> list[str]:
        report = result.outputs[0]
        as_dict = report.as_dict()
        self.findings = len(report.raw_findings)
        problems = []
        if report.files_checked != len(self.files):
            problems.append(
                f"linted {report.files_checked} of {len(self.files)} files"
            )
        if self.first_report is None:
            self.first_report = as_dict
        elif as_dict != self.first_report:
            problems.append("lint findings changed between passes")
        return problems

    def sim_metrics(self, result: PassResult) -> None:
        return None  # see model_probe

    def trace_targets(self):
        from repro.lintkit import engine
        from repro.lintkit.dimensions import DimensionAnalysis
        from repro.lintkit.effects import EffectAnalysis
        from repro.lintkit.rules import all_rules

        targets = [
            (engine, "lint_paths", "lint.lint_paths"),
            (engine, "load_module", "lint.load_module"),
            (DimensionAnalysis, "run", "lint.dimensions"),
            (EffectAnalysis, "run", "lint.effects"),
        ]
        owners = []
        for rule in all_rules():
            owner = next(k for k in type(rule).__mro__ if "check" in k.__dict__)
            if owner not in owners:
                owners.append(owner)
                targets.append((owner, "check", "lint.rule_check"))
        return targets

    def trace_extras(self, result: PassResult) -> dict:
        return {"lint.findings": self.findings}


WORKLOADS = {
    cls.name: cls for cls in (SteadyTick, SweepCold, ReplayWarm, LintTree)
}


def model_probe(seed: int) -> tuple[float, float]:
    """The simulated metrics for a workload that simulates nothing: the
    sweep's 12 CPM requests for the seed, run serially; exact for a seed
    and equal to ``sweep_cold``'s."""
    from repro.core.cpm import CPMScheme
    from repro.runner import run_one

    cpm = [r for r in sweep_requests(seed) if r.scheme_factory is CPMScheme]
    return sim_summary([run_one(request) for request in cpm])
