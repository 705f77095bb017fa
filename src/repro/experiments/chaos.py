"""Chaos harness: scheduled faults vs the resilience guards.

Injects each scheduled fault scenario (stuck sensor, transient sensor
dropout, stuck-at-max actuator, missed GPM invocations) into a guarded
and an unguarded CPM run and reports, per fault intensity (duration):

* **budget-violation rate** — fraction of post-onset GPM windows whose
  mean chip power exceeds the budget by more than ``BUDGET_TOLERANCE``
  (window means are the supervisory-timescale basis: even a clean run's
  instantaneous power ripples a few percent over budget at single PIC
  ticks, see fig10).  A crashed run counts as violating everywhere —
  an unguarded NaN dropout takes the whole simulation down;
* **recovery latency** — PIC ticks after the fault clears until the
  faulty run's window power re-converges (within
  ``RECOVERY_TOLERANCE``) to the same-seed clean run and stays there;
* **BIPS degradation** — post-onset throughput loss vs the clean run.

The guards' documented bounds (see ``docs/ROBUSTNESS.md``): detection
within ``stuck_window + failsafe_after`` PIC ticks at the sensor tier,
quarantine within ``strikes_to_quarantine`` GPM windows at the
supervisor tier, restore/re-arm within ``windows_to_restore`` windows /
``rearm_after`` ticks of the fault clearing.

Run via ``repro chaos [--quick] [--out report.json]``.  Its plan is
empty: :func:`render` runs the grid through its own runner call, and
:func:`run_cases` says why.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..cmpsim.simulator import SimulationResult
from ..config import CMPConfig, DEFAULT_CONFIG
from ..core.cpm import CPMScheme
from ..faults import (
    Fault,
    FaultWindow,
    MissedGPMFault,
    ScheduledStuckSensor,
    StuckActuatorFault,
    TransientSensorDropout,
    inject,
)
from ..resilience import GuardedCPMScheme
from ..rng import DEFAULT_SEED
from ..runner import RunFailure, RunRequest, run_many
from .common import ExperimentResult, Results, experiment, no_runs

__all__ = [
    "BUDGET_FRACTION",
    "BUDGET_TOLERANCE",
    "DETECTION_GRACE_WINDOWS",
    "FAULT_ISLAND",
    "RECOVERY_TOLERANCE",
    "SCENARIOS",
    "ChaosOutcome",
    "plan",
    "render",
    "run",
    "run_cases",
]

#: Chip budget for every chaos run; tight enough that the caps bind.
BUDGET_FRACTION = 0.5
#: A window violates when its mean chip power exceeds budget * (1 + this).
BUDGET_TOLERANCE = 0.05
#: Recovered when window power is within this (absolute, fraction of max
#: chip power) of the same-seed clean run.
RECOVERY_TOLERANCE = 0.02
#: The island every island-scoped fault targets.
FAULT_ISLAND = 0
#: GPM windows of detection latency excluded from the violation rate —
#: no controller can act before evidence accrues.  Two windows covers
#: both documented detection bounds (``strikes_to_quarantine`` windows
#: at the supervisor tier, ``stuck_window + failsafe_after`` = 14 PIC
#: ticks at the sensor tier).  Applied to guarded AND unguarded runs so
#: the comparison basis is identical.
DETECTION_GRACE_WINDOWS = 2
#: Stuck-actuator wedge request; the actuator clamps it to the ladder
#: top, the worst case the GPM guard must contain.
_WEDGE_HIGH_GHZ = 99.0

SCENARIOS = ("stuck-sensor", "sensor-dropout", "stuck-actuator", "missed-gpm")


@dataclass(frozen=True)
class ChaosOutcome:
    """Metrics of one (scenario, intensity, guarded?) chaos run."""

    scenario: str
    duration_ticks: int
    guarded: bool
    crashed: bool
    #: Fraction of post-onset GPM windows over budget (1.0 when crashed).
    violation_rate: float
    #: PIC ticks from fault clear to re-convergence with the clean run;
    #: None when the run never re-converges (or crashed).
    recovery_ticks: int | None
    #: Post-onset throughput loss vs the clean run (NaN when crashed).
    bips_degradation: float
    #: Resilience-event counters from the guarded scheme's log.
    guard_counts: Dict[str, int]


def _make_fault(scenario: str, window: FaultWindow) -> Fault:
    if scenario == "stuck-sensor":
        return ScheduledStuckSensor(FAULT_ISLAND, window)
    if scenario == "sensor-dropout":
        return TransientSensorDropout(FAULT_ISLAND, window)
    if scenario == "stuck-actuator":
        return StuckActuatorFault(
            FAULT_ISLAND, window, frequency_ghz=_WEDGE_HIGH_GHZ
        )
    if scenario == "missed-gpm":
        return MissedGPMFault(window)
    raise ValueError(f"unknown chaos scenario {scenario!r}")


def _window_power(result: SimulationResult) -> np.ndarray:
    return np.array(
        [float(w.island_power_frac.sum()) for w in result.telemetry.windows]
    )


def _recovery_ticks(
    faulty: np.ndarray, clean: np.ndarray, end_window: int, pics_per_gpm: int
) -> int | None:
    """PIC ticks after the fault clears until windows track the clean run."""
    n = min(len(faulty), len(clean))
    diff = np.abs(faulty[:n] - clean[:n])
    for w in range(end_window, n):
        if np.all(diff[w:] <= RECOVERY_TOLERANCE):
            return (w - end_window) * pics_per_gpm
    return None


def _chaos_scheme(scenario: str, start: int, end: int, guarded: bool):
    """A fresh (guarded or plain) CPM scheme with one scheduled fault."""
    base = GuardedCPMScheme() if guarded else CPMScheme()
    return inject(base, _make_fault(scenario, FaultWindow(start, end)))


def _outcome(
    config: CMPConfig,
    scenario: str,
    window: FaultWindow,
    guarded: bool,
    result: SimulationResult | None,
    clean: SimulationResult,
    n_gpm: int,
) -> ChaosOutcome:
    """Score one faulty run against the clean run; None is a crash."""
    if result is None:
        return ChaosOutcome(
            scenario=scenario,
            duration_ticks=window.duration,
            guarded=guarded,
            crashed=True,
            violation_rate=1.0,
            recovery_ticks=None,
            bips_degradation=float("nan"),
            guard_counts={},
        )
    pics = config.control.pics_per_gpm
    onset_window = window.start // pics
    end_window = min(-(-window.end // pics), n_gpm)
    wp_faulty = _window_power(result)
    wp_clean = _window_power(clean)
    post = wp_faulty[onset_window + DETECTION_GRACE_WINDOWS :]
    over = ~np.isfinite(post) | (
        post > BUDGET_FRACTION * (1.0 + BUDGET_TOLERANCE)
    )
    onset_tick = onset_window * pics
    bips_faulty = result.telemetry["chip_bips"][onset_tick:]
    bips_clean = clean.telemetry["chip_bips"][onset_tick:]
    return ChaosOutcome(
        scenario=scenario,
        duration_ticks=window.duration,
        guarded=guarded,
        crashed=False,
        violation_rate=float(np.mean(over)) if post.size else 0.0,
        recovery_ticks=_recovery_ticks(wp_faulty, wp_clean, end_window, pics),
        bips_degradation=float(
            1.0 - np.mean(bips_faulty) / np.mean(bips_clean)
        ),
        guard_counts=dict(result.log.counts),
    )


def run_cases(seed: int = DEFAULT_SEED, quick: bool = False) -> List[ChaosOutcome]:
    """Execute the full scenario grid; the data behind :func:`run`.

    The clean run and every faulty run are requests to one
    :func:`~repro.runner.run_many` call with the ``"auto"`` result cache.
    An unguarded dropout is expected to crash, so the call quarantines
    failures: a quarantined request is the crashed outcome, and, as
    failures are not cached, the only run a warm cache re-simulates.
    The grid stays out of :func:`~repro.experiments.common.run_plans`,
    whose sweep raises on the first failure: the expected crash must
    not abort ``repro experiment all``.
    """
    # A small platform keeps the grid fast; the guard dynamics under test
    # are per-island and do not need core count.
    config = DEFAULT_CONFIG.with_islands(4, 2)
    n_gpm = 12 if quick else 25
    onset = 40 if quick else 60
    durations = (40,) if quick else (40, 80)
    cases = [
        (scenario, FaultWindow(onset, onset + duration), guarded)
        for scenario in SCENARIOS
        for duration in durations
        for guarded in (False, True)
    ]
    factories = [CPMScheme] + [
        functools.partial(
            _chaos_scheme, scenario, window.start, window.end, guarded
        )
        for scenario, window, guarded in cases
    ]
    requests = [
        RunRequest(config, factory, None, BUDGET_FRACTION, seed, n_gpm)
        for factory in factories
    ]
    failures: List[RunFailure] = []
    clean, *results = run_many(
        requests, cache_dir="auto", on_error="quarantine", failures=failures
    )
    if clean is None:
        raise RuntimeError(f"chaos: clean run failed: {failures[0].message}")
    return [
        _outcome(config, scenario, window, guarded, result, clean, n_gpm)
        for (scenario, window, guarded), result in zip(cases, results)
    ]


def _fmt_recovery(outcome: ChaosOutcome) -> str:
    if outcome.crashed:
        return "crashed"
    if outcome.recovery_ticks is None:
        return "never"
    return f"{outcome.recovery_ticks} ticks"


def _fmt_events(counts: Dict[str, int]) -> str:
    if not counts:
        return "-"
    interesting = (
        "sensor_fault_detected",
        "failsafe_entered",
        "sensor_rearmed",
        "island_quarantined",
        "island_restored",
    )
    parts = [f"{k}x{counts[k]}" for k in interesting if k in counts]
    return ",".join(parts) if parts else "-"

plan = no_runs


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    outcomes = run_cases(seed=seed, quick=quick)
    notes_extra = []
    if quick:
        notes_extra.append(
            "quick horizon can end before slow re-convergence (e.g. after "
            "a quarantine/restore cycle) — 'never' under --quick means "
            "'not within the shortened horizon'; use full mode to measure "
            "recovery latency"
        )
    result = ExperimentResult(
        experiment="chaos",
        description="scheduled faults: guarded vs unguarded CPM",
        headers=(
            "scenario",
            "fault ticks",
            "scheme",
            "violation rate",
            "recovery",
            "BIPS loss",
            "guard events",
        ),
    )
    for o in outcomes:
        result.add_row(
            o.scenario,
            o.duration_ticks,
            "guarded" if o.guarded else "unguarded",
            f"{o.violation_rate:.0%}" + (" (crash)" if o.crashed else ""),
            _fmt_recovery(o),
            "-" if o.crashed else f"{o.bips_degradation:+.1%}",
            _fmt_events(o.guard_counts),
        )
    result.notes.append(
        f"budget {BUDGET_FRACTION:.0%}; a window violates above "
        f"budget x {1 + BUDGET_TOLERANCE:.2f} (window-mean basis, "
        f"excluding {DETECTION_GRACE_WINDOWS} detection-latency windows "
        "after onset for both schemes); "
        f"recovered = within {RECOVERY_TOLERANCE} of the clean run"
    )
    unguarded_bad = sorted(
        {
            o.scenario
            for o in outcomes
            if not o.guarded and (o.crashed or o.violation_rate > 0.0)
        }
    )
    guarded_bad = sorted(
        {
            o.scenario
            for o in outcomes
            if o.guarded and (o.crashed or o.violation_rate > 0.0)
        }
    )
    result.notes.append(
        "unguarded violations: "
        + (", ".join(unguarded_bad) if unguarded_bad else "none")
    )
    result.notes.append(
        "guarded violations: "
        + (", ".join(guarded_bad) if guarded_bad else "none")
    )
    result.notes.extend(notes_extra)
    return result


run = experiment(plan, render)
