"""Offline calibration: system identification, transducer fits, PID design.

This module re-runs the paper's Section II methodology rather than
hard-coding its constants:

1. **Excitation** — every PARSEC benchmark except a held-out validation
   benchmark (bodytrack, "randomly chosen") runs homogeneously on the
   target platform while a white-noise scheme jitters each island's
   frequency (:class:`WhiteNoiseDVFSScheme`).
   Each excitation run is a :class:`~repro.runner.RunRequest`
   (:func:`calibration_requests`), so a sweep runs, deduplicates and
   caches it like any other run.
2. **Identification** — per run, the difference relation
   ``P(t+1) - P(t) = a · (f(t+1) - f(t))`` (Equation 8) is fit by
   through-origin regression; the per-benchmark gains are averaged into
   the design gain ``a``.
3. **Validation** — the averaged model predicts the held-out benchmark's
   power one step ahead; Figure 5 expects this error to be small.
4. **Transducers** — the same runs provide (utilization, power) samples
   per island for the Figure 6 linear fits; per-island transducers are
   additionally fit on the *target mix* so each PIC senses through a line
   matched to its co-scheduled applications.
5. **Controller design** — pole placement puts the closed-loop poles at
   the configured locations, and the stability margin over the gain
   multiplier ``g`` is computed (Equations 12–13).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from ..cmpsim.simulator import Fleet, Simulation
from ..config import CMPConfig
from ..control.identification import GainFit, fit_system_gain, prediction_error
from ..control.pid import PIDGains
from ..control.pole_placement import design_pid, stability_gain_limit
from ..power.transducer import LinearTransducer, fit_transducer
from ..rng import DEFAULT_SEED, SeedSequenceFactory
from ..unit_types import GigaHz
from ..workloads.mixes import Mix, mix_for_config
from ..workloads.parsec import PARSEC_BENCHMARKS

if TYPE_CHECKING:
    from ..cmpsim.simulator import SimulationResult
    from ..runner import RunRequest

__all__ = [
    "FITTED",
    "Calibration",
    "CalibratedScheme",
    "CalibrationPoint",
    "HOLDOUT",
    "WhiteNoiseDVFSScheme",
    "calibrate",
    "calibration_requests",
    "default_calibration",
    "fit",
    "fit_once",
    "homogeneous_mix",
]

#: The held-out validation benchmark, as in the paper ("randomly chosen").
HOLDOUT = "bodytrack"


class WhiteNoiseDVFSScheme:
    """Excitation scheme: noise-driven walk of each island's frequency.

    The paper validates its model "with added random white-noise to
    change the DVFS levels of the cores in a random manner".  This scheme
    applies an independent Gaussian frequency step per island per PIC
    interval with a mild mean-reversion toward a center in the upper part
    of the ladder (an Ornstein–Uhlenbeck walk, reflected at the ladder's
    walls).  The mean-reversion concentrates calibration samples in the
    operating envelope the controllers will actually visit at realistic
    budgets — a fit spread uniformly over the whole ladder leaves a
    systematic transducer bias at the operating point, which shows up
    directly as steady-state error on *actual* (not sensed) power.

    ``seed`` is a public attribute, so two runs that differ only in it
    have different cache keys; each :meth:`bind` starts the noise stream
    afresh from it, so a run is a function of its request alone.
    """

    name = "white-noise-dvfs"

    #: Standard deviation of each island's per-interval frequency step.
    STEP_SIGMA_GHZ: GigaHz = 0.12
    #: Fraction of the distance to the center closed per interval.
    REVERSION = 0.12

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = seed

    def bind(self, sim) -> None:
        self._rng = SeedSequenceFactory(self.seed).generator("calibration/white-noise")
        # Envelope center: upper part of the ladder, where
        # 75–100%-of-max-power budgets land.
        self._center_ghz = 0.15 * sim.chip.dvfs.f_min + 0.85 * sim.chip.dvfs.f_max
        for island in range(sim.config.n_islands):
            sim.chip.set_island_frequency(island, self._center_ghz)

    def on_gpm(self, sim) -> None:
        """No provisioning tier during excitation."""

    def on_pic(self, sim) -> None:
        table = sim.chip.dvfs
        # One draw per tick: the same numbers, in island order, as one
        # scalar draw per island.
        steps = self._rng.normal(
            0.0, self.STEP_SIGMA_GHZ, size=sim.config.n_islands
        ).tolist()
        proposals = []
        for current, step in zip(sim.chip.island_frequency.tolist(), steps):
            proposal = (
                current
                + self.REVERSION * (self._center_ghz - current)
                + step
            )
            # Reflect at the walls to keep the excitation exploring.
            if proposal > table.f_max:
                proposal = 2 * table.f_max - proposal
            elif proposal < table.f_min:
                proposal = 2 * table.f_min - proposal
            proposals.append(proposal)
        sim.chip.set_island_frequencies(proposals)
        if sim.last_result is not None:
            sim.sensed_power = sim.last_result.island_power_frac.copy()


@dataclass(frozen=True)
class Calibration:
    """Everything the CPM scheme needs, produced offline."""

    #: The averaged design gain ``a`` (fraction of max power per GHz).
    system_gain: float
    #: Per-benchmark identification fits.
    per_benchmark_gains: Dict[str, GainFit]
    #: Pole-placement PID design against ``system_gain``.
    pid_gains: PIDGains
    #: Per-island transducers fit on the target mix.
    island_transducers: Tuple[LinearTransducer, ...]
    #: Per-benchmark transducers (the Figure 6 fits).
    benchmark_transducers: Dict[str, LinearTransducer]
    #: One-step-ahead relative error of the averaged model on ``HOLDOUT``.
    validation_error: float
    #: Largest gain multiplier g keeping the closed loop stable.
    stability_limit: float

    @property
    def mean_transducer_r_squared(self) -> float:
        """Average R² of the per-benchmark Figure 6 fits."""
        values = [t.r_squared for t in self.benchmark_transducers.values()]
        return float(np.mean(values)) if values else float("nan")


@dataclass(frozen=True)
class CalibrationPoint:
    """What a default calibration is a function of: platform, mix, seed.

    Build one with :meth:`of`, which resolves the mix the way
    :class:`~repro.cmpsim.simulator.Simulation` does, so ``mix=None`` and
    the explicit default mix name the same point.
    """

    config: CMPConfig
    mix: Mix
    seed: int

    @classmethod
    def of(
        cls, config: CMPConfig, mix: Mix | None, seed: int
    ) -> CalibrationPoint:
        return cls(config, mix_for_config(config, mix), int(seed))

    def calibration(self) -> Calibration:
        """The memoized default calibration at this point (see
        :data:`FITTED`), calibrated on a miss."""
        if self not in FITTED:  # lint: ignore[EFF002] - a pure memo, see FITTED
            calibration = calibrate(self.config, self.mix, self.seed)
            FITTED[self] = calibration  # lint: ignore[EFF001] - ditto
        return FITTED[self]  # lint: ignore[EFF002] - ditto


@runtime_checkable
class CalibratedScheme(Protocol):
    """A power scheme that runs on an offline :class:`Calibration`.

    A caller that runs many simulations (``repro.runner.run_many``) asks
    each scheme which default calibration its ``bind`` would compute,
    fits every distinct point once, and hands the result back, so no
    worker process recalibrates a point another one already did.
    """

    def calibration_point(
        self, config: CMPConfig, mix: Mix | None, seed: int
    ) -> CalibrationPoint | None:
        """The default calibration a run of (config, mix, seed) needs, or
        None when the scheme already holds a calibration."""

    def use_calibration(self, calibration: Calibration) -> None:
        """Adopt ``calibration`` as the default one; a calibration the
        scheme was constructed with is kept."""


def homogeneous_mix(config: CMPConfig, benchmark_name: str) -> Mix:
    """Every core of every island runs ``benchmark_name``."""
    islands = tuple(
        (benchmark_name,) * config.cores_per_island
        for _ in range(config.n_islands)
    )
    return Mix(name=f"cal-{benchmark_name}", islands=islands)


def calibration_requests(point: CalibrationPoint) -> list[RunRequest]:
    """The excitation runs a calibration at ``point`` fits, in the order
    :func:`fit` reads them: one homogeneous run per PARSEC benchmark (in
    name order), then one on the point's own mix.  Each is a white-noise
    run at a 100% budget for 12 GPM intervals; the homogeneous
    ones depend only on the point's config and seed, so points that
    differ only in their mix share them.  The import is deferred because
    the runner imports this module."""
    from ..runner import RunRequest

    config, seed = point.config, point.seed
    mixes = [homogeneous_mix(config, name) for name in sorted(PARSEC_BENCHMARKS)]
    scheme = functools.partial(WhiteNoiseDVFSScheme, seed=seed)
    return [
        RunRequest(config, scheme, mix, 1.0, seed, 12)
        for mix in [*mixes, point.mix]
    ]


def _gain_samples(result) -> tuple[np.ndarray, np.ndarray]:
    """Pooled (df, dP) samples across islands from one run's telemetry."""
    freq = result.telemetry["island_frequency_ghz"]
    power = result.telemetry["island_power_frac"]
    df = np.diff(freq, axis=0).ravel()
    dp = np.diff(power, axis=0).ravel()
    return df, dp


def _transducer_samples(result) -> tuple[np.ndarray, np.ndarray]:
    """Pooled (utilization, power) samples across islands from one run."""
    util = result.telemetry["island_utilization"].ravel()
    power = result.telemetry["island_power_frac"].ravel()
    return util, power


def _per_island_transducers(result, n_islands: int) -> Tuple[LinearTransducer, ...]:
    util = result.telemetry["island_utilization"]
    power = result.telemetry["island_power_frac"]
    return tuple(
        fit_transducer(util[:, i], power[:, i]) for i in range(n_islands)
    )


def fit(
    point: CalibrationPoint, results: Sequence[SimulationResult]
) -> Calibration:
    """Fit the calibration at ``point`` to the results of its
    :func:`calibration_requests`, in their order.  Pure: the same
    results always give the same calibration."""
    config = point.config
    *benchmark_runs, mix_run = results
    runs = dict(zip(sorted(PARSEC_BENCHMARKS), benchmark_runs))

    per_benchmark_gains: Dict[str, GainFit] = {}
    benchmark_transducers: Dict[str, LinearTransducer] = {}
    for name, run in runs.items():
        df, dp = _gain_samples(run)
        per_benchmark_gains[name] = fit_system_gain(df, dp)
        benchmark_transducers[name] = fit_transducer(*_transducer_samples(run))

    design_names = [n for n in per_benchmark_gains if n != HOLDOUT]
    system_gain = float(
        np.mean([per_benchmark_gains[n].gain for n in design_names])
    )

    # Validate the averaged model on the held-out benchmark (Figure 5).
    freq = runs[HOLDOUT].telemetry["island_frequency_ghz"]
    power = runs[HOLDOUT].telemetry["island_power_frac"]
    errors = [
        prediction_error(power[:, i], np.diff(freq[:, i]), system_gain)
        for i in range(config.n_islands)
    ]
    validation_error = float(np.mean(errors))

    pid_gains = design_pid(system_gain, config.control.desired_poles)
    stability = stability_gain_limit(system_gain, pid_gains)

    island_transducers = _per_island_transducers(mix_run, config.n_islands)

    return Calibration(
        system_gain=system_gain,
        per_benchmark_gains=per_benchmark_gains,
        pid_gains=pid_gains,
        island_transducers=island_transducers,
        benchmark_transducers=benchmark_transducers,
        validation_error=validation_error,
        stability_limit=stability,
    )


def calibrate(
    config: CMPConfig,
    mix: Mix | None = None,
    seed: int = DEFAULT_SEED,
) -> Calibration:
    """Run the full calibration pipeline for a platform + mix: its
    :func:`calibration_requests` in this process as one fleet, with no
    result cache, then :func:`fit`.  An excitation run that fails
    raises its own exception (the first, in run order).

    Deterministic for a given (config, mix, seed); see
    :func:`default_calibration` for the memoized variant experiments use.
    """
    point = CalibrationPoint.of(config, mix, seed)
    requests = calibration_requests(point)
    fleet = Fleet(
        [
            Simulation(
                r.config,
                r.scheme_factory(),
                mix=r.mix,
                budget_fraction=r.budget_fraction,
                seed=r.seed,
            )
            for r in requests
        ]
    )
    results = []
    for outcome in fleet.run(requests[0].n_gpm_intervals):
        if isinstance(outcome, Exception):
            raise outcome
        results.append(outcome)
    return fit(point, results)


#: This process's fitted default calibrations.  A memo of a pure
#: function of its key: a calibration is fixed by its point, which a
#: CPM run's cache key holds (config, mix, seed), so reading it cannot
#: make two runs with one key differ, and a worker's write only spares
#: that worker a recomputation its siblings would repeat bit for bit.
#: ``run_many``'s calibration wave and the renders of Figures 4-6 fit
#: through :func:`fit_once`, so a process fits each point once.
FITTED: Dict[CalibrationPoint, Calibration] = {}


def fit_once(
    point: CalibrationPoint, results: Sequence[SimulationResult]
) -> Calibration:
    """The memoized calibration at ``point`` (see :data:`FITTED`): on a
    miss, :func:`fit` ``results`` (its :func:`calibration_requests`'
    results) and memoize the fit, so a process fits each point once."""
    if point not in FITTED:  # lint: ignore[EFF002] - a pure memo, see FITTED
        FITTED[point] = fit(point, results)  # lint: ignore[EFF001] - ditto
    return FITTED[point]  # lint: ignore[EFF002] - ditto


def default_calibration(
    config: CMPConfig, mix: Mix | None = None, seed: int = DEFAULT_SEED
) -> Calibration:
    """Memoized :func:`calibrate` — experiments share one calibration per
    (platform, mix, seed)."""
    return CalibrationPoint.of(config, mix, seed).calibration()
