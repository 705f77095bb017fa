"""Offline calibration: system identification, transducer fits, PID design.

This module re-runs the paper's Section II methodology rather than
hard-coding its constants:

1. **Excitation** — every PARSEC benchmark except a held-out validation
   benchmark (bodytrack, "randomly chosen") runs homogeneously on the
   target platform while a white-noise scheme jitters each island's
   frequency (:class:`WhiteNoiseDVFSScheme`).
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
from typing import Dict, Protocol, Tuple, runtime_checkable

import numpy as np

from ..config import CMPConfig
from ..control.identification import GainFit, fit_system_gain, prediction_error
from ..control.pid import PIDGains
from ..control.pole_placement import design_pid, stability_gain_limit
from ..power.transducer import LinearTransducer, fit_transducer
from ..rng import DEFAULT_SEED, SeedSequenceFactory
from ..unit_types import GigaHz
from ..workloads.mixes import Mix, mix_for_config
from ..workloads.parsec import PARSEC_BENCHMARKS

__all__ = [
    "Calibration",
    "CalibratedScheme",
    "CalibrationPoint",
    "DEFAULT_HOLDOUT",
    "WhiteNoiseDVFSScheme",
    "calibrate",
    "default_calibration",
]

#: Default held-out validation benchmark, as in the paper.
DEFAULT_HOLDOUT = "bodytrack"


class WhiteNoiseDVFSScheme:
    """Excitation scheme: noise-driven walk of each island's frequency.

    The paper validates its model "with added random white-noise to
    change the DVFS levels of the cores in a random manner".  This scheme
    applies an independent Gaussian frequency step per island per PIC
    interval with a mild mean-reversion toward ``center_ghz`` (an
    Ornstein–Uhlenbeck walk, reflected at the ladder's walls).  The
    mean-reversion concentrates calibration samples in the operating
    envelope the controllers will actually visit at realistic budgets —
    a fit spread uniformly over the whole ladder leaves a systematic
    transducer bias at the operating point, which shows up directly as
    steady-state error on *actual* (not sensed) power.
    """

    name = "white-noise-dvfs"

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        step_sigma_ghz: GigaHz = 0.12,
        center_ghz: GigaHz | None = None,
        reversion: float = 0.12,
    ) -> None:
        if step_sigma_ghz <= 0:
            raise ValueError("step_sigma_ghz must be positive")
        if not 0.0 <= reversion < 1.0:
            raise ValueError("reversion must be in [0, 1)")
        self.step_sigma_ghz = step_sigma_ghz
        self.center_ghz = center_ghz
        self.reversion = reversion
        self._rng = SeedSequenceFactory(seed).generator("calibration/white-noise")

    def bind(self, sim) -> None:
        if self.center_ghz is None:
            # Default envelope center: upper part of the ladder, where
            # 75–100%-of-max-power budgets land.
            self.center_ghz = (
                0.15 * sim.chip.dvfs.f_min + 0.85 * sim.chip.dvfs.f_max
            )
        for island in range(sim.config.n_islands):
            sim.chip.set_island_frequency(island, self.center_ghz)

    def on_gpm(self, sim) -> None:
        """No provisioning tier during excitation."""

    def on_pic(self, sim) -> None:
        table = sim.chip.dvfs
        # One draw per tick: the same numbers, in island order, as one
        # scalar draw per island.
        steps = self._rng.normal(
            0.0, self.step_sigma_ghz, size=sim.config.n_islands
        ).tolist()
        proposals = []
        for current, step in zip(sim.chip.island_frequency.tolist(), steps):
            proposal = (
                current
                + self.reversion * (self.center_ghz - current)
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
    #: One-step-ahead relative error of the averaged model on the holdout.
    validation_error: float
    #: Name of the held-out validation benchmark.
    holdout: str
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
        """The memoized default calibration at this point."""
        return _cached_calibration(self.config, self.mix, self.seed)


@runtime_checkable
class CalibratedScheme(Protocol):
    """A power scheme that runs on an offline :class:`Calibration`.

    A caller that runs many simulations (``repro.runner.run_many``) asks
    each scheme which default calibration its ``bind`` would compute,
    computes every distinct point once, and hands the result back, so
    no worker process recalibrates a point another one already did.
    """

    def calibration_point(
        self, config: CMPConfig, mix: Mix | None, seed: int
    ) -> CalibrationPoint | None:
        """The default calibration a run of (config, mix, seed) needs, or
        None when the scheme already holds a calibration."""

    def use_calibration(self, calibration: Calibration) -> None:
        """Adopt ``calibration`` as the default one; a calibration the
        scheme was constructed with is kept."""


def _excitation_run(config: CMPConfig, mix: Mix, seed: int, n_gpm: int):
    """One white-noise run, started here and not through the runner: the
    runner calibrates before it simulates, and this run is the calibration.
    The import is deferred to avoid a cycle at import."""
    from ..cmpsim.simulator import Simulation

    scheme = WhiteNoiseDVFSScheme(seed=seed)
    sim = Simulation(config, scheme, mix=mix, budget_fraction=1.0, seed=seed)
    return sim.run(n_gpm)


def _homogeneous_mix(config: CMPConfig, benchmark_name: str) -> Mix:
    """Every core of every island runs ``benchmark_name``."""
    islands = tuple(
        (benchmark_name,) * config.cores_per_island
        for _ in range(config.n_islands)
    )
    return Mix(name=f"cal-{benchmark_name}", islands=islands)


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


def calibrate(
    config: CMPConfig,
    mix: Mix | None = None,
    seed: int = DEFAULT_SEED,
    holdout: str = DEFAULT_HOLDOUT,
    n_gpm: int = 12,
) -> Calibration:
    """Run the full calibration pipeline for a platform + mix.

    Deterministic for a given (config, mix, seed); see
    :func:`default_calibration` for the memoized variant experiments use.
    """
    if holdout not in PARSEC_BENCHMARKS:
        raise ValueError(f"holdout {holdout!r} is not a PARSEC benchmark")
    mix = mix_for_config(config, mix)

    per_benchmark_gains: Dict[str, GainFit] = {}
    benchmark_transducers: Dict[str, LinearTransducer] = {}
    holdout_run = None
    for name in sorted(PARSEC_BENCHMARKS):
        run = _excitation_run(config, _homogeneous_mix(config, name), seed, n_gpm)
        df, dp = _gain_samples(run)
        per_benchmark_gains[name] = fit_system_gain(df, dp)
        benchmark_transducers[name] = fit_transducer(*_transducer_samples(run))
        if name == holdout:
            holdout_run = run

    design_names = [n for n in per_benchmark_gains if n != holdout]
    system_gain = float(
        np.mean([per_benchmark_gains[n].gain for n in design_names])
    )

    # Validate the averaged model on the held-out benchmark (Figure 5).
    assert holdout_run is not None
    freq = holdout_run.telemetry["island_frequency_ghz"]
    power = holdout_run.telemetry["island_power_frac"]
    errors = [
        prediction_error(power[:, i], np.diff(freq[:, i]), system_gain)
        for i in range(config.n_islands)
    ]
    validation_error = float(np.mean(errors))

    pid_gains = design_pid(system_gain, config.control.desired_poles)
    stability = stability_gain_limit(system_gain, pid_gains)

    mix_run = _excitation_run(config, mix, seed, n_gpm)
    island_transducers = _per_island_transducers(mix_run, config.n_islands)

    return Calibration(
        system_gain=system_gain,
        per_benchmark_gains=per_benchmark_gains,
        pid_gains=pid_gains,
        island_transducers=island_transducers,
        benchmark_transducers=benchmark_transducers,
        validation_error=validation_error,
        holdout=holdout,
        stability_limit=stability,
    )


@functools.lru_cache(maxsize=32)
def _cached_calibration(config: CMPConfig, mix: Mix, seed: int) -> Calibration:
    return calibrate(config, mix=mix, seed=seed)


def default_calibration(
    config: CMPConfig, mix: Mix | None = None, seed: int = DEFAULT_SEED
) -> Calibration:
    """Memoized :func:`calibrate` — experiments share one calibration per
    (platform, mix, seed)."""
    return CalibrationPoint.of(config, mix, seed).calibration()
