"""The simulation driver: workloads + chip + a pluggable power scheme.

A :class:`PowerScheme` is anything that manages power: the paper's CPM
(GPM + PICs), the MaxBIPS baseline, or no management at all.  The driver
owns the two-rate cadence of Figure 4 — it calls ``on_gpm`` every GPM
interval and ``on_pic`` every PIC interval — and evaluates the chip once
per PIC interval.

Measurement semantics: a scheme invoked at tick *t* sees measurements up
to and including tick *t-1* (``sim.last_result`` plus the aggregated GPM
windows) and actuates frequencies that take effect *during* tick *t* —
the causal ordering a real controller lives with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .. import units
from ..arrayops import island_sums
from ..config import CMPConfig
from ..rng import DEFAULT_SEED, SeedSequenceFactory
from ..unit_types import PowerFraction, Seconds
from ..workloads.benchmark import BenchmarkInstance
from ..workloads.mixes import Mix, mix_for_config
from .chip import Chip, IntervalResult, WorkloadTerms
from .telemetry import ResilienceLog, Telemetry, WindowStats

__all__ = ["PowerScheme", "Simulation", "SimulationResult"]

#: The per-core workload signals a tick consumes, in workload_terms order.
_WORKLOAD_FIELDS = ("alpha", "cpi_base", "l1_mpki", "l2_mpki")


@runtime_checkable
class PowerScheme(Protocol):
    """Power-management plug-in interface."""

    name: str

    def bind(self, sim: "Simulation") -> None:
        """Called once before the run starts; build controllers here."""

    def on_gpm(self, sim: "Simulation") -> None:
        """Called every GPM interval (coarse tier), before ``on_pic``."""

    def on_pic(self, sim: "Simulation") -> None:
        """Called every PIC interval (fine tier); actuate frequencies."""


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated run."""

    telemetry: Telemetry
    config: CMPConfig
    mix_name: str
    scheme_name: str
    budget_fraction: PowerFraction
    duration_s: Seconds
    total_instructions: float
    #: The guards' decisions during the run (empty for unguarded schemes).
    log: ResilienceLog

    @property
    def mean_chip_bips(self) -> float:
        return float(np.mean(self.telemetry["chip_bips"]))

    @property
    def mean_chip_power_frac(self) -> float:
        return float(np.mean(self.telemetry["chip_power_frac"]))


class Simulation:
    """One simulated run of a CMP under a power-management scheme."""

    def __init__(
        self,
        config: CMPConfig,
        scheme: PowerScheme,
        mix: Mix | None = None,
        budget_fraction: PowerFraction = 0.8,
        seed: int = DEFAULT_SEED,
        instances: list | None = None,
    ) -> None:
        """``instances`` overrides the default per-core workload
        construction with pre-built ones (e.g. a
        :class:`~repro.workloads.recorded.RecordedWorkload` replay); one
        entry per core, each exposing ``advance()`` (or ``advance_block``)
        and ``retire()``."""
        if not 0.0 < budget_fraction <= 1.0:
            raise ValueError("budget_fraction must be in (0, 1]")
        self.config = config
        self.scheme = scheme
        self.mix = mix_for_config(config, mix)
        if self.mix.n_cores != config.n_cores or self.mix.n_islands != config.n_islands:
            raise ValueError(
                f"mix {self.mix.name} shape ({self.mix.n_cores} cores, "
                f"{self.mix.n_islands} islands) does not match config "
                f"({config.n_cores} cores, {config.n_islands} islands)"
            )
        self.budget_fraction = budget_fraction
        self.seeds = SeedSequenceFactory(seed)

        specs = self.mix.specs()
        self.chip = Chip(config, specs)
        if instances is not None:
            if len(instances) != config.n_cores:
                raise ValueError(
                    f"need one workload instance per core "
                    f"({config.n_cores}), got {len(instances)}"
                )
            self.instances = list(instances)
        else:
            self.instances = [
                BenchmarkInstance(
                    spec, self.seeds.generator(f"workload/core{i}/{spec.name}")
                )
                for i, spec in enumerate(specs)
            ]
        self.telemetry = Telemetry(
            n_islands=config.n_islands, n_cores=config.n_cores
        )
        #: The run's resilience log; a guarded scheme records into it.
        self.log = ResilienceLog()

        #: Current per-island power set-points, fraction of max chip power.
        #: The GPM tier writes these; the PIC tier tracks them.
        self.setpoints = np.zeros(config.n_islands)
        #: Per-island power as last *sensed* through the utilization
        #: transducer (what the PIC believes); schemes update it.
        self.sensed_power = np.zeros(config.n_islands)
        self.last_result: IntervalResult | None = None
        self.tick = 0
        self.time_s: Seconds = 0.0

        # GPM-window accumulators.
        self._window_sums: dict[str, np.ndarray] | None = None
        self._window_ticks = 0

    # ------------------------------------------------------------------
    # Quantities schemes need
    # ------------------------------------------------------------------
    @property
    def distributable_budget(self) -> PowerFraction:
        """Budget available to islands: chip budget minus the uncore share."""
        return max(0.0, self.budget_fraction - self.chip.uncore_fraction)

    @property
    def windows(self) -> list[WindowStats]:
        """Completed GPM-window aggregates, oldest first."""
        return self.telemetry.windows

    # ------------------------------------------------------------------
    # Window accounting
    # ------------------------------------------------------------------
    def _reset_window(self) -> None:
        n = self.config.n_islands
        self._window_sums = {
            "power": np.zeros(n),
            "bips": np.zeros(n),
            "util": np.zeros(n),
            "energy": np.zeros(n),
            "instructions": np.zeros(n),
        }
        self._window_ticks = 0

    def _accumulate_window(self, result: IntervalResult) -> None:
        assert self._window_sums is not None
        sums = self._window_sums
        sums["power"] += result.island_power_frac
        sums["bips"] += result.island_bips
        sums["util"] += result.island_utilization
        sums["energy"] += result.island_power_w * result.dt
        sums["instructions"] += island_sums(
            self.chip.island_of_core,
            result.core_instructions,
            self.config.n_islands,
        )
        self._window_ticks += 1

    def _complete_window(self) -> None:
        if self._window_sums is None or self._window_ticks == 0:
            return
        n = self._window_ticks
        sums = self._window_sums
        self.telemetry.push_window(
            WindowStats(
                island_power_frac=sums["power"] / n,
                island_bips=sums["bips"] / n,
                island_utilization=sums["util"] / n,
                island_setpoints=self.setpoints.copy(),
                island_energy_j=sums["energy"].copy(),
                island_instructions=sums["instructions"].copy(),
                duration_s=n * self.config.control.pic_interval_s,
            )
        )
        self._reset_window()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _workload_terms(self, n_ticks: int) -> WorkloadTerms:
        """Draw ``n_ticks`` of every core's workload and derive the chip
        kernel's terms; the raw block is dropped once they exist.

        An instance with ``advance_block`` yields its samples in one
        vectorized pass; any other gets them from ``n_ticks`` calls to
        ``advance()``.
        """
        # One buffer per field, so none outlives the terms derived from it.
        raw = [np.empty((n_ticks, self.config.n_cores)) for _ in _WORKLOAD_FIELDS]
        for core, instance in enumerate(self.instances):
            if hasattr(instance, "advance_block"):
                block = instance.advance_block(n_ticks)
                for field, column in zip(_WORKLOAD_FIELDS, raw):
                    column[:, core] = getattr(block, field)
            else:
                samples = [instance.advance() for _ in range(n_ticks)]
                for field, column in zip(_WORKLOAD_FIELDS, raw):
                    column[:, core] = [getattr(s, field) for s in samples]
        return self.chip.workload_terms(*raw)

    def run(self, n_gpm_intervals: int) -> SimulationResult:
        """Simulate ``n_gpm_intervals`` GPM windows; returns the result.

        The whole run's workload is drawn up front (exact: workload
        evolution never observes the control loop) and turned into the
        chip kernel's workload terms once; each tick then evaluates row
        ``t``.  Instructions are retired once per instance at the end,
        summed with the same per-tick IEEE adds as one ``retire()`` per
        tick.
        """
        if n_gpm_intervals < 1:
            raise ValueError("need at least one GPM interval")
        cfg = self.config
        dt = cfg.control.pic_interval_s
        pics_per_gpm = cfg.control.pics_per_gpm

        self.scheme.bind(self)
        self._reset_window()

        total_ticks = n_gpm_intervals * pics_per_gpm
        self.telemetry.reserve(total_ticks)
        terms = self._workload_terms(total_ticks)
        instruction_totals = np.zeros(cfg.n_cores)

        for t in range(total_ticks):
            # Taken before either tier runs: a V/F change made in on_gpm
            # pays the transition overhead like one made in on_pic.
            previous_freq = self.chip.island_frequency.copy()
            is_gpm_tick = self.tick % pics_per_gpm == 0
            if is_gpm_tick:
                self._complete_window()
                self.scheme.on_gpm(self)

            self.scheme.on_pic(self)
            transitioned = (
                np.abs(self.chip.island_frequency - previous_freq) > units.EPS
            )

            result = self.chip.compute_interval(terms, t, dt, transitioned)
            instruction_totals += result.core_instructions

            self._accumulate_window(result)
            self.telemetry.record(
                self.time_s, result, self.setpoints, self.sensed_power, is_gpm_tick
            )
            self.last_result = result
            self.tick += 1
            self.time_s += dt

        for instance, total in zip(self.instances, instruction_totals.tolist()):
            instance.retire(total)

        self._complete_window()
        return SimulationResult(
            telemetry=self.telemetry,
            config=cfg,
            mix_name=self.mix.name,
            scheme_name=self.scheme.name,
            budget_fraction=self.budget_fraction,
            duration_s=self.time_s,
            total_instructions=float(
                sum(inst.instructions_retired for inst in self.instances)
            ),
            log=self.log,
        )
