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

A :class:`Fleet` advances several simulations that share a config in
lockstep, with one chip-kernel call per tick over their stacked state;
:meth:`Simulation.run` is a fleet of one, so there is one tick loop.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .. import units
from ..config import CMPConfig
from ..rng import DEFAULT_SEED, SeedSequenceFactory
from ..unit_types import PowerFraction, Seconds
from ..workloads.mixes import Mix, mix_for_config
from ..workloads.recorded import RecordedWorkload, record
from .chip import Chip, IntervalResult, WorkloadTerms
from .telemetry import ResilienceLog, Telemetry, WindowStats

__all__ = ["Fleet", "PowerScheme", "Simulation", "SimulationResult"]

#: The per-core workload signals a tick consumes, in workload_terms order.
_WORKLOAD_FIELDS = ("alpha", "cpi_base", "l1_mpki", "l2_mpki")
#: :class:`WorkloadTerms`' fields, in order.
_TERMS = tuple(f.name for f in fields(WorkloadTerms))


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
        workload: RecordedWorkload | None = None,
    ) -> None:
        """``workload`` replays a capture instead of drawing the mix's
        streams live (see :func:`~repro.workloads.recorded.record`): it
        needs one column per core, and a run longer than the capture
        cycles it, tick ``t`` reading row ``t % workload.n_ticks``."""
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

        self.chip = Chip(config, self.mix.specs())
        if workload is not None and workload.n_cores != config.n_cores:
            raise ValueError(
                f"need one workload column per core ({config.n_cores}), "
                f"got {workload.n_cores}"
            )
        self.workload = workload
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

        # The current GPM window's sums, (5, n_islands) in WindowStats
        # order; a fleet makes it a row of its stacked sums.
        self._window_sums = np.zeros((5, config.n_islands))
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
    def _complete_window(self) -> None:
        if self._window_ticks == 0:
            return
        n = self._window_ticks
        power, bips, util, energy, instructions = self._window_sums
        self.telemetry.push_window(
            WindowStats(
                island_power_frac=power / n,
                island_bips=bips / n,
                island_utilization=util / n,
                island_setpoints=self.setpoints.copy(),
                island_energy_j=energy.copy(),
                island_instructions=instructions.copy(),
                duration_s=n * self.config.control.pic_interval_s,
            )
        )
        self._window_sums.fill(0.0)
        self._window_ticks = 0

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _workload_terms(self, n_ticks: int) -> WorkloadTerms:
        """The chip kernel's terms for ``n_ticks`` of the run's workload:
        the replayed capture, cycled to the horizon, or the mix's streams
        drawn live by :func:`~repro.workloads.recorded.record`."""
        capture = self.workload
        if capture is None:
            capture = record(self.config, n_ticks, self.mix, self.seeds.root_seed)
        columns = [getattr(capture, name) for name in _WORKLOAD_FIELDS]
        if capture.n_ticks != n_ticks:
            rows = np.arange(n_ticks) % capture.n_ticks
            columns = [column[rows] for column in columns]
        return self.chip.workload_terms(*columns)

    def _result(self, total_instructions: float) -> SimulationResult:
        return SimulationResult(
            telemetry=self.telemetry,
            config=self.config,
            mix_name=self.mix.name,
            scheme_name=self.scheme.name,
            budget_fraction=self.budget_fraction,
            duration_s=self.time_s,
            total_instructions=total_instructions,
            log=self.log,
        )

    def run(self, n_gpm_intervals: int) -> SimulationResult:
        """Simulate ``n_gpm_intervals`` GPM windows; returns the result.

        The run is a fleet of one (see :meth:`Fleet.run`) whose failure
        raises here.
        """
        outcome = Fleet([self]).run(n_gpm_intervals)[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class Fleet:
    """Simulations that share a config, advanced in lockstep.

    Each member keeps everything a run owns: its scheme, mix, seed,
    budget, telemetry, log, ``setpoints``, ``sensed_power``,
    ``last_result`` and tick.  What the fleet stacks is the chip state:
    every member's ``chip.island_frequency`` and temperatures are rows
    of one ``(n_runs, n_islands)`` and one ``(n_runs, n_cores)`` array
    (:meth:`~repro.cmpsim.chip.Chip.stack`), so a tick is one chip-kernel
    call for all members, and no scheme knows it is in a fleet.  Every
    member's telemetry, GPM windows, instruction total and resilience
    log equal its solo run's bit for bit, whatever fleet it is in.
    """

    def __init__(self, members: Sequence[Simulation]) -> None:
        if not members:
            raise ValueError("a fleet needs at least one simulation")
        if len({id(sim) for sim in members}) != len(members):
            raise ValueError("a simulation can be in a fleet only once")
        self.members = list(members)

    def run(self, n_gpm_intervals: int) -> list[SimulationResult | Exception]:
        """Simulate ``n_gpm_intervals`` GPM windows of every member;
        returns, in member order, each member's result or the exception
        that retired it.

        Each member binds its scheme and sizes its telemetry for the
        horizon, then its whole workload is taken up front as one block
        (exact: workload evolution never observes the control loop) --
        drawn live by :func:`~repro.workloads.recorded.record`, or its
        capture replayed -- and turned into the chip kernel's workload
        terms once; each tick then evaluates row ``t`` for every member.
        A member's ``total_instructions`` sums its cores' totals, each
        accumulated with one IEEE add per tick.  Every member must be
        fresh (tick 0): a simulation runs once.

        A member fails alone.  One whose ``bind``, ``on_gpm`` or
        ``on_pic`` raises, or whose own row fails the ladder check
        (re-checked alone, so the message is its solo run's), is retired
        with that exception: its frequencies go back to the previous
        tick's (or pre-``bind``) ones, the tick is recomputed, and it
        records nothing more; the others run on bit-identical.  When no
        member is left the run stops as the last ones raised.
        """
        if n_gpm_intervals < 1:
            raise ValueError("need at least one GPM interval")
        sims = self.members
        if any(sim.tick for sim in sims):
            raise ValueError("a simulation runs only once; build a new one")
        cfg = sims[0].config
        dt = cfg.control.pic_interval_s
        pics_per_gpm = cfg.control.pics_per_gpm
        n_runs = len(sims)
        # Each member's result, or the exception that retired it.
        outcomes: dict[int, SimulationResult | Exception] = {}

        chip = Chip.stack([sim.chip for sim in sims])
        # Member k's frequencies are row k, a view of the fleet's state.
        freq_rows = chip.island_frequency.reshape(n_runs, -1)
        unbound_freq = freq_rows.copy()
        # Every member's window sums, flat over runs like the kernel's
        # window terms; each member keeps its islands' columns.
        window_sums = np.hstack([sim._window_sums for sim in sims])
        n_islands = cfg.n_islands
        for k, sim in enumerate(sims):
            sim._window_sums = window_sums[:, k * n_islands : (k + 1) * n_islands]
            try:
                sim.scheme.bind(sim)
            except Exception as exc:
                outcomes[k] = exc
        live = [k for k in range(n_runs) if k not in outcomes]
        if not live:
            return [outcomes[k] for k in range(n_runs)]
        for k in outcomes:
            freq_rows[k] = unbound_freq[k]

        total_ticks = n_gpm_intervals * pics_per_gpm
        # Row t of the fleet's terms holds every member's cores, member by
        # member; each member derives its own block, then drops it.
        n_cores = cfg.n_cores
        stacked = [np.empty((total_ticks, n_runs * n_cores)) for _ in _TERMS]
        for k, sim in enumerate(sims):
            sim.telemetry.reserve(total_ticks)
            own = sim._workload_terms(total_ticks)
            for column, name in zip(stacked, _TERMS):
                column[:, k * n_cores : (k + 1) * n_cores] = getattr(own, name)
        terms = WorkloadTerms(*stacked)
        instruction_totals = np.zeros(n_runs * n_cores)

        for t in range(total_ticks):
            # Taken before either tier runs: a V/F change made in on_gpm
            # pays the transition overhead like one made in on_pic.
            previous_freq = freq_rows.copy()
            is_gpm_tick = t % pics_per_gpm == 0
            for k in live:
                sim = sims[k]
                try:
                    if is_gpm_tick:
                        sim._complete_window()
                        sim.scheme.on_gpm(sim)
                    sim.scheme.on_pic(sim)
                except Exception as exc:
                    outcomes[k] = exc
            while True:
                retiring = [k for k in live if k in outcomes]
                if retiring:
                    if len(retiring) == len(live):
                        return [outcomes[k] for k in range(n_runs)]
                    for k in retiring:
                        freq_rows[k] = previous_freq[k]
                    live = [k for k in live if k not in retiring]
                transitioned = np.abs(freq_rows - previous_freq) > units.EPS
                try:
                    result = chip.compute_interval(terms, t, dt, transitioned)
                    break
                except ValueError:
                    for k in live:
                        try:
                            chip.dvfs.voltage_at(freq_rows[k])
                        except ValueError as exc:
                            outcomes[k] = exc
                    if not any(k in outcomes for k in live):
                        raise  # not a member's ladder fault
            instruction_totals += result.core_instructions
            window_sums += result.window_terms

            rows = result.rows()
            for k in live:
                sim, row = sims[k], rows[k]
                sim._window_ticks += 1
                sim.telemetry.record(
                    sim.time_s, row, sim.setpoints, sim.sensed_power, is_gpm_tick
                )
                sim.last_result = row
                sim.tick += 1
                sim.time_s += dt

        totals = instruction_totals.reshape(n_runs, -1).tolist()
        for k in live:
            sims[k]._complete_window()
            outcomes[k] = sims[k]._result(float(sum(totals[k])))
        return [outcomes[k] for k in range(n_runs)]
