"""Vectorized chip state: cores, islands, power, thermal, normalization.

A :class:`Chip` owns everything the per-interval evaluation needs as flat
NumPy arrays over cores (the guides' idiom: one vectorized pass instead
of per-core Python objects).  :meth:`Chip.compute_interval` turns the
interval's workload samples plus the current island frequencies into
performance and power for every core, island and the chip, and advances
the thermal network.

A run's state is its island frequencies and core temperatures.
:meth:`Chip.stack` builds one chip whose state is several runs' state
stacked row by row, each run's own chip keeping its row as a view, so
one :meth:`~Chip.compute_interval` call advances all of them (a fleet,
see :class:`~repro.cmpsim.simulator.Fleet`).

The chip also fixes the normalization constant the whole library reports
against: ``max_power_w`` is the chip's power with every core fully active
at the top operating point (plus the uncore share), and all budgets,
set-points and power series are fractions of it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .. import units
from ..arrayops import island_sums
from ..config import CMPConfig
from ..power.model import CorePowerModel
from ..thermal.floorplan import grid_floorplan
from ..unit_types import (
    Bips,
    BipsArray,
    CelsiusArray,
    GigaHzArray,
    PowerFraction,
    PowerFractionArray,
    Seconds,
    Watts,
    WattsArray,
)
from ..thermal.rc_model import RCThermalModel
from ..variation.leakage_variation import (
    island_multipliers_to_cores,
    uniform_multipliers,
)
from ..workloads.benchmark import BenchmarkSpec
from .dvfs import DVFSTable

__all__ = ["Chip", "IntervalResult", "WorkloadTerms"]


@dataclass(frozen=True)
class WorkloadTerms:
    """The workload-only terms of the chip kernel, one row per tick.

    Built once per run by :meth:`Chip.workload_terms` from the run's
    ``(T, n_cores)`` workload block; :meth:`Chip.compute_interval` reads
    row ``t`` at tick ``t``.
    """

    #: Phase activity as drawn (the CPI stack's IPS numerator).
    alpha: np.ndarray
    #: ``clip(alpha, 0, 1)``: the activity the power model sees.
    activity_alpha: np.ndarray
    #: Frequency-independent CPI: ``cpi_base + l1_mpki / 1000 * l2_hit_cycles``.
    onchip_cpi: np.ndarray
    #: Off-chip CPI per GHz: ``l2_mpki / 1000 * memory_latency_ns``.
    offchip_cpi_per_ghz: np.ndarray


@dataclass(frozen=True)
class IntervalResult:
    """Everything measured over one simulation interval.

    A stacked chip's result (see :meth:`Chip.stack`) holds each array
    flat over runs, run ``k``'s cores (islands) at ``[k * n, (k + 1) *
    n)``, and its chip scalars as ``(n_runs,)`` arrays; :meth:`rows`
    splits it into one result per run.
    """

    dt: Seconds
    #: Per-core arrays.
    core_busy: np.ndarray
    core_ips: np.ndarray
    core_instructions: np.ndarray
    core_power_w: WattsArray
    core_utilization: np.ndarray
    core_temperature_c: CelsiusArray
    #: Per-island arrays.
    island_power_w: WattsArray
    island_power_frac: PowerFractionArray
    island_bips: BipsArray
    island_utilization: np.ndarray
    island_frequency_ghz: GigaHzArray
    #: Chip scalars.
    chip_power_w: Watts
    chip_power_frac: PowerFraction
    chip_bips: Bips
    #: The per-island quantities a GPM window sums, as one ``(5,
    #: n_islands)`` block (``(5, n_runs * n_islands)`` stacked) in
    #: :class:`~repro.cmpsim.telemetry.WindowStats`
    #: order: power fraction, BIPS, utilization, energy (J) and
    #: instructions.  The chip kernel fills it; other producers may not.
    window_terms: np.ndarray | None = None

    def rows(self) -> list[IntervalResult]:
        """A stacked chip's result as one result per run, in run order;
        each array is a view of this one's.  A single chip's result is
        its own one row."""
        if isinstance(self.chip_power_w, float):
            return [self]
        chip = self.chip_power_w.tolist()
        n_cores = len(self.core_busy) // len(chip)
        n_islands = len(self.island_power_w) // len(chip)
        core = [getattr(self, name) for name in _CORE_ARRAYS]
        island = [getattr(self, name) for name in _ISLAND_ARRAYS]
        window = self.window_terms
        rows = []
        for k, (power, frac, bips) in enumerate(
            zip(chip, self.chip_power_frac.tolist(), self.chip_bips.tolist())
        ):
            c = slice(k * n_cores, (k + 1) * n_cores)
            i = slice(k * n_islands, (k + 1) * n_islands)
            rows.append(
                IntervalResult(
                    self.dt,
                    *[a[c] for a in core],
                    *[a[i] for a in island],
                    power,
                    frac,
                    bips,
                    window[:, i],
                )
            )
        return rows


#: :class:`IntervalResult`'s per-core and per-island array fields, in
#: field order.
_CORE_ARRAYS, _ISLAND_ARRAYS = (
    tuple(f.name for f in fields(IntervalResult) if f.name.startswith(prefix))
    for prefix in ("core_", "island_")
)
#: Slots of the kernel's per-island block: the four per-core sums (one
#: ``bincount``) and the two quantities derived from island power.  The
#: last five are a GPM window's terms.
_BLOCK_SLOTS = _POWER, _POWER_FRAC, _BIPS, _UTIL, _ENERGY, _INSTRUCTIONS = range(6)
_SUMMED = (_POWER, _BIPS, _UTIL, _INSTRUCTIONS)


class Chip:
    """The simulated CMP: per-core state plus island-level DVFS.

    The state is :attr:`island_frequency` and ``thermal.temperatures``;
    both are updated in place, and assigning to either copies into it.
    """

    def __init__(
        self,
        config: CMPConfig,
        specs: Sequence[BenchmarkSpec],
    ) -> None:
        if len(specs) != config.n_cores:
            raise ValueError(
                f"need one benchmark per core: {config.n_cores} cores, "
                f"{len(specs)} specs"
            )
        self.config = config
        self.specs = tuple(specs)
        self.dvfs = DVFSTable(config.dvfs.vf_table)
        self.power_model = CorePowerModel(
            config.core, nominal_voltage=float(self.dvfs.voltages[-1])
        )
        self.floorplan = grid_floorplan(config.n_cores)
        self.thermal = RCThermalModel(self.floorplan, config.thermal)

        self.island_of_core = np.array(
            [config.island_of_core(c) for c in range(config.n_cores)]
        )
        if config.island_leakage_multipliers is not None:
            self.leakage_multipliers = island_multipliers_to_cores(
                config.island_leakage_multipliers, config.cores_per_island
            )
        else:
            self.leakage_multipliers = uniform_multipliers(config.n_cores)

        # Islands start at the top operating point (the no-management state).
        self._frequency = np.full(config.n_islands, self.dvfs.f_max)

        self._init_normalization()
        self._checked_dt: Seconds | None = None
        self._attach_state(1)

    def _attach_state(self, n_runs: int) -> None:
        """Fix the kernel's view of the state for ``n_runs`` runs.

        The kernel works on flat rows: per-core quantities as one
        ``(n_runs * n_cores,)`` array and per-island ones as one
        ``(n_runs * n_islands,)`` array, so every gather is a 1-D fancy
        index, and a stacked result stays flat over runs.
        """
        cfg = self.config
        n_islands = cfg.n_islands
        dynamic = self.power_model.dynamic
        leakage = self.power_model.leakage
        # Run k's cores read island slots k * n_islands + island_of_core.
        self._core_index = (
            np.arange(n_runs)[:, None] * n_islands + self.island_of_core
        ).ravel()
        # The bincount ids of the summed per-core quantities: quantity j
        # of run k, core c, goes to slot _SUMMED[j] of island
        # k * n_islands + island_of_core[c].
        self._block_index = (
            np.array(_SUMMED)[:, None] * (n_runs * n_islands) + self._core_index
        ).ravel()
        self._block_size = len(_BLOCK_SLOTS) * n_runs * n_islands
        self._flat_frequency = self._frequency.reshape(-1)
        # The per-tick constants, unpacked once per tick.  The per-core
        # leakage at the nominal corner is the model's prefactor.
        self._constants = (
            dynamic.effective_capacitance,
            leakage.nominal_voltage,
            leakage.voltage_exponent,
            1.0 - cfg.dvfs.transition_overhead,
            dynamic.stall_activity,
            self.dvfs.f_max,
            dynamic.gating.idle_floor,
            1.0 - dynamic.gating.idle_floor,
            leakage.thermal_beta,
            leakage.nominal_temperature_c,
            dynamic.fixed_share,
            dynamic.gate_share,
            np.tile(
                leakage.nominal_leakage_w
                * np.asarray(self.leakage_multipliers, dtype=float),
                n_runs,
            ),
            float(cfg.cores_per_island),
        )

    @classmethod
    def stack(cls, chips: Sequence[Chip]) -> Chip:
        """One chip whose state is ``chips``' state stacked: ``(n_runs,
        n_islands)`` island frequencies and ``(n_runs, n_cores)``
        temperatures.  Each of ``chips`` keeps its own state as a row
        view, so its run's scheme works on it unchanged, and one
        :meth:`compute_interval` call on the stacked chip advances every
        run.  The chips must share one config: the kernel's constants
        come from it, and the workload (``specs``, stacked too) enters
        only through the terms.  One chip stacks to itself.
        """
        lead = chips[0]
        if any(chip.config != lead.config for chip in chips):
            raise ValueError("stacked chips must share one config")
        if len(chips) == 1:
            return lead
        fleet = copy.copy(lead)
        fleet.specs = tuple(spec for chip in chips for spec in chip.specs)
        fleet._frequency = np.stack([chip.island_frequency for chip in chips])
        fleet.thermal = RCThermalModel.stack([chip.thermal for chip in chips])
        for k, chip in enumerate(chips):
            chip._frequency = fleet._frequency[k]
            chip._attach_state(1)
        fleet._attach_state(len(chips))
        return fleet

    @property
    def island_frequency(self) -> GigaHzArray:
        """Current per-island frequencies (GHz), written in place by the
        schemes; assigning copies into them."""
        return self._frequency

    @island_frequency.setter
    def island_frequency(self, value: GigaHzArray) -> None:
        self._frequency[...] = value

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    def _init_normalization(self) -> None:
        v_max = float(self.dvfs.voltages[-1])
        f_max = self.dvfs.f_max
        per_core_max = self.power_model.power(
            v_max,
            f_max,
            busy=1.0,
            alpha=1.0,
            temperature_c=self.power_model.leakage.nominal_temperature_c,
            leakage_multiplier=self.leakage_multipliers,
        )
        cores_max = float(np.sum(per_core_max))
        uncore_fraction = self.config.uncore_fraction
        self.uncore_power_w = cores_max * uncore_fraction / (1.0 - uncore_fraction)
        self.max_power_w = cores_max + self.uncore_power_w
        self._per_core_max_w = np.asarray(per_core_max, dtype=float)
        # Static per-island power bounds, cached here because every GPM
        # bind re-asks for them (see island_power_bounds).
        per_core_min = self.power_model.power(
            float(self.dvfs.voltages[0]),
            self.dvfs.f_min,
            busy=0.0,
            alpha=1.0,
            temperature_c=self.power_model.leakage.nominal_temperature_c,
            leakage_multiplier=self.leakage_multipliers,
        )
        n_islands = self.config.n_islands
        self._island_min_frac = (
            island_sums(
                self.island_of_core, np.asarray(per_core_min, dtype=float), n_islands
            )
            / self.max_power_w
        )
        self._island_max_frac = (
            island_sums(self.island_of_core, self._per_core_max_w, n_islands)
            / self.max_power_w
        )

    @property
    def uncore_fraction(self) -> PowerFraction:
        """Uncore power as a fraction of max chip power (always drawn)."""
        return self.uncore_power_w / self.max_power_w

    def island_power_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Static per-island (min, max) power as fractions of max power.

        Max: every core fully active at the top point.  Min: every core
        idle (clock-gating floor) at the bottom point.  Real consumption
        always lies between; the bounds keep GPM set-points sane.

        Returns fresh copies — some schemes (e.g. no-management) mutate the
        returned arrays as their set-points.
        """
        return self._island_min_frac.copy(), self._island_max_frac.copy()

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------
    def set_island_frequencies(
        self, frequencies: Sequence[float] | GigaHzArray
    ) -> None:
        """Apply one frequency request per island.

        Each request is clamped to the ladder's range and, in quantized
        mode, snapped to the nearest table point — the actuator semantics
        of the paper's architecture.
        """
        f = self.dvfs.clamp(np.asarray(frequencies, dtype=float))
        if f.shape != self.island_frequency.shape:
            raise ValueError(
                f"need one frequency per island ({len(self.island_frequency)}), "
                f"got shape {f.shape}"
            )
        if self.config.dvfs.mode == "quantized":
            f = self.dvfs.quantize(f)
        self.island_frequency[:] = f

    # ------------------------------------------------------------------
    # Per-interval evaluation
    # ------------------------------------------------------------------
    def workload_terms(
        self,
        alpha: np.ndarray,
        cpi_base: np.ndarray,
        l1_mpki: np.ndarray,
        l2_mpki: np.ndarray,
    ) -> WorkloadTerms:
        """Derive the kernel's workload-only terms from a workload block.

        Each input is ``(T, n_cores)`` (row ``t`` is tick ``t``) or a
        single tick's ``(n_cores,)`` vector, treated as ``T = 1``; on a
        stacked chip (:meth:`stack`) a row holds every run's cores, run
        by run, so ``n_cores`` reads ``n_runs * n_cores``.  The terms are
        the parts of the CPI stack and the power model that do not depend
        on frequency or temperature, so a run computes them once instead
        of once per tick.
        """
        arrays = [
            np.asarray(x, dtype=float) for x in (alpha, cpi_base, l1_mpki, l2_mpki)
        ]
        shape, n_cores = arrays[0].shape, len(self._core_index)
        if (
            any(arr.shape != shape for arr in arrays)
            or shape[-1:] != (n_cores,)
            or len(shape) > 2
        ):
            raise ValueError(
                f"workload arrays must share one (T, {n_cores}) or "
                f"({n_cores},) shape, got {[arr.shape for arr in arrays]}"
            )
        a, base, l1, l2 = (np.atleast_2d(arr) for arr in arrays)
        memory = self.config.memory
        # Same expressions, in the same association order, as cpi_stack
        # and DynamicPowerModel.core_activity: elementwise, so bit-equal.
        return WorkloadTerms(
            alpha=a,
            activity_alpha=np.clip(a, 0.0, 1.0),
            onchip_cpi=base + l1 / 1000.0 * memory.l2_hit_cycles,
            offchip_cpi_per_ghz=l2 / 1000.0 * units.to_ns(memory.memory_latency_s),
        )

    def compute_interval(
        self,
        terms: WorkloadTerms,
        t: int,
        dt: Seconds,
        transitioned_islands: np.ndarray | None = None,
    ) -> IntervalResult:
        """Evaluate tick ``t`` of ``terms`` under the current island frequencies.

        ``transitioned_islands`` flags islands whose V/F changed entering
        this interval; their cores lose the DVFS transition overhead
        (0.5% of CPU time, during which no instructions execute).

        This is the fusion of :func:`~repro.cmpsim.core.cpi_stack`,
        :meth:`CorePowerModel.power`, :meth:`DynamicPowerModel.core_activity`
        and :meth:`RCThermalModel.step`, bit for bit: the same elementwise
        expressions in the same association order, minus their per-call
        validation.  ``dt`` is validated once per distinct value.

        On a stacked chip (:meth:`stack`) row ``t`` of ``terms`` holds
        every run's cores in run order (``(T, n_runs * n_cores)``
        arrays), ``transitioned_islands`` is ``(n_runs, n_islands)``, and
        the result's arrays have a leading run axis.  Every run's row
        equals what its own chip would compute: every operation is
        elementwise or sums within one run, in the same order.
        """
        if dt != self._checked_dt:  # always true for NaN
            self.thermal.check_dt(dt)
            self._checked_dt = dt
        (
            capacitance,
            v_nominal,
            voltage_exponent,
            transition_keep,
            stall_activity,
            f_max,
            idle_floor,
            gate_range,
            thermal_beta,
            t_nominal,
            fixed_share,
            gate_share,
            leakage_prefactor_w,
            cores_per_island,
        ) = self._constants
        cores = self._core_index

        # Operating-point terms on islands (voltage_at keeps its ladder
        # range check), then one gather each to cores.
        island_freq = self._flat_frequency
        island_volt = self.dvfs.voltage_at(island_freq)
        freq = island_freq[cores]
        dynamic_vf = (capacitance * island_volt**2 * island_freq)[cores]
        leakage_v = ((island_volt / v_nominal) ** voltage_exponent)[cores]

        # CPI stack.
        onchip = terms.onchip_cpi[t]
        cpi = onchip + terms.offchip_cpi_per_ghz[t] * freq
        busy = onchip / cpi
        ips = terms.alpha[t] * freq * units.GHZ_TO_HZ / cpi

        if transitioned_islands is not None and np.logical_or.reduce(
            transitioned_islands, axis=None
        ):
            mask = np.asarray(transitioned_islands, dtype=bool).reshape(-1)[cores]
            effective_dt = np.where(mask, dt * transition_keep, dt)
        else:
            # Scalar broadcasts identically to np.full(n_cores, dt) and
            # skips two array allocations on the common no-transition path.
            effective_dt = dt

        instructions = ips * effective_dt

        # Utilization = switching-activity-weighted cycle rate relative to
        # the peak cycle rate: the perf-counter quantity the PIC's sensor
        # reads.  Monotone in frequency for every workload class, which is
        # what makes the Figure 6 linear fits tight.
        b = np.minimum(np.maximum(busy, 0.0), 1.0)
        activity = terms.activity_alpha[t] * b + stall_activity * (1.0 - b)
        utilization = activity * freq / f_max

        # Power: dynamic through the linear clock-gating floor, plus leakage.
        gated = idle_floor + gate_range * np.minimum(np.maximum(activity, 0.0), 1.0)
        temperatures = self.thermal.flat_temperatures
        thermal = np.exp(thermal_beta * (temperatures - t_nominal))
        core_power = dynamic_vf * (
            fixed_share + gate_share * gated
        ) + leakage_prefactor_w * leakage_v * thermal
        core_bips = units.bips(instructions, effective_dt, check=False)

        # One bincount sums every run's cores into its islands, for all
        # four quantities, in core order: exactly what one bincount per
        # quantity and run would sum.
        block = np.bincount(
            self._block_index,
            np.concatenate((core_power, core_bips, utilization, instructions)),
            self._block_size,
        ).reshape(len(_BLOCK_SLOTS), -1)
        island_power = block[_POWER]
        island_util = block[_UTIL]
        island_util /= cores_per_island
        np.divide(island_power, self.max_power_w, out=block[_POWER_FRAC])
        np.multiply(island_power, dt, out=block[_ENERGY])

        # Each run's chip totals, from its row of islands: one reduction
        # sums every slot's row of every run.
        totals = np.add.reduce(
            block.reshape((len(_BLOCK_SLOTS),) + self._frequency.shape), axis=-1
        )
        chip_power = totals[_POWER] + self.uncore_power_w
        chip_bips = totals[_BIPS]

        self.thermal.step(core_power, dt, check=False)

        return IntervalResult(
            dt=dt,
            core_busy=busy,
            core_ips=ips,
            core_instructions=instructions,
            core_power_w=core_power,
            core_utilization=utilization,
            core_temperature_c=temperatures.copy(),
            island_power_w=island_power,
            island_power_frac=block[_POWER_FRAC],
            island_bips=block[_BIPS],
            island_utilization=island_util,
            island_frequency_ghz=island_freq.copy(),
            chip_power_w=chip_power,
            chip_power_frac=chip_power / self.max_power_w,
            chip_bips=chip_bips,
            window_terms=block[_POWER_FRAC:],
        )
