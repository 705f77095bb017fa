"""Simulation driver: cadence, telemetry, window accounting, schemes."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.no_management import NoManagementScheme
from repro.cmpsim.simulator import PowerScheme, Simulation
from repro.config import DEFAULT_CONFIG
from repro.workloads.mixes import MIX2


class RecordingScheme:
    """Scheme that records its callback cadence."""

    name = "recording"

    def __init__(self):
        self.gpm_ticks: list[int] = []
        self.pic_ticks: list[int] = []

    def bind(self, sim):
        self.bound = sim

    def on_gpm(self, sim):
        self.gpm_ticks.append(sim.tick)

    def on_pic(self, sim):
        self.pic_ticks.append(sim.tick)


class TestCadence:
    def test_gpm_every_tenth_pic(self):
        scheme = RecordingScheme()
        sim = Simulation(DEFAULT_CONFIG, scheme, budget_fraction=0.8)
        sim.run(3)
        assert scheme.gpm_ticks == [0, 10, 20]
        assert scheme.pic_ticks == list(range(30))

    def test_scheme_protocol(self):
        assert isinstance(RecordingScheme(), PowerScheme)
        assert isinstance(NoManagementScheme(), PowerScheme)

    def test_run_requires_positive_horizon(self):
        sim = Simulation(DEFAULT_CONFIG, RecordingScheme())
        with pytest.raises(ValueError):
            sim.run(0)


class TestDeterminism:
    def test_same_seed_same_run(self):
        a = Simulation(DEFAULT_CONFIG, NoManagementScheme(), seed=1).run(3)
        b = Simulation(DEFAULT_CONFIG, NoManagementScheme(), seed=1).run(3)
        np.testing.assert_array_equal(
            a.telemetry["chip_power_frac"], b.telemetry["chip_power_frac"]
        )
        assert a.total_instructions == b.total_instructions

    def test_different_seed_different_run(self):
        a = Simulation(DEFAULT_CONFIG, NoManagementScheme(), seed=1).run(3)
        b = Simulation(DEFAULT_CONFIG, NoManagementScheme(), seed=2).run(3)
        assert not np.array_equal(
            a.telemetry["chip_power_frac"], b.telemetry["chip_power_frac"]
        )

    def test_workloads_independent_of_scheme(self):
        """Same seed gives identical workload streams under any scheme —
        the property that makes paired performance comparisons exact."""

        class HalfSpeed(RecordingScheme):
            def bind(self, sim):
                sim.chip.set_island_frequencies([1.0] * sim.config.n_islands)

        a = Simulation(DEFAULT_CONFIG, NoManagementScheme(), seed=3)
        ra = a.run(2)
        b = Simulation(DEFAULT_CONFIG, HalfSpeed(), seed=3)
        rb = b.run(2)
        # Phases differ in effect but derive from the same streams: the
        # per-core utilization differs, yet both runs drew identical
        # workload randomness - check via retirement ratio ≈ IPS ratio.
        assert rb.total_instructions < ra.total_instructions


class TestWindows:
    def test_window_count_and_duration(self):
        sim = Simulation(DEFAULT_CONFIG, NoManagementScheme())
        result = sim.run(4)
        windows = result.telemetry.windows
        assert len(windows) == 4
        for w in windows:
            assert w.duration_s == pytest.approx(5e-3)

    def test_window_energy_consistent_with_power(self):
        sim = Simulation(DEFAULT_CONFIG, NoManagementScheme())
        result = sim.run(2)
        w = result.telemetry.windows[0]
        mean_power_w = w.island_energy_j / w.duration_s
        chip = sim.chip
        np.testing.assert_allclose(
            mean_power_w / chip.max_power_w, w.island_power_frac, rtol=1e-9
        )

    def test_window_instructions_sum_to_total(self):
        sim = Simulation(DEFAULT_CONFIG, NoManagementScheme())
        result = sim.run(3)
        total = sum(w.island_instructions.sum() for w in result.telemetry.windows)
        assert total == pytest.approx(result.total_instructions, rel=1e-9)


class TestTelemetry:
    def test_series_shapes(self):
        result = Simulation(DEFAULT_CONFIG, NoManagementScheme()).run(2)
        t = result.telemetry
        assert t["chip_power_frac"].shape == (20,)
        assert t["island_power_frac"].shape == (20, 4)
        assert t["core_temperature_c"].shape == (20, 8)
        assert t.gpm_tick_indices().tolist() == [0, 10]

    def test_unknown_series_rejected(self):
        result = Simulation(DEFAULT_CONFIG, NoManagementScheme()).run(1)
        with pytest.raises(KeyError):
            result.telemetry["nonexistent"]

    def test_mix_shape_validated(self):
        cfg = DEFAULT_CONFIG.with_islands(16, 4)
        # MIX2 has 8 cores; mix_for_config regroups, so force mismatch via
        # a mix that cannot be regrouped to the config... regrouping always
        # succeeds, so instead check the mix actually used matches config.
        sim = Simulation(cfg, NoManagementScheme(), mix=MIX2)
        assert sim.mix.n_cores == 16
        assert sim.mix.n_islands == 4

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Simulation(DEFAULT_CONFIG, NoManagementScheme(), budget_fraction=0.0)
        with pytest.raises(ValueError):
            Simulation(DEFAULT_CONFIG, NoManagementScheme(), budget_fraction=1.5)

    def test_result_summaries(self):
        result = Simulation(DEFAULT_CONFIG, NoManagementScheme()).run(2)
        assert 0.5 < result.mean_chip_power_frac < 1.0
        assert result.mean_chip_bips > 0
        assert result.duration_s == pytest.approx(10e-3)
        assert result.scheme_name == "no-management"


class RetuneAtSecondWindow(RecordingScheme):
    """Drops island 0 to the lowest knob entering tick 10, from ``on_gpm``
    or ``on_pic``, and records every finished tick's core instructions."""

    def __init__(self, hook: str):
        super().__init__()
        self.hook = hook
        self.instructions: list[np.ndarray] = []

    def bind(self, sim):
        self.island0 = np.flatnonzero(sim.chip.island_of_core == 0)

    def _retune(self, sim, hook):
        if hook == self.hook and sim.tick == 10:
            frequencies = sim.chip.island_frequency.copy()
            frequencies[0] = sim.chip.dvfs.f_min
            sim.chip.set_island_frequencies(frequencies)

    def on_gpm(self, sim):
        self._retune(sim, "gpm")

    def on_pic(self, sim):
        self._retune(sim, "pic")
        if sim.last_result is not None:
            self.instructions.append(sim.last_result.core_instructions.copy())


class TestTransitionOverhead:
    def _run(self, config, hook):
        scheme = RetuneAtSecondWindow(hook)
        Simulation(config, scheme, budget_fraction=0.8).run(2)
        return np.array(scheme.instructions), scheme.island0

    def test_gpm_tier_change_pays_like_a_pic_tier_change(self):
        np.testing.assert_array_equal(
            self._run(DEFAULT_CONFIG, "gpm")[0], self._run(DEFAULT_CONFIG, "pic")[0]
        )

    def test_gpm_tier_change_loses_the_overhead(self):
        free = dataclasses.replace(
            DEFAULT_CONFIG,
            dvfs=dataclasses.replace(DEFAULT_CONFIG.dvfs, transition_overhead=0.0),
        )
        taxed, island0 = self._run(DEFAULT_CONFIG, "gpm")
        untaxed, _ = self._run(free, "gpm")
        np.testing.assert_array_equal(taxed[:10], untaxed[:10])
        np.testing.assert_allclose(
            taxed[10, island0] / untaxed[10, island0], 1.0 - 0.005, rtol=1e-12
        )
        others = np.setdiff1d(np.arange(DEFAULT_CONFIG.n_cores), island0)
        np.testing.assert_array_equal(taxed[10, others], untaxed[10, others])
