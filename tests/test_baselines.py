"""Baseline schemes: no-management, MaxBIPS, static-uniform."""

import numpy as np
import pytest

from repro.baselines.maxbips import MaxBIPSScheme
from repro.baselines.no_management import NoManagementScheme
from repro.baselines.static_uniform import StaticUniformScheme
from repro.cmpsim.simulator import Simulation
from repro.config import DEFAULT_CONFIG

pytestmark = pytest.mark.slow


class TestNoManagement:
    def test_all_islands_at_max_frequency(self):
        result = Simulation(DEFAULT_CONFIG, NoManagementScheme()).run(2)
        freqs = result.telemetry["island_frequency_ghz"]
        np.testing.assert_allclose(freqs, 2.0)

    def test_power_reflects_demand(self):
        result = Simulation(DEFAULT_CONFIG, NoManagementScheme()).run(3)
        assert 0.6 < result.mean_chip_power_frac < 1.0


class TestMaxBIPS:
    def test_never_overshoots_binding_budget(self):
        sim = Simulation(DEFAULT_CONFIG, MaxBIPSScheme(), budget_fraction=0.8)
        result = sim.run(8)
        chip = result.telemetry["chip_power_frac"][10:]
        assert chip.max() <= 0.8 + 1e-9

    def test_undershoots_budget(self):
        """Quantized knobs + worst-case provisioning leave a gap."""
        sim = Simulation(DEFAULT_CONFIG, MaxBIPSScheme(), budget_fraction=0.8)
        result = sim.run(8)
        chip = result.telemetry["chip_power_frac"][10:]
        assert chip.mean() < 0.78

    def test_frequencies_stay_on_table(self):
        sim = Simulation(DEFAULT_CONFIG, MaxBIPSScheme(), budget_fraction=0.8)
        result = sim.run(4)
        freqs = result.telemetry["island_frequency_ghz"]
        table = np.array([f for f, _ in DEFAULT_CONFIG.dvfs.vf_table])
        for f in np.unique(freqs):
            assert np.any(np.isclose(table, f))

    def test_static_prediction_treats_islands_uniformly(self):
        scheme = MaxBIPSScheme(prediction="static")
        sim = Simulation(DEFAULT_CONFIG, scheme, budget_fraction=0.8)
        sim.run(1)
        bips, power = scheme._prediction_table(sim)
        # Same core count per island -> identical table rows.
        np.testing.assert_allclose(bips[0], bips[1])
        np.testing.assert_allclose(power[0], power[1])

    def test_measured_prediction_differentiates(self):
        scheme = MaxBIPSScheme(prediction="measured")
        sim = Simulation(DEFAULT_CONFIG, scheme, budget_fraction=0.8)
        sim.run(2)
        bips, _power = scheme._prediction_table(sim)
        # Mix-1 islands run different apps: measured BIPS rows differ.
        assert not np.allclose(bips[0], bips[3])

    def test_measured_beats_static(self):
        """The runtime-informed ablation loses less performance."""
        static = Simulation(
            DEFAULT_CONFIG, MaxBIPSScheme(prediction="static"),
            budget_fraction=0.8,
        ).run(8)
        measured = Simulation(
            DEFAULT_CONFIG, MaxBIPSScheme(prediction="measured"),
            budget_fraction=0.8,
        ).run(8)
        assert measured.total_instructions > static.total_instructions

    def test_dp_selection_matches_exhaustive(self):
        """The knapsack DP and the exhaustive search agree (within the
        DP's power-bin resolution) on a real prediction table."""
        scheme = MaxBIPSScheme()
        sim = Simulation(DEFAULT_CONFIG, scheme, budget_fraction=0.8)
        sim.run(1)
        bips, power = scheme._prediction_table(sim)
        budget = sim.distributable_budget
        exhaustive = scheme._select_exhaustive(bips, power, budget)
        dp = scheme._select_dp(bips, power, budget)
        value = lambda k: bips[np.arange(4), k].sum()
        cost = lambda k: power[np.arange(4), k].sum()
        assert cost(dp) <= budget + 1e-9
        assert value(dp) >= value(exhaustive) * 0.995

    def test_validation(self):
        with pytest.raises(ValueError):
            MaxBIPSScheme(prediction="psychic")

    @pytest.mark.parametrize("selector", ["_select_exhaustive", "_select_dp"])
    def test_static_mode_selects_only_at_bind(self, monkeypatch, selector):
        """The static table and the budget are fixed at bind, so no GPM
        window re-runs the selection (exhaustive at 4 islands, DP at 16)."""
        config = (
            DEFAULT_CONFIG
            if selector == "_select_exhaustive"
            else DEFAULT_CONFIG.with_islands(64, 16)
        )
        scheme = MaxBIPSScheme(prediction="static")
        sim = Simulation(config, scheme, budget_fraction=0.8)
        select = getattr(MaxBIPSScheme, selector)
        bind = MaxBIPSScheme.bind
        bound = []

        def bind_then_forbid(self, sim):
            bind(self, sim)
            bound.append(True)

        def guarded(self, *args):
            assert not bound, f"{selector} called after bind"
            return select(self, *args)

        monkeypatch.setattr(MaxBIPSScheme, "bind", bind_then_forbid)
        monkeypatch.setattr(MaxBIPSScheme, selector, guarded)
        result = sim.run(4)
        knobs = result.telemetry["island_frequency_ghz"]
        assert bound and np.all(knobs[1:] == knobs[0])

    def test_measured_mode_selects_every_window(self, monkeypatch):
        calls = []
        select = MaxBIPSScheme._select_exhaustive

        def counted(self, *args):
            calls.append(True)
            return select(self, *args)

        monkeypatch.setattr(MaxBIPSScheme, "_select_exhaustive", counted)
        sim = Simulation(
            DEFAULT_CONFIG, MaxBIPSScheme(prediction="measured"),
            budget_fraction=0.8,
        )
        sim.run(4)
        # No measurement exists at the first window, so it selects nothing.
        assert len(calls) == 3


class TestStaticUniform:
    def test_near_equal_setpoints(self):
        """The uniform policy keeps the split (nearly) equal — only the
        manager's demand reclaim may shave a demand-limited island."""
        sim = Simulation(DEFAULT_CONFIG, StaticUniformScheme(), budget_fraction=0.8)
        result = sim.run(4)
        setpoints = result.telemetry["island_setpoint_frac"]
        equal = setpoints[0, 0]
        assert np.abs(setpoints / equal - 1.0).max() < 0.15
        # Distributed total never changes.
        np.testing.assert_allclose(
            setpoints.sum(axis=1), setpoints[0].sum(), rtol=1e-6
        )

    def test_pics_track_the_static_split(self):
        sim = Simulation(DEFAULT_CONFIG, StaticUniformScheme(), budget_fraction=0.8)
        result = sim.run(8)
        power = result.telemetry["island_power_frac"][40:]
        setpoint = result.telemetry["island_setpoint_frac"][0, 0]
        assert np.abs(power.mean(axis=0) - setpoint).max() < 0.02
