"""Thermal substrate: floorplan, RC network, constraint-violation tracking."""

import numpy as np
import pytest

from repro.config import ThermalConfig
from repro.thermal.floorplan import Floorplan, grid_floorplan
from repro.thermal.hotspot import ThermalConstraints, ViolationTracker
from repro.thermal.rc_model import RCThermalModel


class TestFloorplan:
    def test_default_shapes(self):
        assert (grid_floorplan(8).rows, grid_floorplan(8).cols) == (2, 4)
        assert (grid_floorplan(32).rows, grid_floorplan(32).cols) == (2, 16)
        assert (grid_floorplan(3).rows, grid_floorplan(3).cols) == (1, 3)

    def test_positions_row_major(self):
        fp = grid_floorplan(8)
        assert fp.position(0) == (0, 0)
        assert fp.position(3) == (0, 3)
        assert fp.position(4) == (1, 0)

    def test_adjacency_symmetric_no_self_loops(self):
        adj = grid_floorplan(8).core_adjacency()
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()

    def test_adjacency_edges(self):
        fp = grid_floorplan(8)  # 2x4 grid
        adj = fp.core_adjacency()
        assert adj[0, 1]      # horizontal neighbours
        assert adj[0, 4]      # vertical neighbours
        assert not adj[0, 5]  # diagonal is not adjacent
        assert not adj[3, 4]  # row wrap is not adjacent

    def test_island_adjacency(self):
        fp = grid_floorplan(8)
        island_of_core = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        pairs = fp.adjacent_island_pairs(island_of_core)
        assert (0, 1) in pairs
        assert (0, 2) in pairs  # vertically adjacent (cores 0/1 above 4/5)
        assert (0, 3) not in pairs

    def test_validation(self):
        with pytest.raises(ValueError):
            Floorplan(n_cores=8, rows=1, cols=4)
        with pytest.raises(IndexError):
            grid_floorplan(4).position(4)


class TestRCModel:
    def model(self):
        return RCThermalModel(grid_floorplan(4), ThermalConfig())

    def test_starts_at_ambient(self):
        m = self.model()
        np.testing.assert_allclose(m.temperatures, 45.0)

    def test_warms_toward_steady_state(self):
        m = self.model()
        power = np.array([8.0, 8.0, 8.0, 8.0])
        expected = m.steady_state(power)
        for _ in range(3000):
            m.step(power, dt=5e-4)
        np.testing.assert_allclose(m.temperatures, expected, atol=0.05)

    def test_steady_state_uniform_power(self):
        """Uniform power: no lateral flow, pure vertical balance."""
        m = self.model()
        cfg = m.config
        power = np.full(4, 10.0)
        expected = cfg.ambient_c + cfg.vertical_resistance_k_per_w * 10.0
        np.testing.assert_allclose(m.steady_state(power), expected, rtol=1e-9)

    def test_lateral_coupling_spreads_heat(self):
        m = self.model()
        power = np.array([20.0, 0.0, 0.0, 0.0])
        steady = m.steady_state(power)
        assert steady[0] > steady[1] > m.config.ambient_c
        # Hot core is cooler than it would be in isolation.
        isolated = m.config.ambient_c + m.config.vertical_resistance_k_per_w * 20
        assert steady[0] < isolated

    def test_energy_balance_at_steady_state(self):
        m = self.model()
        power = np.array([5.0, 12.0, 3.0, 9.0])
        steady = m.steady_state(power)
        vertical_out = (steady - m.config.ambient_c).sum() / (
            m.config.vertical_resistance_k_per_w
        )
        assert vertical_out == pytest.approx(power.sum(), rel=1e-9)

    def test_reset(self):
        m = self.model()
        m.step(np.full(4, 10.0), dt=5e-4)
        m.reset()
        np.testing.assert_allclose(m.temperatures, 45.0)
        m.reset(70.0)
        np.testing.assert_allclose(m.temperatures, 70.0)

    def test_stability_guard(self):
        m = self.model()
        with pytest.raises(ValueError):
            m.step(np.zeros(4), dt=1.0)  # way past the Euler limit

    @pytest.mark.parametrize("dt", [0.0, -5e-4, float("nan")])
    def test_nonpositive_or_nan_dt_rejected(self, dt):
        """A NaN step raises rather than turning every node NaN."""
        m = self.model()
        with pytest.raises(ValueError):
            m.step(np.full(4, 10.0), dt=dt)
        np.testing.assert_allclose(m.temperatures, 45.0)

    def test_shape_validation(self):
        m = self.model()
        with pytest.raises(ValueError):
            m.step(np.zeros(3), dt=5e-4)
        with pytest.raises(ValueError):
            m.steady_state(np.zeros(5))


class TestViolationTracker:
    def constraints(self):
        return ThermalConstraints(
            adjacent_pairs=frozenset({(0, 1)}),
            pair_share_cap=0.5,
            pair_consecutive_limit=2,
            single_share_cap=0.4,
            single_consecutive_limit=2,
        )

    def test_streak_within_limit_allowed(self):
        t = ViolationTracker(constraints=self.constraints(), n_islands=3)
        over = np.array([0.3, 0.3, 0.4])  # pair = 0.6 > 0.5
        assert not t.observe(over)
        assert not t.observe(over)
        assert t.observe(over)  # third consecutive -> violation
        assert t.violation_fraction() == pytest.approx(1 / 3)

    def test_streak_resets(self):
        t = ViolationTracker(constraints=self.constraints(), n_islands=3)
        over = np.array([0.3, 0.3, 0.4])
        under = np.array([0.2, 0.2, 0.6])  # island 2 over single cap
        t.observe(over)
        t.observe(over)
        t.observe(under)  # pair streak resets
        assert not t.observe(over)

    def test_single_island_constraint(self):
        t = ViolationTracker(constraints=self.constraints(), n_islands=3)
        shares = np.array([0.1, 0.1, 0.45])
        assert not t.observe(shares)
        assert not t.observe(shares)
        assert t.observe(shares)
        fractions = t.island_violation_fractions()
        assert fractions[2] > 0
        assert fractions[0] == 0

    def test_pair_attribution(self):
        t = ViolationTracker(constraints=self.constraints(), n_islands=3)
        over = np.array([0.3, 0.3, 0.4])
        for _ in range(4):
            t.observe(over)
        fractions = t.island_violation_fractions()
        assert fractions[0] == fractions[1] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ViolationTracker(constraints=self.constraints(), n_islands=1)
        with pytest.raises(ValueError):
            ThermalConstraints(adjacent_pairs=frozenset(), pair_share_cap=0.0)
