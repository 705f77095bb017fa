"""CPMScheme end-to-end behaviour and the evaluation metrics."""

import numpy as np
import pytest

from repro.cmpsim.simulator import Simulation
from repro.config import DEFAULT_CONFIG
from repro.core.cpm import CPMScheme, run_cpm
from repro.core.metrics import (
    chip_tracking_metrics,
    performance_degradation,
    performance_degradation_series,
)
from repro.gpm.policy import UniformPolicy

pytestmark = pytest.mark.slow


class TestCPMScheme:
    def test_tracks_chip_budget(self, cpm_run_80):
        chip = cpm_run_80.telemetry["chip_power_frac"][30:]
        assert chip.mean() == pytest.approx(0.8, abs=0.03)

    def test_never_wildly_overshoots(self, cpm_run_80):
        chip = cpm_run_80.telemetry["chip_power_frac"][30:]
        assert chip.max() < 0.8 * 1.08

    def test_setpoints_sum_to_distributable_budget(self, cpm_run_80):
        ticks = cpm_run_80.telemetry.gpm_tick_indices()
        setpoints = cpm_run_80.telemetry["island_setpoint_frac"][ticks]
        expected = 0.8 - DEFAULT_CONFIG.uncore_fraction
        np.testing.assert_allclose(setpoints.sum(axis=1), expected, atol=1e-9)

    def test_sensed_power_close_to_actual(self, cpm_run_80):
        sensed = cpm_run_80.telemetry["island_sensed_frac"][30:]
        actual = cpm_run_80.telemetry["island_power_frac"][30:]
        assert np.abs(sensed - actual).mean() < 0.02

    def test_high_budget_runs_at_full_speed(self):
        res = run_cpm(DEFAULT_CONFIG, budget_fraction=1.0, n_gpm_intervals=6)
        freqs = res.telemetry["island_frequency_ghz"][30:]
        assert freqs.mean() > 1.9

    def test_custom_policy_injected(self):
        res = run_cpm(
            DEFAULT_CONFIG,
            policy=UniformPolicy(),
            budget_fraction=0.8,
            n_gpm_intervals=4,
        )
        ticks = res.telemetry.gpm_tick_indices()
        setpoints = res.telemetry["island_setpoint_frac"][ticks[2:]]
        # Uniform policy with demand reclaim still near-equal at 80%.
        assert setpoints.std() < 0.02

    def test_scheme_requires_bind_for_calibration(self):
        scheme = CPMScheme()
        with pytest.raises(RuntimeError):
            _ = scheme.calibration

    def test_quantized_mode_supported(self):
        import dataclasses

        from repro.config import DVFSConfig

        cfg = dataclasses.replace(DEFAULT_CONFIG, dvfs=DVFSConfig(mode="quantized"))
        res = run_cpm(cfg, budget_fraction=0.8, n_gpm_intervals=5)
        freqs = res.telemetry["island_frequency_ghz"]
        table = np.array([f for f, _ in cfg.dvfs.vf_table])
        for f in np.unique(freqs):
            assert np.any(np.isclose(table, f))


class TestMetrics:
    def test_degradation_zero_against_self(self, nomgmt_run):
        assert performance_degradation(nomgmt_run, nomgmt_run) == 0.0

    def test_managed_run_degrades(self, cpm_run_80, nomgmt_run):
        deg = performance_degradation(cpm_run_80, nomgmt_run)
        assert 0.0 < deg < 0.15

    def test_degradation_series_shape(self, cpm_run_80, nomgmt_run):
        series = performance_degradation_series(cpm_run_80, nomgmt_run)
        assert series.shape == (12,)
        assert np.all(series < 0.3)

    def test_chip_tracking_metrics(self, cpm_run_80):
        m = chip_tracking_metrics(cpm_run_80, tolerance=0.05, skip_intervals=30)
        assert m.max_overshoot < 0.10

    def test_metrics_validation(self, cpm_run_80):
        with pytest.raises(ValueError):
            chip_tracking_metrics(cpm_run_80, skip_intervals=10_000)


class TestPairedComparison:
    def test_same_seed_pairing_is_exact(self):
        """Two no-management runs with the same seed retire identical
        instruction counts — the basis for paired degradation numbers."""
        from repro.baselines.no_management import NoManagementScheme

        a = Simulation(DEFAULT_CONFIG, NoManagementScheme(), seed=5).run(3)
        b = Simulation(DEFAULT_CONFIG, NoManagementScheme(), seed=5).run(3)
        assert a.total_instructions == b.total_instructions
