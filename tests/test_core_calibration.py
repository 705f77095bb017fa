"""The offline calibration pipeline (system ID + transducers + PID)."""

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.calibration import (
    HOLDOUT,
    WhiteNoiseDVFSScheme,
    homogeneous_mix,
    calibrate,
    default_calibration,
)
from repro.cmpsim.simulator import Simulation

pytestmark = pytest.mark.slow


class TestWhiteNoiseScheme:
    def test_exercises_the_ladder(self):
        sim = Simulation(
            DEFAULT_CONFIG, WhiteNoiseDVFSScheme(seed=1), budget_fraction=1.0
        )
        result = sim.run(6)
        freqs = result.telemetry["island_frequency_ghz"]
        assert freqs.std() > 0.05
        assert freqs.min() >= 0.6 - 1e-9
        assert freqs.max() <= 2.0 + 1e-9

    def test_centered_in_operating_envelope(self):
        sim = Simulation(
            DEFAULT_CONFIG, WhiteNoiseDVFSScheme(seed=1), budget_fraction=1.0
        )
        result = sim.run(8)
        freqs = result.telemetry["island_frequency_ghz"]
        assert 1.4 < freqs.mean() < 2.0


class TestHomogeneousMix:
    def test_every_core_runs_the_benchmark(self):
        mix = homogeneous_mix(DEFAULT_CONFIG, "canneal")
        assert mix.n_cores == 8
        assert all(
            name == "canneal" for island in mix.islands for name in island
        )


class TestCalibration:
    def test_full_pipeline(self, calibration):
        cal = calibration
        # System gain: positive, in the fraction-per-GHz ballpark.
        assert 0.05 < cal.system_gain < 0.3
        # Every PARSEC benchmark identified with a usable fit.
        assert len(cal.per_benchmark_gains) == 8
        for fit in cal.per_benchmark_gains.values():
            assert fit.gain > 0
            assert fit.r_squared > 0.5
        # Held-out validation (paper Figure 5: well within 10%).
        assert HOLDOUT == "bodytrack"
        assert HOLDOUT in cal.per_benchmark_gains
        assert cal.validation_error < 0.10
        # Figure 6: strong linear fits, average R^2 near the paper's 0.96.
        assert cal.mean_transducer_r_squared > 0.9
        # Stability margin comfortably above the design point.
        assert cal.stability_limit > 1.3

    def test_pid_design_stable(self, calibration):
        from repro.control.pole_placement import closed_loop

        assert closed_loop(
            calibration.system_gain, calibration.pid_gains
        ).is_stable()

    def test_island_transducers_per_island(self, calibration):
        assert len(calibration.island_transducers) == 4
        for t in calibration.island_transducers:
            assert t.k0 > 0  # more utilization, more power

    def test_holdout_excluded_from_design_gain(self, calibration):
        design = [
            fit.gain
            for name, fit in calibration.per_benchmark_gains.items()
            if name != HOLDOUT
        ]
        assert calibration.system_gain == pytest.approx(np.mean(design))

    def test_memoization(self):
        a = default_calibration(DEFAULT_CONFIG)
        b = default_calibration(DEFAULT_CONFIG)
        assert a is b

    def test_determinism_across_fresh_runs(self):
        a = calibrate(DEFAULT_CONFIG, seed=99)
        b = calibrate(DEFAULT_CONFIG, seed=99)
        assert a.system_gain == b.system_gain
        assert a.pid_gains == b.pid_gains
