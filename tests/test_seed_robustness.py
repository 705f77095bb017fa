"""Headline results hold across seeds, not just at the default one.

A reproduction whose conclusions flip with the random seed has not
reproduced anything; these tests re-derive the central claims at several
seeds.
"""

import pytest

from repro.baselines.maxbips import MaxBIPSScheme
from repro.baselines.no_management import NoManagementScheme
from repro.cmpsim.simulator import Simulation
from repro.config import DEFAULT_CONFIG
from repro.core.calibration import calibrate
from repro.core.cpm import run_cpm
from repro.core.metrics import performance_degradation

pytestmark = pytest.mark.slow

SEEDS = (101, 202, 303)


@pytest.mark.parametrize("seed", SEEDS)
def test_calibration_quality_across_seeds(seed):
    cal = calibrate(DEFAULT_CONFIG, seed=seed)
    assert cal.mean_transducer_r_squared > 0.9
    assert cal.validation_error < 0.10
    assert cal.stability_limit > 1.3
    assert 0.05 < cal.system_gain < 0.3


@pytest.mark.parametrize("seed", SEEDS)
def test_cpm_beats_maxbips_across_seeds(seed):
    reference = Simulation(
        DEFAULT_CONFIG, NoManagementScheme(), budget_fraction=1.0, seed=seed
    ).run(12)
    cpm = run_cpm(
        DEFAULT_CONFIG, budget_fraction=0.8, n_gpm_intervals=12, seed=seed
    )
    maxbips = Simulation(
        DEFAULT_CONFIG, MaxBIPSScheme(), budget_fraction=0.8, seed=seed
    ).run(12)
    cpm_deg = performance_degradation(cpm, reference)
    mb_deg = performance_degradation(maxbips, reference)
    assert cpm_deg < mb_deg
    assert cpm_deg < 0.08


@pytest.mark.parametrize("seed", SEEDS)
def test_budget_tracking_across_seeds(seed):
    result = run_cpm(
        DEFAULT_CONFIG, budget_fraction=0.8, n_gpm_intervals=12, seed=seed
    )
    chip = result.telemetry["chip_power_frac"][40:]
    assert chip.mean() == pytest.approx(0.8, abs=0.04)
    assert chip.max() < 0.8 * 1.08


@pytest.mark.parametrize("seed", SEEDS)
def test_maxbips_never_overshoots_across_seeds(seed):
    result = Simulation(
        DEFAULT_CONFIG, MaxBIPSScheme(), budget_fraction=0.8, seed=seed
    ).run(12)
    chip = result.telemetry["chip_power_frac"][10:]
    assert chip.max() <= 0.8 + 1e-9
