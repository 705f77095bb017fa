"""Shared fixtures: small platforms, cached runs, cached calibration.

Simulation-backed tests share session-scoped runs wherever the assertion
only *reads* results — the simulator is deterministic per seed, so
sharing is exact and keeps the suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.no_management import NoManagementScheme
from repro.cmpsim.simulator import Simulation
from repro.config import CMPConfig, DEFAULT_CONFIG
from repro.core.calibration import FITTED, default_calibration
from repro.core.cpm import run_cpm
from repro.rng import DEFAULT_SEED, SeedSequenceFactory

TEST_SEED = DEFAULT_SEED


@pytest.fixture(scope="session")
def default_config() -> CMPConfig:
    return DEFAULT_CONFIG


@pytest.fixture(scope="session")
def small_config() -> CMPConfig:
    """A 4-core / 2-island platform for cheap simulation tests."""
    return DEFAULT_CONFIG.with_islands(4, 2)


@pytest.fixture(scope="session")
def seeds() -> SeedSequenceFactory:
    return SeedSequenceFactory(TEST_SEED)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(TEST_SEED)


@pytest.fixture(scope="session")
def calibration(default_config):
    """The memoized default calibration for the default platform."""
    return default_calibration(default_config, seed=TEST_SEED)


@pytest.fixture()
def calibration_memo():
    """The process's memo of fitted calibrations, which the test may
    clear; restored afterwards, so later tests keep their memo hits."""
    saved = dict(FITTED)
    yield FITTED
    FITTED.clear()
    FITTED.update(saved)


@pytest.fixture(scope="session")
def cpm_run_80(default_config):
    """One shared CPM run at an 80% budget (default platform, Mix-1)."""
    return run_cpm(
        default_config, budget_fraction=0.8, n_gpm_intervals=12, seed=TEST_SEED
    )


@pytest.fixture(scope="session")
def nomgmt_run(default_config):
    """One shared no-management run on the default platform."""
    sim = Simulation(
        default_config, NoManagementScheme(), budget_fraction=1.0, seed=TEST_SEED
    )
    return sim.run(12)
