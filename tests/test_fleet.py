"""Fleets: one chip-kernel call per tick for runs that share a config.

A :class:`~repro.cmpsim.simulator.Fleet` stacks its members' chip state
and advances them in lockstep.  The contract is that a member's run is
bit-identical to its solo run, whatever fleet it lands in.  These tests
put every case of the golden matrix (``tests/test_golden_digests.py``)
into one fleet per shape and DVFS mode, with extra members that differ
in scheme, mix, seed and budget, and pin the three places where a
stacked evaluation could round differently from a single one:

* the thermal lateral term: ``adjacency @ t`` is a matrix-vector
  product per run, and a matrix-matrix product over the stacked rows may
  sum in another order;
* the per-island ``bincount``: each run's island ids are offset, so a
  slot sums only that run's cores, in core order;
* each run's chip totals: summed over its own row of islands.

A member fails alone: the chaos cases, run as one fleet, retire the
members that raise and leave every survivor equal to its solo run.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re

import numpy as np
import pytest

from repro.baselines.maxbips import MaxBIPSScheme
from repro.baselines.no_management import NoManagementScheme
from repro.cmpsim.chip import Chip
from repro.cmpsim.simulator import Fleet, Simulation
from repro.config import DEFAULT_CONFIG, DVFSConfig
from repro.core.cpm import CPMScheme
from repro.experiments.chaos import BUDGET_FRACTION, SCENARIOS, _chaos_scheme
from repro.runner import RunRequest, run_many
from repro.thermal.floorplan import grid_floorplan
from repro.thermal.rc_model import RCThermalModel
from repro.workloads.mixes import MIX1, MIX2, mix_for_config

from test_golden_digests import (
    BUDGET,
    DVFS_MODES,
    GOLDEN_PATH,
    GOLDEN_SEED,
    GOLDEN_WINDOWS,
    SCHEMES,
    SHAPES,
    result_digests,
)

#: Members that differ from the golden cases in mix, seed and budget.
EXTRAS = (
    (CPMScheme, "mix2", 11, 0.7),
    (MaxBIPSScheme, "mix1", 12, 0.9),
    (NoManagementScheme, "mix2", 13, 0.75),
)


def _config(shape: str, mode: str):
    base = DEFAULT_CONFIG.with_islands(*SHAPES[shape])
    return dataclasses.replace(base, dvfs=DVFSConfig(mode=mode))


def _extra_mix(config, name: str):
    # The 8-core platform has the paper's two mixes; others its default.
    if config.n_cores == 8:
        return MIX1 if name == "mix1" else MIX2
    return mix_for_config(config, None)


@pytest.fixture(scope="module")
def golden() -> dict:
    stored = json.loads(GOLDEN_PATH.read_text())
    if stored["numpy_version"] != np.__version__:
        pytest.skip(f"golden digests were made with numpy {stored['numpy_version']}")
    return stored["runs"]


@pytest.mark.parametrize("mode", DVFS_MODES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_golden_matrix_as_one_fleet(golden, shape, mode):
    config = _config(shape, mode)
    schemes, sims = [], []
    for make_scheme in SCHEMES.values():
        schemes.append(make_scheme(config))
        sims.append(
            Simulation(config, schemes[-1], budget_fraction=BUDGET, seed=GOLDEN_SEED)
        )
    extras = []
    for factory, mix, seed, budget in EXTRAS:
        schemes.append(factory())
        spec = (_extra_mix(config, mix), budget, seed)
        extras.append((factory, spec))
        sims.append(
            Simulation(config, schemes[-1], mix=spec[0], budget_fraction=budget, seed=seed)
        )
    results = Fleet(sims).run(GOLDEN_WINDOWS)

    for case, scheme, result in zip(SCHEMES, schemes, results):
        assert result_digests(result, scheme) == golden[f"{shape}/{case}/{mode}"], case
    for (factory, (mix, budget, seed)), scheme, result in zip(
        extras, schemes[len(SCHEMES) :], results[len(SCHEMES) :]
    ):
        solo_scheme = factory()
        solo = Simulation(
            config, solo_scheme, mix=mix, budget_fraction=budget, seed=seed
        ).run(GOLDEN_WINDOWS)
        assert result_digests(result, scheme) == result_digests(solo, solo_scheme)


def test_run_many_is_byte_identical_across_fleet_widths():
    """jobs=1 runs each group as one fleet, jobs=2 splits it in two."""
    config = DEFAULT_CONFIG
    requests = [
        RunRequest(config, factory, mix, budget, seed, 3)
        for factory in (CPMScheme, MaxBIPSScheme, NoManagementScheme)
        for mix, budget, seed in ((MIX1, 0.8, 5), (MIX2, 0.7, 6))
    ]
    serial = run_many(requests, jobs=1)
    pooled = run_many(requests, jobs=2)
    for a, b in zip(serial, pooled):
        assert result_digests(a, None) == result_digests(b, None)
        assert a.log == b.log


@pytest.mark.parametrize("n_cores", [4, 8, 16, 32, 64])
def test_stacked_thermal_step_equals_each_runs_own(n_cores):
    """The lateral term stays one matrix-vector product per run."""
    rng = np.random.default_rng(n_cores)
    floorplan = grid_floorplan(n_cores)
    models = [RCThermalModel(floorplan) for _ in range(5)]
    solo = [RCThermalModel(floorplan) for _ in range(5)]
    start = rng.uniform(40.0, 90.0, size=(5, n_cores))
    for model, twin, temps in zip(models, solo, start):
        model.temperatures = temps
        twin.temperatures = temps
    fleet = RCThermalModel.stack(models)
    for _ in range(3):
        power = rng.uniform(0.0, 20.0, size=(5, n_cores))
        fleet.step(power.reshape(-1), 5e-4, check=False)
        for k, twin in enumerate(solo):
            twin.step(power[k], 5e-4)
            assert models[k].temperatures.tobytes() == twin.temperatures.tobytes()


@pytest.mark.parametrize("shape", [(8, 4), (32, 8), (64, 16)])
def test_stacked_kernel_rows_equal_each_runs_own(shape):
    """Per-island sums and chip totals of a stacked chip, run by run:
    island ids are offset per run, and 16 islands take numpy's pairwise
    summation path for the chip totals."""
    n_cores, n_islands = shape
    config = DEFAULT_CONFIG.with_islands(n_cores, n_islands)
    specs = mix_for_config(config, None).specs()
    rng = np.random.default_rng(n_cores)
    n_runs = 4
    chips = [Chip(config, specs) for _ in range(n_runs)]
    twins = [Chip(config, specs) for _ in range(n_runs)]
    freq = rng.uniform(0.6, 2.0, size=(n_runs, n_islands))
    temps = rng.uniform(40.0, 90.0, size=(n_runs, n_cores))
    for chip, twin, f, t in zip(chips, twins, freq, temps):
        for c in (chip, twin):
            c.island_frequency = f
            c.thermal.temperatures = t
    block = [rng.uniform(lo, hi, size=(2, n_runs, n_cores)) for lo, hi in
             ((0.2, 1.0), (0.8, 2.0), (1.0, 20.0), (0.0, 5.0))]
    stacked = Chip.stack(chips)
    terms = stacked.workload_terms(*(b.reshape(2, -1) for b in block))
    # Only the second run changes V/F entering the first tick.
    transitioned = np.zeros((n_runs, n_islands), dtype=bool)
    transitioned[1, 0] = True
    for t in range(2):
        rows = stacked.compute_interval(terms, t, 5e-4, transitioned).rows()
        for k, (twin, row) in enumerate(zip(twins, rows)):
            own = twin.workload_terms(*(b[t, k] for b in block))
            solo = twin.compute_interval(own, 0, 5e-4, transitioned[k])
            for name in ("core_power_w", "core_instructions", "island_power_w",
                         "island_bips", "island_utilization", "core_temperature_c"):
                assert getattr(row, name).tobytes() == getattr(solo, name).tobytes(), name
            for name in ("chip_power_w", "chip_power_frac", "chip_bips"):
                assert getattr(row, name) == getattr(solo, name), name
            assert row.window_terms.tobytes() == solo.window_terms.tobytes()
        transitioned[:] = False


def test_fleet_rejects_mixed_configs_and_repeated_members():
    a = Simulation(DEFAULT_CONFIG, NoManagementScheme())
    b = Simulation(DEFAULT_CONFIG.with_islands(16, 4), NoManagementScheme())
    with pytest.raises(ValueError, match="share one config"):
        Fleet([a, b]).run(1)
    with pytest.raises(ValueError, match="only once"):
        Fleet([a, a])


class BindRaisingScheme(NoManagementScheme):
    """Leaves its frequencies off the ladder and raises while binding,
    before its run has drawn a tick."""

    name = "bind-raising"

    def bind(self, sim):
        sim.chip.island_frequency = np.nan
        raise RuntimeError("cannot bind")


#: ``repro chaos --quick``'s platform, horizon and fault window.
CHAOS_CONFIG = DEFAULT_CONFIG.with_islands(4, 2)
CHAOS_GPM = 12
#: The chaos cases: the clean run, each scenario unguarded and guarded,
#: and a member that raises in ``bind``.
CHAOS_FACTORIES = (
    [CPMScheme]
    + [
        functools.partial(_chaos_scheme, scenario, 40, 80, guarded)
        for scenario in SCENARIOS
        for guarded in (False, True)
    ]
    + [BindRaisingScheme]
)


def _chaos_run(schemes):
    """Run one chaos simulation per scheme as one fleet; return the
    fleet's outcomes."""
    return Fleet(
        [
            Simulation(CHAOS_CONFIG, scheme, budget_fraction=BUDGET_FRACTION)
            for scheme in schemes
        ]
    ).run(CHAOS_GPM)


def test_chaos_cases_fail_alone_in_one_fleet():
    schemes = [factory() for factory in CHAOS_FACTORIES]
    outcomes = _chaos_run(schemes)
    retired = []
    for factory, scheme, outcome in zip(CHAOS_FACTORIES, schemes, outcomes):
        solo_scheme = factory()
        (solo,) = _chaos_run([solo_scheme])
        if isinstance(solo, Exception):
            assert type(outcome) is type(solo)
            assert str(outcome) == str(solo)
            retired.append(str(outcome))
            continue
        assert result_digests(outcome, scheme) == result_digests(solo, solo_scheme)
        assert outcome.log.counts == solo.log.counts
    # The unguarded dropout turns its NaN reading into a NaN frequency,
    # and its own row fails the ladder check; bind's raise is its own.
    assert len(retired) == 2
    assert re.fullmatch(r"frequency \[ *nan [0-9.]+\] outside ladder .*", retired[0])
    assert retired[1] == "cannot bind"


def test_simulation_runs_only_once():
    sim = Simulation(CHAOS_CONFIG, NoManagementScheme())
    first = sim.run(1)
    n_ticks = len(first.telemetry.finalize()["chip_power_frac"])
    with pytest.raises(ValueError, match="runs only once"):
        sim.run(1)
    assert len(first.telemetry.finalize()["chip_power_frac"]) == n_ticks
    assert len(first.telemetry.windows) == 1
    # A fleet checks every member before it binds any.
    fresh = Simulation(CHAOS_CONFIG, BindRaisingScheme())
    with pytest.raises(ValueError, match="runs only once"):
        Fleet([fresh, sim]).run(1)
    assert np.isfinite(fresh.chip.island_frequency).all()  # not bound
    assert Fleet([fresh]).run(1)[0].args == ("cannot bind",)
