"""Batched workload advancement is bit-identical to per-tick advancement."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.baselines.no_management import NoManagementScheme
from repro.cmpsim.simulator import Simulation
from repro.config import DEFAULT_CONFIG
from repro.core.cpm import CPMScheme
from repro.rng import SeedSequenceFactory
from repro.workloads.benchmark import BenchmarkInstance
from repro.workloads.mixes import MIX1
from repro.workloads.phases import Phase, PhaseMachine
from repro.workloads.recorded import record

PHASES = (
    Phase(alpha=0.9, cpi_base=0.8, l1_mpki=5.0, l2_mpki=0.5),
    Phase(alpha=0.6, cpi_base=1.2, l1_mpki=30.0, l2_mpki=10.0),
    Phase(alpha=0.3, cpi_base=2.0, l1_mpki=50.0, l2_mpki=20.0),
)


def instances(specs, seeds):
    """One instance per spec, on the streams the simulator gives them."""
    return [
        BenchmarkInstance(spec, seeds.generator(f"workload/core{i}/{spec.name}"))
        for i, spec in enumerate(specs)
    ]


def machine(seed, phases=PHASES):
    return PhaseMachine(
        phases=phases,
        mean_dwell_intervals=8.0,
        noise_sigma=0.02,
        noise_rho=0.8,
        rng=np.random.default_rng(seed),
    )


class TestPhaseMachineBlock:
    @pytest.mark.parametrize("seed", range(8))
    def test_block_matches_serial(self, seed):
        serial, batched = machine(seed), machine(seed)
        states = [serial.advance() for _ in range(120)]
        block = batched.advance_block(120)
        np.testing.assert_array_equal(
            block.phase_index, [PHASES.index(s.phase) for s in states]
        )
        np.testing.assert_array_equal(
            block.alpha, [s.alpha for s in states]
        )
        for name in ("cpi_base", "l1_mpki", "l2_mpki"):
            np.testing.assert_array_equal(
                getattr(block, name), [getattr(s.phase, name) for s in states]
            )

    def test_split_blocks_match_one_block(self):
        whole, split = machine(3), machine(3)
        block = whole.advance_block(90)
        parts = [split.advance_block(n) for n in (1, 29, 60)]
        np.testing.assert_array_equal(
            block.alpha, np.concatenate([p.alpha for p in parts])
        )
        np.testing.assert_array_equal(
            block.phase_index,
            np.concatenate([p.phase_index for p in parts]),
        )

    def test_block_then_serial_continues_stream(self):
        a, b = machine(5), machine(5)
        a.advance_block(40)
        [b.advance() for _ in range(40)]
        assert a.advance() == b.advance()

    def test_single_phase_machine(self):
        single = (PHASES[0],)
        serial, batched = machine(9, single), machine(9, single)
        states = [serial.advance() for _ in range(50)]
        block = batched.advance_block(50)
        assert set(block.phase_index) == {0}
        np.testing.assert_array_equal(block.alpha, [s.alpha for s in states])

    def test_validation(self):
        with pytest.raises(ValueError):
            machine(0).advance_block(0)

    def test_n_intervals(self):
        assert machine(0).advance_block(17).n_intervals == 17


class TestBenchmarkInstanceBlock:
    def test_delegates_to_machine(self):
        serial = instances(MIX1.specs(), SeedSequenceFactory(4))
        batched = instances(MIX1.specs(), SeedSequenceFactory(4))
        for s, b in zip(serial, batched):
            samples = [s.advance() for _ in range(60)]
            block = b.advance_block(60)
            for name in ("alpha", "cpi_base", "l1_mpki", "l2_mpki"):
                np.testing.assert_array_equal(
                    getattr(block, name),
                    [getattr(sample, name) for sample in samples],
                )


class TestReplayBlock:
    def test_wraps_like_serial(self):
        rec = record(DEFAULT_CONFIG, n_ticks=10, seed=2)
        for s, b in zip(rec.instances(), rec.instances()):
            samples = [s.advance() for _ in range(25)]  # wraps past n_ticks
            block = b.advance_block(25)
            np.testing.assert_array_equal(
                block.alpha, [sample.alpha for sample in samples]
            )
            np.testing.assert_array_equal(
                block.l2_mpki, [sample.l2_mpki for sample in samples]
            )


class PerTickOnly:
    """A workload instance without ``advance_block``: the simulator must
    build its block from one ``advance()`` call per tick."""

    def __init__(self, instance) -> None:
        self._instance = instance

    def advance(self):
        return self._instance.advance()

    def retire(self, instructions: float) -> None:
        self._instance.retire(instructions)

    @property
    def instructions_retired(self) -> float:
        return self._instance.instructions_retired


def per_tick_sim(scheme, cores=None, **kwargs) -> Simulation:
    """A simulation whose instances (all, or the listed cores) only
    support per-tick ``advance()``."""
    sim = Simulation(DEFAULT_CONFIG, scheme, **kwargs)
    sim.instances = [
        PerTickOnly(inst) if cores is None or i in cores else inst
        for i, inst in enumerate(sim.instances)
    ]
    return sim


class TestSimulationBatching:
    @pytest.mark.parametrize("scheme_factory", [CPMScheme, NoManagementScheme])
    def test_batched_run_bit_identical(self, scheme_factory):
        serial = per_tick_sim(scheme_factory(), budget_fraction=0.8, seed=13).run(6)
        batched = Simulation(
            DEFAULT_CONFIG, scheme_factory(), budget_fraction=0.8, seed=13
        ).run(6)
        for name in serial.telemetry._SERIES:
            np.testing.assert_array_equal(
                serial.telemetry[name],
                batched.telemetry[name],
                err_msg=f"series {name!r} differs",
            )
        assert serial.total_instructions == batched.total_instructions

    def test_batched_retires_identical_instruction_counts(self):
        serial = per_tick_sim(CPMScheme(), seed=13)
        batched = Simulation(DEFAULT_CONFIG, CPMScheme(), seed=13)
        serial.run(4)
        batched.run(4)
        for s, b in zip(serial.instances, batched.instances):
            assert s.instructions_retired == b.instructions_retired

    def test_mixed_instances_match_batched(self):
        mixed = per_tick_sim(CPMScheme(), cores={0, 3, 5}, seed=1).run(4)
        batched = Simulation(DEFAULT_CONFIG, CPMScheme(), seed=1).run(4)
        np.testing.assert_array_equal(
            mixed.telemetry["chip_power_frac"],
            batched.telemetry["chip_power_frac"],
        )


def test_cpm_run_imports_no_scipy():
    """A full CPM run (calibration included) never imports scipy."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "from repro.config import DEFAULT_CONFIG\n"
        "from repro.core.cpm import CPMScheme\n"
        "from repro.runner import RunRequest, run_one\n"
        "run_one(RunRequest(config=DEFAULT_CONFIG, scheme_factory=CPMScheme,"
        " seed=5, n_gpm_intervals=2))\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
