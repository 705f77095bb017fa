"""Batched workload advancement is bit-identical to per-tick advancement."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.baselines.no_management import NoManagementScheme
from repro.cmpsim.chip import WorkloadTerms
from repro.cmpsim.simulator import Simulation
from repro.config import DEFAULT_CONFIG
from repro.core.cpm import CPMScheme
from repro.rng import SeedSequenceFactory
from repro.workloads.benchmark import BenchmarkInstance
from repro.workloads.mixes import MIX1, mix_for_config
from repro.workloads.phases import Phase, PhaseMachine
from repro.workloads.recorded import RecordedWorkload, record

PHASES = (
    Phase(alpha=0.9, cpi_base=0.8, l1_mpki=5.0, l2_mpki=0.5),
    Phase(alpha=0.6, cpi_base=1.2, l1_mpki=30.0, l2_mpki=10.0),
    Phase(alpha=0.3, cpi_base=2.0, l1_mpki=50.0, l2_mpki=20.0),
)


FIELDS = ("alpha", "cpi_base", "l1_mpki", "l2_mpki")


def role(core, spec):
    """The stream a run draws core ``core``'s workload from."""
    return f"workload/core{core}/{spec.name}"


def serial_columns(spec, rng, n_ticks):
    """``n_ticks`` of a benchmark's workload, one ``PhaseMachine.advance``
    call per tick: the per-tick reference every block draw is held to."""
    m = PhaseMachine(
        spec.phases,
        mean_dwell_intervals=spec.mean_dwell_intervals,
        noise_sigma=spec.noise_sigma,
        noise_rho=spec.noise_rho,
        rng=rng,
    )
    states = [m.advance() for _ in range(n_ticks)]
    columns = {"alpha": [s.alpha for s in states]}
    for name in FIELDS[1:]:
        columns[name] = [getattr(s.phase, name) for s in states]
    return columns


def serial_capture(n_ticks, seed, config=DEFAULT_CONFIG) -> RecordedWorkload:
    """A run's workload drawn per tick, on the streams a live run uses."""
    specs = mix_for_config(config).specs()
    seeds = SeedSequenceFactory(seed)
    arrays = {name: np.empty((n_ticks, len(specs))) for name in FIELDS}
    for core, spec in enumerate(specs):
        columns = serial_columns(spec, seeds.generator(role(core, spec)), n_ticks)
        for name in FIELDS:
            arrays[name][:, core] = columns[name]
    return RecordedWorkload(benchmarks=tuple(s.name for s in specs), **arrays)


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
        seeds = SeedSequenceFactory(4)
        for core, spec in enumerate(MIX1.specs()):
            instance = BenchmarkInstance(spec, seeds.generator(role(core, spec)))
            block = instance.advance_block(60)
            columns = serial_columns(spec, seeds.generator(role(core, spec)), 60)
            for name in FIELDS:
                np.testing.assert_array_equal(getattr(block, name), columns[name])


class TestReplayBlock:
    def test_wraps_like_serial(self):
        rec = record(DEFAULT_CONFIG, n_ticks=10, seed=2)
        serial = serial_capture(10, seed=2)
        for name in FIELDS:
            assert getattr(rec, name).tobytes() == getattr(serial, name).tobytes()
        # A 25-tick run replays the 10-tick capture cyclically.
        sim = Simulation(DEFAULT_CONFIG, NoManagementScheme(), workload=rec)
        terms = sim._workload_terms(25)
        rows = [t % 10 for t in range(25)]
        want = sim.chip.workload_terms(*(getattr(serial, n)[rows] for n in FIELDS))
        for field in dataclasses.fields(WorkloadTerms):
            got = getattr(terms, field.name)
            assert got.tobytes() == getattr(want, field.name).tobytes(), field.name


class TestSimulationBatching:
    @pytest.mark.parametrize("scheme_factory", [CPMScheme, NoManagementScheme])
    def test_batched_run_bit_identical(self, scheme_factory):
        """A live run, whose workload is drawn in blocks, equals the run
        fed the same workload drawn one tick at a time."""
        ticks = 6 * DEFAULT_CONFIG.control.pics_per_gpm
        serial = Simulation(
            DEFAULT_CONFIG, scheme_factory(), budget_fraction=0.8, seed=13,
            workload=serial_capture(ticks, seed=13),
        ).run(6)
        batched = Simulation(
            DEFAULT_CONFIG, scheme_factory(), budget_fraction=0.8, seed=13
        ).run(6)
        for name in serial.telemetry._SERIES:
            assert (
                serial.telemetry[name].tobytes() == batched.telemetry[name].tobytes()
            ), f"series {name!r} differs"
        assert serial.total_instructions.hex() == batched.total_instructions.hex()


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
