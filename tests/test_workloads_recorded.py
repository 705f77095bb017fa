"""Workload recording and replay."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.no_management import NoManagementScheme
from repro.cmpsim.chip import WorkloadTerms
from repro.cmpsim.simulator import Simulation
from repro.cmpsim.telemetry import Telemetry, WindowStats
from repro.config import DEFAULT_CONFIG
from repro.core.calibration import calibrate
from repro.core.cpm import CPMScheme
from repro.workloads.recorded import RecordedWorkload, record

FIELDS = ("alpha", "cpi_base", "l1_mpki", "l2_mpki")


class TestRecord:
    def test_shapes_and_names(self):
        rec = record(DEFAULT_CONFIG, n_ticks=30)
        assert rec.n_ticks == 30
        assert rec.n_cores == 8
        assert rec.benchmarks[0] == "blackscholes"
        assert np.all((rec.alpha > 0) & (rec.alpha <= 1))

    def test_matches_live_streams(self):
        """record(seed=s) captures exactly what a live run with seed s
        consumes."""
        rec = record(DEFAULT_CONFIG, n_ticks=20, seed=11)
        sim = Simulation(DEFAULT_CONFIG, NoManagementScheme(), seed=11)
        live = sim._workload_terms(20)
        want = sim.chip.workload_terms(*(getattr(rec, name) for name in FIELDS))
        for field in dataclasses.fields(WorkloadTerms):
            got = getattr(live, field.name)
            assert got.tobytes() == getattr(want, field.name).tobytes(), field.name

    def test_validation(self):
        with pytest.raises(ValueError):
            record(DEFAULT_CONFIG, n_ticks=0)


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        rec = record(DEFAULT_CONFIG, n_ticks=12)
        path = rec.save(tmp_path / "capture.npz")
        loaded = RecordedWorkload.load(path)
        assert loaded.benchmarks == rec.benchmarks
        np.testing.assert_array_equal(loaded.alpha, rec.alpha)
        np.testing.assert_array_equal(loaded.l1_mpki, rec.l1_mpki)


def cpm_pinned_to(seed):
    """A CPM factory whose calibration is the one a run at ``seed`` fits,
    so runs at other seeds control identically."""
    calibration = calibrate(DEFAULT_CONFIG, seed=seed)
    return lambda: CPMScheme(calibration=calibration)


def assert_runs_identical(got, want):
    """Every telemetry series, GPM window and the instruction total,
    byte for byte."""
    for name in Telemetry._SERIES:
        assert got.telemetry[name].tobytes() == want.telemetry[name].tobytes(), name
    assert len(got.telemetry.windows) == len(want.telemetry.windows)
    for a, b in zip(got.telemetry.windows, want.telemetry.windows):
        for field in dataclasses.fields(WindowStats):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field.name
    assert got.total_instructions.hex() == want.total_instructions.hex()


@pytest.mark.slow
class TestReplayThroughSimulation:
    def test_replay_reproduces_live_run(self):
        """Driving a simulation from a recording gives bit-identical
        results to the live run it captured."""
        n_gpm = 4
        ticks = n_gpm * DEFAULT_CONFIG.control.pics_per_gpm
        rec = record(DEFAULT_CONFIG, n_ticks=ticks, seed=7)
        for make in (cpm_pinned_to(7), NoManagementScheme):
            live = Simulation(DEFAULT_CONFIG, make(), seed=7).run(n_gpm)
            replayed = Simulation(
                DEFAULT_CONFIG,
                make(),
                seed=999,  # the workload comes from the capture, not the seed
                workload=rec,
            ).run(n_gpm)
            assert_runs_identical(replayed, live)

    def test_short_capture_replays_cyclically(self):
        """A run longer than its capture reads row ``t % n_ticks`` at
        tick ``t``."""
        n_gpm = 3
        ticks = n_gpm * DEFAULT_CONFIG.control.pics_per_gpm
        rec = record(DEFAULT_CONFIG, n_ticks=7, seed=5)
        rows = np.arange(ticks) % rec.n_ticks
        tiled = RecordedWorkload(
            benchmarks=rec.benchmarks,
            **{name: getattr(rec, name)[rows] for name in FIELDS},
        )
        short = Simulation(DEFAULT_CONFIG, NoManagementScheme(), workload=rec)
        full = Simulation(DEFAULT_CONFIG, NoManagementScheme(), workload=tiled)
        assert_runs_identical(short.run(n_gpm), full.run(n_gpm))

    def test_same_workload_different_platform(self):
        """The point of replay: identical samples, different chip."""
        from repro.config import DVFSConfig

        ticks = 3 * DEFAULT_CONFIG.control.pics_per_gpm
        rec = record(DEFAULT_CONFIG, n_ticks=ticks, seed=7)
        quantized = dataclasses.replace(
            DEFAULT_CONFIG, dvfs=DVFSConfig(mode="quantized")
        )
        a = Simulation(DEFAULT_CONFIG, NoManagementScheme(), workload=rec).run(3)
        b = Simulation(quantized, NoManagementScheme(), workload=rec).run(3)
        # Same workload; platform difference is irrelevant at f_max, so
        # throughput matches — demonstrating the workloads really were
        # identical across configs.
        assert b.total_instructions == pytest.approx(
            a.total_instructions, rel=1e-9
        )

    def test_capture_core_count_validated(self):
        rec = record(DEFAULT_CONFIG, n_ticks=5)  # 8 core columns
        for n_cores, n_islands in ((16, 4), (4, 2)):
            with pytest.raises(ValueError, match="one workload column per core"):
                Simulation(
                    DEFAULT_CONFIG.with_islands(n_cores, n_islands),
                    NoManagementScheme(),
                    workload=rec,
                )
