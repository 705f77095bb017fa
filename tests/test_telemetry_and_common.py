"""Telemetry helpers and the experiment-result container."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.baselines.maxbips import MaxBIPSScheme
from repro.baselines.no_management import NoManagementScheme
from repro.cmpsim.chip import IntervalResult
from repro.cmpsim.simulator import Simulation
from repro.cmpsim.telemetry import Telemetry, WindowStats
from repro.config import DEFAULT_CONFIG
from repro.core.cpm import CPMScheme
from repro.experiments.common import ExperimentResult, horizon
from repro.faults import FaultWindow, TransientSensorDropout, inject
from repro.resilience import GuardedCPMScheme

SMALL = DEFAULT_CONFIG.with_islands(4, 2)


def fake_interval(n_islands=2, n_cores=4, power=0.1) -> IntervalResult:
    return IntervalResult(
        dt=5e-4,
        core_busy=np.full(n_cores, 0.8),
        core_ips=np.full(n_cores, 1e9),
        core_instructions=np.full(n_cores, 5e5),
        core_power_w=np.full(n_cores, 5.0),
        core_utilization=np.full(n_cores, 0.7),
        core_temperature_c=np.full(n_cores, 55.0),
        island_power_w=np.full(n_islands, 10.0),
        island_power_frac=np.full(n_islands, power),
        island_bips=np.full(n_islands, 2.0),
        island_utilization=np.full(n_islands, 0.7),
        island_frequency_ghz=np.full(n_islands, 1.6),
        chip_power_w=25.0,
        chip_power_frac=2 * power + 0.05,
        chip_bips=4.0,
    )


def sized(n_rows: int) -> Telemetry:
    """A 2-island, 4-core telemetry reserved for ``n_rows`` intervals."""
    t = Telemetry(n_islands=2, n_cores=4)
    t.reserve(n_rows)
    return t


def record_ticks(telemetry: Telemetry, powers, gpm_every=3):
    for t, p in enumerate(powers):
        telemetry.record(
            time_s=t * 5e-4,
            result=fake_interval(power=p),
            setpoints=np.array([0.1, 0.1]),
            sensed=np.array([p, p]),
            is_gpm_tick=(t % gpm_every == 0),
        )


class TestTelemetry:
    def test_record_and_finalize(self):
        t = sized(3)
        record_ticks(t, [0.1, 0.11, 0.12])
        arrays = t.finalize()
        assert arrays["island_power_frac"].shape == (3, 2)
        assert t.n_intervals == 3

    def test_record_after_finalize_rejected(self):
        t = sized(2)
        record_ticks(t, [0.1])
        t.finalize()
        with pytest.raises(RuntimeError):
            record_ticks(t, [0.1])

    def test_gpm_tick_indices(self):
        t = sized(7)
        record_ticks(t, [0.1] * 7, gpm_every=3)
        assert t.gpm_tick_indices().tolist() == [0, 3, 6]

    def test_window_stats_storage(self):
        t = Telemetry(n_islands=2, n_cores=4)
        w = WindowStats(
            island_power_frac=np.array([0.1, 0.1]),
            island_bips=np.array([2.0, 2.0]),
            island_utilization=np.array([0.7, 0.7]),
            island_setpoints=np.array([0.1, 0.1]),
            island_energy_j=np.array([0.05, 0.05]),
            island_instructions=np.array([1e6, 1e6]),
            duration_s=5e-3,
        )
        t.push_window(w)
        assert t.windows == [w]


def fake_window(k: int, n_islands: int = 2) -> WindowStats:
    return WindowStats(
        island_power_frac=np.full(n_islands, 0.1 + k),
        island_bips=np.full(n_islands, 2.0 + k),
        island_utilization=np.full(n_islands, 0.7),
        island_setpoints=np.full(n_islands, 0.1),
        island_energy_j=np.full(n_islands, 0.05 * k),
        island_instructions=np.full(n_islands, 1e6 + k),
        duration_s=5e-3 * (k + 1),
    )


def count_arrays(value) -> int:
    """numpy arrays reachable from ``value`` through containers and
    dataclasses: what a pickle of it stores one by one."""
    if isinstance(value, np.ndarray):
        return 1
    if isinstance(value, dict):
        return sum(count_arrays(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(count_arrays(v) for v in value)
    if dataclasses.is_dataclass(value):
        return sum(
            count_arrays(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    return 0


def assert_windows_identical(got, want):
    assert len(got) == len(want)
    for after, before in zip(got, want):
        for field in dataclasses.fields(WindowStats):
            a, b = getattr(after, field.name), getattr(before, field.name)
            assert type(a) is type(b), field.name
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, field.name
                assert a.tobytes() == b.tobytes(), field.name
            else:
                assert a.hex() == b.hex(), field.name


def guarded_under_dropout():
    return inject(GuardedCPMScheme(), TransientSensorDropout(0, FaultWindow(20, 40)))


SCHEMES = {
    "cpm": CPMScheme,
    "maxbips": MaxBIPSScheme,
    "none": NoManagementScheme,
    "cpm-guarded": guarded_under_dropout,
}


def small_run(make_scheme):
    sim = Simulation(SMALL, make_scheme(), budget_fraction=0.5, seed=9)
    return sim.run(6)


class TestColumnarLayout:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_pickle_round_trip_is_bit_identical(self, name):
        telemetry = small_run(SCHEMES[name]).telemetry
        loaded = pickle.loads(pickle.dumps(telemetry))
        assert loaded.n_intervals == telemetry.n_intervals
        assert_windows_identical(loaded.windows, telemetry.windows)
        for key in Telemetry._SERIES:
            before, after = telemetry[key], loaded[key]
            assert after.dtype == before.dtype
            assert after.shape == before.shape
            assert after.tobytes() == before.tobytes()

    def test_dtypes_and_shapes(self):
        telemetry = small_run(CPMScheme).telemetry
        rows = telemetry.n_intervals
        widths = {"island": SMALL.n_islands, "core": SMALL.n_cores}
        for key, values in telemetry.finalize().items():
            prefix = key.split("_")[0]
            shape = (rows, widths[prefix]) if prefix in widths else (rows,)
            assert values.shape == shape, key
            expected = bool if key == "is_gpm_tick" else np.float64
            assert values.dtype == expected, key

    def test_pickled_state_is_one_array_per_series(self):
        telemetry = small_run(CPMScheme).telemetry
        state = telemetry.__getstate__()
        columns = state["columns"]
        assert sorted(columns) == sorted(Telemetry._SERIES)
        for values in columns.values():
            assert type(values) is np.ndarray
            assert len(values) == telemetry.n_intervals
        arrays = [v for v in state.values() if isinstance(v, np.ndarray)]
        assert arrays == []  # no series outside ``columns``

    def test_pickled_array_count_does_not_grow_with_windows(self):
        counts = set()
        for n_windows in (0, 1, 40):
            t = sized(3)
            record_ticks(t, [0.1] * 3)
            for k in range(n_windows):
                t.push_window(fake_window(k))
            counts.add(count_arrays(t.__getstate__()))
        assert counts == {len(Telemetry._SERIES) + len(dataclasses.fields(WindowStats))}

    @pytest.mark.parametrize("n_rows", [0, 3])
    def test_zero_window_telemetry_round_trips(self, n_rows):
        t = sized(n_rows)
        record_ticks(t, [0.1] * n_rows)
        loaded = pickle.loads(pickle.dumps(t))
        assert loaded.windows == []
        assert loaded.n_intervals == n_rows
        assert loaded["island_power_frac"].shape == (n_rows, 2)

    def test_reading_tick_series_builds_no_windows(self):
        loaded = pickle.loads(pickle.dumps(small_run(CPMScheme).telemetry))
        assert loaded["chip_bips"].size and loaded.gpm_tick_indices().size
        assert loaded._windows is None
        assert loaded.windows  # built on first access

    def test_window_pushed_after_unpickling_is_pickled(self):
        t = Telemetry(n_islands=2, n_cores=4)
        t.push_window(fake_window(0))
        loaded = pickle.loads(pickle.dumps(t))
        loaded.push_window(fake_window(1))
        again = pickle.loads(pickle.dumps(loaded))
        assert_windows_identical(again.windows, [fake_window(0), fake_window(1)])

    def test_record_after_unpickling_rejected(self):
        t = sized(3)
        record_ticks(t, [0.1, 0.2])
        loaded = pickle.loads(pickle.dumps(t))
        assert loaded.n_intervals == 2
        with pytest.raises(RuntimeError):
            record_ticks(loaded, [0.1])

    def test_pickling_leaves_the_original_recordable(self):
        t = sized(2)
        record_ticks(t, [0.1])
        pickle.dumps(t)
        record_ticks(t, [0.2])
        assert t["island_power_frac"][:, 0].tolist() == [0.1, 0.2]

    def test_record_past_reserved_size_raises(self):
        t = sized(3)
        record_ticks(t, [0.1, 0.2, 0.3])
        with pytest.raises(RuntimeError, match="full"):
            record_ticks(t, [0.4])
        assert t["island_power_frac"][:, 1].tolist() == [0.1, 0.2, 0.3]

    def test_reserve_only_before_the_first_row(self):
        t = sized(2)
        record_ticks(t, [0.1])
        with pytest.raises(RuntimeError):
            t.reserve(5)

    def test_reserve_sizes_the_run_exactly(self):
        t = sized(5)
        record_ticks(t, [0.1] * 5)
        assert t._columns["core_utilization"].shape == (5, 4)  # never grown


class TestExperimentResult:
    def test_render_contains_everything(self):
        result = ExperimentResult(
            experiment="demo", description="a demo", headers=("a", "b")
        )
        result.add_row("x", 1.5)
        result.add_series("trace", [1.0, 2.0, 3.0])
        result.notes.append("a note")
        text = result.render()
        assert "demo" in text
        assert "1.5000" in text
        assert "note: a note" in text
        assert "trace" in text

    def test_series_coerced_to_float_arrays(self):
        result = ExperimentResult(experiment="demo", description="d")
        result.add_series("xs", [1, 2, 3])
        assert result.series["xs"].dtype == np.float64

    def test_horizon_switch(self):
        assert horizon(True) < horizon(False)
