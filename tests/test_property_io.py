"""Property-based tests on serialization and recorded workloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.no_management import NoManagementScheme
from repro.cmpsim.simulator import Simulation
from repro.config import DEFAULT_CONFIG
from repro.workloads.recorded import RecordedWorkload


def make_recording(n_ticks: int, n_cores: int, seed: int) -> RecordedWorkload:
    rng = np.random.default_rng(seed)
    return RecordedWorkload(
        benchmarks=tuple(f"bench{i}" for i in range(n_cores)),
        alpha=rng.uniform(0.1, 1.0, (n_ticks, n_cores)),
        cpi_base=rng.uniform(0.6, 1.5, (n_ticks, n_cores)),
        l1_mpki=rng.uniform(0.0, 50.0, (n_ticks, n_cores)),
        l2_mpki=rng.uniform(0.0, 25.0, (n_ticks, n_cores)),
    )


class TestRecordingProperties:
    @given(
        n_ticks=st.integers(1, 40),
        n_cores=st.integers(1, 16),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_save_load_roundtrip(self, n_ticks, n_cores, seed, tmp_path_factory):
        rec = make_recording(n_ticks, n_cores, seed)
        path = tmp_path_factory.mktemp("rec") / "capture.npz"
        loaded = RecordedWorkload.load(rec.save(path))
        assert loaded.benchmarks == rec.benchmarks
        for field in ("alpha", "cpi_base", "l1_mpki", "l2_mpki"):
            np.testing.assert_array_equal(
                getattr(loaded, field), getattr(rec, field)
            )

    @given(
        n_ticks=st.integers(1, 20),
        seed=st.integers(0, 2**16),
        n_advances=st.integers(1, 60),
    )
    @settings(max_examples=30, deadline=None)
    def test_replay_cycles_deterministically(self, n_ticks, seed, n_advances):
        rec = make_recording(n_ticks, DEFAULT_CONFIG.n_cores, seed)
        sim = Simulation(DEFAULT_CONFIG, NoManagementScheme(), workload=rec)
        alpha = sim._workload_terms(n_advances).alpha
        for t in range(n_advances):
            assert alpha[t].tobytes() == rec.alpha[t % n_ticks].tobytes()

    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RecordedWorkload(
                benchmarks=("a",),
                alpha=rng.random((5, 2)),  # 2 cores but 1 name
                cpi_base=rng.random((5, 2)),
                l1_mpki=rng.random((5, 2)),
                l2_mpki=rng.random((5, 2)),
            )
        with pytest.raises(ValueError):
            RecordedWorkload(
                benchmarks=("a", "b"),
                alpha=rng.random((5, 2)),
                cpi_base=rng.random((4, 2)),  # mismatched ticks
                l1_mpki=rng.random((5, 2)),
                l2_mpki=rng.random((5, 2)),
            )


class TestCSVFlattening:
    @given(
        n=st.integers(1, 30),
        m=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_flatten_preserves_values(self, n, m, seed):
        from repro.io import _flatten_columns

        rng = np.random.default_rng(seed)
        arrays = {
            "scalar": rng.random(n),
            "vector": rng.random((n, m)),
        }
        names, table = _flatten_columns(arrays)
        assert table.shape == (n, 1 + m)
        assert names[0] == "scalar"
        col = names.index("vector[0]")
        np.testing.assert_allclose(table[:, col], arrays["vector"][:, 0])
