"""Parallel runner: ordering, bit-identity, the calibration wave, and the
on-disk result cache."""

import dataclasses
import hashlib
import os
import pickle
import shutil
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.maxbips import MaxBIPSScheme
from repro.baselines.no_management import NoManagementScheme
from repro.cmpsim.simulator import Fleet, Simulation
from repro.config import DEFAULT_CONFIG
from repro.core.calibration import (
    CalibrationPoint,
    WhiteNoiseDVFSScheme,
    default_calibration,
)
from repro.core.cpm import CPMScheme
from repro.faults import FaultWindow, TransientSensorDropout, inject
from repro.gpm import PerformanceAwarePolicy, ThermalAwarePolicy
from repro.resilience import GuardedCPMScheme
from repro.runner import (
    RunFailure,
    RunRequest,
    cache_key,
    code_fingerprint,
    resolve_cache_dir,
    resolve_jobs,
    run_many,
    run_one,
    seed_stream,
)
from repro.runner import _calibration_points
from repro import runner
from repro.workloads.mixes import MIX1, MIX2

N_GPM = 3


def request(**overrides):
    defaults = dict(
        config=DEFAULT_CONFIG,
        scheme_factory=CPMScheme,
        budget_fraction=0.8,
        seed=7,
        n_gpm_intervals=N_GPM,
    )
    defaults.update(overrides)
    return RunRequest(**defaults)


def digest(result):
    h = hashlib.sha256()
    for name in result.telemetry._SERIES:
        h.update(np.ascontiguousarray(result.telemetry[name]).tobytes())
    return h.hexdigest()


def assert_results_identical(a, b):
    for name in a.telemetry._SERIES:
        np.testing.assert_array_equal(
            a.telemetry[name], b.telemetry[name],
            err_msg=f"series {name!r} differs",
        )
    assert a.total_instructions == b.total_instructions


class PrivateGainScheme(NoManagementScheme):
    """Keeps its one parameter only in an underscore attribute."""

    def __init__(self, gain=1):
        self._gain = gain


class UnbuildableScheme(NoManagementScheme):
    """Raises if anything builds it."""

    def __init__(self):
        raise AssertionError("the scheme was built")


def guarded_dropout():
    """Guarded CPM under a mid-run sensor dropout (module level, so a
    pool worker can unpickle it)."""
    return inject(
        GuardedCPMScheme(), TransientSensorDropout(0, FaultWindow(20, 40))
    )


class TestRunRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            request(budget_fraction=0.0)
        with pytest.raises(ValueError):
            request(budget_fraction=1.2)
        with pytest.raises(ValueError):
            request(n_gpm_intervals=0)

    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    def test_fractional_horizon_fails_at_construction(self, cached, tmp_path):
        """A 2.5-interval request must not be keyed, and so served, as
        the 2-interval run."""
        cache_dir = tmp_path if cached else None
        unmanaged = partial(request, scheme_factory=NoManagementScheme)
        if cached:
            run_one(unmanaged(n_gpm_intervals=2), cache_dir=cache_dir)
        with pytest.raises(TypeError, match="n_gpm_intervals"):
            run_one(unmanaged(n_gpm_intervals=2.5), cache_dir=cache_dir)

    def test_seed_is_a_non_negative_integer(self):
        with pytest.raises(TypeError, match="seed"):
            request(seed=7.5)
        with pytest.raises(ValueError, match="seed"):
            request(seed=-1)
        numpy_ints = request(seed=np.int64(7), n_gpm_intervals=np.int32(N_GPM))
        assert type(numpy_ints.seed) is type(numpy_ints.n_gpm_intervals) is int
        assert cache_key(numpy_ints) == cache_key(request())

    def test_requests_pickle(self):
        restored = pickle.loads(pickle.dumps(request()))
        assert restored.budget_fraction == 0.8
        assert restored.scheme_factory is CPMScheme


class TestRunOne:
    def test_matches_direct_simulation(self):
        direct = Simulation(
            DEFAULT_CONFIG, CPMScheme(), budget_fraction=0.8, seed=7
        ).run(N_GPM)
        assert_results_identical(run_one(request()), direct)


class TestRunMany:
    def test_parallel_bit_identical_to_serial_and_ordered(self):
        requests = [request(budget_fraction=b) for b in (0.75, 0.85, 0.95)]
        serial = run_many(requests, jobs=1)
        parallel = run_many(requests, jobs=2)
        for s, p in zip(serial, parallel):
            assert_results_identical(s, p)
        # Results come back in request order regardless of worker timing.
        powers = [r.mean_chip_power_frac for r in parallel]
        assert powers == sorted(powers)

    def test_mixed_schemes_keep_order(self):
        requests = [
            request(scheme_factory=f)
            for f in (CPMScheme, MaxBIPSScheme, NoManagementScheme)
        ]
        names = [r.scheme_name for r in run_many(requests, jobs=2)]
        assert names == ["cpm", "maxbips", "no-management"]

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_all_cores_means_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        assert resolve_jobs(0) == resolve_jobs(None) == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_jobs(0) == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(None) == 1


class UncalibratableScheme(CPMScheme):
    """Declares a default-calibration point that cannot be computed."""

    name = "uncalibratable"

    def calibration_point(self, config, mix, seed):
        if super().calibration_point(config, mix, seed) is None:
            return None
        return CalibrationPoint.of(config, mix, -1)  # a negative seed raises


SMALL = DEFAULT_CONFIG.with_islands(4, 2)


class TestCalibrationWave:
    def test_pooled_sweep_bit_identical_to_serial(self):
        requests = [
            request(config=config, mix=mix, scheme_factory=factory, seed=seed)
            for config, mix, seed in (
                (DEFAULT_CONFIG, MIX1, 7),
                (DEFAULT_CONFIG, MIX2, 7),
                (SMALL, None, 3),
            )
            for factory in (CPMScheme, MaxBIPSScheme, NoManagementScheme)
        ]
        assert len(_calibration_points(requests)) == 3
        serial = run_many(requests, jobs=1)
        pooled = run_many(requests, jobs=2)
        assert [digest(r) for r in pooled] == [digest(r) for r in serial]
        assert [r.scheme_name for r in pooled] == [
            "cpm", "maxbips", "no-management"
        ] * 3

    def test_explicit_calibration_is_kept(self):
        explicit = default_calibration(DEFAULT_CONFIG, seed=99)
        pinned = request(scheme_factory=partial(CPMScheme, calibration=explicit))
        pooled = run_many([pinned, request()], jobs=2)
        serial = run_one(pinned)
        assert digest(pooled[0]) == digest(serial)
        assert digest(pooled[0]) != digest(pooled[1])
        assert _calibration_points([pinned]) == {}

    def test_points_only_for_schemes_that_calibrate(self):
        requests = [
            request(scheme_factory=f, budget_fraction=b)
            for f in (MaxBIPSScheme, NoManagementScheme)
            for b in (0.7, 0.9)
        ]
        assert _calibration_points(requests) == {}

    def test_one_point_per_distinct_config_mix_seed(self):
        requests = [
            request(),                                # 0: 8c4i, default mix
            request(mix=MIX1, budget_fraction=0.9),   # 1: same point, explicit
            request(scheme_factory=MaxBIPSScheme),    # 2: needs none
            request(mix=MIX2),                        # 3
            request(seed=8),                          # 4
            request(config=SMALL),                    # 5
            request(config=SMALL, budget_fraction=0.7),  # 6: same as 5
        ]
        points = _calibration_points(requests)
        assert list(points.values()) == [[0, 1], [3], [4], [5, 6]]
        assert list(points)[0] == CalibrationPoint(DEFAULT_CONFIG, MIX1, 7)

    def test_excitation_runs_are_cached_and_shared(
        self, tmp_path, monkeypatch, calibration_memo
    ):
        """A cold memo caches a point's 9 excitation runs with the run;
        a point differing only in its mix reuses the 8 homogeneous ones,
        and a fresh process fits a cached point without simulating it."""
        calibration_memo.clear()
        mix1, mix2 = (request(config=SMALL, mix=m) for m in (MIX1, MIX2))
        cold = run_one(mix1, cache_dir=tmp_path)
        assert len(list(tmp_path.rglob("*.pkl"))) == 1 + 9
        calibration_memo.clear()
        simulated = []
        original = Fleet.run

        def recording_run(fleet, n_gpm_intervals):
            simulated.extend(type(sim.scheme).__name__ for sim in fleet.members)
            return original(fleet, n_gpm_intervals)

        monkeypatch.setattr(Fleet, "run", recording_run)
        run_one(mix2, cache_dir=tmp_path)
        # Only the point's own mix run is new, then the run itself.
        assert simulated == ["WhiteNoiseDVFSScheme", "CPMScheme"]
        simulated.clear()
        calibration_memo.clear()
        assert_results_identical(run_one(mix1, cache_dir=tmp_path), cold)
        assert simulated == []
        monkeypatch.setattr(Fleet, "run", original)
        assert_results_identical(cold, run_one(mix1))

    @pytest.mark.slow
    def test_failed_calibration_quarantines_its_requests(self):
        self._check_calibration_quarantine(jobs=2)

    @pytest.mark.slow
    def test_failed_calibration_quarantines_its_requests_in_process(self):
        self._check_calibration_quarantine(jobs=1)

    def _check_calibration_quarantine(self, jobs):
        requests = [
            request(config=SMALL, scheme_factory=UncalibratableScheme),
            request(config=SMALL, scheme_factory=MaxBIPSScheme),
            request(config=SMALL, scheme_factory=UncalibratableScheme,
                    budget_fraction=0.9),
            request(config=SMALL),
        ]
        failures: list[RunFailure] = []
        results = run_many(
            requests, jobs=jobs, on_error="quarantine", failures=failures
        )
        assert [r is not None for r in results] == [False, True, False, True]
        assert sorted(f.index for f in failures) == [0, 2]
        for failure in failures:
            assert failure.kind == "error"
            assert failure.message.startswith("calibration failed: ValueError")
            assert "seed" in failure.message
        assert_results_identical(results[3], run_one(requests[3]))


class TestCacheKey:
    def test_stable_across_equal_requests(self):
        assert cache_key(request()) == cache_key(request())

    @pytest.mark.parametrize(
        "change",
        [
            dict(budget_fraction=0.9),
            dict(seed=8),
            dict(n_gpm_intervals=N_GPM + 1),
            dict(scheme_factory=MaxBIPSScheme),
            dict(config=DEFAULT_CONFIG.with_islands(16, 4)),
        ],
    )
    def test_any_field_change_changes_key(self, change):
        assert cache_key(request(**change)) != cache_key(request())

    def test_scheme_params_enter_the_key(self):
        static, measured = (
            request(scheme_factory=partial(MaxBIPSScheme, prediction=mode))
            for mode in ("static", "measured")
        )
        assert cache_key(static) != cache_key(measured)

    def test_private_parameter_enters_the_key(self):
        """A parameter the scheme keeps only as ``self._gain`` is part of
        the spec, so it cannot share a key with another value."""
        one, two = (
            request(scheme_factory=partial(PrivateGainScheme, gain=g))
            for g in (1, 2)
        )
        assert cache_key(one) != cache_key(two)

    def test_key_never_builds_the_scheme(self):
        assert cache_key(request(scheme_factory=UnbuildableScheme))

    def test_non_spec_factories_are_rejected(self):
        """A factory that is not a spec fails at ``RunRequest(...)``,
        with an error naming the offending argument."""

        class LocalScheme(NoManagementScheme):
            pass

        with pytest.raises(TypeError, match="scheme_factory: .*<lambda>"):
            request(scheme_factory=lambda: CPMScheme())
        with pytest.raises(TypeError, match="scheme_factory: .*LocalScheme"):
            request(scheme_factory=LocalScheme)
        opaque = partial(CPMScheme, policy=object())
        with pytest.raises(TypeError, match="argument 'policy'.*object"):
            request(scheme_factory=opaque)
        pairs = ThermalAwarePolicy(adjacent_pairs=[(0, 1)])  # not a frozenset
        with pytest.raises(TypeError, match="'policy'.adjacent_pairs: .*list"):
            request(scheme_factory=partial(CPMScheme, policy=pairs))

    def test_policy_params_enter_the_key_run_state_does_not(self):
        policy = PerformanceAwarePolicy()
        default = request(scheme_factory=partial(CPMScheme, policy=policy))
        eq6 = request(
            scheme_factory=partial(CPMScheme, policy=PerformanceAwarePolicy(mode="eq6"))
        )
        before = cache_key(default)
        assert cache_key(eq6) != before
        run_one(default)
        assert policy._shares is not None  # the run left state behind
        assert cache_key(default) == before

    def test_explicit_calibration_enters_the_key(self, tmp_path):
        explicit = default_calibration(DEFAULT_CONFIG, seed=99)
        pinned = request(scheme_factory=partial(CPMScheme, calibration=explicit))
        assert cache_key(pinned) != cache_key(request())
        cold = run_many([pinned, request()], jobs=1, cache_dir=tmp_path)
        warm = run_many([pinned, request()], jobs=1, cache_dir=tmp_path)
        assert [digest(r) for r in warm] == [digest(r) for r in cold]
        assert digest(warm[0]) != digest(warm[1])

    def test_excitation_seed_enters_the_key(self):
        """Two white-noise runs that differ only in the scheme's noise
        seed are different runs, with different keys and results."""
        a, b = (
            request(scheme_factory=partial(WhiteNoiseDVFSScheme, seed=s),
                    budget_fraction=1.0, seed=5, n_gpm_intervals=2)
            for s in (1, 2)
        )
        assert cache_key(a) != cache_key(b)
        first, second = run_many([a, b])
        assert digest(first) != digest(second)
        assert digest(second) == digest(run_one(b))


class TestDeduplication:
    def test_duplicate_request_simulated_once(self, monkeypatch):
        runs = []
        original = Fleet.run

        def counting_run(fleet, n_gpm_intervals):
            runs.extend(sim.seeds.root_seed for sim in fleet.members)
            return original(fleet, n_gpm_intervals)

        monkeypatch.setattr(Fleet, "run", counting_run)
        unmanaged = partial(request, scheme_factory=NoManagementScheme)
        results = run_many([unmanaged(), unmanaged(seed=8), unmanaged()], jobs=1)
        assert sorted(runs) == [7, 8]
        assert results[0] is results[2]
        assert results[1] is not results[0]
        monkeypatch.setattr(Fleet, "run", original)
        assert_results_identical(results[0], run_one(unmanaged()))


class TestCodeFingerprint:
    def test_simulator_edits_change_it_lintkit_edits_do_not(self, tmp_path):
        package = Path(runner.__file__).resolve().parent
        trees = {}
        for name in ("copy", "cmpsim", "lintkit"):
            trees[name] = tmp_path / name / "repro"
            shutil.copytree(
                package, trees[name],
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        with open(trees["cmpsim"] / "cmpsim" / "chip.py", "a") as fh:
            fh.write("\n# an edit\n")
        with open(trees["lintkit"] / "lintkit" / "engine.py", "a") as fh:
            fh.write("\n# an edit\n")
        copy = code_fingerprint(trees["copy"])
        assert copy == code_fingerprint()
        assert code_fingerprint(trees["cmpsim"]) != copy
        assert code_fingerprint(trees["lintkit"]) == copy

    def test_numeric_environment_enters_the_key(self, monkeypatch):
        before = cache_key(request())
        monkeypatch.setattr(np, "__version__", "0.0.0")
        code_fingerprint.cache_clear()
        try:
            assert cache_key(request()) != before
        finally:
            monkeypatch.undo()
            code_fingerprint.cache_clear()
        assert cache_key(request()) == before

    def test_fingerprint_enters_the_key(self, monkeypatch):
        before = cache_key(request())
        monkeypatch.setattr(runner, "code_fingerprint", lambda: "other code")
        assert cache_key(request()) != before


class TestDiskCache:
    @pytest.fixture(autouse=True)
    def _fitted_calibration(self):
        """With the requests' calibration already fitted in this process,
        a sweep writes only its runs' entries: a cold memo would also
        cache the calibration's excitation runs (see TestCalibrationWave)."""
        default_calibration(DEFAULT_CONFIG, seed=7)

    def test_miss_then_hit(self, tmp_path):
        first = run_one(request(), cache_dir=tmp_path)
        entries = list(tmp_path.rglob("*.pkl"))
        assert len(entries) == 1
        second = run_one(request(), cache_dir=tmp_path)
        assert_results_identical(first, second)

    def test_different_requests_do_not_collide(self, tmp_path):
        run_one(request(), cache_dir=tmp_path)
        other = run_one(request(budget_fraction=0.9), cache_dir=tmp_path)
        assert len(list(tmp_path.rglob("*.pkl"))) == 2
        assert other.mean_chip_power_frac != pytest.approx(
            run_one(request(), cache_dir=tmp_path).mean_chip_power_frac
        )

    def test_corrupt_entry_recomputed_not_crashed(self, tmp_path):
        expected = run_one(request(), cache_dir=tmp_path)
        (entry,) = tmp_path.rglob("*.pkl")
        entry.write_bytes(b"not a pickle")
        recovered = run_one(request(), cache_dir=tmp_path)
        assert_results_identical(expected, recovered)
        # The corrupt file was replaced by a fresh entry.
        (entry,) = tmp_path.rglob("*.pkl")
        with open(entry, "rb") as fh:
            payload = pickle.load(fh)
        assert payload["key"] == cache_key(request())

    def test_cache_used_by_run_many_workers(self, tmp_path):
        requests = [request(budget_fraction=b) for b in (0.8, 0.9)]
        warm = run_many(requests, jobs=2, cache_dir=tmp_path)
        assert len(list(tmp_path.rglob("*.pkl"))) == 2
        cached = run_many(requests, jobs=2, cache_dir=tmp_path)
        for w, c in zip(warm, cached):
            assert_results_identical(w, c)

    def test_resolve_cache_dir(self, tmp_path, monkeypatch):
        assert resolve_cache_dir(None) is None
        assert resolve_cache_dir(tmp_path) == tmp_path
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir("auto") == tmp_path / "env"
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert resolve_cache_dir("auto") is None


class TestKeyMemo:
    """``run_many`` encodes each (config, mix) object pair once, and
    keys each request exactly as :func:`cache_key` does."""

    def test_equal_configs_that_encode_differently_keep_their_keys(self, tmp_path):
        ints, floats = (
            dataclasses.replace(DEFAULT_CONFIG, island_leakage_multipliers=m)
            for m in ((1, 1, 1, 1), (1.0, 1.0, 1.0, 1.0))
        )
        assert ints == floats and hash(ints) == hash(floats)
        requests = [
            request(config=c, scheme_factory=NoManagementScheme)
            for c in (ints, floats)
        ]
        keys = [cache_key(r) for r in requests]
        assert keys[0] != keys[1]
        run_many(requests, cache_dir=tmp_path)
        assert sorted(p.stem for p in tmp_path.rglob("*.pkl")) == sorted(keys)

    def test_cache_key_is_the_stored_key(self, tmp_path):
        requests = [
            request(scheme_factory=NoManagementScheme, budget_fraction=b)
            for b in (0.7, 0.8)
        ]
        run_many(requests, cache_dir=tmp_path)
        for r in requests:
            key = cache_key(r)
            with open(tmp_path / key[:2] / f"{key}.pkl", "rb") as fh:
                assert pickle.load(fh)["key"] == key


    def test_each_config_object_is_encoded_once(self, tmp_path, monkeypatch):
        """Equal but distinct configs, each with several mix objects:
        one encoding per config object, and the stored keys are
        :func:`cache_key`'s."""
        configs = [dataclasses.replace(DEFAULT_CONFIG) for _ in range(2)]
        mixes = [None, MIX1, dataclasses.replace(MIX1), MIX2]
        requests = [
            request(config=c, mix=m, scheme_factory=NoManagementScheme)
            for c in configs
            for m in mixes
        ]
        encoded = []
        stable = runner._stable

        def counting(value, where):
            if where == "config":
                encoded.append(value)
            return stable(value, where)

        monkeypatch.setattr(runner, "_stable", counting)
        run_many(requests, cache_dir=tmp_path)
        monkeypatch.undo()
        assert [id(c) for c in encoded] == [id(c) for c in configs]
        keys = {cache_key(r) for r in requests}
        assert sorted(p.stem for p in tmp_path.rglob("*.pkl")) == sorted(keys)


class TestSeedStream:
    def test_deterministic_and_distinct(self):
        a = seed_stream(7, 5)
        assert a == seed_stream(7, 5)
        assert len(set(a)) == 5
        assert a != seed_stream(8, 5)
        assert seed_stream(7, 5, role="other") != a


class TestResilienceLog:
    def test_guarded_log_survives_pool_and_cache(self, tmp_path, monkeypatch):
        """A guarded run's log is the same in-process, from a pool worker
        and from the cache."""
        small = DEFAULT_CONFIG.with_islands(4, 2)
        requests = [
            RunRequest(small, guarded_dropout, None, 0.5, 9, 6),
            RunRequest(small, CPMScheme, None, 0.5, 9, 6),
        ]
        scheme = guarded_dropout()
        Simulation(small, scheme, budget_fraction=0.5, seed=9).run(6)
        expected = (scheme.log.events, scheme.log.counts)
        assert scheme.log.events
        pooled = run_many(requests, jobs=2, cache_dir=tmp_path)

        def no_simulation(*args):
            raise AssertionError("a warm cache must not simulate")

        monkeypatch.setattr(runner, "_execute", no_simulation)
        cached = run_many(requests, jobs=2, cache_dir=tmp_path)
        for guarded, unguarded in (pooled, cached):
            assert (guarded.log.events, guarded.log.counts) == expected
            assert not unguarded.log.events and not unguarded.log.counts
