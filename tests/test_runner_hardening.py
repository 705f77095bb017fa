"""Hardened runner: timeouts, retry, quarantine, and cache durability.

The misbehaving schemes live at module level so their factories pickle
into worker processes.  Each is pathological in a different way: one
kills its process outright (crash), one never returns (timeout), one
raises a deterministic exception (error — never retried).
"""

import os
import pickle
import time
from functools import partial

import numpy as np
import pytest

from repro.baselines.no_management import NoManagementScheme
from repro.cmpsim.simulator import Fleet
from repro.config import DEFAULT_CONFIG
from repro.core.cpm import CPMScheme
from repro.runner import (
    RunFailure,
    RunRequest,
    cache_key,
    run_many,
    run_one,
)
from repro.runner import _cache_load, _cache_store, _retry_backoff_s

SMALL = DEFAULT_CONFIG.with_islands(4, 2)
N_GPM = 2


class CrashingScheme(CPMScheme):
    """Kills its worker process mid-run (simulates a segfault/OOM kill)."""

    name = "crashing"

    def on_gpm(self, sim):
        if sim.tick > 0:
            os._exit(17)
        super().on_gpm(sim)


class HangingScheme(CPMScheme):
    """Never finishes; only a supervisor deadline can stop it."""

    name = "hanging"

    def on_gpm(self, sim):
        if sim.tick > 0:
            time.sleep(600)
        super().on_gpm(sim)


class RaisingScheme(CPMScheme):
    """Raises a deterministic exception (retrying would only repeat it)."""

    name = "raising"

    def on_gpm(self, sim):
        if sim.tick > 0:
            raise ValueError("boom")
        super().on_gpm(sim)


class UnpicklableError(Exception):
    """Pickles, but cannot be rebuilt: ``__init__`` needs two arguments."""

    def __init__(self, detail, code):
        super().__init__(f"{detail} (code {code})")


class UnpicklableRaisingScheme(CPMScheme):
    """Raises an exception that cannot cross a process boundary."""

    name = "unpicklable-raising"

    def on_gpm(self, sim):
        if sim.tick > 0:
            raise UnpicklableError("bad", 3)
        super().on_gpm(sim)


class PidRecordingScheme(CPMScheme):
    """Appends the pid of each process that runs it to ``log_path``."""

    name = "pid-recording"

    def __init__(self, log_path):
        super().__init__()
        self.log_path = log_path

    def bind(self, sim):
        with open(self.log_path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        super().bind(sim)


def request(scheme_factory=CPMScheme, **overrides):
    defaults = dict(
        config=SMALL,
        scheme_factory=scheme_factory,
        budget_fraction=0.8,
        seed=7,
        n_gpm_intervals=N_GPM,
    )
    defaults.update(overrides)
    return RunRequest(**defaults)


def assert_results_identical(a, b):
    for name in a.telemetry._SERIES:
        np.testing.assert_array_equal(
            a.telemetry[name], b.telemetry[name],
            err_msg=f"series {name!r} differs",
        )
    assert a.total_instructions == b.total_instructions


class TestArgumentValidation:
    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError):
            run_many([request()], on_error="ignore")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_many([request()], retries=-1)

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ValueError):
            run_many([request()], timeout_s=0.0)

    def test_serial_timeout_warns_and_runs(self):
        with pytest.warns(RuntimeWarning, match="timeout_s requires"):
            results = run_many([request()], jobs=1, timeout_s=5.0)
        assert len(results) == 1 and results[0] is not None


class TestBackoff:
    def test_bounded_exponential(self):
        delays = [_retry_backoff_s(a) for a in range(8)]
        assert delays == sorted(delays)
        assert delays[0] > 0
        assert max(delays) <= 0.5


@pytest.mark.slow
class TestQuarantine:
    def test_mixed_sweep_returns_all_healthy_results(self):
        reqs = [
            request(seed=1),
            request(RaisingScheme, seed=2),
            request(seed=3),
            request(CrashingScheme, seed=4),
            request(HangingScheme, seed=5),
        ]
        failures: list[RunFailure] = []
        results = run_many(
            reqs, jobs=3, timeout_s=3.0, on_error="quarantine",
            failures=failures,
        )
        assert [r is not None for r in results] == [
            True, False, True, False, False
        ]
        # Healthy slots are bit-identical to running them alone.
        assert_results_identical(results[0], run_one(reqs[0]))
        assert_results_identical(results[2], run_one(reqs[2]))
        kinds = {f.index: f.kind for f in failures}
        assert kinds == {1: "error", 3: "crash", 4: "timeout"}
        crash = next(f for f in failures if f.kind == "crash")
        assert "17" in crash.message  # exit code surfaced
        error = next(f for f in failures if f.kind == "error")
        assert "boom" in error.message

    def test_crash_and_timeout_retried_error_not(self):
        failures: list[RunFailure] = []
        run_many(
            [request(CrashingScheme), request(RaisingScheme)],
            jobs=2, timeout_s=5.0, retries=1, on_error="quarantine",
            failures=failures,
        )
        attempts = {f.kind: f.attempts for f in failures}
        assert attempts["crash"] == 2  # retried once
        assert attempts["error"] == 1  # deterministic raise: no retry

    def test_on_error_raise_aborts(self):
        with pytest.raises(RuntimeError, match="crash"):
            run_many(
                [request(CrashingScheme), request(seed=8)],
                jobs=2, timeout_s=10.0, on_error="raise",
            )

    def test_serial_quarantine(self):
        failures: list[RunFailure] = []
        results = run_many(
            [request(RaisingScheme), request(seed=6)],
            jobs=1, on_error="quarantine", failures=failures,
        )
        assert results[0] is None and results[1] is not None
        assert failures[0].kind == "error" and failures[0].index == 0

    def test_failing_duplicate_fails_at_every_position(self, monkeypatch):
        runs = []
        original = Fleet.run

        def counting_run(fleet, n_gpm_intervals):
            runs.extend(type(sim.scheme).__name__ for sim in fleet.members)
            return original(fleet, n_gpm_intervals)

        monkeypatch.setattr(Fleet, "run", counting_run)
        failures: list[RunFailure] = []
        results = run_many(
            [request(RaisingScheme), request(seed=6), request(RaisingScheme)],
            jobs=1, on_error="quarantine", failures=failures,
        )
        assert sorted(runs) == ["CPMScheme", "RaisingScheme"]
        assert results[0] is None and results[2] is None
        assert results[1] is not None
        assert [(f.index, f.kind) for f in failures] == [(0, "error"), (2, "error")]

    @pytest.mark.parametrize(
        "options",
        [dict(jobs=1), dict(jobs=2), dict(jobs=2, timeout_s=30.0)],
        ids=["in-process", "pool", "pool-with-deadline"],
    )
    def test_raising_run_surfaces_its_own_exception(self, options):
        with pytest.raises(ValueError, match="^boom$"):
            run_many(
                [request(RaisingScheme), request()], on_error="raise",
                **options,
            )

    def test_unpicklable_exception_becomes_runtime_error(self):
        with pytest.raises(RuntimeError, match="UnpicklableError: bad"):
            run_many(
                [request(UnpicklableRaisingScheme), request()], jobs=2,
                on_error="raise",
            )

    def test_pool_reuses_its_workers(self, tmp_path):
        log = tmp_path / "pids"
        reqs = [
            request(partial(PidRecordingScheme, str(log)), budget_fraction=b)
            for b in (0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
        ]
        results = run_many(reqs, jobs=2, timeout_s=60.0)
        assert all(r is not None for r in results)
        pids = log.read_text().split()
        assert len(pids) == 6
        assert str(os.getpid()) not in pids
        assert len(set(pids)) <= 2

    def test_healthy_requests_complete_after_a_crash(self):
        reqs = [request(CrashingScheme)] + [
            request(seed=s) for s in (11, 12, 13)
        ]
        failures: list[RunFailure] = []
        results = run_many(
            reqs, jobs=2, timeout_s=60.0, on_error="quarantine",
            failures=failures,
        )
        assert [(f.index, f.kind) for f in failures] == [(0, "crash")]
        assert results[0] is None
        for req, result in zip(reqs[1:], results[1:]):
            assert_results_identical(result, run_one(req))

    def test_supervised_healthy_sweep_bit_identical_to_serial(self):
        reqs = [request(seed=s) for s in (21, 22, 23)]
        serial = run_many(reqs, jobs=1)
        supervised = run_many(reqs, jobs=2, timeout_s=60.0)
        for a, b in zip(serial, supervised):
            assert_results_identical(a, b)


class RaisingUnmanagedScheme(NoManagementScheme):
    """Raises mid-run; needs no calibration, so no wave runs before it."""

    name = "raising-unmanaged"

    def on_pic(self, sim):
        if sim.tick > 0:
            raise ValueError("boom")
        super().on_pic(sim)


def _record_fleet_sizes(monkeypatch, log_path):
    """Have every fleet, in this process or a forked worker, append its
    member count to ``log_path``; return a reader of the counts."""
    original = Fleet.run

    def recording_run(fleet, n_gpm_intervals):
        with open(log_path, "a") as fh:
            fh.write(f"{len(fleet.members)}\n")
        return original(fleet, n_gpm_intervals)

    monkeypatch.setattr(Fleet, "run", recording_run)
    return lambda: sorted(int(n) for n in open(log_path).read().split())


class TestFleetsUnderTheFailurePolicy:
    """Unsupervised misses that share a config and a horizon run as
    fleets; a supervised sweep runs one run per task, because a deadline,
    a retry and a quarantine each belong to one run."""

    @pytest.mark.parametrize(
        "options",
        [
            dict(jobs=1, on_error="quarantine"),
            dict(jobs=1, retries=1),
            dict(jobs=2, timeout_s=60.0),
            dict(jobs=2, on_error="quarantine"),
        ],
        ids=["quarantine", "retries", "pool-with-deadline", "pool-quarantine"],
    )
    def test_supervised_sweep_runs_one_run_per_task(
        self, options, monkeypatch, tmp_path
    ):
        sizes = _record_fleet_sizes(monkeypatch, tmp_path / "sizes")
        reqs = [request(NoManagementScheme, seed=s) for s in (31, 32, 33, 34)]
        results = run_many(reqs, **options)
        assert sizes() == [1, 1, 1, 1]
        for req, result in zip(reqs, results):
            assert_results_identical(result, run_one(req))

    @pytest.mark.parametrize(
        ("jobs", "expected"), [(1, [4]), (2, [2, 2])], ids=["in-process", "pool"]
    )
    def test_unsupervised_sweep_runs_fleets(
        self, jobs, expected, monkeypatch, tmp_path
    ):
        sizes = _record_fleet_sizes(monkeypatch, tmp_path / "sizes")
        reqs = [request(NoManagementScheme, seed=s) for s in (31, 32, 33, 34)]
        results = run_many(reqs, jobs=jobs)
        assert sizes() == expected
        for req, result in zip(reqs, results):
            assert_results_identical(result, run_one(req))

    @pytest.mark.parametrize("jobs", [1, 2], ids=["in-process", "pool"])
    def test_raising_member_aborts_the_sweep_with_its_own_exception(
        self, jobs, monkeypatch, tmp_path
    ):
        sizes = _record_fleet_sizes(monkeypatch, tmp_path / "sizes")
        reqs = [
            request(NoManagementScheme, seed=41),
            request(RaisingUnmanagedScheme, seed=42),
            request(NoManagementScheme, seed=43),
            request(NoManagementScheme, seed=44),
        ]
        with pytest.raises(ValueError, match="^boom$"):
            run_many(reqs, jobs=jobs)
        # The raising run shared its fleet with a healthy one.
        assert min(sizes()) > 1


class TestCacheDurability:
    def test_store_then_load_round_trips(self, tmp_path):
        req = request(seed=31)
        result = run_one(req)
        key = cache_key(req)
        _cache_store(tmp_path, key, result)
        loaded = _cache_load(tmp_path, key)
        assert loaded is not None
        assert_results_identical(result, loaded)
        assert not list(tmp_path.rglob("*.tmp.*"))

    def test_failed_publish_leaves_no_temp_litter(self, tmp_path, monkeypatch):
        req = request(seed=32)
        result = run_one(req)

        def deny_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", deny_replace)
        _cache_store(tmp_path, cache_key(req), result)  # must not raise
        # No entry and no temp litter (the shard directory may remain).
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_torn_write_is_a_miss_not_a_crash(self, tmp_path):
        req = request(seed=33)
        key = cache_key(req)
        _cache_store(tmp_path, key, run_one(req))
        entry = next(p for p in tmp_path.rglob("*") if p.is_file())
        entry.write_bytes(entry.read_bytes()[:40])  # truncate mid-pickle
        assert _cache_load(tmp_path, key) is None
