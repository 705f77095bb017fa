"""Self-tests for the benchmark's arithmetic (no simulation needed).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import math
from array import array
from types import SimpleNamespace

import numpy as np
import pytest

import benchstats
import hostref
import layers
import spans


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 5, 10, 20])
def test_no_tail_percentile_below_21_samples(n):
    assert benchstats.tail_percentile(list(range(n))) is None


@pytest.mark.parametrize("n", [21, 30, 60, 100, 101, 250, 1000, 5000])
def test_tail_percentile_has_ten_samples_beyond_and_is_highest(n):
    samples = [float(x) for x in range(n)]
    p, value = benchstats.tail_percentile(samples)
    assert 50 < p < 100
    assert sum(1 for s in samples if s > value) >= benchstats.TAIL_MIN_BEYOND
    if p < 99:
        # The next whole percentile would leave fewer than ten beyond.
        rank = math.ceil((p + 1) * n / 100)
        assert n - rank < benchstats.TAIL_MIN_BEYOND


def test_tail_percentile_known_values():
    assert benchstats.tail_percentile(list(range(100)))[0] == 90
    assert benchstats.tail_percentile(list(range(1000)))[0] == 99
    assert benchstats.tail_percentile(list(range(21))) == (52, 10)


def test_describe_reports_count_median_and_only_allowed_tail():
    short = benchstats.describe([3.0, 1.0, 2.0])
    assert short == {"n": 3, "median": 2.0}
    long = benchstats.describe([float(x) for x in range(100)])
    assert long["n"] == 100 and long["median"] == 49.5 and long["p90"] == 89.0


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 10.2, 9.8, 10.1, 9.9, 10.3, 10.0]
    out = benchstats.spread(values)
    assert out["median"] == pytest.approx(10.05)
    assert out["iqr_share"] == pytest.approx((out["q3"] - out["q1"]) / 10.05)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def _table(rows, pid=1):
    """rows: (name, parent index, start, end) in opening order."""
    names = sorted({r[0] for r in rows})
    return spans.SpanTable(
        pid,
        names,
        array("l", [names.index(r[0]) for r in rows]),
        array("l", [r[1] for r in rows]),
        array("d", [r[2] for r in rows]),
        array("d", [r[3] for r in rows]),
    )


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([], 0.0, 10.0) == 0.0
    assert spans.covered([(1, 3), (2, 5)], 0.0, 10.0) == 4.0
    assert spans.covered([(1, 2), (4, 6)], 0.0, 10.0) == 3.0
    assert spans.covered([(-5, 2), (8, 20)], 0.0, 10.0) == 4.0
    assert spans.covered([(11, 12)], 0.0, 10.0) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    table = _table(
        [
            ("run", -1, 0.0, 10.0),
            ("tick", 0, 1.0, 4.0),
            ("inner", 1, 2.0, 3.0),
            ("tick", 0, 5.0, 6.0),
        ]
    )
    assert spans.self_times(table) == [6.0, 2.0, 1.0, 1.0]


def test_under_marks_every_descendant():
    table = _table(
        [
            ("calibration.calibrate", -1, 0.0, 5.0),
            ("sim.run", 0, 1.0, 4.0),
            ("chip.compute_interval", 1, 2.0, 3.0),
            ("sim.run", -1, 6.0, 9.0),
        ]
    )
    assert spans.under(table, "calibration.calibrate") == [False, True, True, False]


def test_layer_totals_skip_calibration_internals_and_split_runner_time():
    parent = _table(
        [
            ("runner.run_many", -1, 0.0, 10.0),
            ("runner.cache_key", 0, 0.0, 1.0),
        ]
    )
    worker_a = _table(
        [
            ("sim.run", -1, 2.0, 5.0),
            ("calibration.calibrate", 0, 2.0, 3.0),
            ("sim.run", 1, 2.0, 3.0),
            ("sim.run", -1, 6.0, 8.0),
        ],
        pid=2,
    )
    worker_b = _table([("sim.run", -1, 2.0, 4.0)], pid=3)
    totals = layers.LayerTotals()
    totals.add_pass(parent, [worker_a, worker_b])
    # The excitation run inside calibration is not a workload run.
    assert totals.count("sim.run") == 3
    assert totals.incl_s("calibration.calibrate") == 1.0
    # Parent: 10 s minus the union of [0,1], [2,5], [6,8] = 4 s.
    # Worker a: busy window [2,8] minus its spans (5 s) = 1 s gap.
    assert totals.runner_self_s == pytest.approx(5.0)
    # run_many's 10 s minus the busiest worker's 5 s of spans.
    assert totals.pool_overhead_s == pytest.approx(5.0)
    metrics = layers.layer_metrics(totals, requests_per_pass=3, extras={})
    assert set(metrics) == set(layers.PER_LAYER_UNITS)
    assert metrics["runner.hit_ratio"]["value"] == 0.0
    assert metrics["runner.self_ms_per_run"]["value"] == pytest.approx(5e3 / 3)


# ----------------------------------------------------------------------
# Tracer wrapping
# ----------------------------------------------------------------------
class _Base:
    def inherited(self):
        return "base"


class _Thing(_Base):
    def work(self, x):
        return x * 2

    def items(self):
        yield from range(3)


def test_tracer_records_nested_spans_and_restores(tmp_path):
    tracer = spans.Tracer(tmp_path)
    tracer.install(
        [
            (_Thing, "work", "work"),
            (_Thing, "items", "items"),
            (_Thing, "inherited", "inherited"),
        ],
    )
    try:
        thing = _Thing()
        assert thing.work(3) == 6
        assert list(thing.items()) == [0, 1, 2]
        assert thing.inherited() == "base"
    finally:
        tracer.uninstall()
    table = tracer.reset()
    assert [table.names[n] for n in table.name] == ["work", "items", "inherited"]
    assert all(e >= s for s, e in zip(table.start, table.end))
    assert "inherited" not in _Thing.__dict__
    assert _Thing.work.__qualname__ == "_Thing.work"
    assert len(tracer.reset()) == 0


# ----------------------------------------------------------------------
# Digest comparison
# ----------------------------------------------------------------------
def _result(power, ticks=None):
    series = {"chip_power_frac": np.asarray(power), "tick": np.arange(len(power))}
    telemetry = SimpleNamespace(
        finalize=lambda: series, n_intervals=ticks if ticks is not None else len(power)
    )
    return SimpleNamespace(
        telemetry=telemetry,
        scheme_name="cpm",
        mix_name="Mix-1",
        budget_fraction=0.8,
        duration_s=0.01,
        total_instructions=1e9,
    )


def test_digest_equal_for_identical_results_only():
    a = benchstats.result_digest(_result([0.5, 0.6, 0.7]))
    assert a == benchstats.result_digest(_result([0.5, 0.6, 0.7]))
    assert a != benchstats.result_digest(_result([0.5, 0.6, np.nextafter(0.7, 1)]))
    assert a != benchstats.result_digest(
        _result(np.array([0.5, 0.6, 0.7], dtype=np.float32))
    )
    other = _result([0.5, 0.6, 0.7])
    other.scheme_name = "maxbips"
    assert a != benchstats.result_digest(other)


def test_finite_check_rejects_nan_and_wrong_length():
    assert benchstats.is_finite_result(_result([0.5, 0.6]), 2)
    assert not benchstats.is_finite_result(_result([0.5, float("nan")]), 2)
    assert not benchstats.is_finite_result(_result([0.5, 0.6], ticks=2), 3)


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------
def test_host_speed_samples_with_elapsed_time_and_scales_by_median(monkeypatch):
    clock = [100.0]
    kernel = iter([0.10, 0.20, 0.14, 0.07, 0.07, 0.28, 0.35, 0.14, 0.14])
    monkeypatch.setattr(hostref.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(hostref, "reference_seconds", lambda: next(kernel))
    host = hostref.HostSpeed()
    host.sample()  # first call: a full batch
    assert len(host.samples) == hostref.HostSpeed.MAX_BATCH
    host.sample()  # no time has passed
    assert len(host.samples) == 5
    clock[0] += 2.5 * host.INTERVAL_S
    host.sample()  # two intervals elapsed
    assert len(host.samples) == 7
    host.sample(force=True)
    assert len(host.samples) == 8
    assert host.factor() == pytest.approx(hostref.REF_NOMINAL_S / 0.14)
