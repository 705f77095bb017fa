"""Integration: every experiment runs (quick mode) and reproduces the
paper's qualitative claims.

Each test asserts the *shape* the paper reports (who wins, rough
magnitudes, invariants), not absolute numbers — EXPERIMENTS.md records
the quantitative comparison.
"""

import dataclasses
import importlib

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.cmpsim.simulator import Fleet
from repro.core import calibration
from repro.core.cpm import CPMScheme
from repro.experiments import ALL_EXPERIMENTS
from repro.faults import TransientSensorDropout

pytestmark = pytest.mark.slow


def describe(obj, depth=0):
    """What a built scheme is, independent of how a plan spelled it: its
    class and public attributes, walked recursively with unordered
    containers sorted."""
    assert depth < 12, "value too deeply nested to describe"
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        return f"ndarray({obj.dtype.str},{obj.shape},{obj.tobytes().hex()})"
    if isinstance(obj, np.generic):
        return repr(obj.item())
    if isinstance(obj, (list, tuple)):
        return f"{type(obj).__name__}[{','.join(describe(x, depth + 1) for x in obj)}]"
    if isinstance(obj, (set, frozenset)):
        return f"set[{','.join(sorted(describe(x, depth + 1) for x in obj))}]"
    if isinstance(obj, dict):
        items = sorted((describe(k, depth + 1), describe(v, depth + 1))
                       for k, v in obj.items())
        return f"dict[{','.join(f'{k}:{v}' for k, v in items)}]"
    if isinstance(obj, type) or callable(obj) and hasattr(obj, "__qualname__"):
        return f"{obj.__module__}.{obj.__qualname__}"
    if dataclasses.is_dataclass(obj):
        attrs = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    else:
        attrs = getattr(obj, "__dict__", {})
    public = {k: v for k, v in attrs.items() if not k.startswith("_")}
    return f"{type(obj).__qualname__}({describe(public, depth + 1)})"


def run_experiment(name: str, **kwargs):
    module = importlib.import_module(f"repro.experiments.{name}")
    return module.run(quick=True, **kwargs)


@pytest.mark.parametrize("name", ALL_EXPERIMENTS)
def test_experiment_runs_and_renders(name):
    result = run_experiment(name)
    text = result.render()
    assert result.experiment
    assert len(text) > 50
    assert result.rows or result.series


def test_experiment_all_simulates_each_request_once(
    monkeypatch, capsys, calibration_memo
):
    """Every distinct run is simulated once per invocation: the figures'
    shared runs, chaos's grid (its own ``run_many`` call) and every
    calibration's excitation runs, which points differing only in their
    mix share."""
    monkeypatch.setenv("REPRO_CACHE", "0")
    calibration_memo.clear()
    seen = []
    original = Fleet.run

    def recording_run(fleet, n_gpm_intervals):
        seen.extend(
            (
                describe(sim.scheme),
                repr(sim.config),
                repr(sim.mix),
                sim.budget_fraction,
                sim.seeds.root_seed,
                n_gpm_intervals,
            )
            for sim in fleet.members
        )
        return original(fleet, n_gpm_intervals)

    monkeypatch.setattr(Fleet, "run", recording_run)
    assert cli_main(["experiment", "all", "--quick"]) == 0
    assert "== fig19" in capsys.readouterr().out
    assert any("WhiteNoiseDVFSScheme" in run[0] for run in seen)
    assert len(seen) == len(set(seen))


def test_experiment_all_fits_each_calibration_point_once(
    monkeypatch, capsys, calibration_memo
):
    """The calibration wave and the renders of Figs. 4-6 share one memo,
    so an uncached run fits each distinct point once."""
    monkeypatch.setenv("REPRO_CACHE", "0")
    calibration_memo.clear()
    fitted = []
    original = calibration.fit

    def recording_fit(point, results, *args, **kwargs):
        fitted.append(point)
        return original(point, results, *args, **kwargs)

    monkeypatch.setattr(calibration, "fit", recording_fit)
    assert cli_main(["experiment", "all", "--quick"]) == 0
    capsys.readouterr()
    assert fitted
    assert len(fitted) == len(set(fitted))


def test_warm_experiment_all_simulates_only_the_expected_crash(
    monkeypatch, tmp_path, capsys, calibration_memo
):
    """With every run cached, a fresh process (an empty calibration
    memo) simulates only chaos's quarantined unguarded dropout run,
    which is never cached, and prints the same output."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    calibration_memo.clear()  # each invocation starts in a fresh process
    assert cli_main(["experiment", "all", "--quick"]) == 0
    cold = capsys.readouterr().out
    calibration_memo.clear()
    simulated = []
    original = Fleet.run

    def recording_run(fleet, n_gpm_intervals):
        simulated.extend(sim.scheme for sim in fleet.members)
        return original(fleet, n_gpm_intervals)

    monkeypatch.setattr(Fleet, "run", recording_run)
    assert cli_main(["experiment", "all", "--quick"]) == 0
    assert capsys.readouterr().out == cold
    (scheme,) = simulated
    assert type(scheme.inner) is CPMScheme
    assert [type(f) for f in scheme.faults] == [TransientSensorDropout]


class TestControllerDesign:
    def test_fig04_stability_facts(self):
        result = run_experiment("fig04_controller_design")
        rows = dict((r[0], r[1]) for r in result.rows)
        assert rows["stability gain limit g (paper: ~2.1)"] > 1.3
        # Quick mode truncates the step response; the error is still tiny.
        assert rows["analytic steady-state error"] == pytest.approx(0.0, abs=1e-2)


class TestModelAndTransducer:
    def test_fig05_prediction_error_within_paper_bound(self):
        result = run_experiment("fig05_model_validation")
        mean_row = [r for r in result.rows if r[0] == "mean"][0]
        assert mean_row[1] < 0.10  # paper: well within 10%

    def test_fig06_r_squared_near_paper(self):
        result = run_experiment("fig06_power_utilization")
        avg = [r for r in result.rows if r[0] == "average"][0]
        assert avg[3] > 0.90  # paper: 0.96


class TestTracking:
    def test_fig07_provisions_sum_to_budget(self):
        result = run_experiment("fig07_provisioning")
        total = result.series["sum of provisions"]
        np.testing.assert_allclose(total, total[0], atol=1e-9)

    def test_fig08_islands_track_targets(self):
        result = run_experiment("fig08_island_tracking")
        for row in result.rows:
            assert row[1] < 0.15  # mean relative tracking error

    def test_fig09_settling_and_overshoot(self):
        result = run_experiment("fig09_pic_tracking")
        rows = {r[0]: r for r in result.rows}
        overshoot = rows["max overshoot (fraction of target)"]
        assert overshoot[1] < 0.05  # median overshoot small
        assert overshoot[3] < 0.6  # no island window runs away

    def test_fig10_chip_power_near_budget(self):
        result = run_experiment("fig10_chip_tracking")
        rows = dict((r[0], r[1]) for r in result.rows)
        assert rows["mean chip power / budget"] == pytest.approx(1.0, abs=0.06)


class TestComparisons:
    def test_fig11_cpm_tracks_maxbips_undershoots(self):
        result = run_experiment("fig11_budget_curves")
        for budget, cpm_mean, cpm_max, mb_mean, mb_max in result.rows:
            assert mb_max <= budget + 1e-6  # MaxBIPS never overshoots
            assert mb_mean < cpm_mean + 1e-9  # and sits below CPM

    def test_fig12_degradation_monotone_in_budget(self):
        result = run_experiment("fig12_perf_degradation")
        degradations = [row[2] for row in result.rows]
        budgets = [row[0] for row in result.rows]
        order = np.argsort(budgets)
        ordered = np.asarray(degradations)[order]
        # Tighter budget, (weakly) more degradation.
        assert np.all(np.diff(ordered) <= 0.01)

    def test_fig13_cpm_beats_maxbips_everywhere(self):
        result = run_experiment("fig13_island_size")
        for _cpi, cpm, maxbips in result.rows:
            assert cpm < maxbips

    def test_fig14_invisible_at_full_budget(self):
        result = run_experiment("fig14_perf_time")
        rows = dict((r[0], r[1]) for r in result.rows)
        assert rows["average degradation"] < 0.02

    def test_fig15_cpm_beats_maxbips_at_scale(self):
        result = run_experiment("fig15_scalability")
        for _cores, _budget, cpm, maxbips in result.rows:
            assert cpm < maxbips
            assert cpm < 0.10  # paper: CPM stays near 4%

    def test_fig16_homogeneous_mix_degrades_less(self):
        result = run_experiment("fig16_mix_sensitivity")
        for _budget, mix1, mix2 in result.rows:
            assert mix2 <= mix1 + 0.005

    def test_fig17_fine_cadence_keeps_budget(self):
        result = run_experiment("fig17_interval_sensitivity")
        by_label = {}
        for _cpi, label, _deg, _track, above, _worst in result.rows:
            by_label.setdefault(label, []).append(above)
        fine = np.mean(by_label["(5ms, 0.5ms)"])
        coarse = np.mean(by_label["(5ms, 5ms)"])
        assert fine < coarse


class TestPolicies:
    def test_fig18_thermal_policy_never_violates(self):
        # The quick horizon is only 6 GPM windows; use a seed whose
        # provisioning drift crosses the share caps within that window
        # (the full-horizon run violates at any seed we checked).
        result = run_experiment("fig18_thermal", seed=1)
        rows = {r[0]: r for r in result.rows}
        violations = rows["constraint-violating interval fraction (any island)"]
        perf_violation, thermal_violation = violations[1], violations[2]
        assert thermal_violation == 0.0
        assert perf_violation > 0.0
        degradation = rows["perf degradation vs no-management"]
        assert degradation[2] >= degradation[1] - 0.005  # thermal costs more

    def test_fig19_leaky_islands_gain_efficiency(self):
        result = run_experiment("fig19_variation")
        by_island = {r[0]: r for r in result.rows if r[0].startswith("island")}
        # The leaky islands (1-3) improve power/throughput; the clean
        # island does not need to.
        leaky_gains = [by_island[f"island {i}"][3] for i in (1, 2, 3)]
        assert max(leaky_gains) > 0.05
        assert by_island["island 4"][3] < max(leaky_gains)


class TestTables:
    def test_tables_cover_all_three(self):
        result = run_experiment("tables")
        tables = {row[0].split(" ")[0] for row in result.rows}
        assert {"I", "II", "III"} <= {t.split("(")[0].strip() for t in tables}
