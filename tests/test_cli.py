"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.cmpsim.simulator import Fleet

pytestmark = pytest.mark.slow


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "cpm"
        assert args.budget == 0.8
        assert args.cores == 8

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "magic"])


class TestRunCommand:
    def test_run_and_export(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--scheme", "none",
                "--intervals", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean chip power" in out
        summary = json.loads((tmp_path / "no-management.json").read_text())
        assert summary["n_intervals"] == 20

    def test_warm_run_is_served_from_the_cache(
        self, tmp_path, monkeypatch, capsys, calibration_memo
    ):
        """A second ``repro run`` simulates nothing, not even calibration
        runs, and prints the same report."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        argv = ["run", "--intervals", "3"]
        calibration_memo.clear()  # each invocation starts in a fresh process
        assert main(argv) == 0
        cold = capsys.readouterr().out
        calibration_memo.clear()
        simulated = []
        original = Fleet.run

        def recording_run(fleet, n_gpm_intervals):
            simulated.extend(sim.scheme for sim in fleet.members)
            return original(fleet, n_gpm_intervals)

        monkeypatch.setattr(Fleet, "run", recording_run)
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert simulated == []

    def test_run_cpm_policy_selection(self, capsys):
        code = main(
            ["run", "--scheme", "cpm", "--policy", "uniform", "--intervals", "3"]
        )
        assert code == 0
        assert "cpm" in capsys.readouterr().out


class TestCompareCommand:
    def test_compare_prints_all_schemes(self, capsys):
        code = main(["compare", "--intervals", "3", "--budget", "0.8"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("no-management", "cpm", "maxbips", "static-uniform"):
            assert name in out

    def test_compare_reuses_the_default_run(self, tmp_path, monkeypatch):
        """``run``'s default CPM run is the one ``compare`` makes, so after
        ``run`` a compare adds only its other three runs to the cache."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)

        def entries():
            return set(tmp_path.glob("*/*.pkl"))

        assert main(["run", "--intervals", "2"]) == 0
        after_run = entries()
        assert main(["compare", "--intervals", "2"]) == 0
        assert len(entries() - after_run) == 3


class TestCalibrateCommand:
    def test_calibrate_prints_gains(self, capsys):
        code = main(["calibrate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "system gain a" in out
        assert "holdout" in out


class TestExperimentCommand:
    def test_single_experiment(self, capsys):
        code = main(["experiment", "fig06_power_utilization", "--quick"])
        assert code == 0
        assert "fig06" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        code = main(["experiment", "fig99_nonsense"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--budget", "1.5"],
        ["run", "--intervals", "0"],
        ["run", "--cores", "7", "--islands", "4"],
        ["compare", "--budget", "0"],
        ["sweep", "--budgets", "0.75:1.0:0"],
        ["sweep", "--budgets", "1.0:0.75:0.05"],
        ["sweep", "--budgets", "0.75:1.2:0.1"],
        ["experiment", "fig11_budget_curves", "--jobs", "-1"],
        ["run", "--seed", "-1"],
        ["calibrate", "--seed", "-1"],
        ["compare", "--seed", "-1"],
        ["sweep", "--seed", "-1"],
        ["experiment", "fig11_budget_curves", "--seed", "-1"],
        ["chaos", "--seed", "-1"],
    ],
    ids=" ".join,
)
def test_usage_error_exits_two_at_parse_time(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
