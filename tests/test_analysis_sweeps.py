"""Sweep utilities."""

from functools import partial

import pytest

from repro.analysis.sweeps import budget_sweep
from repro.baselines.no_management import NoManagementScheme
from repro.baselines.static_uniform import StaticUniformScheme

pytestmark = pytest.mark.slow

#: Every BindRecordingScheme that bound, in bind order.
BOUND = []


class BindRecordingScheme(NoManagementScheme):
    """Appends itself to ``BOUND`` when it binds."""

    def __init__(self, tag):
        self.tag = tag

    def bind(self, sim):
        BOUND.append(self)
        super().bind(sim)


class TestBudgetSweep:
    def test_points_and_ordering(self):
        result = budget_sweep(
            StaticUniformScheme,
            budgets=[0.75, 0.85],
            n_gpm_intervals=6,
        )
        assert len(result.points) == 2
        assert result.points[0].budget_fraction == 0.75
        # Tighter budget, more degradation.
        low, high = result.points
        assert low.degradation >= high.degradation - 1e-3
        # Power follows the budget when it binds.
        assert low.mean_power < high.mean_power + 1e-9

    def test_table_renders(self):
        result = budget_sweep(
            NoManagementScheme, budgets=[0.9], n_gpm_intervals=3
        )
        table = result.as_table()
        assert "budget 0.90" in table
        assert "degradation" in table

    def test_reference_pairing(self):
        """The unmanaged scheme ignores the budget, so against its paired
        reference it loses nothing."""
        result = budget_sweep(
            NoManagementScheme, budgets=[0.8], n_gpm_intervals=6
        )
        assert result.points[0].degradation == pytest.approx(0.0, abs=1e-12)

    def test_fresh_scheme_per_point(self):
        """Factories are called per point; sharing one stateful scheme
        across runs would leak controller state between sweeps."""
        BOUND.clear()
        budget_sweep(
            partial(BindRecordingScheme, "a"),
            budgets=[0.8, 0.9],
            n_gpm_intervals=2,
        )
        assert len(BOUND) == 2
        assert BOUND[0] is not BOUND[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            budget_sweep(NoManagementScheme, budgets=[])
        with pytest.raises(ValueError):
            budget_sweep(NoManagementScheme, budgets=[1.5])


class TestCLISweep:
    def test_sweep_command(self, capsys):
        from repro.cli import main

        code = main(
            ["sweep", "--scheme", "none", "--budgets", "0.8:0.9:0.1",
             "--intervals", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "budget 0.80" in out

    def test_bad_budget_spec(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--budgets", "nonsense"])
        assert code == 2
