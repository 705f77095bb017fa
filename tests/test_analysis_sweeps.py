"""Sweep utilities."""

from functools import partial

import numpy as np
import pytest

from repro.analysis.sweeps import budget_sweep, scheme_sweep
from repro.baselines.no_management import NoManagementScheme
from repro.baselines.static_uniform import StaticUniformScheme
from repro.config import DEFAULT_CONFIG

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
        d = result.degradations()
        assert d[0] >= d[1] - 1e-3
        # Power follows the budget when it binds.
        p = result.mean_powers()
        assert p[0] < p[1] + 1e-9

    def test_table_renders(self):
        result = budget_sweep(
            NoManagementScheme, budgets=[0.9], n_gpm_intervals=3
        )
        table = result.as_table()
        assert "budget 0.90" in table
        assert "degradation" in table

    def test_validation(self):
        with pytest.raises(ValueError):
            budget_sweep(NoManagementScheme, budgets=[])
        with pytest.raises(ValueError):
            budget_sweep(NoManagementScheme, budgets=[1.5])


class TestSchemeSweep:
    def test_labels_and_reference_pairing(self):
        result = scheme_sweep(
            {
                "none": NoManagementScheme,
                "static": StaticUniformScheme,
            },
            budget=0.8,
            n_gpm_intervals=6,
        )
        labels = [p.label for p in result.points]
        assert labels == ["none", "static"]
        by_label = {p.label: p for p in result.points}
        # The unmanaged scheme ignores the budget -> zero degradation.
        assert by_label["none"].degradation == pytest.approx(0.0, abs=1e-12)
        assert by_label["static"].degradation >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            scheme_sweep({}, budget=0.8)
        with pytest.raises(ValueError):
            scheme_sweep({"x": NoManagementScheme}, budget=0.0)

    def test_fresh_scheme_per_point(self):
        """Factories are called per point; sharing one stateful scheme
        across runs would leak controller state between sweeps."""
        BOUND.clear()
        factories = {tag: partial(BindRecordingScheme, tag) for tag in "ab"}
        scheme_sweep(factories, budget=0.9, n_gpm_intervals=2)
        assert [scheme.tag for scheme in BOUND] == ["a", "b"]
        assert BOUND[0] is not BOUND[1]


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
