"""Tests for ``repro.lintkit.dimensions`` — the unit/dimension checker.

Organized bottom-up: each DIM rule on minimal in-memory programs
(:func:`~repro.lintkit.lint_sources`), then the propagation machinery
(cross-module imports, dataclass fields, conservatism), then the
engine/CLI/SARIF integration, and finally the seeded-mutation fixture
``tests/fixtures/dim_mutation.py`` whose ``# expect: DIMxxx`` markers
must match the analysis output exactly.
"""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.lintkit import ALL_ANALYSES, lint_paths, lint_sources
from repro.lintkit.cli import main
from repro.lintkit.dimensions import DIM_RULES
from repro.lintkit.sarif import SARIF_SCHEMA, SARIF_VERSION, sarif_payload

REPO_ROOT = Path(__file__).resolve().parents[1]
MUTATION_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "dim_mutation.py"

#: Import header shared by most single-module fixtures.
HEADER = "from repro.unit_types import GigaHz, Milliseconds, PowerFraction, Seconds, Volts, Watts\n"


def analyze(
    source: str,
    path: str = "src/repro/fixture_mod.py",
    header: str = HEADER,
):
    """Run the dimensions pass over one dedented in-memory module."""
    return dimension_findings({path: header + textwrap.dedent(source)})


def dimension_findings(sources: dict[str, str]):
    """The dimensions pass's findings over in-memory modules."""
    return list(lint_sources(sources, analyses=("dimensions",)).findings)


def rule_ids(findings) -> list[str]:
    return [f.rule_id for f in findings]


# ---------------------------------------------------------------------------
# DIM001 — incompatible arithmetic
# ---------------------------------------------------------------------------


class TestDim001Arithmetic:
    def test_watts_plus_gigahertz_fires(self):
        findings = analyze(
            """
            def f(p: Watts, freq: GigaHz) -> float:
                return p + freq
            """
        )
        assert rule_ids(findings) == ["DIM001"]

    def test_seconds_minus_milliseconds_fires(self):
        findings = analyze(
            """
            def f(a: Seconds, b: Milliseconds) -> float:
                return a - b
            """
        )
        assert rule_ids(findings) == ["DIM001"]

    def test_comparison_across_quantities_fires(self):
        findings = analyze(
            """
            def f(v: Volts, t: Seconds) -> bool:
                return v > t
            """
        )
        assert rule_ids(findings) == ["DIM001"]

    def test_same_unit_arithmetic_is_clean(self):
        findings = analyze(
            """
            def f(a: Seconds, b: Seconds) -> Seconds:
                return a + b
            """
        )
        assert findings == []

    def test_multiplication_is_unconstrained(self):
        # W * s is energy; derived quantities are out of scope by design.
        findings = analyze(
            """
            def f(p: Watts, t: Seconds) -> float:
                return p * t
            """
        )
        assert findings == []


# ---------------------------------------------------------------------------
# DIM002 — scale mismatch at a boundary
# ---------------------------------------------------------------------------


class TestDim002ScaleBoundary:
    def test_seconds_into_milliseconds_param_fires(self):
        findings = analyze(
            """
            def sink(timeout: Milliseconds) -> None:
                pass

            def caller(t: Seconds) -> None:
                sink(t)
            """
        )
        assert rule_ids(findings) == ["DIM002"]
        assert "timeout" in findings[0].message

    def test_keyword_argument_checked(self):
        findings = analyze(
            """
            def sink(timeout: Milliseconds) -> None:
                pass

            def caller(t: Seconds) -> None:
                sink(timeout=t)
            """
        )
        assert rule_ids(findings) == ["DIM002"]

    def test_return_boundary_checked(self):
        findings = analyze(
            """
            def f(t: Seconds) -> Milliseconds:
                return t
            """
        )
        assert rule_ids(findings) == ["DIM002"]

    def test_matching_scale_is_clean(self):
        findings = analyze(
            """
            def sink(timeout: Milliseconds) -> None:
                pass

            def caller(t: Milliseconds) -> None:
                sink(t)
            """
        )
        assert findings == []


# ---------------------------------------------------------------------------
# DIM003 — watts vs. power fraction
# ---------------------------------------------------------------------------


class TestDim003PowerCurrency:
    def test_watts_into_fraction_param_fires(self):
        findings = analyze(
            """
            def set_budget(budget: PowerFraction) -> None:
                pass

            def caller(p: Watts) -> None:
                set_budget(p)
            """
        )
        assert rule_ids(findings) == ["DIM003"]

    def test_fraction_into_watts_param_fires(self):
        findings = analyze(
            """
            def dissipate(power: Watts) -> None:
                pass

            def caller(share: PowerFraction) -> None:
                dissipate(share)
            """
        )
        assert rule_ids(findings) == ["DIM003"]


# ---------------------------------------------------------------------------
# DIM004 — wrong quantity at a boundary
# ---------------------------------------------------------------------------


class TestDim004QuantityBoundary:
    def test_volts_into_gigahertz_param_fires(self):
        findings = analyze(
            """
            def clock(freq: GigaHz) -> None:
                pass

            def caller(v: Volts) -> None:
                clock(v)
            """
        )
        assert rule_ids(findings) == ["DIM004"]

    def test_dataclass_field_boundary_checked(self):
        findings = analyze(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Reading:
                value: Volts

            def caller(t: Seconds) -> Reading:
                return Reading(value=t)
            """
        )
        assert rule_ids(findings) == ["DIM004"]


# ---------------------------------------------------------------------------
# DIM005 — manual scale conversions
# ---------------------------------------------------------------------------


class TestDim005ManualConversion:
    def test_multiply_by_thousand_fires(self):
        findings = analyze(
            """
            def f(t: Seconds) -> float:
                return t * 1000.0
            """
        )
        assert rule_ids(findings) == ["DIM005"]

    def test_divide_by_thousandth_fires(self):
        findings = analyze(
            """
            def f(t: Seconds) -> float:
                return t / 0.001
            """
        )
        assert rule_ids(findings) == ["DIM005"]

    def test_named_scale_constant_fires(self):
        findings = analyze(
            """
            from repro import units

            def f(t: Seconds) -> float:
                return t * units.NS_PER_S
            """
        )
        assert rule_ids(findings) == ["DIM005"]

    def test_units_helper_is_the_blessed_route(self):
        findings = analyze(
            """
            from repro import units

            def f(t: Seconds) -> float:
                return units.to_ns(t)
            """
        )
        assert findings == []

    def test_scale_on_dimensionless_value_is_clean(self):
        findings = analyze(
            """
            def f(count: float) -> float:
                return count * 1000.0
            """
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Propagation machinery
# ---------------------------------------------------------------------------


class TestPropagation:
    def test_cross_module_call_boundary(self):
        findings = dimension_findings(
            {
                "src/repro/timerlib.py": textwrap.dedent(
                    """
                    from repro.unit_types import Milliseconds

                    __all__ = ["wait"]

                    def wait(timeout: Milliseconds) -> None:
                        pass
                    """
                ),
                "src/repro/caller.py": textwrap.dedent(
                    """
                    from repro.unit_types import Seconds

                    from repro.timerlib import wait

                    __all__ = ["go"]

                    def go(t: Seconds) -> None:
                        wait(t)
                    """
                ),
            }
        )
        assert rule_ids(findings) == ["DIM002"]
        assert findings[0].path == "src/repro/caller.py"

    def test_instance_attribute_lookup(self):
        findings = analyze(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Island:
                f_max: GigaHz

            def f(island: Island, v: Volts) -> float:
                return island.f_max + v
            """
        )
        assert rule_ids(findings) == ["DIM001"]

    def test_assignment_propagates_units(self):
        findings = analyze(
            """
            def f(t: Seconds, freq: GigaHz) -> float:
                elapsed = t
                return elapsed + freq
            """
        )
        assert rule_ids(findings) == ["DIM001"]

    def test_like_and_array_aliases_carry_units(self):
        findings = analyze(
            """
            from repro.unit_types import GigaHzLike, WattsArray

            def f(p: WattsArray, freq: GigaHzLike):
                return p + freq
            """
        )
        assert rule_ids(findings) == ["DIM001"]

    def test_direct_annotated_unit_spelling(self):
        findings = analyze(
            """
            from typing import Annotated

            from repro.unit_types import Unit

            def f(p: Annotated[float, Unit("W")], freq: Annotated[float, Unit("GHz")]):
                return p + freq
            """
        )
        assert rule_ids(findings) == ["DIM001"]

    def test_unannotated_code_stays_silent(self):
        # Conservatism: no finding unless BOTH sides carry a known unit.
        findings = analyze(
            """
            def f(t: Seconds, anything) -> float:
                return t + anything
            """
        )
        assert findings == []

    def test_units_module_itself_is_exempt(self):
        findings = dimension_findings(
            {
                "src/repro/units.py": textwrap.dedent(
                    """
                    from repro.unit_types import Milliseconds, Seconds

                    __all__ = ["ms"]

                    def ms(value: Milliseconds) -> Seconds:
                        return value * 0.001
                    """
                )
            }
        )
        assert findings == []

    def test_inline_suppression_honoured(self):
        findings = analyze(
            """
            def f(p: Watts, freq: GigaHz) -> float:
                return p + freq  # lint: ignore[DIM001] fixture: deliberate
            """
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Engine + CLI integration
# ---------------------------------------------------------------------------

#: A module that violates DIM001 and UNIT001 on the same line.
MIXED_VIOLATIONS = textwrap.dedent(
    """
    from repro.unit_types import GigaHz, Seconds

    __all__ = ["bad"]

    def bad(t_s: Seconds, f_ghz: GigaHz) -> float:
        return (t_s + f_ghz) * 1e9{suffix}
    """
)


class TestEngineIntegration:
    def test_unknown_analysis_rejected(self):
        with pytest.raises(ValueError, match="unknown analyses"):
            lint_paths([str(MUTATION_FIXTURE)], analyses=("bogus",))

    def test_all_analyses_constant(self):
        assert ALL_ANALYSES == ("rules", "dimensions", "effects")

    def test_mixed_rule_line_without_suppression(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(MIXED_VIOLATIONS.format(suffix=""))
        report = lint_paths([str(target)])
        assert sorted(rule_ids(report.findings)) == ["DIM001", "UNIT001"]

    def test_mixed_rule_inline_suppression(self, tmp_path):
        # One comment silences rules from both analyses on one line.
        target = tmp_path / "mod.py"
        target.write_text(
            MIXED_VIOLATIONS.format(
                suffix="  # lint: ignore[DIM001,UNIT001] fixture"
            )
        )
        report = lint_paths([str(target)])
        assert report.findings == ()
        assert report.suppressed == 2

    def test_analysis_selection_skips_dimensions(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(MIXED_VIOLATIONS.format(suffix=""))
        report = lint_paths([str(target)], analyses=("rules",))
        assert rule_ids(report.findings) == ["UNIT001"]
        report = lint_paths([str(target)], analyses=("dimensions",))
        assert rule_ids(report.findings) == ["DIM001"]

    def test_cli_analysis_flag(self, capsys):
        # The fixture's mistakes are DIM-only: rules-only runs stay clean.
        assert main([str(MUTATION_FIXTURE), "--analysis", "rules"]) == 0
        assert main([str(MUTATION_FIXTURE), "--analysis", "dimensions"]) == 1
        capsys.readouterr()

    def test_cli_list_rules_includes_dim_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id, _, _ in DIM_RULES:
            assert rule_id in out


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------


class TestSarifOutput:
    def test_payload_shape(self):
        report = lint_paths([str(MUTATION_FIXTURE)], analyses=("dimensions",))
        payload = sarif_payload(report)
        assert payload["version"] == SARIF_VERSION
        assert payload["$schema"] == SARIF_SCHEMA
        (run,) = payload["runs"]
        assert run["tool"]["driver"]["name"] == "repro.lintkit"
        catalogue = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"DIM001", "DIM002", "DIM003", "DIM004", "DIM005"} <= catalogue
        assert {"UNIT001", "DET001", "E000"} <= catalogue
        assert len(run["results"]) == len(report.findings)
        result = run["results"][0]
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("dim_mutation.py")
        assert location["region"]["startLine"] == report.findings[0].line
        assert location["region"]["startColumn"] == report.findings[0].col + 1

    def test_cli_sarif_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "lint.sarif"
        code = main(
            [
                str(MUTATION_FIXTURE),
                "--analysis",
                "dimensions",
                "--format",
                "sarif",
                "--output",
                str(out_file),
            ]
        )
        assert code == 1  # findings still fail the run
        assert capsys.readouterr().out == ""
        payload = json.loads(out_file.read_text())
        assert payload["version"] == SARIF_VERSION
        assert [r["ruleId"] for r in payload["runs"][0]["results"]] == [
            "DIM001",
            "DIM002",
            "DIM003",
            "DIM005",
        ]


# ---------------------------------------------------------------------------
# The seeded-mutation fixture
# ---------------------------------------------------------------------------


class TestMutationFixture:
    def test_expected_findings_exactly(self):
        """The analysis flags every seeded mistake and nothing else."""
        expected = []
        for lineno, line in enumerate(
            MUTATION_FIXTURE.read_text().splitlines(), start=1
        ):
            marker = re.search(r"# expect: (DIM\d{3})", line)
            if marker:
                expected.append((lineno, marker.group(1)))
        assert len(expected) == 4, "fixture must seed exactly four mistakes"
        report = lint_paths([str(MUTATION_FIXTURE)], analyses=("dimensions",))
        found = [(f.line, f.rule_id) for f in report.findings]
        assert found == expected

    def test_fixture_is_otherwise_lint_clean(self):
        # The seeded mistakes are *dimension* mistakes only; the ordinary
        # rule catalogue must accept the file, so the fixture cannot rot
        # into testing something other than what it claims.
        report = lint_paths([str(MUTATION_FIXTURE)], analyses=("rules",))
        assert report.findings == ()


# ---------------------------------------------------------------------------
# Acceptance: the repository's own tree is dimensionally clean
# ---------------------------------------------------------------------------


class TestRepositoryTree:
    def test_src_tree_has_no_dimension_findings(self):
        report = lint_paths([REPO_ROOT / "src"], analyses=("dimensions",))
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.ok, f"dimension findings in src/:\n{rendered}"

    def test_extras_lint_clean_without_baseline(self):
        # examples/ and benchmarks/ once carried 34 grandfathered
        # findings in lint-baseline-extras.json; that debt is paid, the
        # file is gone, and the extras must stay clean baseline-free.
        assert not (REPO_ROOT / "lint-baseline-extras.json").exists()
        report = lint_paths(
            [REPO_ROOT / "examples", REPO_ROOT / "benchmarks"],
        )
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.ok, f"findings in examples//benchmarks/:\n{rendered}"
