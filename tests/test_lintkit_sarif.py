"""SARIF 2.1.0 conformance tests for lintkit's ``--format sarif`` output.

The full SARIF JSON schema is enormous; what GitHub code scanning (and
any conforming consumer) actually requires is the small core asserted
here: the log-file required properties (``version``, ``runs``), each
run's required ``tool.driver.name``, rule metadata shape, and each
result's ``ruleId`` / ``message.text`` / physical location with a
1-based region.  The checks run against single-analysis and
multi-analysis invocations over the seeded-mutation fixtures, so every
rule family (syntactic, DIM, EFF, E000) is exercised through the same
serializer.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lintkit import lint_paths
from repro.lintkit.cli import main
from repro.lintkit.dimensions import DIM_RULES
from repro.lintkit.effects import EFF_RULES
from repro.lintkit.engine import ALL_ANALYSES, PARSE_ERROR_ID
from repro.lintkit.sarif import SARIF_SCHEMA, SARIF_VERSION, sarif_payload

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: SARIF 2.1.0 required properties, per object (the spec's "shall"s).
LOG_REQUIRED = ("version", "runs")
RUN_REQUIRED = ("tool",)
DRIVER_REQUIRED = ("name",)
RESULT_REQUIRED = ("message",)


def payload_for(paths, analyses=ALL_ANALYSES):
    report = lint_paths(paths, analyses=analyses)
    return sarif_payload(report), report


def validate_sarif(payload: dict) -> None:
    """Assert the required-property set of SARIF 2.1.0 holds."""
    for key in LOG_REQUIRED:
        assert key in payload, f"log missing required property {key!r}"
    assert payload["version"] == SARIF_VERSION
    assert payload["$schema"] == SARIF_SCHEMA
    assert isinstance(payload["runs"], list) and payload["runs"]
    for run in payload["runs"]:
        for key in RUN_REQUIRED:
            assert key in run, f"run missing required property {key!r}"
        driver = run["tool"]["driver"]
        for key in DRIVER_REQUIRED:
            assert key in driver, f"driver missing required {key!r}"
        rule_ids = set()
        for rule in driver.get("rules", ()):
            assert "id" in rule, "reportingDescriptor missing required 'id'"
            assert rule["shortDescription"]["text"]
            rule_ids.add(rule["id"])
        for result in run.get("results", ()):
            for key in RESULT_REQUIRED:
                assert key in result, f"result missing required {key!r}"
            assert result["message"]["text"]
            # ruleId is optional per spec but required by GitHub — and
            # must then resolve against the driver's catalogue.
            assert result["ruleId"] in rule_ids
            for location in result["locations"]:
                physical = location["physicalLocation"]
                assert physical["artifactLocation"]["uri"]
                region = physical["region"]
                # regions are 1-based; 0 would silently shift annotations
                assert region["startLine"] >= 1
                assert region["startColumn"] >= 1


class TestCatalogue:
    def test_driver_catalogue_covers_every_family(self):
        payload, _ = payload_for([FIXTURES / "dim_mutation.py"])
        rules = payload["runs"][0]["tool"]["driver"]["rules"]
        ids = [r["id"] for r in rules]
        assert len(ids) == len(set(ids)), "duplicate rule ids in catalogue"
        for rule_id, _, _ in DIM_RULES + EFF_RULES:
            assert rule_id in ids
        assert PARSE_ERROR_ID in ids
        assert any(i.startswith("DET") for i in ids)

    def test_catalogue_descriptions_are_nonempty(self):
        payload, _ = payload_for([FIXTURES / "dim_mutation.py"])
        for rule in payload["runs"][0]["tool"]["driver"]["rules"]:
            assert rule["fullDescription"]["text"].strip()


class TestSingleAnalysis:
    @pytest.mark.parametrize("analysis", ALL_ANALYSES)
    def test_each_analysis_payload_validates(self, analysis):
        paths = (
            [FIXTURES / "effects_mutation"]
            if analysis == "effects"
            else [FIXTURES / "dim_mutation.py"]
        )
        payload, report = payload_for(paths, analyses=(analysis,))
        validate_sarif(payload)
        results = payload["runs"][0]["results"]
        assert len(results) == len(report.findings)

    def test_effects_results_point_at_marker_lines(self):
        payload, report = payload_for(
            [FIXTURES / "effects_mutation"], analyses=("effects",)
        )
        validate_sarif(payload)
        regions = {
            (
                r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
                r["locations"][0]["physicalLocation"]["region"]["startLine"],
                r["ruleId"],
            )
            for r in payload["runs"][0]["results"]
        }
        assert regions == {(f.path, f.line, f.rule_id) for f in report.findings}
        assert any(rule_id == "EFF002" for _, _, rule_id in regions)


class TestMultiAnalysis:
    def test_all_analyses_over_both_fixtures_validates(self):
        # One invocation, every pass: syntactic DET, DIM and EFF results
        # must coexist in one run and all resolve against the catalogue.
        payload, report = payload_for(
            [FIXTURES / "dim_mutation.py", FIXTURES / "effects_mutation"]
        )
        validate_sarif(payload)
        families = {r["ruleId"][:3] for r in payload["runs"][0]["results"]}
        assert {"DIM", "EFF", "DET"} <= families
        assert len(payload["runs"][0]["results"]) == len(report.findings)

    def test_parse_error_result_validates(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        payload, _ = payload_for([bad])
        validate_sarif(payload)
        assert [r["ruleId"] for r in payload["runs"][0]["results"]] == [
            PARSE_ERROR_ID
        ]

    def test_clean_tree_yields_empty_results_not_missing(self):
        payload, _ = payload_for([REPO_ROOT / "src" / "repro" / "units.py"])
        validate_sarif(payload)
        assert payload["runs"][0]["results"] == []


class TestCliRoundTrip:
    def test_cli_sarif_output_is_valid_json_and_conformant(self, tmp_path):
        out = tmp_path / "report.sarif"
        code = main(
            [
                str(FIXTURES / "effects_mutation"),
                "--analysis",
                "effects",
                "--format",
                "sarif",
                "--output",
                str(out),
            ]
        )
        assert code == 1  # findings present
        payload = json.loads(out.read_text())
        validate_sarif(payload)
        assert payload["runs"][0]["results"]
