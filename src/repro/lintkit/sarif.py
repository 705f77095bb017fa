"""SARIF 2.1.0 output for lintkit reports.

SARIF (Static Analysis Results Interchange Format) is the schema GitHub
code scanning ingests: uploading the file produced by ``--format sarif``
renders each finding as an inline pull-request annotation.  Only the
small stable core of the format is emitted — one run, one driver, a rule
catalogue, and one result per finding with a physical location.
"""

from __future__ import annotations

import json

from .dimensions import DIM_RULES
from .effects import EFF_RULES
from .engine import PARSE_ERROR_ID, LintReport
from .rules import all_rules

__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "render_sarif", "sarif_payload"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_catalogue() -> list[dict[str, object]]:
    """Every rule id the driver can emit, in catalogue order."""
    entries = [(r.rule_id, r.title, r.title, r.rationale) for r in all_rules()]
    entries += [(i, title, title, text) for i, title, text in DIM_RULES + EFF_RULES]
    entries.append(
        (
            PARSE_ERROR_ID,
            "syntax error",
            "file could not be parsed",
            "The Python parser or the compiler's scoping rejected this file; "
            "no rules ran.",
        )
    )
    return [
        {
            "id": rule_id,
            "name": name,
            "shortDescription": {"text": short},
            "fullDescription": {"text": full},
        }
        for rule_id, name, short, full in entries
    ]


def sarif_payload(report: LintReport) -> dict[str, object]:
    """The report as a SARIF ``dict`` (serialize with :func:`render_sarif`)."""
    results = [
        {
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in report.findings
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lintkit",
                        "rules": _rule_catalogue(),
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(report: LintReport) -> str:
    """The report serialized as a SARIF 2.1.0 JSON document."""
    return json.dumps(sarif_payload(report), indent=2)
