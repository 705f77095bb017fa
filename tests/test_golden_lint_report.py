"""Golden lint report: the "same findings" oracle for lintkit.

Every analysis is run over ``tests/fixtures/`` — the seeded-mutation
fixtures for the per-module rules (``rules_mutation/``), the dimensional
analysis (``dim_mutation.py``) and the effect analysis
(``effects_mutation/``) — and the report's JSON form is compared with
``tests/golden/lint_report.json``.  A change to the lint engine that
claims to keep behaviour (a faster walk, a shared cache) must leave it
byte-identical; a change that moves it must say so.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_golden_lint_report.py --write
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro.lintkit import all_rules, lint_paths

__all__ = ["GOLDEN_PATH", "render_report"]

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "lint_report.json"
#: Linted relative to the repository root, so display paths are stable.
FIXTURES = "tests/fixtures"


def render_report() -> str:
    """The report over the fixtures as committed JSON text (cwd: repo root)."""
    report = lint_paths([FIXTURES])
    return json.dumps(report.as_dict(), indent=1, sort_keys=True) + "\n"


@pytest.fixture()
def at_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


def test_lint_report_matches_golden(at_repo_root):
    assert render_report() == GOLDEN_PATH.read_text()


def test_rules_fixture_trips_every_rule_and_suppresses_some():
    golden = json.loads(GOLDEN_PATH.read_text())
    fired = {
        f["rule"]
        for f in golden["findings"]
        if f["path"].startswith(f"{FIXTURES}/rules_mutation/")
    }
    assert {rule.rule_id for rule in all_rules()} <= fired
    assert golden["suppressed"] >= 3


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    os.chdir(REPO_ROOT)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(render_report())
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
