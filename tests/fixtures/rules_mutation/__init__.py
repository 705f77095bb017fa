"""Seeded rule-violation fixture for the golden lint report.

Every per-module rule in the catalogue (DET001-003, UNIT001, CFG001/002,
CTL001/002, ROB001, API001/002) fires at least once across these
modules, and several findings carry an inline ``# lint: ignore[...]``
comment, so the suppression path is exercised too.
``tests/test_golden_lint_report.py`` lints ``tests/fixtures/`` with every
analysis and compares the report with ``tests/golden/lint_report.json``.

Not part of the library (CI's lint run does not cover ``tests/``), so the
seeded bugs never appear in the repository's own lint report.
"""

__all__: list[str] = []
