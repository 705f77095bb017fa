"""repro.lintkit — AST-based invariant checker for this codebase.

The reproduction's fidelity rests on conventions that documentation alone
cannot defend: one internal unit system (``repro.units``), role-derived
deterministic RNG streams (``repro.rng``), frozen configuration values,
saturated controllers, and declared public APIs.  lintkit turns each
convention into a rule that runs over the source tree with nothing but
the standard library's :mod:`ast`::

    python -m repro.lintkit src/                 # lint, exit 1 on findings
    python -m repro.lintkit src/ --format json   # machine-readable output
    python -m repro.lintkit --list-rules         # the rule catalogue

One pipeline runs every analysis: :func:`lint_paths` lints files and
:func:`lint_sources` lints an in-memory ``{path: source}`` mapping the
same way.  A finding is silenced one of two ways: fix the code, or
suppress that one site with an inline ``# lint: ignore[RULE-ID]``
comment (justify it next to the comment).  See ``docs/INVARIANTS.md``
for the catalogue of rule ids and rationale.
"""

from __future__ import annotations

from .dimensions import DimensionAnalysis
from .engine import ALL_ANALYSES, LintReport, lint_paths, lint_sources
from .findings import Finding
from .rules import LintRule, ModuleInfo, all_rules

__all__ = [
    "ALL_ANALYSES",
    "DimensionAnalysis",
    "Finding",
    "LintReport",
    "LintRule",
    "ModuleInfo",
    "all_rules",
    "lint_paths",
    "lint_sources",
]
