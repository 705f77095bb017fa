"""Interprocedural effect-and-purity analysis (CLI name: ``effects``).

Two passes over the whole tree: :mod:`summaries` reduces every function
to its local effects and outgoing calls; :mod:`propagate` walks the
resulting call graph from three roots (simulation purity, parallel
safety, cache-key soundness) and turns violating effects into EFF001 -
EFF005 findings.  Plugged into the engine as one more entry of
``ALL_ANALYSES``, so inline suppressions, SARIF, the CLI and the
in-memory entry point :func:`repro.lintkit.lint_sources` all work
unchanged.
"""

from __future__ import annotations

from .propagate import EFF_RULES, ROOTS, EffectAnalysis
from .summaries import Effect, EffectProgram, FunctionSummary, summarize

__all__ = [
    "EFF_RULES",
    "Effect",
    "EffectAnalysis",
    "EffectProgram",
    "FunctionSummary",
    "ROOTS",
    "summarize",
]
