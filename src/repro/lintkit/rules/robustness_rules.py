"""Robustness rules: failures must be surfaced, not silently absorbed.

The resilience layer (``repro.resilience``, ``repro.runner`` hardening)
is built on the premise that every fault is *observable*: a guard can
only count, quarantine, or retry what some handler reported.  A broad
``except Exception`` that catches the error and then carries on without
re-raising it or using the exception object anywhere breaks that chain —
the fault happened, and nothing downstream can ever know.

CTL002 already rejects bare ``except:`` and broad handlers with *empty*
bodies.  ROB001 covers the sneakier sibling: a broad handler with a
real body that nevertheless discards the exception (no ``raise``, the
bound name unused or never bound).  Handlers that deliberately absorb a
failure — a cache read treating corruption as a miss, a crash-is-the-
finding chaos probe — must say so with ``# lint: ignore[ROB001]`` and a
justification, so every silent swallow in the tree is an explicit,
reviewable decision.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from ..modgraph import dotted
from .base import LintRule, ModuleInfo

__all__ = ["SwallowedExceptionRule"]


def _is_broad(type_node: ast.AST) -> bool:
    """True when the handler type includes Exception/BaseException."""
    nodes = (
        type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    )
    for node in nodes:
        parts = dotted(node)
        if parts is not None and parts[-1] in ("Exception", "BaseException"):
            return True
    return False


def _is_silent_body(body: list[ast.stmt]) -> bool:
    """Empty-in-effect body (pass/docstring/... only) — CTL002's case."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


class SwallowedExceptionRule(LintRule):
    """ROB001 — broad except handlers must surface the exception."""

    rule_id = "ROB001"
    title = "broad exception handler swallows the error"
    rationale = (
        "A broad 'except Exception' whose body neither re-raises nor "
        "uses the caught exception makes the failure unobservable: the "
        "resilience layer cannot count, quarantine, or retry what was "
        "never reported. Re-raise, include the exception in what you "
        "record, or mark the deliberate swallow with "
        "'# lint: ignore[ROB001]' and a justification."
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None or not _is_broad(node.type):
                continue  # narrow handlers are a deliberate contract
            if _is_silent_body(node.body):
                continue  # CTL002's finding; do not double-report
            if self._surfaces(node):
                continue
            yield self.finding(
                module,
                node,
                "broad handler discards the exception (no raise, bound "
                "name unused): surface the error or justify the swallow "
                "with '# lint: ignore[ROB001]'",
            )

    @staticmethod
    def _surfaces(handler: ast.ExceptHandler) -> bool:
        """True when the handler re-raises or uses the caught exception."""
        for stmt in handler.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if (
                    handler.name is not None
                    and isinstance(node, ast.Name)
                    and node.id == handler.name
                ):
                    return True
        return False
