"""Control-safety rules: bounded actuation, no silent failure.

The paper's controllers only behave because their actuation is saturated
(frequency deltas clamped to the DVFS ladder) *and* the PID knows about
the saturation (anti-windup).  A PID constructed without output limits
reproduces the textbook failure — integral windup and huge overshoot
after long saturation at a low budget.  Separately, a swallowed exception
in the control/simulation path turns a loud numerical bug into a silently
wrong power trace.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from ..modgraph import dotted
from .base import LintRule, ModuleInfo

__all__ = ["SilentExceptRule", "UnboundedPIDRule"]

#: Constructors that must receive explicit saturation bounds, mapped to
#: (bound parameter name, its positional index).
_BOUNDED_CONSTRUCTORS = {
    "DiscretePID": ("output_limits", 1),
}


class UnboundedPIDRule(LintRule):
    """CTL001 — PID constructors must receive explicit saturation bounds."""

    rule_id = "CTL001"
    title = "PID constructed without saturation bounds"
    rationale = (
        "An unclamped PID output lets the integral term wind up during "
        "saturation at a binding power budget, producing the large "
        "overshoots the paper's anti-windup design exists to prevent. "
        "Pass output_limits=(low, high) explicitly."
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            parts = dotted(node.func)
            if parts is None:
                continue
            spec = _BOUNDED_CONSTRUCTORS.get(parts[-1])
            if spec is None:
                continue
            param, index = spec
            bound: ast.AST | None = None
            if len(node.args) > index:
                bound = node.args[index]
            for kw in node.keywords:
                if kw.arg == param:
                    bound = kw.value
            if bound is None or (
                isinstance(bound, ast.Constant) and bound.value is None
            ):
                yield self.finding(
                    module,
                    node,
                    f"{parts[-1]} constructed without {param}: saturation "
                    "bounds must be explicit so anti-windup can engage",
                )


class SilentExceptRule(LintRule):
    """CTL002 — no bare ``except:`` / silently-swallowed broad excepts."""

    rule_id = "CTL002"
    title = "bare or silently-swallowed exception handler"
    rationale = (
        "In the control/simulator path a swallowed exception converts a "
        "loud numerical failure into a silently wrong power/performance "
        "trace. Catch specific exceptions, and never with an empty body."
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare 'except:': catches SystemExit/KeyboardInterrupt "
                    "too; name the exceptions you expect",
                )
                continue
            if self._is_broad(node.type) and self._is_silent(node.body):
                yield self.finding(
                    module,
                    node,
                    "'except Exception' with an empty body silently hides "
                    "failures in the control path; handle or re-raise",
                )

    @staticmethod
    def _is_broad(type_node: ast.AST) -> bool:
        parts = dotted(type_node)
        return parts is not None and parts[-1] in ("Exception", "BaseException")

    @staticmethod
    def _is_silent(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or `...`
            return False
        return True
