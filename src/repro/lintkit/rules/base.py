"""Rule plumbing: the Rule base class (rules see a :class:`ModuleInfo`)."""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from ..modgraph import ModuleInfo

__all__ = ["LintRule", "ModuleInfo"]


class LintRule:
    """One invariant, identified by ``rule_id``, checked per module.

    Subclasses set the class attributes and implement :meth:`check`;
    :meth:`applies_to` lets a rule exempt the module that *defines* the
    convention (``units.py`` for the unit rule, ``rng.py`` for the
    determinism rules).
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def applies_to(self, module: ModuleInfo) -> bool:
        return True

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )
