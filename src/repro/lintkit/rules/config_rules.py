"""Config rules: configurations are immutable values, defaults are safe.

A configuration that can mutate after construction invalidates every
derived quantity (calibration, reference runs, memoized baselines keyed
on the config).  And a mutable default argument is shared state across
calls — the classic Python trap — which in an experiment harness shows up
as results bleeding between runs.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from ..modgraph import dotted
from .base import LintRule, ModuleInfo

__all__ = ["FrozenConfigRule", "MutableDefaultRule"]

_CONFIG_SUFFIXES = ("Config", "Spec", "Result")

_MUTABLE_NODES = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "Counter"}


def _dataclass_decorator(
    cls: ast.ClassDef,
) -> tuple[ast.AST | None, bool]:
    """(decorator node, frozen=True present) for a dataclass, else (None, False)."""
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        parts = dotted(target)
        if parts is None or parts[-1] != "dataclass":
            continue
        frozen = False
        if isinstance(dec, ast.Call):
            for kw in dec.keywords:
                if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                    frozen = bool(kw.value.value)
        return dec, frozen
    return None, False


class FrozenConfigRule(LintRule):
    """CFG001 — config/spec dataclasses must be ``frozen=True``."""

    rule_id = "CFG001"
    title = "configuration dataclass not frozen"
    rationale = (
        "Configurations and experiment specs are values: simulations, "
        "calibration caches and memoized reference runs key on them. "
        "Mutation after construction silently desynchronizes all of those. "
        "Use dataclasses.replace() to build variants."
    )

    def _in_scope(self, module: ModuleInfo, cls: ast.ClassDef) -> bool:
        if module.basename == "config.py" or "experiments" in module.parts:
            return True
        return cls.name.endswith(_CONFIG_SUFFIXES)

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            dec, frozen = _dataclass_decorator(node)
            if dec is None or frozen:
                continue
            if not self._in_scope(module, node):
                continue
            yield self.finding(
                module,
                node,
                f"dataclass {node.name!r} must be declared frozen=True "
                "(configs and experiment specs are immutable values; "
                "build variants with dataclasses.replace)",
            )


class MutableDefaultRule(LintRule):
    """CFG002 — no mutable default arguments, anywhere."""

    rule_id = "CFG002"
    title = "mutable default argument"
    rationale = (
        "A mutable default is evaluated once and shared across every call; "
        "in an experiment harness that bleeds state between runs. Default "
        "to None (or use dataclasses.field(default_factory=...))."
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in module.nodes:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in {name!r}: defaults are "
                        "shared across calls; use None and construct inside",
                    )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, _MUTABLE_NODES):
            return True
        if isinstance(node, ast.Call):
            parts = dotted(node.func)
            return parts is not None and parts[-1] in _MUTABLE_CALLS
        return False
