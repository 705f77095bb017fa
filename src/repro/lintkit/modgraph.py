"""The parsed-module record and the one name resolver every analysis uses.

The per-module rules and both multi-module passes —
:mod:`repro.lintkit.dimensions` (physical units) and
:mod:`repro.lintkit.effects` (purity/effects) — need the same
ingredients before they can reason about a name: a dotted module name
for every display path, an import-alias table resolving local names to
canonical dotted targets (including relative imports), a reader for
dotted attribute chains, and a walk along package re-export chains.
They live here so no two analyses can drift apart on how a name
resolves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Container, Mapping

__all__ = [
    "ModuleInfo",
    "dotted",
    "follow_exports",
    "matches_suffix",
    "module_aliases",
    "module_identity",
    "qualified_name",
    "relative_base",
]


@dataclass(frozen=True)
class ModuleInfo:
    """Everything an analysis may inspect about one parsed module."""

    path: str  # display path, POSIX separators
    source: str
    tree: ast.Module

    @property
    def basename(self) -> str:
        return PurePosixPath(self.path).name

    @property
    def parts(self) -> tuple[str, ...]:
        return PurePosixPath(self.path).parts

    @property
    def is_package_init(self) -> bool:
        return self.basename == "__init__.py"


def module_identity(path: str) -> tuple[str, bool]:
    """(dotted module name, is_package) for a display path.

    ``src/repro/power/model.py`` -> ``repro.power.model``; anything not
    under a ``src`` directory keeps its full relative dotted path.
    """
    parts = list(PurePosixPath(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    is_package = bool(parts) and parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src") :]
    return ".".join(parts), is_package


def relative_base(module: str, is_package: bool, level: int) -> list[str]:
    """Package parts a ``level``-dot relative import is anchored at."""
    parts = module.split(".") if module else []
    if not is_package and parts:
        parts = parts[:-1]
    extra = level - 1
    if extra:
        parts = parts[: max(len(parts) - extra, 0)]
    return parts


def module_aliases(
    tree: ast.Module, module: str, is_package: bool
) -> dict[str, str]:
    """Local name -> canonical dotted target, for every import statement."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    first = alias.name.split(".")[0]
                    aliases[first] = first
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = relative_base(module, is_package, node.level)
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = f"{target}.{alias.name}" if target else alias.name
    return aliases


def dotted(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def qualified_name(node: ast.AST, aliases: Mapping[str, str]) -> str | None:
    """``node``'s dotted name with its head resolved through ``aliases``.

    ``np.random.default_rng`` under ``import numpy as np`` is
    ``numpy.random.default_rng``; None for non-name expressions.
    """
    parts = dotted(node)
    if parts is None:
        return None
    head = aliases.get(parts[0], parts[0])
    return ".".join([head] + parts[1:])


def follow_exports(
    fq: str,
    exports: Mapping[str, str],
    functions: Container[str],
    classes: Container[str],
) -> str:
    """Follow re-export chains from ``fq`` to a defining name.

    ``exports`` maps ``module.local`` to the import target bound there;
    the walk stops at the first name in ``functions`` or ``classes``, at
    a dead end, or on a cycle.
    """
    seen = set()
    while fq not in functions and fq not in classes and fq not in seen:
        seen.add(fq)
        target = exports.get(fq)
        if target is None:
            break
        fq = target
    return fq


def matches_suffix(fq: str, suffix: str) -> bool:
    """True when ``fq`` is ``suffix`` or ends with ``.suffix``.

    Matching on dotted-boundary suffixes is what lets the analysis roots
    (``Simulation.run``, ``runner._execute``) bind both to the real tree
    and to the mirror fixtures under ``tests/fixtures/``.
    """
    return fq == suffix or fq.endswith("." + suffix)
