"""The parsed-module record, the program index and the one name resolver.

The per-module rules and both multi-module passes —
:mod:`repro.lintkit.dimensions` (physical units) and
:mod:`repro.lintkit.effects` (purity/effects) — need the same
ingredients before they can reason about a name: a dotted module name
for every display path, an import-alias table resolving local names to
canonical dotted targets (including relative imports), the compiler's
symbol table for scopes, a reader for dotted attribute chains, and one
:class:`ProgramIndex` of the whole program's exports and top-level
definitions, built once per lint pass.  They live here so no two
analyses can drift apart on how a name resolves.
"""

from __future__ import annotations

import ast
import symtable
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import PurePosixPath
from typing import Generic, Iterable, Mapping, Sequence, TypeVar

__all__ = [
    "Definition",
    "FunctionNode",
    "ModuleInfo",
    "ProgramIndex",
    "child_scopes",
    "comprehension_targets",
    "dotted",
    "function_scope",
    "matches_suffix",
    "module_identity",
    "qualified_name",
    "relative_base",
]


@dataclass(frozen=True)
class ModuleInfo:
    """Everything an analysis may inspect about one parsed module.

    The facts every analysis needs — the node list, the import-alias
    table, the symbol table and the line table — are derived once per
    parse and kept on it, so a lint pass walks each module's tree
    exactly once however many rules read it.
    """

    path: str  # display path, POSIX separators
    source: str
    tree: ast.Module

    @cached_property
    def nodes(self) -> tuple[ast.AST, ...]:
        """Every node of :attr:`tree`, in ``ast.walk`` order."""
        return tuple(ast.walk(self.tree))

    @cached_property
    def scopes(self) -> symtable.SymbolTable:
        """The compiler's symbol table: which names each scope binds or
        declares ``global``, by CPython's own scoping rules.

        Raises SyntaxError for a module the parser accepts but the
        compiler rejects (``def f(): x = 1; global x``).
        """
        return symtable.symtable(self.source, self.path, "exec")

    @cached_property
    def lines(self) -> tuple[str, ...]:
        """Source lines, numbered as the parser numbers them."""
        return tuple(self.source.replace("\r\n", "\n").replace("\r", "\n").split("\n"))

    def segment(self, node: ast.expr) -> str:
        """Source text of a one-line expression (AST column offsets are
        UTF-8 byte offsets, so the line is sliced as bytes)."""
        line = self.lines[node.lineno - 1].encode("utf-8")
        return line[node.col_offset : node.end_col_offset].decode("utf-8")

    @cached_property
    def name(self) -> str:
        """Dotted module name (``repro.power.model``)."""
        return module_identity(self.path)[0]

    @cached_property
    def imports(self) -> tuple[ast.Import | ast.ImportFrom, ...]:
        """Every import statement, module-level or not, in walk order."""
        return tuple(
            node for node in self.nodes if isinstance(node, (ast.Import, ast.ImportFrom))
        )

    @cached_property
    def aliases(self) -> Mapping[str, str]:
        """Local name -> canonical dotted target, for every import
        statement (relative imports resolved against this module)."""
        return self.import_aliases(self.imports)

    def import_aliases(
        self, imports: Iterable[ast.Import | ast.ImportFrom]
    ) -> dict[str, str]:
        """Local name -> canonical dotted target for ``imports``, import
        statements of this module (relative ones resolved against it)."""
        module, is_package = module_identity(self.path)
        aliases: dict[str, str] = {}
        for node in imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        first = alias.name.split(".")[0]
                        aliases[first] = first
                continue
            target = _absolute(
                "." * node.level + (node.module or ""), module, is_package
            )
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = f"{target}.{alias.name}" if target else alias.name
        return aliases

    @cached_property
    def lazy_exports(self) -> Mapping[str, str]:
        """Public name -> canonical dotted target, for a lazy module
        (PEP 562): one whose module-level ``__getattr__`` reads a literal
        ``{"Name": ".submodule"}`` table at module level.  Empty for
        every other module."""
        getattr_names = {
            node.id
            for stmt in self.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "__getattr__"
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name)
        }
        for stmt in self.tree.body:
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id in getattr_names
                and isinstance(stmt.value, ast.Dict)
            ):
                continue
            value = stmt.value
            pairs = [
                (key.value, sub.value)
                for key, sub in zip(value.keys, value.values)
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(sub, ast.Constant)
                and isinstance(sub.value, str)
            ]
            if pairs and len(pairs) == len(value.keys):
                module, is_package = module_identity(self.path)
                return {
                    name: f"{_absolute(submodule, module, is_package)}.{name}"
                    for name, submodule in pairs
                }
        return {}

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


def _absolute(target: str, module: str, is_package: bool) -> str:
    """``target`` (``..sub``, ``.`` or ``pkg.sub``) as an absolute module
    name, resolved against ``module`` the way an import statement there
    resolves it."""
    level = len(target) - len(target.lstrip("."))
    base = relative_base(module, is_package, level) if level else []
    return ".".join(filter(None, [*base, target[level:]]))


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


FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def function_scope(table: symtable.SymbolTable) -> tuple[set[str], set[str]]:
    """(local names, names declared ``global``) of one function's table.

    A nested function's free names (bound in an enclosing function)
    count as local; a comprehension's targets are not among them.
    """
    symbols = table.get_symbols()
    return (
        {
            symbol.get_name()
            for symbol in symbols
            if symbol.is_local() or symbol.is_free()
        },
        {symbol.get_name() for symbol in symbols if symbol.is_declared_global()},
    )


def comprehension_targets(
    node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp,
) -> set[str]:
    """Names a comprehension binds, local inside it on every Python: the
    compiler gives it its own table before 3.12 and inlines list, set and
    dict comprehensions into the enclosing one from 3.12 on (PEP 709)."""
    return {
        sub.id
        for generator in node.generators
        for sub in ast.walk(generator.target)
        if isinstance(sub, ast.Name)
    }


_Node = TypeVar("_Node", bound=ast.stmt)


@dataclass(frozen=True)
class Definition(Generic[_Node]):
    """One top-level function or class, or a method of a top-level
    class, with the module it lives in and its own symbol table."""

    module: ModuleInfo
    node: _Node
    scope: symtable.SymbolTable


@dataclass
class ProgramIndex:
    """What both whole-program passes need to resolve a name, built once
    per lint pass: the re-export table (imports and a lazy module's
    table alike) and every top-level definition.

    Each pass keeps only its own facts (signatures and units, effect
    summaries) next to it.
    """

    modules: Sequence[ModuleInfo]
    #: ``module.local`` -> the import target bound there.
    exports: dict[str, str] = field(default_factory=dict)
    #: fq -> top-level function (the last definition of a name wins).
    functions: dict[str, Definition[FunctionNode]] = field(default_factory=dict)
    #: fq -> top-level class.
    classes: dict[str, Definition[ast.ClassDef]] = field(default_factory=dict)
    #: class fq -> its methods, in body order.
    methods: dict[str, list[Definition[FunctionNode]]] = field(
        default_factory=dict
    )

    @classmethod
    def build(cls, modules: Sequence[ModuleInfo]) -> "ProgramIndex":
        """Index every module's exports and top-level definitions."""
        index = cls(modules)
        for module in modules:
            for local, target in [
                *module.aliases.items(),
                *module.lazy_exports.items(),
            ]:
                index.exports[f"{module.name}.{local}"] = target
            scopes = child_scopes(module.scopes)
            for stmt in module.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    index.functions[f"{module.name}.{stmt.name}"] = Definition(
                        module, stmt, scopes[stmt.name, stmt.lineno]
                    )
                elif isinstance(stmt, ast.ClassDef):
                    fq = f"{module.name}.{stmt.name}"
                    scope = scopes[stmt.name, stmt.lineno]
                    index.classes[fq] = Definition(module, stmt, scope)
                    method_scopes = child_scopes(scope)
                    index.methods[fq] = [
                        Definition(module, sub, method_scopes[sub.name, sub.lineno])
                        for sub in stmt.body
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ]
        return index

    def resolve(self, fq: str) -> str:
        """Follow re-export chains from ``fq`` to a defining name.

        The walk stops at the first top-level function or class, at a
        dead end, or on a cycle.
        """
        seen = set()
        while fq not in self.functions and fq not in self.classes and fq not in seen:
            seen.add(fq)
            target = self.exports.get(fq)
            if target is None:
                break
            fq = target
        return fq


def child_scopes(
    table: symtable.SymbolTable,
) -> dict[tuple[str, int], symtable.SymbolTable]:
    """A scope's child tables by (name, first line): how a def node finds
    its own table.  A generic def's table sits one level down, under its
    type-parameter table (PEP 695, 3.12+)."""
    scopes: dict[tuple[str, int], symtable.SymbolTable] = {}
    for child in table.get_children():
        key = (child.get_name(), child.get_lineno())
        if child.get_type() not in ("function", "class"):
            child = child_scopes(child).get(key, child)
        scopes[key] = child
    return scopes


def matches_suffix(fq: str, suffix: str) -> bool:
    """True when ``fq`` is ``suffix`` or ends with ``.suffix``.

    Matching on dotted-boundary suffixes is what lets the analysis roots
    (``Simulation.run``, ``runner._execute``) bind both to the real tree
    and to the mirror fixtures under ``tests/fixtures/``.
    """
    return fq == suffix or fq.endswith("." + suffix)
