"""API-hygiene rules: every public module declares its surface.

``__all__`` is the contract between a module and its users: star-imports,
``help()``, doc generators and mypy's re-export checking all read it.  A
missing or stale ``__all__`` means the public surface is whatever happens
to be importable — which is how internals leak and refactors break
downstream code undetected.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from .base import LintRule, ModuleInfo

__all__ = ["DeclaredAllRule", "StaleAllRule", "module_exports"]

_EXEMPT_BASENAMES = {"__main__.py", "conftest.py", "setup.py"}


def _in_scope(module: ModuleInfo) -> bool:
    """Private modules (``_helpers.py``) are exempt; ``__init__.py`` is the
    package's public surface and is very much in scope."""
    name = module.basename
    if name in _EXEMPT_BASENAMES:
        return False
    return module.is_package_init or not name.startswith("_")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def module_exports(module: ModuleInfo) -> tuple[set[str], set[str]]:
    """(all bound top-level names, names that *should* be exported).

    Read off the module's symbol table, so a name bound under a
    top-level ``if``/``try``/``for``/``with`` counts like any other.
    Definitions and assignments are exports everywhere.  Imported names
    are exports only in a package ``__init__.py`` (where ``from .mod
    import X`` is a deliberate re-export); in a leaf module an import is a
    dependency, not API.  A lazy module's table entries (PEP 562) are
    bound and public like definitions, so ``__all__`` is checked against
    the table: a name missing from either side is a finding.
    """
    from_imports = {
        alias.asname or alias.name: node.module
        for node in module.nodes
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    bound = set(module.lazy_exports)
    public = {name for name in bound if _is_public(name)}
    for symbol in module.scopes.get_symbols():
        name = symbol.get_name()
        if symbol.is_assigned():
            bound.add(name)
            if _is_public(name):
                public.add(name)
        elif symbol.is_imported() and from_imports.get(name) != "__future__":
            bound.add(name)
            if module.is_package_init and _is_public(name) and name in from_imports:
                public.add(name)
    return bound, public


def _find_all(module: ModuleInfo) -> tuple[ast.stmt | None, list[str] | None]:
    """(the ``__all__`` statement, its names) — names None if not literal."""
    for stmt in module.tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        if "__all__" not in bound:
            continue
        value = stmt.value
        if isinstance(value, (ast.List, ast.Tuple)) and all(
            isinstance(el, ast.Constant) and isinstance(el.value, str)
            for el in value.elts
        ):
            return stmt, [el.value for el in value.elts]
        return stmt, None
    return None, None


class DeclaredAllRule(LintRule):
    """API001 — public modules must declare ``__all__``."""

    rule_id = "API001"
    title = "public module without __all__"
    rationale = (
        "Without __all__ the public surface is accidental: star-imports "
        "and doc tools pick up whatever is importable, and refactors "
        "change the API silently."
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return _in_scope(module)

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        stmt, _ = _find_all(module)
        if stmt is not None:
            return
        _, public = module_exports(module)
        if not public:
            return
        suggestion = ", ".join(f'"{name}"' for name in sorted(public))
        yield self.finding(
            module,
            module.tree,
            f"module defines public names but no __all__; suggest "
            f"__all__ = [{suggestion}]",
        )


class StaleAllRule(LintRule):
    """API002 — ``__all__`` must match the module's actual exports."""

    rule_id = "API002"
    title = "__all__ out of sync with exports"
    rationale = (
        "A stale __all__ is worse than none: it actively misdescribes the "
        "API to star-imports, doc tools and mypy's re-export checks."
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return _in_scope(module)

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        stmt, names = _find_all(module)
        if stmt is None:
            return
        if names is None:
            yield self.finding(
                module,
                stmt,
                "__all__ is not a literal list/tuple of strings, so it "
                "cannot be statically checked",
            )
            return
        bound, public = module_exports(module)
        unknown = sorted(set(names) - bound)
        missing = sorted(public - set(names))
        if unknown:
            yield self.finding(
                module,
                stmt,
                "__all__ names not defined in the module: "
                + ", ".join(unknown),
            )
        if missing:
            yield self.finding(
                module,
                stmt,
                "public names missing from __all__: " + ", ".join(missing),
            )
