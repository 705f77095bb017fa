"""The lint engine: sources -> parsed modules -> analyses -> report.

One private pipeline serves both entry points, :func:`lint_paths` (files
on disk) and :func:`lint_sources` (an in-memory ``{path: source}``
mapping): parse every module (a syntax error becomes an ``E000`` finding
rather than a crash), run the selected analyses, and drop the findings
suppressed by an inline ``# lint: ignore[RULE]`` comment.  Every finding
that survives fails the build.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .dimensions import DimensionAnalysis
from .effects import EffectAnalysis
from .findings import Finding
from .modgraph import ModuleInfo, ProgramIndex
from .rules import LintRule, all_rules
from .suppress import is_suppressed, suppressions_for

__all__ = [
    "ALL_ANALYSES",
    "LintReport",
    "PARSE_ERROR_ID",
    "clear_module_cache",
    "display_path",
    "iter_python_files",
    "lint_paths",
    "lint_sources",
    "load_module",
]

#: Every analysis the engine can run: the per-module rule catalogue and
#: the two whole-program passes (dimensional analysis and effects).
ALL_ANALYSES: tuple[str, ...] = ("rules", "dimensions", "effects")

#: The whole-program passes, in the order they run after ``rules``.
_WHOLE_PROGRAM_ANALYSES = (DimensionAnalysis, EffectAnalysis)

#: Pseudo-rule id for files the parser rejects.
PARSE_ERROR_ID = "E000"

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}

#: A parsed module with its inline-suppression map (line -> rule ids).
_Parsed = tuple[ModuleInfo, dict[int, set[str]]]


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    findings: tuple[Finding, ...]
    suppressed: int = 0
    files_checked: int = 0

    @property
    def raw_findings(self) -> tuple[Finding, ...]:
        """Alias of :attr:`findings`; perfbench's ``lint_tree`` workload
        counts findings through it."""
        return self.findings

    @property
    def ok(self) -> bool:
        return not self.findings

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_checked} file(s)"
            f" ({self.suppressed} suppressed inline)"
        )
        return "\n".join(lines + [summary])

    def as_dict(self) -> dict[str, object]:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "count": len(self.findings),
            "suppressed": self.suppressed,
            "files_checked": self.files_checked,
            "ok": self.ok,
        }


def display_path(path: Path) -> str:
    """POSIX-style path, relative to the working directory when possible."""
    try:
        rel = path.resolve().relative_to(Path.cwd().resolve())
        return rel.as_posix()
    except ValueError:
        return path.as_posix()


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Every ``*.py`` file under ``paths`` (files accepted verbatim)."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            files.append(path)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            files.append(candidate)
    return files


#: Parsed-module cache shared by every analysis and every lint_paths
#: call in one process: (resolved path, cwd) -> (signature, parse).  The
#: (mtime_ns, size) signature invalidates stale entries, and the cwd is
#: part of the key because the display path depends on it.
_MODULE_CACHE: dict[tuple[str, str], tuple[tuple[int, int], _Parsed]] = {}


def clear_module_cache() -> None:
    """Drop every cached parse (test isolation hook)."""
    _MODULE_CACHE.clear()


def _module(path: str, source: str) -> ModuleInfo:
    module = ModuleInfo(path=path, source=source, tree=ast.parse(source, path))
    module.scopes  # raises what the compiler's scoping rejects, as the parser does
    return module


def load_module(path: Path) -> ModuleInfo:
    """Parse ``path``; raises SyntaxError for the caller to report."""
    return _module(display_path(path), path.read_text(encoding="utf-8"))


def _load_module_cached(path: Path) -> _Parsed:
    """``load_module`` plus its suppression map, memoized per process.

    The three passes (and repeated lint runs in one test session) share
    one parse per file instead of re-reading and re-parsing the tree.
    """
    key = (str(path.resolve()), str(Path.cwd()))
    try:
        stat = path.stat()
        signature = (stat.st_mtime_ns, stat.st_size)
    except OSError:
        signature = (-1, -1)
    cached = _MODULE_CACHE.get(key)
    if cached is not None and cached[0] == signature:
        return cached[1]
    module = load_module(path)
    parsed = (module, suppressions_for(module.source))
    _MODULE_CACHE[key] = (signature, parsed)
    return parsed


def _parse_source(path: str, source: str) -> _Parsed:
    return _module(path, source), suppressions_for(source)


def _lint(
    loaders: Sequence[tuple[str, Callable[[], _Parsed]]],
    rules: Iterable[LintRule] | None,
    analyses: Sequence[str],
) -> LintReport:
    """The one pipeline: ``loaders`` pairs each display path with the
    call that parses it."""
    unknown = set(analyses) - set(ALL_ANALYSES)
    if unknown:
        raise ValueError(f"unknown analyses: {sorted(unknown)}")
    findings: list[Finding] = []
    modules: list[ModuleInfo] = []
    suppressions: dict[str, dict[int, set[str]]] = {}
    for path, load in loaders:
        try:
            module, suppressions[path] = load()
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule_id=PARSE_ERROR_ID,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        modules.append(module)
    candidates: list[Finding] = []
    if "rules" in analyses:
        rule_list = list(rules) if rules else all_rules()
        for module in modules:
            for rule in rule_list:
                if rule.applies_to(module):
                    candidates.extend(rule.check(module))
    selected = [a for a in _WHOLE_PROGRAM_ANALYSES if a.name in analyses]
    if selected:
        index = ProgramIndex.build(modules)
        for analysis_cls in selected:
            candidates.extend(analysis_cls().run(index))
    suppressed = 0
    for finding in candidates:
        if is_suppressed(
            suppressions.get(finding.path, {}), finding.line, finding.rule_id
        ):
            suppressed += 1
        else:
            findings.append(finding)
    return LintReport(
        findings=tuple(sorted(findings)),
        suppressed=suppressed,
        files_checked=len(loaders),
    )


def lint_paths(
    paths: Sequence[str | Path],
    rules: Iterable[LintRule] | None = None,
    analyses: Sequence[str] = ALL_ANALYSES,
) -> LintReport:
    """Lint every Python file under ``paths`` and return the report.

    ``analyses`` selects what runs: ``"rules"`` — the per-module rule
    catalogue (``rules``, default all of it); ``"dimensions"`` and
    ``"effects"`` — the whole-program passes (which need every module
    parsed before any is checked).
    """
    return _lint(
        [
            (display_path(path), partial(_load_module_cached, path))
            for path in iter_python_files(paths)
        ],
        rules,
        analyses,
    )


def lint_sources(
    sources: Mapping[str, str],
    rules: Iterable[LintRule] | None = None,
    analyses: Sequence[str] = ALL_ANALYSES,
) -> LintReport:
    """Lint in-memory modules, exactly as :func:`lint_paths` lints files.

    ``sources`` maps display paths (e.g. ``src/repro/foo.py``) to source
    text; the paths decide module names and rule exemptions.
    """
    loaders = [
        (path, partial(_parse_source, path, text))
        for path, text in sources.items()
    ]
    return _lint(loaders, rules, analyses)
