"""The unit of lintkit output: one finding at one source location.

A finding is a value: analyses yield them, the engine drops those
suppressed inline, and the CLI renders the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one location.

    Attributes
    ----------
    path:
        Display path of the offending file (POSIX separators, relative to
        the invocation directory when possible).
    line, col:
        1-based line and 0-based column of the offending node.
    rule_id:
        Identifier of the rule that fired, e.g. ``UNIT001``.
    message:
        Human-readable explanation, including the suggested fix.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """One-line ``path:line:col: RULE message`` rendering."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (used by ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }
