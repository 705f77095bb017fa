"""Inline suppression comments: ``# lint: ignore[RULE-ID]``.

A finding is suppressed when the physical line it points at carries a
suppression comment naming its rule id (or naming no rule at all, which
suppresses every rule on that line)::

    freq = raw_hz / 1e9  # lint: ignore[UNIT001] — display-only conversion

Comments are located with :mod:`tokenize`, not string search, so the text
``# lint: ignore`` inside a string literal never suppresses anything.
"""

from __future__ import annotations

import io
import re
import tokenize

__all__ = ["SUPPRESS_ALL", "is_suppressed", "parse_comment", "suppressions_for"]

#: Sentinel stored for a bare ``# lint: ignore`` (no rule list): every
#: rule on the line is suppressed.
SUPPRESS_ALL = "*"

_PATTERN = re.compile(
    r"#\s*lint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s-]+)\])?", re.IGNORECASE
)


def parse_comment(comment: str) -> set[str] | None:
    """Rule ids suppressed by ``comment``, or None if not a suppression.

    Returns ``{SUPPRESS_ALL}`` for a bare ``# lint: ignore``.
    """
    match = _PATTERN.search(comment)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return {SUPPRESS_ALL}
    ids = {r.strip().upper() for r in rules.split(",") if r.strip()}
    return ids or {SUPPRESS_ALL}


def suppressions_for(source: str) -> dict[int, set[str]]:
    """Map line number -> suppressed rule ids for ``source``.

    Tokenization errors (the engine reports syntax errors separately)
    degrade to "no suppressions" rather than raising.  A source the
    pattern matches nowhere is not tokenized at all: every comment is a
    substring of its source, so it cannot hold a suppression either.
    """
    if _PATTERN.search(source) is None:
        return {}
    suppressed: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            ids = parse_comment(tok.string)
            if ids is not None:
                suppressed.setdefault(tok.start[0], set()).update(ids)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    return suppressed


def is_suppressed(
    suppressed: dict[int, set[str]], line: int, rule_id: str
) -> bool:
    """True when ``rule_id`` is suppressed on ``line``."""
    ids = suppressed.get(line)
    if not ids:
        return False
    return SUPPRESS_ALL in ids or rule_id.upper() in ids
