"""Command-line interface: ``python -m repro.lintkit src/`` (or ``repro-lint``).

Exit codes: 0 — clean (no findings); 1 — findings; 2 — usage error
(argparse), a missing path, or an unwritable ``--output`` file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .dimensions import DIM_RULES
from .effects import EFF_RULES
from .engine import ALL_ANALYSES, lint_paths
from .rules import all_rules
from .sarif import render_sarif

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lintkit",
        description=(
            "AST-based invariant checker for the repro codebase: "
            "determinism, unit discipline, dimensional analysis, config "
            "immutability, control safety and API hygiene."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--analysis",
        choices=("all",) + ALL_ANALYSES,
        default="all",
        help=(
            "which analysis to run: 'rules' — the per-module rule "
            "catalogue; 'dimensions' — the interprocedural physical-unit "
            "checker; 'effects' — the interprocedural effect/purity "
            "analysis; 'all' — everything (default)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text; sarif renders as GitHub annotations)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> str:
    catalogue = [(r.rule_id, r.title, r.rationale) for r in all_rules()]
    catalogue += DIM_RULES + EFF_RULES
    return "\n".join(f"{i}  {title}\n        {text}" for i, title, text in catalogue)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    analyses = ALL_ANALYSES if args.analysis == "all" else (args.analysis,)
    try:
        report = lint_paths(args.paths, analyses=analyses)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        text = json.dumps(report.as_dict(), indent=2)
    elif args.format == "sarif":
        text = render_sarif(report)
    else:
        text = report.render_text()
    if args.output is None:
        print(text)
    else:
        try:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            print(
                f"error: cannot write {args.output}: {exc.strerror or exc}",
                file=sys.stderr,
            )
            return 2
    return 0 if report.ok else 1
