"""Lint-pipeline benchmark: cold runs vs the shared parse cache.

Times ``repro.lintkit`` over ``src/`` four ways, each the best of
``--repeats``: every analysis on a cold parse cache (what the CLI and
the commit hook pay), every analysis on a warm cache (cache hits for
every file), and each analysis (``rules`` / ``dimensions`` /
``effects``) alone, cold and warm.  A cached parse keeps its node list
and import aliases, so a warm figure omits the one AST walk per module
that a cold run pays; the cold per-analysis figures are the ones to
compare across commits.

Writes ``BENCH_lintkit.json`` at the repo root (``--out`` overrides).

Usage::

    python benchmarks/bench_lintkit.py
    python benchmarks/bench_lintkit.py --repeats 5
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lintkit import ALL_ANALYSES, lint_paths
from repro.lintkit.engine import clear_module_cache

__all__ = ["REPO_ROOT", "SRC", "main", "run_benchmark"]

SRC = REPO_ROOT / "src"


def _time_lint(analyses: tuple[str, ...], repeats: int, cold: bool) -> float:
    """Best-of-``repeats`` wall time for one lint_paths invocation, each
    on an empty parse cache when ``cold``."""
    best = float("inf")
    for _ in range(repeats):
        if cold:
            clear_module_cache()
        start = time.perf_counter()  # lint: ignore[DET003] benchmark harness measures wall time by design
        lint_paths([SRC], analyses=analyses)
        best = min(best, time.perf_counter() - start)  # lint: ignore[DET003] benchmark harness measures wall time by design
    return best


def _per_analysis(repeats: int, cold: bool) -> dict[str, float]:
    return {
        name: round(_time_lint((name,), repeats, cold), 4)
        for name in ALL_ANALYSES
    }


def run_benchmark(repeats: int = 3) -> dict:
    cold_s = _time_lint(ALL_ANALYSES, repeats, cold=True)
    warm_s = _time_lint(ALL_ANALYSES, repeats, cold=False)
    return {
        "benchmark": "lintkit",
        "files": len(list(SRC.rglob("*.py"))),
        "cold_all_s": round(cold_s, 4),
        "warm_all_s": round(warm_s, 4),
        "parse_cache_speedup": round(cold_s / warm_s, 2) if warm_s else None,
        "cold_per_analysis_s": _per_analysis(repeats, cold=True),
        "warm_per_analysis_s": _per_analysis(repeats, cold=False),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_lintkit.json")
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(repeats=args.repeats)
    pathlib.Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
