"""Lint-pipeline benchmark: start-up, cold runs and the shared parse cache.

Times ``repro.lintkit`` over ``src/`` four ways, each the best of
``--repeats``: every analysis on a cold parse cache (what the CLI and
the commit hook pay), every analysis on a warm cache (cache hits for
every file), and each analysis (``rules`` / ``dimensions`` /
``effects``) alone, cold and warm.  A cached parse keeps its node list
and import aliases, so a warm figure omits the one AST walk per module
that a cold run pays; the cold per-analysis figures are the ones to
compare across commits.

``cold_import`` is what every hook run pays before linting anything:
the wall time of a fresh interpreter that runs ``import repro.lintkit``
(median of 7 processes), next to a bare interpreter and one that runs
``import numpy``, and whether the lint import loaded NumPy.

Writes ``BENCH_lintkit.json`` at the repo root (``--out`` overrides).

Usage::

    python benchmarks/bench_lintkit.py
    python benchmarks/bench_lintkit.py --repeats 5
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lintkit import ALL_ANALYSES, lint_paths
from repro.lintkit.engine import clear_module_cache

__all__ = [
    "IMPORT_RUNS",
    "REPO_ROOT",
    "SRC",
    "bench_cold_import",
    "main",
    "run_benchmark",
]

SRC = REPO_ROOT / "src"

#: Fresh interpreters timed per ``cold_import`` line.
IMPORT_RUNS = 7


def _timings(fn, repeats: int, setup=None) -> list[float]:
    """Wall seconds of each of ``repeats`` calls of ``fn()``, each after
    an untimed ``setup()`` when one is given."""
    seconds = []
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = time.perf_counter()  # lint: ignore[DET003] benchmark harness measures wall time by design
        fn()
        seconds.append(time.perf_counter() - start)  # lint: ignore[DET003] benchmark harness measures wall time by design
    return seconds


def _time_lint(analyses: tuple[str, ...], repeats: int, cold: bool) -> float:
    """Best-of-``repeats`` wall time for one lint_paths invocation, each
    on an empty parse cache when ``cold``."""
    return min(
        _timings(
            lambda: lint_paths([SRC], analyses=analyses),
            repeats,
            setup=clear_module_cache if cold else None,
        )
    )


def _fresh_interpreter(statement: str) -> subprocess.CompletedProcess:
    """Run ``statement`` in a new interpreter on this checkout's source."""
    return subprocess.run(
        [sys.executable, "-c", statement],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )


def bench_cold_import(runs: int = IMPORT_RUNS) -> dict:
    """Median wall time of fresh interpreters: bare, ``import numpy`` and
    ``import repro.lintkit``; and whether the last one loaded NumPy."""
    medians = {
        name: round(
            statistics.median(
                _timings(lambda: _fresh_interpreter(statement), runs)
            ),
            4,
        )
        for name, statement in (
            ("bare_interpreter_s", "pass"),
            ("import_numpy_s", "import numpy"),
            ("import_repro_lintkit_s", "import repro.lintkit"),
        )
    }
    loaded = _fresh_interpreter(
        "import sys, repro.lintkit; print('numpy' in sys.modules)"
    ).stdout.strip()
    return dict(medians, runs=runs, lintkit_loads_numpy=loaded == "True")


def _per_analysis(repeats: int, cold: bool) -> dict[str, float]:
    return {
        name: round(_time_lint((name,), repeats, cold), 4)
        for name in ALL_ANALYSES
    }


def run_benchmark(repeats: int = 3) -> dict:
    cold_import = bench_cold_import()
    cold_s = _time_lint(ALL_ANALYSES, repeats, cold=True)
    warm_s = _time_lint(ALL_ANALYSES, repeats, cold=False)
    return {
        "benchmark": "lintkit",
        "files": len(list(SRC.rglob("*.py"))),
        "cold_import": cold_import,
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
