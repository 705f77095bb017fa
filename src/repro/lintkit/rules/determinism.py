"""Determinism rules: all randomness flows through ``repro.rng``.

The whole experiment harness rests on seed-deterministic runs (same root
seed, same result — bit for bit).  That property dies the moment any
module creates its own generator, touches numpy's legacy global RNG, or
reads the wall clock.  These rules pin every entropy source to one
module, ``repro/rng.py``, whose role-derived streams are reproducible,
independent and addressable.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..findings import Finding
from ..modgraph import qualified_name
from .base import LintRule, ModuleInfo

__all__ = ["RandomModuleImportRule", "RngConstructionRule", "WallClockRule"]

#: The one module allowed to construct numpy generators.
_RNG_MODULE = "rng.py"

_WALL_CLOCK_CALLS = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "time.monotonic": "time.monotonic()",
    "time.perf_counter": "time.perf_counter()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "datetime.date.today": "date.today()",
}


def _calls(module: ModuleInfo) -> Iterator[tuple[ast.Call, str]]:
    """Every call with a static target, as (node, resolved dotted name)."""
    for node in module.nodes:
        if isinstance(node, ast.Call):
            target = qualified_name(node.func, module.aliases)
            if target is not None:
                yield node, target


class RngConstructionRule(LintRule):
    """DET001 — no ``numpy.random`` entry points outside ``rng.py``."""

    rule_id = "DET001"
    title = "numpy.random used outside repro/rng.py"
    rationale = (
        "Ad-hoc generators (np.random.default_rng, the legacy global RNG) "
        "break seed-determinism and stream independence. Accept a "
        "numpy.random.Generator argument, or derive one with "
        "repro.rng.derive / SeedSequenceFactory."
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.basename != _RNG_MODULE

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        for node, target in _calls(module):
            if target == "numpy.random" or target.startswith("numpy.random."):
                yield self.finding(
                    module,
                    node,
                    f"call to {target!r}: construct generators only in "
                    "repro.rng (use rng.derive(root_seed, role) or pass a "
                    "Generator in)",
                )


class RandomModuleImportRule(LintRule):
    """DET002 — the stdlib ``random`` module is banned everywhere."""

    rule_id = "DET002"
    title = "stdlib random imported"
    rationale = (
        "random's global Mersenne Twister is process-wide mutable state; "
        "any import invites unseeded, order-dependent draws. All entropy "
        "must come from repro.rng's role-derived numpy Generators."
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            module,
                            node,
                            "import of stdlib 'random': use repro.rng's "
                            "role-derived numpy generators instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module is not None and (
                    node.module == "random" or node.module.startswith("random.")
                ):
                    yield self.finding(
                        module,
                        node,
                        "import from stdlib 'random': use repro.rng's "
                        "role-derived numpy generators instead",
                    )


class WallClockRule(LintRule):
    """DET003 — no wall-clock reads outside ``rng.py``."""

    rule_id = "DET003"
    title = "wall-clock read in library code"
    rationale = (
        "time.time()/datetime.now() make behaviour depend on when a run "
        "happens, which no seed can reproduce. Simulated time comes from "
        "the simulator; timestamps belong to the caller, not the library."
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.basename != _RNG_MODULE

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        for node, target in _calls(module):
            if target in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read {_WALL_CLOCK_CALLS[target]}: library "
                    "code must be reproducible; take times as parameters",
                )
