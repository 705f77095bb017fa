"""Pass 2 of the effect analysis: reachability from the analysis roots.

The summary pass reduced every function to its local effects plus its
outgoing calls.  Here those summaries become a call graph: named calls
resolve through import re-export chains; calls to a class name become an
edge to its ``__init__``; bare ``obj.m(...)`` method calls resolve by
class-hierarchy analysis (every in-tree method named ``m``), which is
what lets the walk see through the ``PowerScheme`` protocol's dynamic
``bind``/``on_gpm``/``on_pic`` dispatch.

Three roots anchor three guarantees:

* **simulation** (``Simulation.run``) — simulation purity: no hidden
  I/O or wall-clock reads may influence seeded results (EFF003).
* **parallel** (``runner._execute``, ``runner._calibrate``,
  ``runner._worker_loop``) —
  parallel safety: no shared module state may be mutated inside a
  worker (EFF001).
* **cache** (``Simulation.__init__`` + ``Simulation.run``) — cache-key
  soundness: every observable input on the cached run path must flow
  through the content hash, so env/file/written-global reads there are
  unsound (EFF002).

EFF004 (RNG stream aliasing) and EFF005 (order-sensitive accumulation)
come out of the local summaries; EFF005 fires only for functions
reachable from at least one root, EFF004 everywhere (a shared stream is
wrong wherever it happens) except in ``rng.py`` itself, whose whole job
is stream bookkeeping.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..findings import Finding
from ..modgraph import ModuleInfo, matches_suffix
from .summaries import Effect, EffectProgram, FunctionSummary, summarize

__all__ = [
    "EFF_RULES",
    "EffectAnalysis",
    "ROOTS",
    "Root",
]

#: Rule catalogue mirroring ``DIM_RULES``: (id, title, description).
EFF_RULES: tuple[tuple[str, str, str], ...] = (
    (
        "EFF001",
        "shared-state mutation in a parallel worker",
        "Code reachable from the runner's worker entry points mutates "
        "module-level (shared) state. Under fork-based parallelism the "
        "mutation is invisible to siblings and the parent, so results "
        "become schedule-dependent. Pass state explicitly through the "
        "RunRequest instead.",
    ),
    (
        "EFF002",
        "cache-key-unsound input on the cached run path",
        "Code reachable from the cache-keyed run path (Simulation "
        "construction + run) reads an observable input — an environment "
        "variable, a file, or a mutated module global — that never "
        "entered runner.py's content hash. Two runs with equal cache "
        "keys could then produce different results and the cache would "
        "serve stale data. Thread the input through the RunRequest so it "
        "is hashed, or hoist the read out of the cached path.",
    ),
    (
        "EFF003",
        "hidden I/O or wall-clock in simulation-reachable code",
        "Code reachable from Simulation.run performs I/O or reads the "
        "wall clock. Seeded runs must be bit-identical functions of "
        "their inputs; ambient reads and writes break replay and make "
        "telemetry diverge between hosts. Inject the value at "
        "construction time instead.",
    ),
    (
        "EFF004",
        "RNG stream aliased across consumers",
        "One numpy Generator is advanced by more than one consumer "
        "(stored/captured/passed on after local draws, or drawn from in "
        "a wider loop than it was created in). Interleaved draws make "
        "each consumer's sequence depend on the other's call pattern, so "
        "refactors silently change seeded results. Derive a fresh role "
        "stream per consumer (repro.rng.derive/split).",
    ),
    (
        "EFF005",
        "order-sensitive accumulation over an unordered collection",
        "A numeric accumulation reachable from an analysis root iterates "
        "a set (or other unordered collection). Float addition is not "
        "associative, so the total depends on hash order, which varies "
        "across platforms and PYTHONHASHSEED. Iterate over sorted(...) "
        "or an ordered container.",
    ),
)


@dataclass(frozen=True)
class Root:
    """One reachability root: a guarantee, its entry suffixes, and the
    effect kinds that violate it."""

    label: str
    rule_id: str
    suffixes: tuple[str, ...]
    kinds: frozenset[str]


ROOTS: tuple[Root, ...] = (
    Root(
        label="parallel worker entry (runner.run_many)",
        rule_id="EFF001",
        suffixes=(
            "runner._execute",
            "runner._calibrate",
            "runner._worker_loop",
        ),
        kinds=frozenset({"global-write"}),
    ),
    Root(
        label="cache-keyed run path (Simulation.__init__/run)",
        rule_id="EFF002",
        suffixes=("Simulation.__init__", "Simulation.run"),
        kinds=frozenset({"env-read", "file-read", "global-read"}),
    ),
    Root(
        label="Simulation.run",
        rule_id="EFF003",
        suffixes=("Simulation.run",),
        kinds=frozenset(
            {
                "env-read",
                "file-read",
                "file-write",
                "network",
                "clock",
                "process",
                "stdout",
            }
        ),
    ),
)

#: Basenames whose purpose exempts them from EFF004: the RNG module is
#: the stream-bookkeeping layer itself.
_RNG_EXEMPT_BASENAMES = frozenset({"rng.py"})

#: Maximum call-chain hops rendered in a finding message.
_CHAIN_CAP = 5


class EffectAnalysis:
    """The whole-program effects pass (CLI name: ``effects``)."""

    name = "effects"

    def run(self, modules: Sequence[ModuleInfo]) -> list[Finding]:
        program = summarize(modules)
        findings: list[Finding] = []
        reachable_any: set[str] = set()
        for root in ROOTS:
            reached = _reach(program, root.suffixes)
            reachable_any.update(reached)
            findings.extend(_root_findings(program, root, reached))
        findings.extend(_local_findings(program, reachable_any))
        return sorted(set(findings))


def _entry_points(program: EffectProgram, suffixes: Iterable[str]) -> list[str]:
    entries = []
    for fq in program.functions:
        if any(matches_suffix(fq, suffix) for suffix in suffixes):
            entries.append(fq)
    return sorted(entries)


def _callees(program: EffectProgram, summary: FunctionSummary) -> set[str]:
    """Resolved call-graph successors of one function."""
    out: set[str] = set()
    for raw in summary.calls_named:
        fq = program.resolve(raw)
        if fq in program.functions:
            out.add(fq)
        elif fq in program.classes:
            init = f"{fq}.__init__"
            if init in program.functions:
                out.add(init)
    for name in summary.calls_methods:
        out.update(program.methods_by_name.get(name, ()))
    return out


def _reach(
    program: EffectProgram, suffixes: Iterable[str]
) -> dict[str, str | None]:
    """BFS from the suffix-matched entries; fq -> parent fq (None at a
    root), which is what reconstructs the diagnostic call chain."""
    parents: dict[str, str | None] = {}
    queue: deque[str] = deque()
    for entry in _entry_points(program, suffixes):
        parents[entry] = None
        queue.append(entry)
    while queue:
        current = queue.popleft()
        for callee in sorted(_callees(program, program.functions[current])):
            if callee not in parents:
                parents[callee] = current
                queue.append(callee)
    return parents


def _chain(parents: dict[str, str | None], fq: str) -> str:
    """Human-readable call chain from the root down to ``fq``."""
    hops: list[str] = []
    cursor: str | None = fq
    while cursor is not None:
        hops.append(cursor)
        cursor = parents.get(cursor)
    hops.reverse()
    display = [_short(h) for h in hops]
    if len(display) > _CHAIN_CAP:
        display = display[:2] + ["..."] + display[-(_CHAIN_CAP - 3) :]
    return " -> ".join(display)


def _short(fq: str) -> str:
    """Last two dotted components: ``Simulation.run``, ``runner._execute``."""
    parts = fq.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else fq


def _written_globals(program: EffectProgram) -> set[str]:
    """Symbols some function in the program actually mutates."""
    written: set[str] = set()
    for summary in program.functions.values():
        for effect in summary.effects:
            if effect.kind == "global-write" and effect.symbol:
                written.add(effect.symbol)
    return written


def _root_findings(
    program: EffectProgram,
    root: Root,
    parents: dict[str, str | None],
) -> list[Finding]:
    findings: list[Finding] = []
    written = (
        _written_globals(program) if "global-read" in root.kinds else frozenset()
    )
    for fq in parents:
        summary = program.functions[fq]
        for effect in summary.effects:
            if effect.kind not in root.kinds:
                continue
            if effect.kind == "global-read" and effect.symbol not in written:
                # A read of a never-mutated module constant is a fixed
                # input: it cannot make equal cache keys diverge.
                continue
            chain = _chain(parents, fq)
            findings.append(
                Finding(
                    path=summary.path,
                    line=effect.line,
                    col=effect.col,
                    rule_id=root.rule_id,
                    message=(
                        f"{effect.detail} — reachable from {root.label}"
                        f" via {chain}"
                    ),
                )
            )
    return findings


def _local_findings(
    program: EffectProgram, reachable_any: set[str]
) -> list[Finding]:
    """EFF004 everywhere (minus the RNG layer); EFF005 where reachable."""
    findings: list[Finding] = []
    for fq, summary in program.functions.items():
        basename = summary.path.rsplit("/", 1)[-1]
        for effect in summary.effects:
            if effect.kind == "rng-aliased":
                if basename in _RNG_EXEMPT_BASENAMES:
                    continue
                rule_id = "EFF004"
            elif effect.kind == "unordered-acc" and fq in reachable_any:
                rule_id = "EFF005"
            else:
                continue
            findings.append(
                Finding(
                    path=summary.path,
                    line=effect.line,
                    col=effect.col,
                    rule_id=rule_id,
                    message=f"{effect.detail} (in {_short(fq)})",
                )
            )
    return findings
