"""Span recording for the traced benchmark run.

A :class:`Tracer` keeps one table of spans per process: name, parent
span, start and end on ``time.perf_counter`` (CLOCK_MONOTONIC on Linux,
so spans from forked pool workers share the parent's time base).
:meth:`Tracer.install` wraps the public entry points of each layer so
that every call opens and closes a span; :meth:`Tracer.uninstall` puts the
original functions back, so untraced passes run the unmodified program.

Forked workers inherit the wrappers.  After the fork the child empties
its copy of the table and, when it exits, pickles its spans into the
tracer's spill directory; :meth:`Tracer.collect_children` reads them
back.  Nothing is written while spans are being recorded.

The analysis half (:func:`covered`, :func:`self_times`,
:func:`under`) turns tables into per-layer self time: a span's duration
minus the part of its interval that its children cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import pickle
import time
from array import array
from dataclasses import dataclass
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Iterable

__all__ = [
    "SpanTable",
    "Tracer",
    "covered",
    "self_times",
    "under",
]


@dataclass
class SpanTable:
    """All spans one process recorded, in the order they opened.

    A span's parent always opened earlier, so ``parent[i] < i`` (or
    ``-1`` for a top-level span).
    """

    pid: int
    names: list[str]
    name: array
    parent: array
    start: array
    end: array

    @classmethod
    def empty(cls, pid: int, names: list[str]) -> "SpanTable":
        return cls(pid, names, array("l"), array("l"), array("d"), array("d"))

    def __len__(self) -> int:
        return len(self.start)

    def indices(self, name: str) -> list[int]:
        """Indices of the spans called ``name``."""
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return [i for i, n in enumerate(self.name) if n == nid]

    def top_level(self) -> list[int]:
        return [i for i, p in enumerate(self.parent) if p < 0]


class Tracer:
    """Records spans for the current process; see the module docstring."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.names: list[str] = []
        # Filled in place (never rebound) so wrappers can hold them.
        self._name, self._parent = array("l"), array("l")
        self._start, self._end = array("d"), array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # Runs in each multiprocessing child after the fork, once the
        # child has cleared the finalizers it inherited.
        mp_util.register_after_fork(self, Tracer._after_fork)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def reset(self) -> SpanTable:
        """Return the spans recorded so far and start an empty table."""
        finished = SpanTable(
            os.getpid(),
            list(self.names),
            array("l", self._name),
            array("l", self._parent),
            array("d", self._start),
            array("d", self._end),
        )
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self._stack.clear()
        return finished

    # -- wrapping --------------------------------------------------------
    def install(self, targets: Iterable[tuple[object, str, str]]) -> None:
        """Wrap every ``(owner, attribute, span name)`` in ``targets``."""
        for owner, attr, name in targets:
            self.wrap(owner, attr, name)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a function that records a span.

        A generator function's span runs from its first step to its
        exhaustion, so it covers the work, not just its creation.
        """
        original = getattr(owner, attr)
        if isinstance(owner, type):
            # Keep what the class itself defines, so uninstall restores
            # the class exactly (an inherited method is deleted again).
            original_slot = owner.__dict__.get(attr, _INHERITED)
        else:
            original_slot = original
        nid = self.name_id(name)
        stack, starts, ends = self._stack, self._start, self._end
        add_name, add_parent = self._name.append, self._parent.append
        add_start, add_end = starts.append, ends.append
        clock = time.perf_counter

        def begin() -> int:
            index = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            return index

        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def traced(*args, **kwargs):
                index = begin()
                try:
                    return (yield from original(*args, **kwargs))
                finally:
                    ends[index] = clock()
                    stack.pop()

        else:

            @functools.wraps(original)
            def traced(*args, **kwargs):
                index = begin()
                try:
                    return original(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original_slot))

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    # -- forked workers --------------------------------------------------
    def _after_fork(self) -> None:
        if not self.installed:
            return
        self.reset()  # the parent's spans are not this worker's
        # multiprocessing runs this when the worker exits normally.
        mp_util.Finalize(self, self._spill, exitpriority=100)

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{os.getpid()}.pkl"
        with open(path, "wb") as fh:
            pickle.dump(self.reset(), fh, protocol=pickle.HIGHEST_PROTOCOL)

    def collect_children(self) -> list[SpanTable]:
        """Read and delete the span tables exited workers spilled."""
        tables = []
        for path in sorted(self.spill_dir.glob("spans-*.pkl")):
            with open(path, "rb") as fh:
                tables.append(pickle.load(fh))
            path.unlink()
        return tables


_INHERITED = object()


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Intervals may overlap (spans from parallel workers) and may stick out
    of ``[lo, hi]``; only the clipped union counts.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a, cur_b = None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(table: SpanTable) -> list[float]:
    """Per span: its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(table.parent):
        if p >= 0:
            children.setdefault(p, []).append((table.start[i], table.end[i]))
    out = []
    for i in range(len(table)):
        lo, hi = table.start[i], table.end[i]
        kids = children.get(i)
        out.append(hi - lo - (covered(kids, lo, hi) if kids else 0.0))
    return out


def under(table: SpanTable, ancestor: str) -> list[bool]:
    """Per span: whether some enclosing span is called ``ancestor``."""
    nid = table.names.index(ancestor) if ancestor in table.names else -1
    flags: list[bool] = []
    for p in table.parent:
        flags.append(p >= 0 and (flags[p] or table.name[p] == nid))
    return flags
