"""Mirror ``Simulation`` with planted effect violations (see __init__)."""

from __future__ import annotations

import os
import time

import numpy as np

__all__ = ["Simulation", "bump", "helper_total", "make_noise", "retune"]

#: Module-level mutable tuning table: written by :func:`retune`, read by
#: ``Simulation.run`` — the classic cache-unsound hidden input.
_TUNING = {"gain": 1.0}

#: Module-level counter rebound through a ``global`` declaration.
_COUNT = 0


class Simulation:
    """Cache-keyed entry points: ``__init__`` + ``run``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scale = float(os.getenv("REPRO_SCALE", "1.0"))  # expect: EFF002

    def run(self) -> float:
        started = time.perf_counter()  # expect: EFF003
        gain = _TUNING["gain"]  # expect: EFF002
        return helper_total() * gain * self.scale + 0.0 * started * bump() + _scoped()


def retune(gain: float) -> None:
    """Mutates shared module state; the worker path reaches this."""
    _TUNING["gain"] = gain  # expect: EFF001


def bump() -> int:
    """Reads a ``global``-declared name that it also rebinds."""
    global _COUNT
    count = _COUNT + 1  # expect: EFF002
    _COUNT = count  # expect: EFF001
    return count


def helper_total() -> float:
    """Order-sensitive accumulation, three calls deep from the roots."""
    values = {1.0, 2.5, 0.25}
    total = 0.0
    for value in values:  # expect: EFF005
        total += value
    return total


def make_noise(seed: int, n: int) -> list[float]:
    """One generator advanced by a fresh consumer every iteration."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        samples.append(_sample(rng))  # expect: EFF004
    return samples


def _sample(rng: np.random.Generator) -> float:
    return float(rng.normal())


# -- scoping: each binding below is local, module-global or local to a
# -- comprehension exactly as the compiler's symbol table says.

#: Module-level counters rebound under ``global`` by ``+=`` and ``for``.
_HITS = 0
_LAST = 0


def _scoped() -> int:
    return _hit() + _last() + _nested() + _shadowed([1, 2]) + _closures() + _imports()


def _hit() -> int:
    """``+=`` under ``global`` reads the binding it rebinds."""
    global _HITS
    _HITS += 1  # expect: EFF001, EFF002
    return 0


def _last() -> int:
    """A ``for`` target under ``global`` rebinds the module's name."""
    global _LAST
    for _LAST in range(3):  # expect: EFF001
        pass
    return 0


def _nested() -> int:
    """A nested def's local does not make the name local out here."""
    seen = _HITS  # expect: EFF002

    def inner() -> int:
        _HITS = 2
        return _HITS

    return seen + inner()


def _shadowed(values: list[int]) -> int:
    """A comprehension's target is local to the comprehension only."""
    doubled = [_HITS * 2 for _HITS in values]
    return len(doubled) + _HITS  # expect: EFF002


# -- nested scopes: a nested def's decorators and defaults run where the
# -- def statement runs, and its body is part of the enclosing function.


def _closures() -> int:
    return int(_stamp() + _scaled(1.0) + _tick() + _env_reader() + _boxed())


def _stamp() -> float:
    """A nested def's default value is evaluated by the enclosing call."""

    def stamp(now: float = time.time()) -> float:  # expect: EFF003
        return now

    return stamp()


def _scaled(value: float) -> float:
    """So is a lambda's."""
    scale = lambda x, gain=_TUNING["gain"]: x * gain  # expect: EFF002
    return scale(value)


def _tick() -> int:
    """A nested def's body rebinding a module global."""

    def tick() -> int:
        global _LAST
        _LAST = 1  # expect: EFF001
        return 0

    return tick()


def _env_reader() -> int:
    """A lambda's body reading the environment."""
    read = lambda: len(os.getenv("REPRO_MODE", ""))  # expect: EFF002, EFF003
    return read()


def _boxed() -> int:
    """A comprehension in a class body does not see the class's names."""

    class Box:
        _HITS = 5
        seen = [_HITS for _ in range(2)]  # expect: EFF002

    return len(Box.seen)


# -- function-local imports: a name an import binds inside a function is
# -- resolved through the module's import resolution, like a module-level one.


def _imports() -> int:
    """Calls through a local ``from … import`` and a local ``import … as``."""
    from .helpers import stamp2
    import time as t

    return int(stamp2() + t.time())  # expect: EFF003
