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
        return helper_total() * gain * self.scale + 0.0 * started * bump()


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
