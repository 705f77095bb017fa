"""A helper module the simulator reaches only through a local import."""

from __future__ import annotations

import time

__all__ = ["stamp2"]


def stamp2() -> float:
    return time.time()  # expect: EFF003
