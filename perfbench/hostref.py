"""Host-speed reference: a fixed kernel timed alongside the workload.

The shared VMs this benchmark runs on change speed by up to 2x over
minutes (other tenants), and CPU time slows with wall time, so raw host
seconds from two runs minutes apart are not comparable.  Each run
therefore times this kernel -- a fixed mix of small-array NumPy calls
and Python bookkeeping, the two kinds of work the simulator and lintkit
do -- about twice a second between its timed passes, and scales its host
timings by ``REF_NOMINAL_S / median(kernel seconds)``.  The kernel is
part of the benchmark, not of the program, so a change to the program
cannot move it; only the host's speed does.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["REF_NOMINAL_S", "HostSpeed", "reference_seconds"]

#: Kernel seconds on the nominal host the reported timings are scaled
#: to: a typical time on the 2-CPU KVM VM of the committed steadiness
#: runs.  Changing it rescales every timing; it is not a tuning knob.
REF_NOMINAL_S = 0.07


def _kernel(np, n: int = 10000) -> float:
    a = np.linspace(0.0, 1.0, 48)
    b = np.ones(48)
    acc = 0.0
    state: dict = {"x": 0.0, "items": []}
    for i in range(n):
        c = a * b + 1.0
        d = np.maximum(c, 0.5)
        acc += float(d.sum())
        b = np.abs(b - 1e-9)
        state["x"] = state["x"] * 0.9 + i * 0.1
        state["items"].append((i, acc, str(i)))
        if len(state["items"]) > 64:
            state["items"].clear()
    return acc


def reference_seconds() -> float:
    """Host seconds the kernel takes right now."""
    import numpy as np  # not timed: imported once, then a dict lookup

    t0 = time.perf_counter()
    _kernel(np)
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples, about one per ``INTERVAL_S`` of elapsed time."""

    INTERVAL_S = 0.5
    #: Most samples taken in one call (after a long pass or at the start).
    MAX_BATCH = 5

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self, force: bool = False) -> None:
        """Catch up on the samples due since the last call (one if forced)."""
        due = min((time.perf_counter() - self._last) / self.INTERVAL_S, self.MAX_BATCH)
        for _ in range(max(int(force), int(due))):
            self.samples.append(reference_seconds())
            self._last = time.perf_counter()

    def factor(self) -> float:
        """Multiply a host duration by this to get nominal-host seconds."""
        return REF_NOMINAL_S / statistics.median(self.samples)
