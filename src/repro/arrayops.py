"""Shared array reductions for per-core → per-island aggregation.

The chip model, the simulator's telemetry accumulation, and the analysis
layer all need the same segmented sum: fold a per-core vector into a
per-island vector using the chip's ``island_of_core`` map.  Keeping the
reduction in one place avoids the four hand-rolled copies this tree used
to carry, and lets all of them share the fast implementation:
``np.bincount`` with weights, which runs a tight C loop, instead of
``np.add.at`` whose generalized ufunc dispatch is notoriously slow for
exactly this shape of problem.

The sum visits elements in ascending index order per output slot, so
for the library's contiguous, ascending ``island_of_core`` maps the
floating-point result is bit-identical to the ``np.add.at`` formulation
it replaces.
"""

from __future__ import annotations

import numpy as np

__all__ = ["island_sums"]


def island_sums(
    island_of_core: np.ndarray, values: np.ndarray, n_islands: int
) -> np.ndarray:
    """Sum ``values`` (per-core) into a length-``n_islands`` vector.

    Equivalent to::

        out = np.zeros(n_islands)
        np.add.at(out, island_of_core, values)

    but via :func:`np.bincount`, which is substantially faster.
    """
    return np.bincount(
        island_of_core, weights=values, minlength=n_islands
    ).astype(float, copy=False)
