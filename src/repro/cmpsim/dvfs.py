"""DVFS operating points: the Pentium-M-style V/F ladder of Table I.

A :class:`DVFSTable` owns the discrete (frequency, voltage) pairs an
island supports and answers the three questions actuation needs:

* what voltage accompanies a frequency (piecewise-linear interpolation in
  continuous mode — the paper's PID analysis treats frequency as a
  continuous actuator within the ladder's range);
* which table entry a requested frequency snaps to (quantized mode, used
  by MaxBIPS);
* what the actuation bounds are.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..config import PENTIUM_M_VF_TABLE
from ..unit_types import GigaHz, GigaHzLike, VoltsLike

try:
    from numpy._core.multiarray import interp as _interp
except ImportError:  # NumPy 1.x
    from numpy.core.multiarray import interp as _interp

__all__ = ["DVFSTable"]


class DVFSTable:
    """The discrete voltage/frequency operating points of an island."""

    def __init__(
        self, vf_pairs: Sequence[Tuple[float, float]] = PENTIUM_M_VF_TABLE
    ) -> None:
        if len(vf_pairs) < 2:
            raise ValueError("need at least two operating points")
        freqs = np.array([f for f, _ in vf_pairs], dtype=float)
        volts = np.array([v for _, v in vf_pairs], dtype=float)
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if np.any(np.diff(volts) < 0):
            raise ValueError("voltage must be non-decreasing with frequency")
        if np.any(freqs <= 0) or np.any(volts <= 0):
            raise ValueError("frequencies and voltages must be positive")
        self.frequencies = freqs
        self.voltages = volts
        self._f_min = float(freqs[0])
        self._f_max = float(freqs[-1])

    @property
    def f_min(self) -> GigaHz:
        return self._f_min

    @property
    def f_max(self) -> GigaHz:
        return self._f_max

    @property
    def n_points(self) -> int:
        return int(self.frequencies.size)

    def clamp(self, frequency: GigaHzLike) -> GigaHzLike:
        """Restrict a requested frequency to the ladder's range."""
        if isinstance(frequency, (float, int)):
            # A scalar stays a Python float: np.clip is ~30x slower than
            # two comparisons.  (The PIC bank's per-tick clamp is inlined
            # in PICBank, not a call here.)
            return min(max(float(frequency), self._f_min), self._f_max)
        return np.clip(frequency, self._f_min, self._f_max)

    def voltage_at(self, frequency: GigaHzLike) -> VoltsLike:
        """Supply voltage for ``frequency`` (piecewise-linear between points).

        Frequencies outside the ladder raise: actuation must clamp first,
        and silent extrapolation would hide actuator bugs.
        """
        f = np.asarray(frequency, dtype=float)
        # The ufunc reductions skip ndarray.min/max's Python wrappers: this
        # runs once per tick in the chip kernel.  Both propagate NaN, and
        # the check is written so that a NaN fails it.
        lowest = np.minimum.reduce(f, axis=None, initial=self._f_min)
        highest = np.maximum.reduce(f, axis=None, initial=self._f_max)
        if not (lowest >= self._f_min - 1e-12 and highest <= self._f_max + 1e-12):
            raise ValueError(
                f"frequency {frequency} outside ladder "
                f"[{self.f_min}, {self.f_max}] GHz"
            )
        # np.interp's compiled core: the wrapper only re-validates the
        # ladder arrays, which the constructor already did.
        result = _interp(f, self.frequencies, self.voltages, None, None)
        if result.ndim == 0:
            return float(result)
        return result

    def quantize(self, frequency: GigaHzLike) -> GigaHzLike:
        """Nearest discrete operating frequency (elementwise for arrays;
        the lowest point wins a tie)."""
        f = self.clamp(frequency)
        if isinstance(f, float):
            index = int(np.argmin(np.abs(self.frequencies - f)))
            return float(self.frequencies[index])
        distance = np.abs(self.frequencies - f[..., None])
        return self.frequencies[np.argmin(distance, axis=-1)]

    def operating_points(self) -> list[Tuple[float, float]]:
        """All (frequency GHz, voltage V) pairs, ascending."""
        return list(zip(self.frequencies.tolist(), self.voltages.tolist()))
