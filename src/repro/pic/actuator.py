"""DVFS actuator: turns a frequency command into an applied setting.

The actuator enforces the physics the controller cannot see: frequency is
bounded by the ladder and, in quantized mode, restricted to its discrete
points.  It reports the clamping direction so the PID's anti-windup knows
when its command was cut short.
"""

from __future__ import annotations

import math

from ..cmpsim.dvfs import DVFSTable
from ..unit_types import GigaHz

__all__ = ["DVFSActuator"]


class DVFSActuator:
    """Stateful frequency knob for one island."""

    def __init__(
        self,
        table: DVFSTable,
        quantized: bool = False,
        initial_frequency: GigaHz | None = None,
    ) -> None:
        if initial_frequency is not None and not math.isfinite(initial_frequency):
            raise ValueError(f"initial frequency {initial_frequency} is not finite")
        self.table = table
        self.quantized = quantized
        f0 = table.f_max if initial_frequency is None else table.clamp(initial_frequency)
        if quantized:
            f0 = table.quantize(f0)
        self.frequency: GigaHz = float(f0)
        #: +1 when the last command was clamped from above, -1 from below.
        self.last_saturation = 0

    def apply_delta(self, delta_ghz: GigaHz) -> GigaHz:
        """Shift the operating frequency by ``delta_ghz``; returns applied f."""
        return self.apply(self.frequency + delta_ghz)

    def apply(self, frequency_ghz: GigaHz) -> GigaHz:
        """Set an absolute frequency request; returns the applied value."""
        requested = frequency_ghz
        applied = self.table.clamp(requested)
        if requested > applied:
            self.last_saturation = 1
        elif requested < applied:
            self.last_saturation = -1
        else:
            self.last_saturation = 0
        if self.quantized:
            applied = self.table.quantize(applied)
        self.frequency = float(applied)
        return self.frequency

    def reset(self, frequency_ghz: GigaHz | None = None) -> None:
        """Return to an initial state (default: top of the ladder)."""
        f = self.table.f_max if frequency_ghz is None else frequency_ghz
        self.frequency = self.table.clamp(f)
        if self.quantized:
            self.frequency = self.table.quantize(self.frequency)
        self.last_saturation = 0
