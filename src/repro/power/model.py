"""Composite core power model: dynamic + static.

Ties the Wattch-analogue dynamic model and the HotLeakage-analogue static
model to a :class:`repro.config.CoreConfig`, and provides the chip-level
normalization constant (maximum chip power) that every budget and power
series in the library is expressed against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import CoreConfig
from ..unit_types import (
    Celsius,
    CelsiusLike,
    GigaHz,
    GigaHzLike,
    Volts,
    VoltsLike,
    Watts,
    WattsLike,
)
from .clock_gating import LinearClockGating
from .dynamic import DynamicPowerModel
from .leakage import LeakagePowerModel

__all__ = ["CorePowerModel", "PowerBreakdown"]


@dataclass(frozen=True)
class PowerBreakdown:
    """Dynamic/static split of one power evaluation, in watts."""

    dynamic_w: Watts
    static_w: Watts


class CorePowerModel:
    """Power of one core at an operating point under a given workload state.

    The two workload inputs are the signals the interval simulator exposes:

    * ``busy`` — fraction of cycles not stalled on off-chip memory (stall
      cycles are clock-gated);
    * ``alpha`` — the phase's architectural activity during busy cycles.
    """

    def __init__(
        self,
        core_config: CoreConfig | None = None,
        gating: LinearClockGating | None = None,
        nominal_voltage: Volts = 1.5,
    ) -> None:
        cfg = core_config or CoreConfig()
        self.config = cfg
        self.dynamic = DynamicPowerModel(
            cfg.effective_capacitance,
            gating=gating,
            stall_activity=cfg.stall_activity,
        )
        self.leakage = LeakagePowerModel(
            cfg.nominal_leakage_w, nominal_voltage=nominal_voltage
        )

    def power(
        self,
        voltage: VoltsLike,
        frequency_ghz: GigaHzLike,
        busy: float | np.ndarray,
        alpha: float | np.ndarray = 1.0,
        temperature_c: CelsiusLike = 60.0,
        leakage_multiplier: float | np.ndarray = 1.0,
    ) -> WattsLike:
        """Total core power in watts; scalar or vectorized over cores."""
        dyn = self.dynamic.power(voltage, frequency_ghz, busy, alpha)
        stat = self.leakage.power(voltage, temperature_c, leakage_multiplier)
        return dyn + stat

    def breakdown(
        self,
        voltage: Volts,
        frequency_ghz: GigaHz,
        busy: float,
        alpha: float = 1.0,
        temperature_c: Celsius = 60.0,
        leakage_multiplier: float = 1.0,
    ) -> PowerBreakdown:
        """Dynamic/static split at one scalar operating point."""
        return PowerBreakdown(
            dynamic_w=float(self.dynamic.power(voltage, frequency_ghz, busy, alpha)),
            static_w=float(
                self.leakage.power(voltage, temperature_c, leakage_multiplier)
            ),
        )

    def max_power(self, voltage: Volts, frequency_ghz: GigaHz) -> Watts:
        """Power of a fully-active core at (V, f): the per-core peak."""
        return float(self.power(voltage, frequency_ghz, busy=1.0, alpha=1.0))
