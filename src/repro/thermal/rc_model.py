"""Lumped-RC thermal network over the chip floorplan.

Each core is one thermal node with heat capacity ``C``; it sheds heat
vertically to the ambient/heat-sink through resistance ``R_v`` and
laterally to grid-adjacent cores through ``R_l``::

    C dT_i/dt = P_i - (T_i - T_amb)/R_v - sum_j adj (T_i - T_j)/R_l

Integrated with explicit Euler at the simulator's interval (0.5 ms),
which is comfortably inside the stability bound ``dt < R C`` for the
default parameters (time constant ~24 ms).
"""

from __future__ import annotations

import numpy as np

from ..config import ThermalConfig
from ..unit_types import Celsius, CelsiusArray, Seconds, WattsArray
from .floorplan import Floorplan

__all__ = ["RCThermalModel"]


class RCThermalModel:
    """Vectorized per-core temperature integrator."""

    def __init__(
        self,
        floorplan: Floorplan,
        config: ThermalConfig | None = None,
    ) -> None:
        self.config = config or ThermalConfig()
        self.floorplan = floorplan
        self.n_cores = floorplan.n_cores
        self._adjacency = floorplan.core_adjacency().astype(float)
        self._degree = self._adjacency.sum(axis=1)
        self.temperatures = np.full(self.n_cores, self.config.ambient_c, dtype=float)

    def reset(self, temperature_c: Celsius | None = None) -> None:
        """Set every node to ``temperature_c`` (default: ambient)."""
        value = self.config.ambient_c if temperature_c is None else temperature_c
        self.temperatures.fill(value)

    def check_dt(self, dt: Seconds) -> None:
        """Raise unless ``dt`` is a usable explicit-Euler step."""
        # "not > 0" also rejects NaN, which would poison every node.
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        cfg = self.config
        stability_limit = cfg.heat_capacity_j_per_k * cfg.vertical_resistance_k_per_w
        if dt >= stability_limit:
            raise ValueError(
                f"dt={dt} too large for explicit Euler (limit {stability_limit})"
            )

    def step(
        self, core_power_w: WattsArray, dt: Seconds, check: bool = True
    ) -> CelsiusArray:
        """Advance ``dt`` seconds under per-core power; returns temperatures.

        ``check=False`` skips the shape and :meth:`check_dt` validation,
        for the chip kernel, which validates both once per run.
        """
        p = np.asarray(core_power_w, dtype=float)
        if check:
            if p.shape != (self.n_cores,):
                raise ValueError(f"need one power value per core ({self.n_cores})")
            self.check_dt(dt)
        cfg = self.config
        t = self.temperatures
        vertical = (t - cfg.ambient_c) / cfg.vertical_resistance_k_per_w
        lateral = (
            self._degree * t - self._adjacency @ t
        ) / cfg.lateral_resistance_k_per_w
        dT = (p - vertical - lateral) * (dt / cfg.heat_capacity_j_per_k)
        self.temperatures = t + dT
        return self.temperatures

    def steady_state(self, core_power_w: WattsArray) -> CelsiusArray:
        """Analytic equilibrium temperatures for constant per-core power.

        Solves the linear balance ``G (T - T_amb) = P`` where ``G`` is the
        conductance matrix; used by tests to validate the integrator.
        """
        p = np.asarray(core_power_w, dtype=float)
        if p.shape != (self.n_cores,):
            raise ValueError(f"need one power value per core ({self.n_cores})")
        cfg = self.config
        g_vertical = 1.0 / cfg.vertical_resistance_k_per_w
        g_lateral = 1.0 / cfg.lateral_resistance_k_per_w
        conductance = (
            np.diag(g_vertical + g_lateral * self._degree)
            - g_lateral * self._adjacency
        )
        return cfg.ambient_c + np.linalg.solve(conductance, p)
