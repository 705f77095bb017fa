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

import copy
from typing import Sequence

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
        self._attach(np.full(self.n_cores, self.config.ambient_c, dtype=float))

    def _attach(self, temperatures: np.ndarray) -> None:
        """Hold ``temperatures`` (``(n_cores,)``, or ``(n_runs, n_cores)``
        stacked) as the state.  :meth:`step` works on its flat view,
        with the degrees tiled to match, and on its ``(..., n_cores, 1)``
        column view, the operand of the lateral term's matrix-vector
        products."""
        self._temperatures = temperatures
        #: The state as one flat array over runs and cores.
        self.flat_temperatures = temperatures.reshape(-1)
        self._column = temperatures[..., None]
        n_runs = len(self.flat_temperatures) // self.n_cores
        self._flat_degree = np.tile(self._degree, n_runs)

    @property
    def temperatures(self) -> CelsiusArray:
        """Per-core temperatures, updated in place by :meth:`step`.

        In a fleet (:meth:`repro.cmpsim.chip.Chip.stack`) this is one row
        of the fleet's ``(n_runs, n_cores)`` state; assigning copies the
        values into it, so the row stays shared.
        """
        return self._temperatures

    @temperatures.setter
    def temperatures(self, value: CelsiusArray) -> None:
        self._temperatures[...] = value

    @classmethod
    def stack(cls, models: Sequence[RCThermalModel]) -> RCThermalModel:
        """One model over ``models``' temperatures stacked into ``(n_runs,
        n_cores)``; each of ``models`` keeps its own as a row view.  They
        must share a floorplan and config, whose constants it takes from
        the first."""
        fleet = copy.copy(models[0])
        fleet._attach(np.stack([m.temperatures for m in models]))
        for model, row in zip(models, fleet._temperatures):
            model._attach(row)
        return fleet

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
        for the chip kernel, which validates both once per run.  There
        the temperatures may be a fleet's stacked ``(n_runs, n_cores)``
        state and ``core_power_w`` flat over it.  The lateral term is one
        matrix-vector product per run (a batched ``matmul`` of ``(n_cores,
        1)`` columns): the BLAS call a single run makes.  A matrix-matrix
        product over the stacked rows may sum in another order.
        """
        p = np.asarray(core_power_w, dtype=float)
        if check:
            if p.shape != (self.n_cores,):
                raise ValueError(f"need one power value per core ({self.n_cores})")
            self.check_dt(dt)
        cfg = self.config
        t = self.flat_temperatures
        vertical = (t - cfg.ambient_c) / cfg.vertical_resistance_k_per_w
        neighbours = (self._adjacency @ self._column).reshape(-1)
        lateral = (
            self._flat_degree * t - neighbours
        ) / cfg.lateral_resistance_k_per_w
        dT = (p.reshape(-1) - vertical - lateral) * (dt / cfg.heat_capacity_j_per_k)
        t += dT
        return self._temperatures

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
