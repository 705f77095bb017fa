"""Performance-aware provisioning (Equations 4–6).

The policy's reasoning: dynamic power is cubic in frequency (Eq. 1) and
single-island throughput is linear in frequency for compute-limited code
(Eq. 3), so if island *i*'s power moved by a ratio ``r`` its throughput
should have scaled by ``r**(1/3)``::

    BIPS_e_i(t) = BIPS_a_i(t-1) * (P_i(t-1) / P_i(t-2)) ** (1/3)     (Eq. 4)

The ratio ``phi_i = BIPS_a_i(t) / BIPS_e_i(t)`` (Eq. 5) measures how well
the island converted its power into performance — memory-bound islands
that received more power without speeding up score below 1 — and the next
provisioning weights islands by phi (Eq. 6).

Two update modes are provided:

* ``"proportional"`` (default) — phi reweights the *current* provisions:
  ``P_i(t+1) ∝ P_i(t) * phi_i``.  Islands that convert power into
  throughput keep accumulating budget, and the differentiation persists
  once phi settles back to 1.  This is the behaviour the paper's
  Figures 7/8 exhibit (sustained, drifting differentiation between
  islands over many GPM intervals).
* ``"eq6"`` — the literal text of Equation 6,
  ``P_i(t+1) = P_target * phi_i / sum(phi)``.  Because phi tends to 1 for
  every island at a provisioning steady state, this form relaxes back to
  an equal split between transients; it is kept for the ablation study.

The surrounding :class:`~repro.gpm.manager.GlobalPowerManager` adds the
paper's prose mechanism on top of either mode: islands that ran at the
top of the ladder yet consumed below their set-point are demand-limited,
and their surplus budget is reclaimed for the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import units
from ..unit_types import PowerFractionArray
from .policy import GPMContext

__all__ = ["PerformanceAwarePolicy"]


@dataclass(eq=False)
class PerformanceAwarePolicy:
    """Maximize chip throughput within the budget via the phi heuristic.

    Parameters
    ----------
    phi_bounds:
        Clamp on the per-island performance ratio.  Equation 5's raw
        ratio can spike when a window's power barely changed (the
        expected-BIPS denominator is then pure noise); the clamp keeps
        one noisy window from starving an island, the concern the
        paper discusses below Equation 6.
    smoothing:
        EWMA weight on the newest phi (1.0 = no smoothing).
    mode:
        ``"proportional"`` or ``"eq6"`` — see the module docstring.
    """

    name = "performance-aware"

    phi_bounds: tuple[float, float] = (0.5, 2.0)
    smoothing: float = 0.5
    mode: str = "proportional"
    _phi_state: np.ndarray | None = field(default=None, init=False, repr=False)
    _shares: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        low, high = self.phi_bounds
        if not 0.0 < low <= 1.0 <= high:
            raise ValueError("phi_bounds must straddle 1.0 with low > 0")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if self.mode not in ("proportional", "eq6"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def reset(self) -> None:
        self._phi_state = None
        self._shares = None

    def _phi(self, context: GPMContext) -> np.ndarray:
        w_now = context.windows[-1]
        w_prev = context.windows[-2]

        power_now = np.maximum(w_now.island_power_frac, units.EPS)
        power_prev = np.maximum(w_prev.island_power_frac, units.EPS)
        bips_prev = np.maximum(w_prev.island_bips, units.EPS)
        bips_now = np.maximum(w_now.island_bips, units.EPS)

        # Eq. 4 with the power and BIPS ratios taken over the *same*
        # window pair: the expected throughput of the latest window is the
        # previous window's throughput scaled by the cube root of the
        # power ratio across those two windows.
        expected = bips_prev * (power_now / power_prev) ** (1.0 / 3.0)  # Eq. 4
        phi = bips_now / np.maximum(expected, units.EPS)  # Eq. 5
        return np.clip(phi, *self.phi_bounds)

    def provision(self, context: GPMContext) -> PowerFractionArray:
        # Equation 4 needs two completed windows; until then, provision
        # equally (Eq. 6's initial condition).
        if self._shares is None or self._shares.shape != (context.n_islands,):
            self._shares = np.full(context.n_islands, 1.0 / context.n_islands)
        if len(context.windows) < 2:
            return context.equal_split()

        phi = self._phi(context)
        if self._phi_state is None or self._phi_state.shape != phi.shape:
            self._phi_state = phi
        else:
            s = self.smoothing
            self._phi_state = s * phi + (1.0 - s) * self._phi_state

        if self.mode == "eq6":
            weights = self._phi_state / self._phi_state.sum()
        else:
            raw = self._shares * self._phi_state
            weights = raw / raw.sum()
            self._shares = weights
        return context.budget * weights  # Eq. 6
