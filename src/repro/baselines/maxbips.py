"""MaxBIPS (Isci et al., "An Analysis of Efficient Multi-Core Global
Power Management Policies", MICRO 2006) adapted to islands.

The paper describes its comparison point tersely: "given a power budget,
the scheme selects DVFS co-ordinates from a static prediction table."
Two prediction variants are provided:

* ``prediction="static"`` (default — the paper's description).  The
  table is built once at bind time and never consults runtime
  measurements: per-island throughput at knob ``j`` is assumed
  proportional to ``cores * f_j`` (Isci's BIPS-linear-in-frequency
  assumption, applied uniformly because a static table knows nothing
  about which island runs what), and per-island power at knob ``j`` is
  the knob's *worst case* — a fully-active island — because an open-loop
  scheme with no second control tier can only guarantee the budget by
  provisioning against power rising toward the operating point's peak
  within the window.  The worst-case power entries are the structural
  reason "MaxBIPS's power consumption is always lower than the budget"
  (Figure 11) and the main source of its extra performance degradation
  (Figures 13/15).
* ``prediction="measured"`` (ablation).  Isci's runtime variant: scale
  the last interval's measured island BIPS linearly with frequency and
  measured power with ``V^2 f``, blended toward the worst case by
  ``HEADROOM_GUARD``.  This version is better informed than anything the
  paper's text supports, and the ablation benches quantify how much of
  MaxBIPS's published handicap disappears once it is allowed runtime
  feedback.

Selection maximizes total predicted BIPS subject to total predicted
power staying under the budget (exhaustive for a handful of islands,
grouped-knapsack DP beyond that) and applies the chosen knobs open-loop
at every GPM interval; knobs are restricted to the discrete table.  In
static mode neither the table nor the budget changes during a run, so
the selection runs once, at bind.
"""

from __future__ import annotations

import numpy as np

from ..cmpsim.simulator import Simulation

__all__ = ["MaxBIPSScheme"]


class MaxBIPSScheme:
    """Open-loop, static-prediction-table global power manager."""

    name = "maxbips"

    #: Power-axis resolution of the knapsack DP used beyond
    #: ``EXHAUSTIVE_LIMIT`` islands.
    DP_BINS = 400
    #: Maximum island count for exhaustive combination search
    #: (``knobs ** islands`` evaluations).
    EXHAUSTIVE_LIMIT = 5
    #: Only for ``prediction="measured"``: how far predicted power is
    #: pushed from the measured-scaled estimate toward the knob's peak
    #: island power (0 = trust the measurement, 1 = full worst-case
    #: provisioning).
    HEADROOM_GUARD = 0.5

    def __init__(self, prediction: str = "static") -> None:
        """``prediction`` is ``"static"`` (the paper's description) or
        ``"measured"`` (runtime-informed ablation) — see the module
        docstring."""
        if prediction not in ("static", "measured"):
            raise ValueError(f"unknown prediction variant {prediction!r}")
        self.prediction = prediction
        self._peak_table: np.ndarray | None = None
        self._static_bips: np.ndarray | None = None
        #: Static mode's (knobs, set-points), selected once at bind.
        self._static_choice: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    def bind(self, sim: Simulation) -> None:
        # MaxBIPS uses quantized knobs regardless of the platform's
        # actuation mode; it starts from the top operating point.
        sim.chip.set_island_frequencies([sim.chip.dvfs.f_max] * sim.config.n_islands)
        sim.setpoints = np.zeros(sim.config.n_islands)
        self._peak_table = self._build_peak_table(sim)
        # Static BIPS column: uniform per-core throughput, linear in f.
        cores = np.full(sim.config.n_islands, sim.config.cores_per_island)
        self._static_bips = (
            cores[:, None] * sim.chip.dvfs.frequencies[None, :]
        )
        # A static table under a fixed budget selects the same knobs in
        # every window, so select once; on_gpm applies the choice.
        self._static_choice = None
        if self.prediction == "static":
            self._static_choice = self._select(
                sim, self._static_bips, self._peak_table
            )

    def _build_peak_table(self, sim: Simulation) -> np.ndarray:
        """Peak island power (fraction of max chip power) per knob.

        Fully-active cores at each operating point — the worst case an
        open-loop selection must be prepared for.
        """
        chip = sim.chip
        table = chip.dvfs
        n_islands = sim.config.n_islands
        peaks = np.empty((n_islands, table.n_points))
        leakage = chip.power_model.leakage
        for j, (f, v) in enumerate(table.operating_points()):
            per_core = chip.power_model.power(
                v,
                f,
                busy=1.0,
                alpha=1.0,
                temperature_c=leakage.nominal_temperature_c,
                leakage_multiplier=chip.leakage_multipliers,
            )
            per_core = np.asarray(per_core, dtype=float)
            for i in range(n_islands):
                peaks[i, j] = per_core[chip.island_of_core == i].sum()
        return peaks / chip.max_power_w

    def on_pic(self, sim: Simulation) -> None:
        """Open loop: no fine-grained control tier."""
        if sim.last_result is not None:
            sim.sensed_power = sim.last_result.island_power_frac.copy()

    # ------------------------------------------------------------------
    def _prediction_table(
        self, sim: Simulation
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """(bips_pred, power_pred) of shape (n_islands, n_knobs), or None
        when predictions are unavailable (measured mode, no data yet)."""
        assert self._peak_table is not None, "bind() must run first"
        if self.prediction == "static":
            assert self._static_bips is not None
            return self._static_bips, self._peak_table

        result = sim.last_result
        if result is None:
            return None
        table = sim.chip.dvfs
        knob_freqs = table.frequencies
        knob_volts = table.voltages

        # Window-averaged measurements when available, last interval else.
        if sim.windows:
            bips_measured = sim.windows[-1].island_bips
            power_measured = sim.windows[-1].island_power_frac
        else:
            bips_measured = result.island_bips
            power_measured = result.island_power_frac

        f_cur = result.island_frequency_ghz
        v_cur = np.asarray(table.voltage_at(f_cur))

        # Scaling ratios: BIPS linear in f, power like V^2 f.
        freq_ratio = knob_freqs[None, :] / f_cur[:, None]
        energy_ratio = (knob_volts[None, :] ** 2 * knob_freqs[None, :]) / (
            v_cur[:, None] ** 2 * f_cur[:, None]
        )
        bips_pred = bips_measured[:, None] * freq_ratio
        scaled = power_measured[:, None] * energy_ratio
        w = self.HEADROOM_GUARD
        power_pred = (1.0 - w) * scaled + w * np.maximum(
            scaled, self._peak_table
        )
        return bips_pred, power_pred

    # ------------------------------------------------------------------
    def _select_exhaustive(
        self, bips: np.ndarray, power: np.ndarray, budget: float
    ) -> np.ndarray:
        """Best knob per island by full enumeration (vectorized)."""
        n_islands, n_knobs = bips.shape
        grids = np.meshgrid(*([np.arange(n_knobs)] * n_islands), indexing="ij")
        combos = np.stack([g.ravel() for g in grids], axis=1)
        total_power = power[np.arange(n_islands), combos].sum(axis=1)
        total_bips = bips[np.arange(n_islands), combos].sum(axis=1)
        feasible = total_power <= budget + 1e-12
        if not feasible.any():
            return np.zeros(n_islands, dtype=int)  # all-min fallback
        total_bips = np.where(feasible, total_bips, -np.inf)
        return combos[int(np.argmax(total_bips))]

    def _select_dp(
        self, bips: np.ndarray, power: np.ndarray, budget: float
    ) -> np.ndarray:
        """Grouped knapsack over power bins (conservative rounding up)."""
        n_islands, n_knobs = bips.shape
        bins = self.DP_BINS
        bin_width = budget / bins
        cost = np.minimum(
            np.ceil(power / max(bin_width, 1e-12)).astype(int), bins + 1
        )
        NEG = -np.inf
        dp = np.full(bins + 1, NEG)
        dp[0] = 0.0
        choice = np.full((n_islands, bins + 1), -1, dtype=int)
        parent = np.full((n_islands, bins + 1), -1, dtype=int)
        for i in range(n_islands):
            new_dp = np.full(bins + 1, NEG)
            for j in range(n_knobs):
                c = cost[i, j]
                if c > bins:
                    continue
                shifted = np.full(bins + 1, NEG)
                shifted[c:] = dp[: bins + 1 - c] + bips[i, j]
                better = shifted > new_dp
                if better.any():
                    new_dp = np.where(better, shifted, new_dp)
                    choice[i, better] = j
                    idx = np.flatnonzero(better)
                    parent[i, idx] = idx - c
            dp = new_dp
        if not np.isfinite(dp).any():
            return np.zeros(n_islands, dtype=int)
        b = int(np.argmax(dp))
        knobs = np.zeros(n_islands, dtype=int)
        for i in range(n_islands - 1, -1, -1):
            knobs[i] = choice[i, b]
            b = parent[i, b]
            if knobs[i] < 0:  # pragma: no cover - defensive
                return np.zeros(n_islands, dtype=int)
        return knobs

    # ------------------------------------------------------------------
    def _select(
        self, sim: Simulation, bips_pred: np.ndarray, power_pred: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(knob per island, its predicted power): the most predicted
        BIPS whose predicted power fits the distributable budget."""
        budget = sim.distributable_budget
        if sim.config.n_islands <= self.EXHAUSTIVE_LIMIT:
            knobs = self._select_exhaustive(bips_pred, power_pred, budget)
        else:
            knobs = self._select_dp(bips_pred, power_pred, budget)
        return knobs, power_pred[np.arange(sim.config.n_islands), knobs]

    def on_gpm(self, sim: Simulation) -> None:
        if self._static_choice is not None:
            knobs, setpoints = self._static_choice
        else:
            tables = self._prediction_table(sim)
            if tables is None:
                return
            knobs, setpoints = self._select(sim, *tables)
        sim.chip.set_island_frequencies(sim.chip.dvfs.frequencies[knobs])
        sim.setpoints = setpoints.copy()
