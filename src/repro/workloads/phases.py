"""Markov phase machine with AR(1) activity noise.

Real applications move through program phases with distinct IPC and memory
behaviour and stay in each phase for many scheduler intervals.  The GPM
exists precisely because of this time variation ("accurate provisioning of
power ... based on time varying workload characteristics"), so the
synthetic workloads need phases that persist for a few GPM intervals and
then shift.

A :class:`PhaseMachine` holds a set of :class:`Phase` states with
geometric dwell times; within a phase, the architectural activity factor
wanders with an AR(1) process so consecutive PIC intervals are correlated
but not constant.

Workload evolution is independent of the control loop (phases and noise
never observe frequencies or power), so the machine offers two exactly
equivalent interfaces: per-interval :meth:`PhaseMachine.advance`, and the
vectorized :meth:`PhaseMachine.advance_block` which produces a whole run's
samples in one pass.  Each random *kind* (phase-transition coin, jump
offset, noise innovation) draws from its own child stream, so the two
paths consume the same draws in the same order and are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..rng import split

__all__ = ["Phase", "PhaseBlock", "PhaseMachine", "PhaseState"]

#: Lower clip bound on the noisy activity factor.
_ALPHA_FLOOR = 0.05


@dataclass(frozen=True)
class Phase:
    """One program phase: the workload state the CPI stack consumes."""

    #: Architectural activity during busy cycles (issue-slot occupancy).
    alpha: float
    #: Base CPI of the phase with a perfect memory hierarchy.
    cpi_base: float
    #: L1 misses (that hit in L2) per kilo-instruction.
    l1_mpki: float
    #: L2 misses (off-chip accesses) per kilo-instruction.
    l2_mpki: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.cpi_base <= 0:
            raise ValueError("cpi_base must be positive")
        if self.l1_mpki < 0 or self.l2_mpki < 0:
            raise ValueError("miss rates must be non-negative")


@dataclass(frozen=True)
class PhaseState:
    """Instantaneous phase-machine output for one interval."""

    phase: Phase
    alpha: float  # phase alpha + AR(1) noise, clipped to (0, 1]


@dataclass(frozen=True)
class PhaseBlock:
    """A batch of consecutive intervals, one array entry per interval."""

    phase_index: np.ndarray
    alpha: np.ndarray
    cpi_base: np.ndarray
    l1_mpki: np.ndarray
    l2_mpki: np.ndarray

    @property
    def n_intervals(self) -> int:
        return int(self.alpha.shape[0])


class PhaseMachine:
    """Markov chain over phases plus AR(1) noise on the activity factor.

    Parameters
    ----------
    phases:
        The phase set; dwell in each is geometric.
    mean_dwell_intervals:
        Expected number of ``advance`` calls spent in a phase before
        transitioning (one call per PIC interval in the simulator).
    noise_sigma:
        Standard deviation of the AR(1) innovation on alpha.
    noise_rho:
        AR(1) autocorrelation; 0 gives white noise, values near 1 give
        slowly-wandering activity.
    rng:
        Generator owning this machine's randomness.  The initial phase is
        drawn from it directly; the per-interval draws come from three
        child streams split off it (see :func:`repro.rng.split`), one per
        random kind, so batched and per-interval generation agree.
    """

    def __init__(
        self,
        phases: Sequence[Phase],
        mean_dwell_intervals: float,
        noise_sigma: float,
        noise_rho: float,
        rng: np.random.Generator,
    ) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        if mean_dwell_intervals < 1.0:
            raise ValueError("mean dwell must be at least one interval")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if not 0.0 <= noise_rho < 1.0:
            raise ValueError("noise_rho must be in [0, 1)")
        self.phases: Tuple[Phase, ...] = tuple(phases)
        self.transition_probability = 1.0 / mean_dwell_intervals
        self.noise_sigma = noise_sigma
        self.noise_rho = noise_rho
        self._current = int(rng.integers(len(self.phases)))
        self._transition_rng, self._jump_rng, self._noise_rng = split(rng, 3)
        self._noise = 0.0
        # Per-phase parameter lookup tables for the vectorized path.
        self._phase_alpha = np.array([p.alpha for p in self.phases])
        self._phase_cpi_base = np.array([p.cpi_base for p in self.phases])
        self._phase_l1_mpki = np.array([p.l1_mpki for p in self.phases])
        self._phase_l2_mpki = np.array([p.l2_mpki for p in self.phases])

    @property
    def current_phase_index(self) -> int:
        return self._current

    def advance(self) -> PhaseState:
        """Advance one interval; maybe transition phase, evolve noise."""
        if (
            len(self.phases) > 1
            and self._transition_rng.random() < self.transition_probability
        ):
            # Jump to a uniformly-chosen *different* phase.
            offset = int(self._jump_rng.integers(1, len(self.phases)))
            self._current = (self._current + offset) % len(self.phases)
        self._noise = self.noise_rho * self._noise + self._noise_rng.normal(
            0.0, self.noise_sigma
        )
        phase = self.phases[self._current]
        alpha = float(np.clip(phase.alpha + self._noise, _ALPHA_FLOOR, 1.0))
        return PhaseState(phase=phase, alpha=alpha)

    def advance_block(self, n_intervals: int) -> PhaseBlock:
        """Advance ``n_intervals`` intervals in one vectorized pass.

        Consumes exactly the draws ``n_intervals`` successive
        :meth:`advance` calls would (same streams, same order), so the
        resulting samples are bit-identical to the per-interval path —
        the batch is a faster implementation, not an approximation.
        """
        if n_intervals < 1:
            raise ValueError("need at least one interval")
        n = int(n_intervals)
        n_phases = len(self.phases)
        if n_phases > 1:
            transition = self._transition_rng.random(n) < self.transition_probability
            offsets = np.zeros(n, dtype=np.int64)
            n_jumps = int(np.count_nonzero(transition))
            if n_jumps:
                offsets[transition] = self._jump_rng.integers(
                    1, n_phases, size=n_jumps
                )
            indices = (self._current + np.cumsum(offsets)) % n_phases
            self._current = int(indices[-1])
        else:
            indices = np.zeros(n, dtype=np.int64)
        innovations = self._noise_rng.normal(0.0, self.noise_sigma, size=n)
        noise = _ar1_scan(self.noise_rho, self._noise, innovations)
        self._noise = float(noise[-1])
        alpha = np.clip(self._phase_alpha[indices] + noise, _ALPHA_FLOOR, 1.0)
        return PhaseBlock(
            phase_index=indices,
            alpha=alpha,
            cpi_base=self._phase_cpi_base[indices],
            l1_mpki=self._phase_l1_mpki[indices],
            l2_mpki=self._phase_l2_mpki[indices],
        )


def _ar1_scan(rho: float, initial: float, innovations: np.ndarray) -> np.ndarray:
    """``y[t] = rho * y[t-1] + e[t]`` with ``y[-1] = initial``.

    The same multiply-add per step as :meth:`PhaseMachine.advance`, so the
    scan is bit-identical to the per-interval path.  Iterating Python
    floats from ``tolist()`` and converting once at the end is the
    cheapest exact form of the recurrence (a run has ~1000 steps).
    """
    out = []
    value = initial
    for e in innovations.tolist():
        value = rho * value + e
        out.append(value)
    return np.array(out, dtype=innovations.dtype)
