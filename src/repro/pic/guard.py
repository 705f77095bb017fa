"""Sensor guard: fault detection and safe-mode degradation for the PIC.

The paper's robustness story is analytic (Eq. 13 bounds the tolerable
gain error); nothing in it *detects* a failed sensor.  A stuck or dead
utilization counter therefore silently drives an island to the wrong V/F
for the rest of the run — or, with a NaN reading, poisons the PID state
outright.  This module adds the missing discipline as a guard wrapped
around :class:`~repro.pic.controller.PerIslandController` (the run path's
:class:`~repro.pic.bank.PICBank` arms the same state machine on every
island):

1. **validate** every utilization reading — finite, inside a plausible
   range, and not stuck (a rolling window whose spread collapses to
   nothing is a dead counter, because real utilization always dithers);
2. on an implausible reading, enter **hold** mode: the PID runs on the
   last-known-good input and its integrator is frozen (the same
   anti-windup reasoning as actuator saturation — integrating a phantom
   error winds the accumulator up);
3. after ``failsafe_after`` consecutive bad samples, enter **fail-safe**
   mode: the island is clamped to a fail-safe frequency floor, bounding
   its power at the island's minimum regardless of what the sensor says;
4. once ``rearm_after`` consecutive plausible readings arrive, **re-arm**:
   unfreeze the integrator and resume closed-loop tracking.

Every transition is recorded in a
:class:`~repro.cmpsim.telemetry.ResilienceLog` so tests and the chaos
harness (``repro chaos``) can assert on detection and recovery latency.
The guard is pure bookkeeping — no randomness, no clock — so guarded
runs stay bit-identical across ``jobs=N``.  See ``docs/ROBUSTNESS.md``
for the full state machine.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..cmpsim.telemetry import ResilienceLog
from ..control.pid import PIDGains
from ..power.transducer import LinearTransducer
from ..unit_types import GigaHz, PowerFraction
from .actuator import DVFSActuator
from .bank import (
    MODE_FAILSAFE,
    MODE_HOLD,
    MODE_NOMINAL,
    SENSOR_SMOOTHING,
    SensorGuardConfig,
)
from .controller import PerIslandController, PICInvocation

__all__ = ["GuardedPerIslandController"]


class GuardedPerIslandController(PerIslandController):
    """A :class:`PerIslandController` that validates its own sensor.

    Drop-in replacement: same constructor plus the guard knobs, same
    ``invoke`` contract.  With plausible readings the behaviour is
    *bit-identical* to the unguarded controller — the guard only changes
    the trajectory once a reading fails validation.
    """

    def __init__(
        self,
        gains: PIDGains,
        transducer: LinearTransducer,
        actuator: DVFSActuator,
        max_step_ghz: GigaHz = 1.0,
        sensor_smoothing: float = SENSOR_SMOOTHING,
        guard: SensorGuardConfig | None = None,
        log: ResilienceLog | None = None,
        island: int = 0,
    ) -> None:
        super().__init__(
            gains,
            transducer,
            actuator,
            max_step_ghz=max_step_ghz,
            sensor_smoothing=sensor_smoothing,
        )
        self.guard = guard if guard is not None else SensorGuardConfig()
        self.log = log if log is not None else ResilienceLog()
        self.island = island
        self.mode = MODE_NOMINAL
        self._recent: deque[float] = deque(maxlen=self.guard.stuck_window)
        self._bad_streak = 0
        self._good_streak = 0
        self._last_good: float | None = None

    # ------------------------------------------------------------------
    @property
    def failsafe_frequency(self) -> GigaHz:
        """The frequency the island is pinned to in fail-safe mode."""
        if self.guard.failsafe_frequency_ghz is not None:
            return self.actuator.table.clamp(self.guard.failsafe_frequency_ghz)
        return self.actuator.table.f_min

    def _classify(self, utilization: float) -> str | None:
        """Why ``utilization`` is implausible, or None if it passes.

        Order matters: a non-finite reading must never enter the stuck
        window (NaN would poison the spread comparison).
        """
        if not np.isfinite(utilization):
            return "nan"
        if not self.guard.util_min <= utilization <= self.guard.util_max:
            return "range"
        self._recent.append(utilization)
        if (
            len(self._recent) == self.guard.stuck_window
            and max(self._recent) - min(self._recent)
            <= self.guard.stuck_tolerance
        ):
            return "stuck"
        return None

    def _held_input(self, setpoint: PowerFraction) -> float:
        """The utilization safe mode runs on while the sensor is out.

        Last-known-good when one exists; otherwise the reading that makes
        the sensed power equal the set-point (zero error — hold the
        current operating point rather than chase a fabricated error).
        """
        if self._last_good is not None:
            return self._last_good
        t = self.transducer
        if abs(t.k0) < 1e-12:
            return 0.0
        return float((setpoint - t.k1) / t.k0)

    # ------------------------------------------------------------------
    def invoke(self, setpoint: PowerFraction, utilization: float) -> PICInvocation:
        verdict = self._classify(float(utilization))

        if verdict is None:
            self._bad_streak = 0
            self._last_good = float(utilization)
            if self.mode == MODE_NOMINAL:
                return super().invoke(setpoint, utilization)
            # Degraded but readings look healthy again: count toward
            # re-arm, keep safe-mode behaviour until the streak completes.
            self._good_streak += 1
            if self._good_streak >= self.guard.rearm_after:
                self.log.record("sensor_rearmed", island=self.island)
                self.mode = MODE_NOMINAL
                self.pid.unfreeze_integrator()
                self._good_streak = 0
                return super().invoke(setpoint, utilization)
        else:
            self._good_streak = 0
            self._bad_streak += 1
            self.log.count(f"sensor_bad_{verdict}")
            if self.mode == MODE_NOMINAL:
                self.mode = MODE_HOLD
                self.pid.freeze_integrator()
                self.log.record(
                    "sensor_fault_detected", island=self.island, detail=verdict
                )
            if (
                self.mode == MODE_HOLD
                and self._bad_streak >= self.guard.failsafe_after
            ):
                self.mode = MODE_FAILSAFE
                self.log.record(
                    "failsafe_entered", island=self.island, detail=verdict
                )

        held = self._held_input(setpoint)
        if self.mode == MODE_FAILSAFE:
            # Clamp to the floor: the island's power is then bounded by
            # its minimum no matter what the sensor claims.
            applied = self.actuator.apply(self.failsafe_frequency)
            sensed = float(self.transducer(held))
            return PICInvocation(
                setpoint=setpoint,
                utilization=held,
                sensed_power=sensed,
                error=setpoint - sensed,
                frequency_delta=0.0,
                applied_frequency=applied,
            )
        # Hold mode: closed loop on the stale input, integrator frozen.
        return super().invoke(setpoint, held)

    def reset(self, frequency_ghz: GigaHz | None = None) -> None:
        super().reset(frequency_ghz)
        self.mode = MODE_NOMINAL
        self._recent.clear()
        self._bad_streak = 0
        self._good_streak = 0
        self._last_good = None
