"""PIC bank: every island's controller advanced in one pass per tick.

The run path's form of the second tier.  Where
:class:`~repro.pic.controller.PerIslandController` keeps one object graph
per island (PID, transducer, actuator, invocation record), a
:class:`PICBank` keeps each per-island state variable as one flat list
over islands and advances all of them in :meth:`PICBank.step`:

1. **sense** — the sensor hooks (fault injection) rewrite the tick's
   utilization list;
2. **control** — one loop over islands runs the sensor guard (when
   armed), the EWMA smoother, the transducer and the PID law, producing
   a frequency request per island;
3. **actuate** — the actuator hooks rewrite the requests, then one loop
   clamps them to the DVFS ladder, reports ladder saturation to the PID's
   anti-windup and, in quantized mode, snaps to a ladder point.

Each island's arithmetic is the scalar controller's, in the same order,
so a bank and a list of scalar controllers fed the same readings agree
bit for bit (``tests/test_pic_bank.py``).  Plain lists beat numpy arrays
here: at 4–16 islands the per-ufunc overhead outweighs the loop.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from ..cmpsim.dvfs import DVFSTable
from ..cmpsim.telemetry import ResilienceLog
from ..control.pid import PIDGains
from ..power.transducer import LinearTransducer
from ..unit_types import GigaHz, PowerFraction
from ..units import EPS

__all__ = [
    "MODE_FAILSAFE",
    "MODE_HOLD",
    "MODE_NOMINAL",
    "PICBank",
    "SENSOR_SMOOTHING",
    "SensorGuardConfig",
]

#: EWMA weight on the newest utilization sample.  The bank always uses
#: it; the scalar controllers default to it.
SENSOR_SMOOTHING = 0.5

#: Sensor-guard modes, in degradation order (the state machine is
#: described in :mod:`repro.pic.guard`).
MODE_NOMINAL = "nominal"
MODE_HOLD = "hold"
MODE_FAILSAFE = "failsafe"


@dataclass(frozen=True)
class SensorGuardConfig:
    """Plausibility limits and state-machine thresholds for one sensor."""

    #: Plausible utilization range.  Utilization is a fraction of cycles;
    #: the ceiling leaves headroom for transducer calibration quirks.
    util_min: float = 0.0
    util_max: float = 1.5
    #: Rolling-window length for stuck detection.
    stuck_window: int = 6
    #: Maximum window spread (max - min) still considered stuck.  Real
    #: utilization dithers tick to tick; an exactly-repeated float is a
    #: dead counter.
    stuck_tolerance: float = EPS
    #: Consecutive bad samples before the island is clamped to the
    #: fail-safe frequency floor.
    failsafe_after: int = 8
    #: Consecutive plausible samples before the guard re-arms.
    rearm_after: int = 3
    #: Fail-safe frequency; ``None`` selects the DVFS ladder's floor.
    failsafe_frequency_ghz: GigaHz | None = None

    def __post_init__(self) -> None:
        if not self.util_min < self.util_max:
            raise ValueError("util_min must be below util_max")
        if self.stuck_window < 2:
            raise ValueError("stuck_window must be at least 2")
        if self.stuck_tolerance < 0:
            raise ValueError("stuck_tolerance must be non-negative")
        if self.failsafe_after < 1:
            raise ValueError("failsafe_after must be at least 1")
        if self.rearm_after < 1:
            raise ValueError("rearm_after must be at least 1")


# A fault-injection stage hook: takes the tick's per-island list
# (utilization readings, or frequency requests) and returns the list the
# next stage sees.
_StageHook = Callable[[list], list]


class PICBank:
    """Every island's per-island controller, as flat per-island lists.

    Parameters mirror :class:`~repro.pic.controller.PerIslandController`
    (at its default sensor smoothing) and
    :class:`~repro.pic.actuator.DVFSActuator`, with one transducer per
    island; ``guard`` arms the sensor guard of
    :class:`~repro.pic.guard.GuardedPerIslandController` on every island,
    recording into ``log``, which it then requires.
    """

    def __init__(
        self,
        gains: PIDGains,
        transducers: Sequence[LinearTransducer],
        table: DVFSTable,
        quantized: bool = False,
        initial_frequency: GigaHz | None = None,
        max_step_ghz: GigaHz = 1.0,
        guard: SensorGuardConfig | None = None,
        log: ResilienceLog | None = None,
    ) -> None:
        if not transducers:
            raise ValueError("need at least one island")
        if not max_step_ghz > 0:
            raise ValueError("max_step_ghz must be positive")
        if guard is not None and log is None:
            raise ValueError("a guarded bank needs a ResilienceLog")
        if initial_frequency is not None and not math.isfinite(initial_frequency):
            raise ValueError(f"initial frequency {initial_frequency} is not finite")
        n = len(transducers)
        self.n_islands = n
        self.gains = gains
        self.max_step_ghz = max_step_ghz
        self.table = table
        self.quantized = quantized
        self._ladder = table.frequencies.tolist()
        #: Transducer ``P = k0 U + k1`` coefficients, per island.
        self.k0 = [float(t.k0) for t in transducers]
        self.k1 = [float(t.k1) for t in transducers]

        f0 = table.f_max if initial_frequency is None else table.clamp(initial_frequency)
        if quantized:
            f0 = table.quantize(f0)
        #: The frequency each island's actuator currently applies.
        self.frequency = [float(f0)] * n
        #: Transduced power of the last step, per island.
        self.sensed_power = [0.0] * n
        #: EWMA of utilization; None until the island's first sample.
        self.utilization_state: list[float | None] = [None] * n
        self.integral = [0.0] * n
        self.previous_error = [0.0] * n
        #: -1 clamped low, +1 clamped high, 0 free (PID or ladder).
        self.saturation = [0] * n
        self.integrator_frozen = [False] * n
        # Whether each island's request this tick came from its PID (as
        # opposed to the guard's fail-safe clamp).
        self._from_pid = [True] * n

        self.guard = guard
        self.log = log
        self.mode = [MODE_NOMINAL] * n
        self.bad_streak = [0] * n
        self.good_streak = [0] * n
        self.last_good: list[float | None] = [None] * n
        #: Rolling window of plausible readings, for stuck detection.
        self.recent: list[deque[float]] = (
            [deque(maxlen=guard.stuck_window) for _ in range(n)]
            if guard is not None
            else []
        )
        self.failsafe_frequency = table.f_min
        if guard is not None and guard.failsafe_frequency_ghz is not None:
            self.failsafe_frequency = table.clamp(guard.failsafe_frequency_ghz)

        self.sensor_hooks: list[_StageHook] = []
        self.actuator_hooks: list[_StageHook] = []

    # ------------------------------------------------------------------
    def add_sensor_hook(self, hook: _StageHook) -> None:
        """Rewrite each tick's utilization list before the guard sees it.

        Hooks nest like wrappers: the most recently added runs first.
        """
        self.sensor_hooks.insert(0, hook)

    def add_actuator_hook(self, hook: _StageHook) -> None:
        """Rewrite each tick's frequency requests (PID and fail-safe
        alike) before the ladder clamp; the most recently added runs
        first."""
        self.actuator_hooks.insert(0, hook)

    # ------------------------------------------------------------------
    def step(
        self, setpoints: Sequence[PowerFraction], utilization: Sequence[float]
    ) -> None:
        """One ``T_local`` invocation of every island.

        Afterwards :attr:`frequency` holds the applied frequencies and
        :attr:`sensed_power` the transduced power of this step.
        """
        for hook in self.sensor_hooks:
            utilization = hook(utilization)
        gains = self.gains
        kp, ki, kd = float(gains.kp), float(gains.ki), float(gains.kd)
        high = self.max_step_ghz
        low = -high
        smoothing = SENSOR_SMOOTHING
        keep = 1.0 - smoothing
        k0, k1 = self.k0, self.k1
        state, sensed = self.utilization_state, self.sensed_power
        integral, previous = self.integral, self.previous_error
        saturation, frozen = self.saturation, self.integrator_frozen
        frequency, from_pid = self.frequency, self._from_pid
        screen = self._screen if self.guard is not None else None

        requested = []
        for i, (setpoint, u) in enumerate(zip(setpoints, utilization)):
            if screen is not None:
                u, failsafe = screen(i, setpoint, u)
                from_pid[i] = not failsafe
                if failsafe:
                    sensed[i] = k0[i] * u + k1[i]
                    requested.append(self.failsafe_frequency)
                    continue
            x = state[i]
            x = u if x is None else smoothing * u + keep * x
            state[i] = x
            power = k0[i] * x + k1[i]
            sensed[i] = power
            error = setpoint - power
            # Conditional integration: hold the accumulator while the
            # output is pinned at a limit the error pushes further into,
            # or while the guard has frozen it.
            sat = saturation[i]
            acc = integral[i]
            if not ((sat > 0 and error > 0) or (sat < 0 and error < 0) or frozen[i]):
                acc += error
                integral[i] = acc
            derivative = error - previous[i]
            previous[i] = error
            delta = kp * error + ki * acc + kd * derivative
            if delta > high:
                saturation[i] = 1
                delta = high
            elif delta < low:
                saturation[i] = -1
                delta = low
            else:
                saturation[i] = 0
            requested.append(frequency[i] + delta)

        for hook in self.actuator_hooks:
            requested = hook(requested)
        f_min, f_max = self.table.f_min, self.table.f_max
        quantize = self._quantize if self.quantized else None
        # Ladder saturation downstream of the PID reaches its anti-windup
        # too; the fail-safe clamp bypasses the PID.  (The comparisons
        # are DVFSTable.clamp's min/max, NaN passing through unclamped.)
        for i, request in enumerate(requested):
            if request > f_max:
                applied = f_max
                if from_pid[i]:
                    saturation[i] = 1
            elif request < f_min:
                applied = f_min
                if from_pid[i]:
                    saturation[i] = -1
            else:
                applied = request
            if quantize is not None:
                applied = quantize(applied)
            frequency[i] = applied

    def _quantize(self, frequency: GigaHz) -> GigaHz:
        """Nearest ladder point, the lowest on a tie (as
        :meth:`DVFSTable.quantize`, whose numpy argmin costs more than
        this scan at one call per island)."""
        points = self._ladder
        best = points[0]
        best_distance = abs(best - frequency)
        for point in points[1:]:
            distance = abs(point - frequency)
            if distance < best_distance:
                best, best_distance = point, distance
        return best

    # ------------------------------------------------------------------
    # Sensor guard (see repro.pic.guard for the state machine)
    # ------------------------------------------------------------------
    def _screen(
        self, i: int, setpoint: PowerFraction, utilization: float
    ) -> tuple[float, bool]:
        """Guard island ``i``'s reading: returns the input its loop runs
        on and whether the island is in fail-safe mode."""
        guard, log = self.guard, self.log
        assert guard is not None and log is not None
        verdict = self._classify(i, float(utilization))
        if verdict is None:
            self.bad_streak[i] = 0
            self.last_good[i] = float(utilization)
            if self.mode[i] == MODE_NOMINAL:
                return utilization, False
            # Degraded but readings look healthy again: count toward
            # re-arm, keep safe-mode behaviour until the streak completes.
            self.good_streak[i] += 1
            if self.good_streak[i] >= guard.rearm_after:
                log.record("sensor_rearmed", island=i)
                self.mode[i] = MODE_NOMINAL
                self.integrator_frozen[i] = False
                self.good_streak[i] = 0
                return utilization, False
        else:
            self.good_streak[i] = 0
            self.bad_streak[i] += 1
            log.count(f"sensor_bad_{verdict}")
            if self.mode[i] == MODE_NOMINAL:
                self.mode[i] = MODE_HOLD
                self.integrator_frozen[i] = True
                log.record("sensor_fault_detected", island=i, detail=verdict)
            if self.mode[i] == MODE_HOLD and self.bad_streak[i] >= guard.failsafe_after:
                self.mode[i] = MODE_FAILSAFE
                log.record("failsafe_entered", island=i, detail=verdict)
        return self._held_input(i, setpoint), self.mode[i] == MODE_FAILSAFE

    def _classify(self, i: int, utilization: float) -> str | None:
        """Why ``utilization`` is implausible, or None if it passes.

        A non-finite reading must never enter the stuck window (NaN would
        poison the spread comparison).
        """
        guard = self.guard
        assert guard is not None
        if not math.isfinite(utilization):
            return "nan"
        if not guard.util_min <= utilization <= guard.util_max:
            return "range"
        recent = self.recent[i]
        recent.append(utilization)
        if (
            len(recent) == guard.stuck_window
            and max(recent) - min(recent) <= guard.stuck_tolerance
        ):
            return "stuck"
        return None

    def _held_input(self, i: int, setpoint: PowerFraction) -> float:
        """Last-known-good utilization, else the reading whose sensed
        power equals the set-point (zero error: hold the operating
        point rather than chase a fabricated error)."""
        last_good = self.last_good[i]
        if last_good is not None:
            return last_good
        if abs(self.k0[i]) < 1e-12:
            return 0.0
        return float((setpoint - self.k1[i]) / self.k0[i])
