"""The per-island controller: PID + transducer + DVFS actuator.

One :class:`PerIslandController` caps one island's power at the set-point
the GPM provisioned.  Per invocation (every ``T_local``):

1. the island's measured *utilization* is transduced to a power estimate
   (``P = k0 U + k1``, the fitted line of Figure 6);
2. the tracking error against the set-point feeds the PID, producing a
   frequency *delta* (the plant model's control input ``d(t)``);
3. the actuator applies the delta, clamped to the DVFS ladder, and the
   PID is told about any clamping so its integrator does not wind up.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..control.pid import DiscretePID, PIDGains
from ..power.transducer import LinearTransducer
from ..unit_types import GigaHz, PowerFraction
from .actuator import DVFSActuator
from .bank import SENSOR_SMOOTHING

__all__ = ["PICInvocation", "PerIslandController"]


@dataclass(frozen=True)
class PICInvocation:
    """Telemetry of one controller invocation."""

    setpoint: PowerFraction
    utilization: float
    sensed_power: PowerFraction
    error: PowerFraction
    frequency_delta: GigaHz
    applied_frequency: GigaHz


class PerIslandController:
    """The second-tier (local) controller for one voltage/frequency island."""

    def __init__(
        self,
        gains: PIDGains,
        transducer: LinearTransducer,
        actuator: DVFSActuator,
        max_step_ghz: GigaHz = 1.0,
        sensor_smoothing: float = SENSOR_SMOOTHING,
    ) -> None:
        """
        Parameters
        ----------
        sensor_smoothing:
            EWMA weight on the newest utilization sample (1.0 = raw
            samples).  The transducer's residual noise would otherwise be
            re-injected into island power as frequency dithering; a real
            PMU's counters are likewise averaged before use.
        """
        if not max_step_ghz > 0:
            raise ValueError("max_step_ghz must be positive")
        if not 0.0 < sensor_smoothing <= 1.0:
            raise ValueError("sensor_smoothing must be in (0, 1]")
        self.pid = DiscretePID(gains, output_limits=(-max_step_ghz, max_step_ghz))
        self.transducer = transducer
        self.actuator = actuator
        self.sensor_smoothing = sensor_smoothing
        self._utilization_state: float | None = None

    @property
    def frequency(self) -> GigaHz:
        """The island frequency this controller currently commands."""
        return self.actuator.frequency

    def invoke(self, setpoint: PowerFraction, utilization: float) -> PICInvocation:
        """One ``T_local`` invocation; returns what happened.

        ``setpoint`` is the GPM-provisioned island power (fraction of max
        chip power); ``utilization`` is the island's measured utilization
        over the previous interval.
        """
        if self._utilization_state is None:
            self._utilization_state = utilization
        else:
            s = self.sensor_smoothing
            self._utilization_state = (
                s * utilization + (1.0 - s) * self._utilization_state
            )
        sensed = float(self.transducer(self._utilization_state))
        error = setpoint - sensed
        delta = self.pid.step(error)
        applied = self.actuator.apply_delta(delta)
        # Downstream saturation (ladder bounds) must reach the PID too.
        self.pid.notify_actuator_saturation(self.actuator.last_saturation)
        return PICInvocation(
            setpoint=setpoint,
            utilization=utilization,
            sensed_power=sensed,
            error=error,
            frequency_delta=delta,
            applied_frequency=applied,
        )

    def reset(self, frequency_ghz: GigaHz | None = None) -> None:
        """Clear controller state and re-seat the actuator."""
        self.pid.reset()
        self.actuator.reset(frequency_ghz)
        self._utilization_state = None
