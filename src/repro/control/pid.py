"""Discrete PID controller (Equation 7) with anti-windup.

The paper's per-island controllers compute a *frequency delta* from the
power-tracking error::

    u(t) = K_P e(t) + K_I * sum_{k<=t} e(k) + K_D (e(t) - e(t-1))

which in the z-domain is ``C(z) = K_P + K_I z/(z-1) + K_D (z-1)/z``
(Equation 10; :func:`repro.control.pole_placement.pid_transfer_function`).
Because the actuator saturates (frequency is bounded by the DVFS table),
the integral term uses conditional integration: when the last actuation
saturated and the error keeps pushing into the saturated direction, the
accumulator is frozen.  Without this, long saturation at a low power
budget winds the integral up and produces the huge overshoots formal PID
analysis does not predict.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DiscretePID", "PIDGains"]


@dataclass(frozen=True)
class PIDGains:
    """The (K_P, K_I, K_D) design parameters of Equation 7."""

    kp: float
    ki: float
    kd: float

    def scaled(self, factor: float) -> "PIDGains":
        """All three gains multiplied by ``factor``."""
        return PIDGains(self.kp * factor, self.ki * factor, self.kd * factor)


class DiscretePID:
    """Stateful discrete PID evaluating one control step per call.

    Parameters
    ----------
    gains:
        The proportional/integral/derivative coefficients.
    output_limits:
        Optional ``(low, high)`` clamp applied to the raw PID output; used
        both to bound per-step frequency swings and to drive anti-windup.
    """

    def __init__(
        self,
        gains: PIDGains,
        output_limits: tuple[float, float] | None = None,
    ) -> None:
        # ``not low < high`` also rejects NaN limits, which would
        # silently disable the clamp.
        if output_limits is not None and not output_limits[0] < output_limits[1]:
            raise ValueError(f"invalid output limits {output_limits}")
        self.gains = gains
        self.output_limits = output_limits
        self._integral = 0.0
        # Standard convention e(-1) = 0, which keeps the stateful
        # controller exactly equal to its z-domain form (Equation 10).
        self._previous_error = 0.0
        self._saturated_sign = 0  # -1 clamped low, +1 clamped high, 0 free
        self._frozen = False

    def reset(self) -> None:
        """Forget accumulated state (fresh controller)."""
        self._integral = 0.0
        self._previous_error = 0.0
        self._saturated_sign = 0
        self._frozen = False

    @property
    def integrator_frozen(self) -> bool:
        """Whether the accumulator is currently held (safe-mode anti-windup)."""
        return self._frozen

    def freeze_integrator(self) -> None:
        """Hold the accumulator at its current value until unfrozen.

        Used by the sensor guard's safe mode: while the measurement is
        implausible the loop runs on a stale input, and integrating the
        resulting phantom error would wind the accumulator up exactly
        like actuator saturation does.  P and D terms keep operating.
        """
        self._frozen = True

    def unfreeze_integrator(self) -> None:
        """Resume integration (measurements are trustworthy again)."""
        self._frozen = False

    @property
    def integral(self) -> float:
        """Current value of the error accumulator (for tests/telemetry)."""
        return self._integral

    def step(self, error: float) -> float:
        """Advance one control interval; return the actuation command."""
        g = self.gains
        # Conditional integration: freeze the accumulator while the output
        # is pinned at a limit and the error would push it further out.
        pushes_into_saturation = (
            self._saturated_sign > 0 and error > 0
        ) or (self._saturated_sign < 0 and error < 0)
        if not pushes_into_saturation and not self._frozen:
            self._integral += error

        derivative = error - self._previous_error
        self._previous_error = error

        raw = g.kp * error + g.ki * self._integral + g.kd * derivative
        if self.output_limits is None:
            self._saturated_sign = 0
            return raw
        low, high = self.output_limits
        if raw > high:
            self._saturated_sign = 1
            return high
        if raw < low:
            self._saturated_sign = -1
            return low
        self._saturated_sign = 0
        return raw

    def notify_actuator_saturation(self, sign: int) -> None:
        """Report saturation that happened *downstream* of the PID.

        The PIC's actuator clamps frequency to the DVFS range; that clamp is
        invisible to the raw PID output, so the controller is told about it
        explicitly to keep anti-windup effective.  ``sign`` is +1 when the
        command was clamped from above, -1 from below, 0 when unclamped.
        """
        if sign not in (-1, 0, 1):
            raise ValueError(f"saturation sign must be -1, 0 or 1, got {sign}")
        if sign != 0:
            self._saturated_sign = sign
