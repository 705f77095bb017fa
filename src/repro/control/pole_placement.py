"""Pole-placement PID design against the paper's island power model.

The open-loop island model (Equation 8/9) is the discrete integrator::

    P(t+1) = P(t) + a * d(t)        <=>       P(z) = a / (z - 1)

where ``d(t)`` is the frequency change the controller commands and ``a``
is the system gain identified from measurements.  With the PID of
Equation 10, the closed-loop characteristic polynomial is cubic::

    D(z) = z (z-1)^2 + a [K_P z (z-1) + K_I z^2 + K_D (z-1)^2]
         = z^3
         + (a(K_P + K_I + K_D) - 2) z^2
         + (1 - a K_P - 2 a K_D) z
         + a K_D

The three gains enter the three non-leading coefficients *linearly*, so
placing the three closed-loop poles exactly is a 3x3 linear solve — the
formal replacement for the paper's "we used Matlab" step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import units
from .lti import DiscreteTransferFunction
from .pid import PIDGains

__all__ = [
    "G_MAX",
    "closed_loop",
    "design_pid",
    "integrator_plant",
    "pid_transfer_function",
    "stability_gain_limit",
]

#: Upper end of the gain multipliers :func:`stability_gain_limit` scans.
G_MAX = 10.0


def integrator_plant(gain: float) -> DiscreteTransferFunction:
    """The open-loop island power model ``P(z) = a / (z - 1)`` (Eq. 9)."""
    if gain == 0.0:
        raise ValueError("plant gain must be non-zero")
    return DiscreteTransferFunction([gain], [1.0, -1.0])


def pid_transfer_function(gains: PIDGains) -> DiscreteTransferFunction:
    """z-domain PID ``C(z)`` over common denominator ``z(z-1)`` (Eq. 10)."""
    num = [
        gains.kp + gains.ki + gains.kd,
        -gains.kp - 2.0 * gains.kd,
        gains.kd,
    ]
    return DiscreteTransferFunction(num, [1.0, -1.0, 0.0])


def closed_loop(plant_gain: float, gains: PIDGains) -> DiscreteTransferFunction:
    """Unity-feedback closed loop ``PC / (1 + PC)`` (Equation 11)."""
    loop = integrator_plant(plant_gain) * pid_transfer_function(gains)
    return loop.feedback()


def design_pid(
    plant_gain: float, desired_poles: Sequence[complex]
) -> PIDGains:
    """Choose (K_P, K_I, K_D) putting the closed-loop poles exactly at
    ``desired_poles``.

    ``desired_poles`` must contain three values, each strictly inside the
    unit circle, and be closed under conjugation (else the gains would be
    complex).  Typical choices put one fast real pole near the origin and a
    lightly-damped conjugate pair controlling overshoot.
    """
    poles = np.asarray(desired_poles, dtype=complex)
    if poles.shape != (3,):
        raise ValueError("exactly three desired poles are required")
    if np.any(np.abs(poles) >= 1.0):
        raise ValueError("desired poles must lie strictly inside the unit circle")
    if plant_gain == 0.0:
        raise ValueError("plant gain must be non-zero")

    target = np.poly(poles)  # monic cubic: [1, c2, c1, c0]
    if np.max(np.abs(target.imag)) > units.EPS:
        raise ValueError("desired poles must be closed under conjugation")
    c2, c1, c0 = target.real[1:]

    a = plant_gain
    # Coefficient matching (see module docstring):
    #   c2 = a (Kp + Ki + Kd) - 2
    #   c1 = 1 - a Kp - 2 a Kd
    #   c0 = a Kd
    system = np.array(
        [
            [a, a, a],
            [-a, 0.0, -2.0 * a],
            [0.0, 0.0, a],
        ]
    )
    rhs = np.array([c2 + 2.0, c1 - 1.0, c0])
    kp, ki, kd = np.linalg.solve(system, rhs)
    gains = PIDGains(float(kp), float(ki), float(kd))

    # Verify via the characteristic polynomial (comparing sorted pole
    # lists is brittle when near-equal real parts reorder under noise).
    achieved_poly = np.asarray(closed_loop(a, gains).den, dtype=complex)
    if not np.allclose(achieved_poly, target, atol=1e-8):
        raise AssertionError(
            f"pole placement failed: wanted coefficients {target}, "
            f"achieved {achieved_poly}"
        )
    return gains


def stability_gain_limit(plant_gain: float, gains: PIDGains) -> float:
    """Largest multiplier ``g`` keeping the loop stable when the true system
    gain is ``g * plant_gain`` (the paper's robustness analysis, Eq. 13).

    The closed-loop poles are continuous in ``g``; we bisect on the binary
    predicate "all poles inside the unit circle" between the designed gain
    (g=1, stable by construction) and :data:`G_MAX`, to a resolution of
    ``units.MILLI``.  Returns ``G_MAX`` if the loop is stable over the
    whole scanned range.
    """

    def stable(g: float) -> bool:
        return closed_loop(g * plant_gain, gains).is_stable()

    if not stable(1.0):
        raise ValueError("loop is unstable at the designed gain (g=1)")
    if stable(G_MAX):
        return G_MAX
    lo, hi = 1.0, G_MAX
    while hi - lo > units.MILLI:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo
