"""Control-theoretic substrate: z-domain LTI tools, PID, pole placement.

This package implements the formal machinery Section II of the paper uses
to design and analyze the per-island controllers:

* :mod:`repro.control.lti` — discrete transfer functions, poles, stability,
  feedback composition and step responses (Equations 9–13).
* :mod:`repro.control.pid` — the discrete PID law of Equation 7 with
  anti-windup.
* :mod:`repro.control.pole_placement` — the PID's z-domain form
  (Equation 10), exact design of (K_P, K_I, K_D) from three desired
  closed-loop poles against the integrator plant P(z) = a/(z-1), and
  the stability range of the gain multiplier ``g`` (scanned up to
  ``G_MAX``).
* :mod:`repro.control.analysis` — maximum overshoot, settling time and
  steady-state error of a response (the paper's three robustness metrics).
* :mod:`repro.control.identification` — least-squares fit of the system
  gain ``a`` from white-noise DVFS runs (the paper's Figure 5 procedure).
"""

from .analysis import ResponseMetrics, response_metrics
from .identification import GainFit, fit_system_gain, prediction_error
from .lti import DiscreteTransferFunction
from .pid import DiscretePID, PIDGains
from .pole_placement import (
    closed_loop,
    design_pid,
    integrator_plant,
    pid_transfer_function,
    stability_gain_limit,
)

__all__ = [
    "DiscretePID",
    "DiscreteTransferFunction",
    "GainFit",
    "PIDGains",
    "ResponseMetrics",
    "closed_loop",
    "design_pid",
    "fit_system_gain",
    "integrator_plant",
    "pid_transfer_function",
    "prediction_error",
    "response_metrics",
    "stability_gain_limit",
]
