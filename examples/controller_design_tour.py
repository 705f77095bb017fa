#!/usr/bin/env python3
"""Scenario: designing a power controller from first principles.

Walks through the paper's Section II pipeline step by step, printing the
intermediate artifacts — the identified plant, the pole-placement
design, the closed-loop transfer function (Equation 12), the stability
range of the gain multiplier (Equation 13), and the analytic step
response — so the control-theoretic spine of the system can be inspected
without running a full simulation.

Run:  python examples/controller_design_tour.py
"""

import numpy as np

from repro import DEFAULT_CONFIG
from repro.control.analysis import response_metrics
from repro.control.pole_placement import (
    closed_loop,
    design_pid,
    integrator_plant,
    pid_transfer_function,
    stability_gain_limit,
)
from repro.core.calibration import HOLDOUT, default_calibration
from repro.reporting import format_series

__all__ = ["main", "poly_str"]


def poly_str(coeffs) -> str:
    terms = []
    order = len(coeffs) - 1
    for i, c in enumerate(coeffs):
        power = order - i
        if abs(c) < 1e-12:
            continue
        term = f"{c:+.4f}"
        if power == 1:
            term += " z"
        elif power > 1:
            term += f" z^{power}"
        terms.append(term)
    return " ".join(terms)


def main() -> None:
    print("Step 1 — system identification (Eq. 8)")
    cal = default_calibration(DEFAULT_CONFIG)
    a = cal.system_gain
    print(f"  white-noise DVFS runs over PARSEC (holdout: {HOLDOUT})")
    for name, fit in sorted(cal.per_benchmark_gains.items()):
        marker = " <- held out" if name == HOLDOUT else ""
        print(f"    {name:15s} a = {fit.gain:.4f}  (R^2 {fit.r_squared:.3f}){marker}")
    print(f"  averaged design gain a = {a:.4f} (fraction of max power per GHz)")
    print(f"  one-step validation error on {HOLDOUT}: "
          f"{cal.validation_error:.2%}\n")

    print("Step 2 — the open-loop plant (Eq. 9)")
    plant = integrator_plant(a)
    print(f"  P(z) = {a:.4f} / (z - 1)   poles: {plant.poles()}\n")

    print("Step 3 — pole placement (the paper's Matlab step)")
    poles = DEFAULT_CONFIG.control.desired_poles
    gains = design_pid(a, poles)
    print(f"  desired closed-loop poles: {poles}")
    print(f"  K_P = {gains.kp:.4f}, K_I = {gains.ki:.4f}, K_D = {gains.kd:.4f}")
    controller = pid_transfer_function(gains)
    print(f"  C(z) numerator:   {poly_str(controller.num)}")
    print(f"  C(z) denominator: {poly_str(controller.den)}\n")

    print("Step 4 — the closed loop (Eq. 11/12)")
    loop = closed_loop(a, gains)
    print(f"  Y(z) numerator:   {poly_str(loop.num)}")
    print(f"  Y(z) denominator: {poly_str(loop.den)}")
    magnitudes = np.sort(np.abs(loop.poles()))
    print(f"  pole magnitudes: {np.round(magnitudes, 4)} (all < 1: stable)")
    print(f"  DC gain: {loop.dc_gain():.6f} (=1: zero steady-state error)\n")

    print("Step 5 — robustness to gain mismatch (Eq. 13)")
    g_limit = stability_gain_limit(a, gains)
    print(f"  stable for true gain up to g = {g_limit:.3f} x design gain")
    worst = max(fit.gain for fit in cal.per_benchmark_gains.values())
    print(f"  worst per-benchmark gain observed: {worst / a:.2f} x design\n")

    print("Step 6 — analytic step response")
    y = loop.step_response(30)
    m = response_metrics(y, reference=1.0, tolerance=0.02)
    print(format_series({"unit step response": y}, width=60))
    print(f"  overshoot {m.max_overshoot:.1%}, settles in {m.settling_steps} "
          f"invocations (2% band), steady-state error {m.steady_state_error:.2%}")


if __name__ == "__main__":
    main()
