"""Discrete PID: term behaviour, anti-windup, z-domain form."""

from math import nan

import numpy as np
import pytest

from repro.control.pid import DiscretePID, PIDGains
from repro.control.pole_placement import pid_transfer_function


class TestTerms:
    def test_pure_proportional(self):
        pid = DiscretePID(PIDGains(kp=2.0, ki=0.0, kd=0.0))
        assert pid.step(1.5) == pytest.approx(3.0)
        assert pid.step(-0.5) == pytest.approx(-1.0)

    def test_integral_accumulates(self):
        pid = DiscretePID(PIDGains(kp=0.0, ki=1.0, kd=0.0))
        assert pid.step(1.0) == pytest.approx(1.0)
        assert pid.step(1.0) == pytest.approx(2.0)
        assert pid.step(-3.0) == pytest.approx(-1.0)

    def test_derivative_uses_e_minus_1_equals_zero(self):
        pid = DiscretePID(PIDGains(kp=0.0, ki=0.0, kd=1.0))
        assert pid.step(5.0) == pytest.approx(5.0)  # e(-1) = 0 convention
        assert pid.step(7.0) == pytest.approx(2.0)
        assert pid.step(7.0) == pytest.approx(0.0)

    def test_combined_matches_equation_7(self):
        g = PIDGains(kp=0.4, ki=0.4, kd=0.3)
        pid = DiscretePID(g)
        errors = [1.0, 0.5, -0.2]
        integral = 0.0
        prev = 0.0
        for e in errors:
            integral += e
            derivative = e - prev
            expected = g.kp * e + g.ki * integral + g.kd * derivative
            assert pid.step(e) == pytest.approx(expected)
            prev = e


class TestAntiWindup:
    def test_output_clamped(self):
        pid = DiscretePID(PIDGains(kp=10.0, ki=0.0, kd=0.0), output_limits=(-1, 1))
        assert pid.step(5.0) == 1.0
        assert pid.step(-5.0) == -1.0

    def test_integral_frozen_while_saturated(self):
        pid = DiscretePID(PIDGains(kp=0.0, ki=1.0, kd=0.0), output_limits=(-1, 1))
        for _ in range(10):
            pid.step(5.0)
        # Without conditional integration the accumulator would be 50.
        assert pid.integral <= 6.0
        # Recovery must be fast: one opposite error already de-saturates.
        assert pid.step(-5.0) < 1.0

    def test_downstream_saturation_notification(self):
        pid = DiscretePID(PIDGains(kp=0.0, ki=1.0, kd=0.0))
        pid.step(1.0)
        pid.notify_actuator_saturation(1)
        pid.step(1.0)  # frozen: pushing further into saturation
        assert pid.integral == pytest.approx(1.0)
        pid.step(-1.0)  # opposite direction integrates again
        assert pid.integral == pytest.approx(0.0)

    def test_invalid_saturation_sign(self):
        pid = DiscretePID(PIDGains(1, 1, 1))
        with pytest.raises(ValueError):
            pid.notify_actuator_saturation(2)

    def test_invalid_limits(self):
        with pytest.raises(ValueError):
            DiscretePID(PIDGains(1, 1, 1), output_limits=(1.0, -1.0))

    @pytest.mark.parametrize(
        "limits", [(nan, nan), (nan, 1.0), (-1.0, nan)], ids=["both", "low", "high"]
    )
    def test_nan_limits_rejected(self, limits):
        # A NaN limit compares false both ways, so the clamp would pass
        # any output through unclamped.
        with pytest.raises(ValueError):
            DiscretePID(PIDGains(1, 1, 1), output_limits=limits)


class TestState:
    def test_reset(self):
        pid = DiscretePID(PIDGains(kp=1.0, ki=1.0, kd=1.0))
        pid.step(3.0)
        pid.reset()
        assert pid.integral == 0.0
        # After reset the controller behaves exactly like a fresh one.
        fresh = DiscretePID(PIDGains(kp=1.0, ki=1.0, kd=1.0))
        assert pid.step(2.0) == pytest.approx(fresh.step(2.0))

    def test_gains_scaled(self):
        g = PIDGains(1.0, 2.0, 3.0).scaled(0.5)
        assert (g.kp, g.ki, g.kd) == (0.5, 1.0, 1.5)


class TestTransferFunction:
    def test_matches_time_domain(self):
        """C(z) evaluated by simulation equals the stateful PID."""
        g = PIDGains(kp=0.7, ki=0.3, kd=0.2)
        tf = pid_transfer_function(g)
        rng = np.random.default_rng(0)
        errors = rng.normal(size=30)
        pid = DiscretePID(g)
        direct = np.array([pid.step(e) for e in errors])
        simulated = tf.simulate(errors)
        np.testing.assert_allclose(simulated, direct, atol=1e-9)

    def test_has_integrator_pole(self):
        tf = pid_transfer_function(PIDGains(1.0, 1.0, 1.0))
        poles = np.sort(tf.poles().real)
        np.testing.assert_allclose(poles, [0.0, 1.0], atol=1e-12)
