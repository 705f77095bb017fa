"""Pole-placement design against the integrator plant (Eqs. 9-13)."""

import numpy as np
import pytest

from repro.control.pid import PIDGains
from repro.control.pole_placement import (
    closed_loop,
    design_pid,
    integrator_plant,
    stability_gain_limit,
)

POLES = (-0.15 + 0j, 0.35 + 0.25j, 0.35 - 0.25j)


class TestPlant:
    def test_integrator_pole_at_one(self):
        plant = integrator_plant(0.13)
        np.testing.assert_allclose(plant.poles(), [1.0], atol=1e-12)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            integrator_plant(0.0)


class TestDesign:
    @pytest.mark.parametrize("gain", [0.05, 0.13, 2.79])
    def test_achieves_requested_poles(self, gain):
        gains = design_pid(gain, POLES)
        achieved = np.sort_complex(closed_loop(gain, gains).poles())
        np.testing.assert_allclose(achieved, np.sort_complex(POLES), atol=1e-8)

    def test_gains_scale_inversely_with_plant_gain(self):
        g1 = design_pid(0.1, POLES)
        g2 = design_pid(0.2, POLES)
        assert g2.kp == pytest.approx(g1.kp / 2)
        assert g2.ki == pytest.approx(g1.ki / 2)
        assert g2.kd == pytest.approx(g1.kd / 2)

    def test_default_design_all_positive_gains(self):
        gains = design_pid(0.13, POLES)
        assert gains.kp > 0 and gains.ki > 0 and gains.kd > 0

    def test_unstable_request_rejected(self):
        with pytest.raises(ValueError):
            design_pid(0.13, (1.0 + 0j, 0.2 + 0j, 0.3 + 0j))

    def test_unconjugated_poles_rejected(self):
        with pytest.raises(ValueError):
            design_pid(0.13, (0.1 + 0.2j, 0.3 + 0j, 0.4 + 0j))

    def test_wrong_pole_count_rejected(self):
        with pytest.raises(ValueError):
            design_pid(0.13, (0.1 + 0j, 0.2 + 0j))

    def test_zero_steady_state_error(self):
        """The integral term guarantees unit DC gain of the closed loop."""
        gains = design_pid(0.13, POLES)
        assert closed_loop(0.13, gains).dc_gain() == pytest.approx(1.0)

    def test_step_response_settles(self):
        gains = design_pid(0.13, POLES)
        response = closed_loop(0.13, gains).step_response(40)
        assert response[-1] == pytest.approx(1.0, abs=1e-6)


class TestStabilityLimit:
    def test_limit_above_one(self):
        gains = design_pid(0.13, POLES)
        limit = stability_gain_limit(0.13, gains)
        assert limit > 1.2

    def test_loop_unstable_just_beyond_limit(self):
        gains = design_pid(0.13, POLES)
        limit = stability_gain_limit(0.13, gains)
        if limit < 10.0:  # a finite limit was found
            assert not closed_loop(1.05 * limit * 0.13, gains).is_stable()
            assert closed_loop(0.95 * limit * 0.13, gains).is_stable()

    def test_limit_is_gain_relative(self):
        """Doubling the plant gain with matching redesign keeps g-limit."""
        g1 = stability_gain_limit(0.1, design_pid(0.1, POLES))
        g2 = stability_gain_limit(0.2, design_pid(0.2, POLES))
        assert g1 == pytest.approx(g2, rel=1e-2)

    def test_unstable_design_rejected(self):
        bad = PIDGains(kp=1000.0, ki=1000.0, kd=1000.0)
        with pytest.raises(ValueError):
            stability_gain_limit(0.13, bad)
