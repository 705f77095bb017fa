"""Discrete transfer functions: algebra, poles, stability, simulation."""

import numpy as np
import pytest

from repro.control.lti import DiscreteTransferFunction


def first_order(pole: float, gain: float = 1.0) -> DiscreteTransferFunction:
    """H(z) = gain / (z - pole)."""
    return DiscreteTransferFunction([gain], [1.0, -pole])


class TestConstruction:
    def test_normalizes_to_monic_denominator(self):
        tf = DiscreteTransferFunction([2.0], [2.0, -1.0])
        assert tf.den[0] == pytest.approx(1.0)
        assert tf.num[0] == pytest.approx(1.0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            DiscreteTransferFunction([1.0], [0.0, 0.0])

    def test_leading_zeros_trimmed(self):
        tf = DiscreteTransferFunction([0.0, 0.0, 1.0], [0.0, 1.0, -0.5])
        assert len(tf.num) == 1
        assert len(tf.den) == 2


class TestAlgebra:
    def test_series_composition(self):
        h = first_order(0.5) * first_order(0.2)
        poles = np.sort(h.poles().real)
        np.testing.assert_allclose(poles, [0.2, 0.5], atol=1e-12)

    def test_parallel_composition_dc_gain(self):
        h = first_order(0.5) + first_order(0.0)
        # DC gains: 1/(1-0.5)=2 and 1/1=1 -> 3 total.
        assert h.dc_gain() == pytest.approx(3.0)

    def test_scale(self):
        assert first_order(0.5).scale(3.0).dc_gain() == pytest.approx(6.0)

    def test_unity_feedback_moves_pole(self):
        # L = 1/(z-1) (integrator): closed loop = 1/z, pole at 0.
        closed = first_order(1.0).feedback()
        np.testing.assert_allclose(closed.poles(), [0.0], atol=1e-12)


class TestAnalysis:
    def test_stability_verdicts(self):
        assert first_order(0.9).is_stable()
        assert not first_order(1.0).is_stable()
        assert not first_order(-1.1).is_stable()

    def test_dc_gain_integrator_is_infinite(self):
        assert first_order(1.0).dc_gain() == float("inf")

    def test_zeros(self):
        tf = DiscreteTransferFunction([1.0, -0.3], [1.0, -0.5, 0.0])
        np.testing.assert_allclose(tf.zeros(), [0.3], atol=1e-12)


class TestSimulation:
    def test_step_response_converges_to_dc_gain(self):
        tf = first_order(0.5, gain=2.0)
        response = tf.step_response(60)
        assert response[-1] == pytest.approx(tf.dc_gain(), rel=1e-6)

    def test_impulse_response_matches_geometric_series(self):
        tf = first_order(0.5)
        impulse = np.zeros(10)
        impulse[0] = 1.0
        y = tf.simulate(impulse)
        # y[t] = 0.5^(t-1) for t >= 1 (one-step input delay from z in den).
        expected = np.array([0.0] + [0.5**k for k in range(9)])
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_non_causal_rejected(self):
        tf = DiscreteTransferFunction([1.0, 0.0, 0.0], [1.0, -0.5])
        with pytest.raises(ValueError):
            tf.simulate([1.0, 1.0])

    def test_step_response_requires_positive_length(self):
        with pytest.raises(ValueError):
            first_order(0.5).step_response(0)

    def test_integrator_accumulates(self):
        integ = first_order(1.0)
        y = integ.simulate(np.ones(5))
        np.testing.assert_allclose(y, [0, 1, 2, 3, 4], atol=1e-12)
