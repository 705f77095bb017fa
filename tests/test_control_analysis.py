"""Response robustness metrics: overshoot, settling, steady-state error."""

import numpy as np
import pytest

from repro.control.analysis import ResponseMetrics, response_metrics
from repro.control.pole_placement import closed_loop, design_pid

POLES = (-0.15 + 0j, 0.35 + 0.25j, 0.35 - 0.25j)


class TestResponseMetrics:
    def test_perfect_tracking(self):
        m = response_metrics(np.full(20, 5.0), reference=5.0)
        assert m.max_overshoot == 0.0
        assert m.max_undershoot == 0.0
        assert m.settling_steps == 0
        assert m.steady_state_error == pytest.approx(0.0)

    def test_overshoot_measured_relative(self):
        y = np.array([0.0, 1.3, 1.0, 1.0, 1.0, 1.0])
        m = response_metrics(y, reference=1.0)
        assert m.max_overshoot == pytest.approx(0.3)
        assert m.max_undershoot == pytest.approx(1.0)  # the initial zero

    def test_settling_time_finds_last_excursion(self):
        y = np.concatenate([[0.0, 1.5, 0.9], np.ones(10)])
        m = response_metrics(y, reference=1.0, tolerance=0.05)
        assert m.settling_steps == 3

    def test_never_settles(self):
        y = np.tile([1.5, 0.5], 10)
        m = response_metrics(y, reference=1.0, tolerance=0.05)
        assert m.settling_steps is None
        assert not m.settled
        assert np.isnan(m.steady_state_error)

    def test_steady_state_error_from_tail(self):
        y = np.concatenate([[0.0], np.full(19, 1.01)])
        m = response_metrics(y, reference=1.0, tolerance=0.05)
        assert m.steady_state_error == pytest.approx(0.01, rel=1e-6)

    def test_negative_reference_supported(self):
        y = np.full(10, -2.0)
        m = response_metrics(y, reference=-2.0)
        assert m.settling_steps == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            response_metrics([], 1.0)
        with pytest.raises(ValueError):
            response_metrics([1.0], 0.0)
        with pytest.raises(ValueError):
            response_metrics([1.0], 1.0, tolerance=1.5)


class TestStepResponse:
    def test_designed_loop_metrics(self):
        """The default design settles within ~6 invocations with zero SSE."""
        loop = closed_loop(0.13, design_pid(0.13, POLES))
        y = loop.step_response(40)
        m = response_metrics(y, reference=1.0, tolerance=0.05)
        assert m.settled
        assert m.settling_steps <= 8
        assert m.steady_state_error < 1e-3


def test_metrics_dataclass_flags():
    settled = ResponseMetrics(0.0, 0.0, 3, 0.0)
    assert settled.settled
    unsettled = ResponseMetrics(0.5, 0.5, None, float("nan"))
    assert not unsettled.settled
