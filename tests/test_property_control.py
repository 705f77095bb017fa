"""Property-based tests on the control substrate (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.analysis import response_metrics
from repro.control.identification import fit_system_gain, predict_power
from repro.control.lti import DiscreteTransferFunction
from repro.control.pid import DiscretePID, PIDGains
from repro.control.pole_placement import (
    closed_loop,
    design_pid,
    pid_transfer_function,
)

# Strategy: poles strictly inside the unit circle, closed under
# conjugation (one real pole + a conjugate pair).
real_pole = st.floats(min_value=-0.8, max_value=0.8).map(lambda r: complex(r, 0))
conjugate_pair = st.tuples(
    st.floats(min_value=-0.7, max_value=0.7),
    st.floats(min_value=0.01, max_value=0.6),
).filter(lambda p: abs(complex(*p)) < 0.9)

plant_gains = st.floats(min_value=0.01, max_value=10.0)


class TestPolePlacementProperties:
    @given(gain=plant_gains, real=real_pole, pair=conjugate_pair)
    @settings(max_examples=60, deadline=None)
    def test_design_always_achieves_poles_and_stability(self, gain, real, pair):
        poles = (real, complex(*pair), complex(pair[0], -pair[1]))
        gains = design_pid(gain, poles)
        loop = closed_loop(gain, gains)
        assert loop.is_stable()
        # Compare characteristic polynomials (pole lists reorder under
        # floating-point noise when real parts nearly coincide).
        np.testing.assert_allclose(
            np.asarray(loop.den, dtype=complex), np.poly(poles), atol=1e-8
        )

    @given(gain=plant_gains, real=real_pole, pair=conjugate_pair)
    @settings(max_examples=30, deadline=None)
    def test_closed_loop_has_unit_dc_gain(self, gain, real, pair):
        """The integral action guarantees zero steady-state error for any
        stable design — the paper's PI/PID rationale."""
        poles = (real, complex(*pair), complex(pair[0], -pair[1]))
        gains = design_pid(gain, poles)
        assert closed_loop(gain, gains).dc_gain() == pytest.approx(1.0)


class TestPIDProperties:
    @given(
        kp=st.floats(0.0, 5.0),
        ki=st.floats(0.0, 5.0),
        kd=st.floats(0.0, 5.0),
        errors=st.lists(st.floats(-10, 10), min_size=1, max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_stateful_equals_transfer_function(self, kp, ki, kd, errors):
        gains = PIDGains(kp, ki, kd)
        pid = DiscretePID(gains)
        direct = np.array([pid.step(e) for e in errors])
        simulated = pid_transfer_function(gains).simulate(errors)
        np.testing.assert_allclose(simulated, direct, atol=1e-6, rtol=1e-6)

    @given(
        limit=st.floats(0.1, 2.0),
        errors=st.lists(st.floats(-100, 100), min_size=1, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_output_always_within_limits(self, limit, errors):
        pid = DiscretePID(PIDGains(3.0, 2.0, 1.0), output_limits=(-limit, limit))
        for e in errors:
            assert abs(pid.step(e)) <= limit + 1e-12

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, scale):
        """PID is linear: scaling the error sequence scales the output."""
        errors = [1.0, -0.5, 0.25, 2.0]
        a = DiscretePID(PIDGains(0.5, 0.3, 0.2))
        b = DiscretePID(PIDGains(0.5, 0.3, 0.2))
        out_a = [a.step(e) for e in errors]
        out_b = [b.step(e * scale) for e in errors]
        np.testing.assert_allclose(out_b, np.asarray(out_a) * scale, rtol=1e-9)


class TestIdentificationProperties:
    @given(
        gain=st.floats(-5.0, 5.0).filter(lambda g: abs(g) > 1e-3),
        deltas=st.lists(
            st.floats(-0.5, 0.5).filter(lambda d: abs(d) > 1e-6),
            min_size=2,
            max_size=50,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_recovers_generating_gain(self, gain, deltas):
        df = np.asarray(deltas)
        fit = fit_system_gain(df, gain * df)
        assert fit.gain == pytest.approx(gain, rel=1e-6)

    @given(
        initial=st.floats(0.1, 1.0),
        gain=st.floats(0.01, 1.0),
        deltas=st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_rollout_length_and_start(self, initial, gain, deltas):
        rollout = predict_power(initial, deltas, gain)
        assert rollout.shape == (len(deltas) + 1,)
        assert rollout[0] == initial


class TestMetricsProperties:
    @given(
        values=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=60),
        reference=st.floats(0.1, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_metrics_are_well_formed(self, values, reference):
        m = response_metrics(values, reference)
        assert m.max_overshoot >= 0.0
        assert m.max_undershoot >= 0.0
        if m.settled:
            assert 0 <= m.settling_steps <= len(values)
            assert m.steady_state_error >= 0.0

    @given(offset=st.floats(-0.5, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_constant_series_statistics(self, offset):
        reference = 1.0
        m = response_metrics(np.full(20, reference + offset), reference,
                             tolerance=0.01)
        if abs(offset) <= 0.01:
            assert m.settling_steps == 0
        else:
            assert m.settling_steps is None
            if offset > 0:
                assert m.max_overshoot == pytest.approx(offset, rel=1e-6)
            else:
                assert m.max_undershoot == pytest.approx(-offset, rel=1e-6)


class TestLTIProperties:
    @given(pole=st.floats(-0.95, 0.95), gain=st.floats(0.1, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_first_order_step_converges_to_dc_gain(self, pole, gain):
        tf = DiscreteTransferFunction([gain], [1.0, -pole])
        response = tf.step_response(300)
        assert response[-1] == pytest.approx(tf.dc_gain(), rel=1e-3, abs=1e-6)

    @given(
        p1=st.floats(-0.9, 0.9),
        p2=st.floats(-0.9, 0.9),
    )
    @settings(max_examples=50, deadline=None)
    def test_series_composition_preserves_stability(self, p1, p2):
        a = DiscreteTransferFunction([1.0], [1.0, -p1])
        b = DiscreteTransferFunction([1.0], [1.0, -p2])
        assert (a * b).is_stable()
