"""Property-based tests on the power models and the CPI stack."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmpsim.core import cpi_stack
from repro.config import MemoryConfig
from repro.power.clock_gating import LinearClockGating
from repro.power.dynamic import DynamicPowerModel
from repro.power.leakage import LeakagePowerModel

voltages = st.floats(0.8, 1.6)
frequencies = st.floats(0.5, 2.2)
fractions = st.floats(0.0, 1.0)
alphas = st.floats(0.05, 1.0)


class TestDynamicPowerProperties:
    MODEL = DynamicPowerModel(1.78, stall_activity=0.65)

    @given(v=voltages, f=frequencies, busy=fractions, alpha=alphas)
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_floor_and_peak(self, v, f, busy, alpha):
        p = self.MODEL.power(v, f, busy, alpha)
        peak = 1.78 * v**2 * f
        floor = peak * 0.1  # the clock-gating floor
        assert floor - 1e-9 <= p <= peak + 1e-9

    @given(v=voltages, f=frequencies, b1=fractions, b2=fractions, alpha=alphas)
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_busy(self, v, f, b1, b2, alpha):
        lo, hi = sorted([b1, b2])
        # stall_activity < alpha can invert this; use alpha above stall.
        alpha = max(alpha, 0.7)
        p_lo = self.MODEL.power(v, f, lo, alpha)
        p_hi = self.MODEL.power(v, f, hi, alpha)
        assert p_hi >= p_lo - 1e-9

    @given(v=voltages, f1=frequencies, f2=frequencies, busy=fractions, alpha=alphas)
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_frequency(self, v, f1, f2, busy, alpha):
        lo, hi = sorted([f1, f2])
        assert self.MODEL.power(v, hi, busy, alpha) >= self.MODEL.power(
            v, lo, busy, alpha
        ) - 1e-9

    @given(v=voltages, f=frequencies, busy=fractions, alpha=alphas)
    @settings(max_examples=40, deadline=None)
    def test_breakdown_sums_to_power(self, v, f, busy, alpha):
        total = self.MODEL.power(v, f, busy, alpha)
        parts = self.MODEL.breakdown(v, f, busy, alpha)
        assert sum(parts.values()) == pytest.approx(total, rel=1e-9)


class TestLeakageProperties:
    MODEL = LeakagePowerModel(1.5, nominal_voltage=1.484)

    @given(v1=voltages, v2=voltages, t=st.floats(30, 110))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_voltage(self, v1, v2, t):
        lo, hi = sorted([v1, v2])
        assert self.MODEL.power(hi, t) >= self.MODEL.power(lo, t) - 1e-12

    @given(v=voltages, t1=st.floats(30, 110), t2=st.floats(30, 110))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_temperature(self, v, t1, t2):
        lo, hi = sorted([t1, t2])
        assert self.MODEL.power(v, hi) >= self.MODEL.power(v, lo) - 1e-12

    @given(v=voltages, t=st.floats(30, 110), m=st.floats(0.5, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_multiplier_is_exactly_linear(self, v, t, m):
        assert self.MODEL.power(v, t, m) == pytest.approx(
            m * self.MODEL.power(v, t, 1.0), rel=1e-12
        )


class TestGatingProperties:
    @given(floor=st.floats(0.0, 0.9), activity=fractions)
    @settings(max_examples=60, deadline=None)
    def test_output_in_floor_one_range(self, floor, activity):
        g = LinearClockGating(idle_floor=floor)
        out = g.effective_activity(activity)
        assert floor - 1e-12 <= out <= 1.0 + 1e-12


class TestCPIStackProperties:
    MEM = MemoryConfig()

    @given(f=frequencies, alpha=alphas,
           cpi=st.floats(0.5, 2.0),
           l1=st.floats(0.0, 60.0),
           l2=st.floats(0.0, 30.0))
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, f, alpha, cpi, l1, l2):
        r = cpi_stack(f, alpha, cpi, l1, l2, self.MEM)
        assert r.cpi >= cpi
        assert 0.0 < r.busy <= 1.0
        assert r.ips > 0

    @given(alpha=alphas, cpi=st.floats(0.5, 2.0),
           l1=st.floats(0.0, 60.0), l2=st.floats(0.01, 30.0),
           f1=frequencies, f2=frequencies)
    @settings(max_examples=60, deadline=None)
    def test_throughput_monotone_but_sublinear_in_f(self, alpha, cpi, l1, l2, f1, f2):
        lo, hi = sorted([f1, f2])
        if hi - lo < 1e-6:
            return
        r_lo = cpi_stack(lo, alpha, cpi, l1, l2, self.MEM)
        r_hi = cpi_stack(hi, alpha, cpi, l1, l2, self.MEM)
        assert r_hi.ips >= r_lo.ips
        # Strictly sublinear whenever there is any off-chip traffic.
        assert r_hi.ips < r_lo.ips * (hi / lo) + 1e-6
