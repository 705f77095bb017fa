"""Composite core power model and the utilization transducer."""

import numpy as np
import pytest

from repro.config import CoreConfig
from repro.power.model import CorePowerModel
from repro.power.transducer import LinearTransducer, fit_transducer


class TestCorePowerModel:
    def test_total_is_dynamic_plus_static(self):
        m = CorePowerModel(nominal_voltage=1.484)
        b = m.breakdown(1.3, 1.6, busy=0.8, alpha=0.9, temperature_c=65.0)
        total = m.power(1.3, 1.6, busy=0.8, alpha=0.9, temperature_c=65.0)
        assert b.dynamic_w + b.static_w == pytest.approx(total)
        assert b.dynamic_w > 0 and b.static_w > 0

    def test_max_power_is_upper_bound(self):
        m = CorePowerModel(nominal_voltage=1.484)
        peak = m.max_power(1.484, 2.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = m.power(
                1.484,
                2.0,
                busy=rng.random(),
                alpha=rng.random() * 0.99 + 0.01,
                temperature_c=m.leakage.nominal_temperature_c,
            )
            assert p <= peak + 1e-9

    def test_respects_core_config(self):
        big = CorePowerModel(CoreConfig(effective_capacitance=3.0))
        small = CorePowerModel(CoreConfig(effective_capacitance=1.0))
        assert big.power(1.2, 1.4, 1.0) > small.power(1.2, 1.4, 1.0)


class TestLinearTransducer:
    def test_scalar_call(self):
        t = LinearTransducer(k0=0.3, k1=-0.05)
        assert t(0.5) == pytest.approx(0.1)

    def test_vectorized(self):
        t = LinearTransducer(k0=2.0, k1=1.0)
        np.testing.assert_allclose(t(np.array([0.0, 1.0])), [1.0, 3.0])


class TestFitTransducer:
    def test_exact_fit(self):
        u = np.linspace(0.1, 1.0, 30)
        p = 0.25 * u + 0.02
        t = fit_transducer(u, p)
        assert t.k0 == pytest.approx(0.25)
        assert t.k1 == pytest.approx(0.02)
        assert t.r_squared == pytest.approx(1.0)
        assert t.n_samples == 30

    def test_noisy_fit_r_squared(self):
        rng = np.random.default_rng(5)
        u = rng.random(500)
        p = 0.3 * u + 0.01 + rng.normal(scale=0.005, size=500)
        t = fit_transducer(u, p)
        assert t.k0 == pytest.approx(0.3, abs=0.01)
        assert 0.9 < t.r_squared <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_transducer([0.5], [0.1])
        with pytest.raises(ValueError):
            fit_transducer([0.5, 0.5], [0.1, 0.2])  # constant utilization
        with pytest.raises(ValueError):
            fit_transducer([0.1, 0.2], [0.1])


class TestModelTransducerConsistency:
    def test_power_linear_in_activity_at_fixed_point(self):
        """At a fixed (V, f, T), core power is exactly affine in the
        activity product — the physical basis of the Figure 6 fits."""
        m = CorePowerModel(nominal_voltage=1.484)
        busy = np.linspace(0.1, 1.0, 10)
        powers = np.array(
            [m.power(1.3, 1.6, b, alpha=1.0, temperature_c=60.0) for b in busy]
        )
        fit = np.polyfit(busy, powers, deg=1)
        reconstructed = np.polyval(fit, busy)
        np.testing.assert_allclose(reconstructed, powers, rtol=1e-10)
