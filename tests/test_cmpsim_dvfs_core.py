"""DVFS table semantics and the analytic CPI stack."""

import numpy as np
import pytest

from repro.cmpsim.core import cpi_stack, frequency_speedup
from repro.cmpsim.dvfs import DVFSTable
from repro.config import MemoryConfig


class TestDVFSTable:
    def test_bounds(self):
        t = DVFSTable()
        assert t.f_min == 0.6
        assert t.f_max == 2.0
        assert t.n_points == 8

    def test_clamp(self):
        t = DVFSTable()
        assert t.clamp(3.0) == 2.0
        assert t.clamp(0.1) == 0.6
        assert t.clamp(1.3) == 1.3

    def test_voltage_interpolation(self):
        t = DVFSTable()
        v_mid = t.voltage_at(0.7)
        assert t.voltage_at(0.6) < v_mid < t.voltage_at(0.8)
        assert t.voltage_at(2.0) == pytest.approx(1.484)

    def test_voltage_outside_range_raises(self):
        t = DVFSTable()
        with pytest.raises(ValueError):
            t.voltage_at(2.5)
        with pytest.raises(ValueError):
            t.voltage_at(0.3)

    def test_nan_frequency_is_outside_the_ladder(self):
        # A NaN fails every comparison, so the range check must be
        # written to fail on it rather than to pass.
        t = DVFSTable()
        with pytest.raises(ValueError, match="outside ladder"):
            t.voltage_at(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="outside ladder"):
            t.voltage_at(float("nan"))

    def test_quantize_nearest(self):
        t = DVFSTable()
        assert t.quantize(1.29) == pytest.approx(1.2)
        assert t.quantize(1.31) == pytest.approx(1.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            DVFSTable([(1.0, 1.0)])
        with pytest.raises(ValueError):
            DVFSTable([(1.0, 1.2), (2.0, 1.0)])  # voltage decreasing


class TestCPIStack:
    MEM = MemoryConfig()

    def test_memory_term_scales_with_frequency(self):
        """Off-chip stalls cost more cycles at higher frequency — the core
        mechanism behind every performance result in the paper."""
        low = cpi_stack(0.6, 1.0, 1.0, 0.0, 10.0, self.MEM)
        high = cpi_stack(2.0, 1.0, 1.0, 0.0, 10.0, self.MEM)
        assert high.cpi > low.cpi
        # 10 MPKI * 100ns: 2 cycles/instr at 2 GHz, 0.6 at 600 MHz.
        assert high.cpi == pytest.approx(1.0 + 2.0)
        assert low.cpi == pytest.approx(1.0 + 0.6)

    def test_cpu_bound_ips_linear_in_frequency(self):
        low = cpi_stack(1.0, 1.0, 1.0, 0.0, 0.0, self.MEM)
        high = cpi_stack(2.0, 1.0, 1.0, 0.0, 0.0, self.MEM)
        assert high.ips == pytest.approx(2 * low.ips)

    def test_memory_bound_ips_sublinear(self):
        low = cpi_stack(1.0, 1.0, 1.0, 0.0, 20.0, self.MEM)
        high = cpi_stack(2.0, 1.0, 1.0, 0.0, 20.0, self.MEM)
        assert high.ips < 1.5 * low.ips

    def test_busy_fraction(self):
        r = cpi_stack(2.0, 1.0, 1.0, 0.0, 10.0, self.MEM)
        assert r.busy == pytest.approx(1.0 / 3.0)
        r2 = cpi_stack(2.0, 1.0, 1.0, 0.0, 0.0, self.MEM)
        assert r2.busy == pytest.approx(1.0)

    def test_l1_misses_frequency_invariant_cycles(self):
        low = cpi_stack(0.6, 1.0, 1.0, 20.0, 0.0, self.MEM)
        high = cpi_stack(2.0, 1.0, 1.0, 20.0, 0.0, self.MEM)
        assert low.cpi == pytest.approx(high.cpi)  # on-chip stalls scale

    def test_alpha_scales_throughput_only(self):
        full = cpi_stack(2.0, 1.0, 1.0, 5.0, 1.0, self.MEM)
        half = cpi_stack(2.0, 0.5, 1.0, 5.0, 1.0, self.MEM)
        assert half.ips == pytest.approx(0.5 * full.ips)
        assert half.busy == pytest.approx(full.busy)

    def test_vectorized(self):
        f = np.array([0.6, 2.0])
        r = cpi_stack(f, 0.8, 1.0, 10.0, 5.0, self.MEM)
        assert r.cpi.shape == (2,)
        assert r.cpi[1] > r.cpi[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            cpi_stack(0.0, 1.0, 1.0, 0.0, 0.0, self.MEM)
        with pytest.raises(ValueError):
            cpi_stack(1.0, 1.5, 1.0, 0.0, 0.0, self.MEM)


class TestSpeedupAndReference:
    def test_frequency_speedup_cpu_bound(self):
        assert frequency_speedup(1.0, 2.0, 1.0, 0.0) == pytest.approx(2.0)

    def test_frequency_speedup_memory_bound_saturates(self):
        s = frequency_speedup(1.0, 2.0, 1.0, 5.0)
        assert 1.0 < s < 1.2

    def test_speedup_validation(self):
        with pytest.raises(ValueError):
            frequency_speedup(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            frequency_speedup(1.0, 2.0, 0.0, 0.0)
