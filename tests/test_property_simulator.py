"""Property-based tests on chip/simulator invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmpsim.chip import Chip
from repro.cmpsim.dvfs import DVFSTable
from repro.config import DEFAULT_CONFIG
from repro.workloads.mixes import mix_for_config

CHIP_CACHE = {}


def get_chip(n_cores: int, n_islands: int) -> Chip:
    key = (n_cores, n_islands)
    if key not in CHIP_CACHE:
        config = DEFAULT_CONFIG.with_islands(n_cores, n_islands)
        CHIP_CACHE[key] = (
            config,
            mix_for_config(config).specs(),
        )
    config, specs = CHIP_CACHE[key]
    return Chip(config, specs)


shapes = st.sampled_from([(4, 2), (8, 4), (8, 8), (16, 4)])
workload_arrays = st.tuples(
    st.floats(0.1, 1.0),   # alpha
    st.floats(0.6, 1.5),   # cpi_base
    st.floats(0.0, 50.0),  # l1_mpki
    st.floats(0.0, 25.0),  # l2_mpki
)


class TestChipInvariants:
    @given(
        shape=shapes,
        wl=workload_arrays,
        freqs=st.lists(st.floats(0.6, 2.0), min_size=8, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_conservation_and_bounds(self, shape, wl, freqs):
        n_cores, n_islands = shape
        chip = get_chip(n_cores, n_islands)
        chip.set_island_frequencies([freqs[i % len(freqs)] for i in range(n_islands)])
        alpha, cpi, l1, l2 = wl
        terms = chip.workload_terms(
            np.full(n_cores, alpha),
            np.full(n_cores, cpi),
            np.full(n_cores, l1),
            np.full(n_cores, l2),
        )
        result = chip.compute_interval(terms, 0, dt=5e-4)
        # Conservation: chip = sum(islands) + uncore.
        assert result.chip_power_w == pytest.approx(
            result.island_power_w.sum() + chip.uncore_power_w, rel=1e-9
        )
        # Normalization bound: never above the chip's max power.
        assert result.chip_power_frac <= 1.0 + 1e-9
        # All quantities physical.
        assert np.all(result.core_power_w > 0)
        assert np.all(result.core_ips > 0)
        assert np.all(result.core_instructions >= 0)
        assert np.all((result.core_busy > 0) & (result.core_busy <= 1))

    @given(shape=shapes, wl=workload_arrays)
    @settings(max_examples=20, deadline=None)
    def test_frequency_monotonicity(self, shape, wl):
        """Chip-wide: higher uniform frequency, more power and more BIPS."""
        n_cores, n_islands = shape
        alpha, cpi, l1, l2 = wl
        args = (
            np.full(n_cores, alpha),
            np.full(n_cores, cpi),
            np.full(n_cores, l1),
            np.full(n_cores, l2),
        )
        lo_chip = get_chip(n_cores, n_islands)
        hi_chip = get_chip(n_cores, n_islands)
        lo_chip.set_island_frequencies([1.0] * n_islands)
        hi_chip.set_island_frequencies([1.8] * n_islands)
        lo = lo_chip.compute_interval(lo_chip.workload_terms(*args), 0, dt=5e-4)
        hi = hi_chip.compute_interval(hi_chip.workload_terms(*args), 0, dt=5e-4)
        assert hi.chip_power_w > lo.chip_power_w
        assert hi.chip_bips >= lo.chip_bips


class TestDVFSTableProperties:
    @given(f=st.floats(-1.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_clamp_then_voltage_always_valid(self, f):
        table = DVFSTable()
        clamped = table.clamp(f)
        v = table.voltage_at(clamped)
        assert table.voltages[0] <= v <= table.voltages[-1]

    @given(f=st.floats(0.6, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_quantize_is_nearest_table_point(self, f):
        table = DVFSTable()
        q = table.quantize(f)
        distances = np.abs(table.frequencies - f)
        assert abs(q - f) == pytest.approx(float(distances.min()))

    @given(f1=st.floats(0.6, 2.0), f2=st.floats(0.6, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_voltage_monotone(self, f1, f2):
        table = DVFSTable()
        lo, hi = sorted([f1, f2])
        assert table.voltage_at(hi) >= table.voltage_at(lo) - 1e-12


class TestMixProperties:
    @given(
        n_islands=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=10, deadline=None)
    def test_regrouping_preserves_multiset_of_apps(self, n_islands):
        from repro.workloads.mixes import MIX1

        config = DEFAULT_CONFIG.with_islands(8, n_islands)
        mix = mix_for_config(config, MIX1)
        assert mix.n_cores == 8
        assert mix.n_islands == n_islands
        flat = sorted(name for island in mix.islands for name in island)
        base = sorted(name for island in MIX1.islands for name in island)
        assert flat == base
