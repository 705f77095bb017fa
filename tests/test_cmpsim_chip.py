"""Chip model: normalization, actuation, per-interval evaluation."""

import numpy as np
import pytest

from repro.cmpsim.chip import Chip
from repro.config import CMPConfig, DEFAULT_CONFIG, DVFSConfig
from repro.workloads.mixes import MIX1


def make_chip(config: CMPConfig | None = None) -> Chip:
    config = config or DEFAULT_CONFIG
    from repro.workloads.mixes import mix_for_config

    return Chip(config, mix_for_config(config).specs())


def nominal_inputs(n_cores: int):
    return (
        np.full(n_cores, 0.8),   # alpha
        np.full(n_cores, 1.0),   # cpi_base
        np.full(n_cores, 10.0),  # l1_mpki
        np.full(n_cores, 2.0),   # l2_mpki
    )


def nominal_terms(chip: Chip):
    """One tick of the nominal workload, as the kernel's workload terms."""
    return chip.workload_terms(*nominal_inputs(chip.config.n_cores))


class TestNormalization:
    def test_uncore_fraction_matches_config(self):
        chip = make_chip()
        assert chip.uncore_fraction == pytest.approx(
            DEFAULT_CONFIG.uncore_fraction
        )

    def test_max_power_is_actual_upper_bound(self):
        chip = make_chip()
        alpha, cpi, l1, l2 = nominal_inputs(8)
        terms = chip.workload_terms(np.ones(8), cpi, np.zeros(8), np.zeros(8))
        result = chip.compute_interval(terms, 0, dt=5e-4)
        assert result.chip_power_frac < 1.0 + 1e-9

    def test_island_bounds_order(self):
        chip = make_chip()
        lo, hi = chip.island_power_bounds()
        assert np.all(lo < hi)
        assert np.all(lo > 0)
        # All islands' peaks plus the uncore share cover the whole chip.
        assert hi.sum() + chip.uncore_fraction == pytest.approx(1.0)


class TestActuation:
    def test_set_frequency_clamps(self):
        chip = make_chip()
        chip.set_island_frequencies([5.0, 0.1, 1.3, 2.0])
        assert chip.island_frequency.tolist() == [2.0, 0.6, 1.3, 2.0]

    def test_quantized_mode_snaps(self):
        import dataclasses

        cfg = dataclasses.replace(DEFAULT_CONFIG, dvfs=DVFSConfig(mode="quantized"))
        chip = make_chip(cfg)
        chip.set_island_frequencies([1.31, 2.0, 2.0, 2.0])
        assert chip.island_frequency[0] == pytest.approx(1.4)

    def test_core_frequencies_follow_islands(self):
        chip = make_chip()
        chip.set_island_frequencies([2.0, 2.0, 1.0, 2.0])
        freqs = chip.island_frequency[chip.island_of_core]
        np.testing.assert_allclose(freqs[4:6], 1.0)
        np.testing.assert_allclose(freqs[:4], 2.0)

    def test_island_index_validated(self):
        chip = make_chip()
        for requests in ([1.0], [1.0] * 5, 1.0):  # one request per island
            with pytest.raises(ValueError):
                chip.set_island_frequencies(requests)

    @pytest.mark.parametrize("mode", ["continuous", "quantized"])
    def test_vector_set_equals_one_call_per_island(self, mode):
        import dataclasses

        cfg = dataclasses.replace(DEFAULT_CONFIG, dvfs=DVFSConfig(mode=mode))
        # Out of range both ways, a tie between two rungs, and NaN.
        requests = [5.0, 0.1, 1.3, float("nan")]
        chip = make_chip(cfg)
        chip.set_island_frequencies(requests)
        # The scalar clamp and quantize, one island at a time.
        table = chip.dvfs
        expected = [
            table.quantize(f) if mode == "quantized" else table.clamp(f)
            for f in requests
        ]
        assert chip.island_frequency.tobytes() == np.array(expected).tobytes()


class TestComputeInterval:
    def test_power_conservation(self):
        """Chip power equals the sum of island power plus the uncore."""
        chip = make_chip()
        result = chip.compute_interval(nominal_terms(chip), 0, dt=5e-4)
        assert result.chip_power_w == pytest.approx(
            result.island_power_w.sum() + chip.uncore_power_w
        )
        np.testing.assert_allclose(
            result.island_power_frac, result.island_power_w / chip.max_power_w
        )

    def test_island_aggregation_matches_cores(self):
        chip = make_chip()
        result = chip.compute_interval(nominal_terms(chip), 0, dt=5e-4)
        for i in range(4):
            members = chip.island_of_core == i
            assert result.island_power_w[i] == pytest.approx(
                result.core_power_w[members].sum()
            )

    def test_instructions_match_ips_dt(self):
        chip = make_chip()
        dt = 5e-4
        result = chip.compute_interval(nominal_terms(chip), 0, dt=dt)
        np.testing.assert_allclose(
            result.core_instructions, result.core_ips * dt, rtol=1e-12
        )

    def test_transition_overhead_reduces_instructions(self):
        chip = make_chip()
        terms = nominal_terms(chip)
        clean = chip.compute_interval(terms, 0, dt=5e-4)
        transitioned = np.array([True, False, False, False])
        taxed = chip.compute_interval(
            terms, 0, dt=5e-4, transitioned_islands=transitioned
        )
        ratio = taxed.core_instructions[0] / clean.core_instructions[0]
        assert ratio == pytest.approx(1.0 - 0.005)
        # Untouched islands unaffected.
        assert taxed.core_instructions[-1] == pytest.approx(
            clean.core_instructions[-1]
        )

    def test_lower_frequency_lower_power_lower_bips(self):
        chip_hi = make_chip()
        chip_lo = make_chip()
        chip_lo.set_island_frequencies([1.0] * 4)
        hi = chip_hi.compute_interval(nominal_terms(chip_hi), 0, dt=5e-4)
        lo = chip_lo.compute_interval(nominal_terms(chip_lo), 0, dt=5e-4)
        assert lo.chip_power_w < hi.chip_power_w
        assert lo.chip_bips < hi.chip_bips

    def test_utilization_monotone_in_frequency(self):
        chip_hi = make_chip()
        chip_lo = make_chip()
        chip_lo.set_island_frequencies([0.8] * 4)
        hi = chip_hi.compute_interval(nominal_terms(chip_hi), 0, dt=5e-4)
        lo = chip_lo.compute_interval(nominal_terms(chip_lo), 0, dt=5e-4)
        assert np.all(lo.core_utilization < hi.core_utilization)

    def test_temperatures_warm_up(self):
        chip = make_chip()
        t0 = chip.thermal.temperatures.copy()
        for _ in range(50):
            result = chip.compute_interval(nominal_terms(chip), 0, dt=5e-4)
        assert np.all(result.core_temperature_c > t0)

    def test_leakage_variation_raises_island_power(self):
        import dataclasses

        cfg = dataclasses.replace(
            DEFAULT_CONFIG, island_leakage_multipliers=(1.0, 1.0, 1.0, 3.0)
        )
        chip = Chip(cfg, MIX1.specs())
        result = chip.compute_interval(nominal_terms(chip), 0, dt=5e-4)
        # Island 4 runs the same workload mix shape; its extra power is
        # leakage only, but must be visibly higher than a same-mix island.
        assert result.island_power_w[3] > result.island_power_w[0] * 0.9

    def test_input_validation(self):
        chip = make_chip()
        with pytest.raises(ValueError):
            chip.workload_terms(np.ones(4), np.ones(8), np.ones(8), np.ones(8))
        with pytest.raises(ValueError):
            chip.compute_interval(nominal_terms(chip), 0, dt=0.0)

    def test_block_shapes_validated(self):
        chip = make_chip()
        with pytest.raises(ValueError):
            chip.workload_terms(
                np.ones((3, 8)), np.ones((3, 8)), np.ones((2, 8)), np.ones((3, 8))
            )
        with pytest.raises(ValueError):
            chip.workload_terms(*(np.ones((2, 3, 8)) for _ in range(4)))

    def test_nan_dt_rejected_and_state_untouched(self):
        """A NaN interval raises instead of poisoning the thermal state."""
        chip = make_chip()
        before = chip.thermal.temperatures.copy()
        with pytest.raises(ValueError):
            chip.compute_interval(nominal_terms(chip), 0, dt=float("nan"))
        np.testing.assert_array_equal(chip.thermal.temperatures, before)
        result = chip.compute_interval(nominal_terms(chip), 0, dt=5e-4)
        assert np.isfinite(result.chip_power_frac)
        assert np.all(np.isfinite(result.core_temperature_c))

    def test_dt_checked_once_per_value(self):
        """The stability limit still applies after a valid dt was seen."""
        chip = make_chip()
        chip.compute_interval(nominal_terms(chip), 0, dt=5e-4)
        with pytest.raises(ValueError, match="explicit Euler"):
            chip.compute_interval(nominal_terms(chip), 0, dt=10.0)

    def test_block_row_equals_single_tick(self):
        """Row t of a (T, n_cores) block evaluates like its own 1-row block."""
        rng = np.random.default_rng(3)
        block = (
            rng.uniform(0.2, 1.0, (5, 8)),
            rng.uniform(0.6, 1.5, (5, 8)),
            rng.uniform(0.0, 50.0, (5, 8)),
            rng.uniform(0.0, 20.0, (5, 8)),
        )
        whole, single = make_chip(), make_chip()
        terms = whole.workload_terms(*block)
        for t in range(5):
            a = whole.compute_interval(terms, t, dt=5e-4)
            row = single.workload_terms(*(arr[t] for arr in block))
            b = single.compute_interval(row, 0, dt=5e-4)
            np.testing.assert_array_equal(a.core_power_w, b.core_power_w)
            np.testing.assert_array_equal(a.core_temperature_c, b.core_temperature_c)

    def test_spec_count_validated(self):
        with pytest.raises(ValueError):
            Chip(DEFAULT_CONFIG, MIX1.specs()[:4])
