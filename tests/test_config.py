"""Configuration dataclasses: defaults, validation, derived quantities."""

import dataclasses

import pytest

from repro.config import (
    CMPConfig,
    ControlConfig,
    CoreConfig,
    DEFAULT_CONFIG,
    DVFSConfig,
    MemoryConfig,
    PENTIUM_M_VF_TABLE,
)


class TestDefaults:
    def test_paper_platform_shape(self):
        assert DEFAULT_CONFIG.n_cores == 8
        assert DEFAULT_CONFIG.n_islands == 4
        assert DEFAULT_CONFIG.cores_per_island == 2

    def test_vf_table_matches_paper_range(self):
        freqs = [f for f, _ in PENTIUM_M_VF_TABLE]
        assert len(freqs) == 8
        assert freqs[0] == pytest.approx(0.6)
        assert freqs[-1] == pytest.approx(2.0)

    def test_control_cadence(self):
        assert DEFAULT_CONFIG.control.gpm_interval_s == pytest.approx(5e-3)
        assert DEFAULT_CONFIG.control.pic_interval_s == pytest.approx(0.5e-3)
        assert DEFAULT_CONFIG.control.pics_per_gpm == 10

    def test_transition_overhead_is_paper_value(self):
        assert DEFAULT_CONFIG.dvfs.transition_overhead == pytest.approx(0.005)

    def test_config_hashable_for_memoization(self):
        assert hash(DEFAULT_CONFIG) == hash(CMPConfig())


class TestTopology:
    def test_island_of_core_contiguous_blocks(self):
        cfg = DEFAULT_CONFIG
        assert [cfg.island_of_core(c) for c in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_out_of_range_indices(self):
        with pytest.raises(IndexError):
            DEFAULT_CONFIG.island_of_core(8)

    def test_with_islands(self):
        cfg = DEFAULT_CONFIG.with_islands(32, 8)
        assert cfg.n_cores == 32
        assert cfg.cores_per_island == 4
        # Everything else inherited.
        assert cfg.dvfs == DEFAULT_CONFIG.dvfs


class TestValidation:
    def test_uneven_islands_rejected(self):
        with pytest.raises(ValueError):
            CMPConfig(n_cores=8, n_islands=3)

    def test_bad_dvfs_mode_rejected(self):
        with pytest.raises(ValueError):
            DVFSConfig(mode="sometimes")

    def test_unsorted_vf_table_rejected(self):
        with pytest.raises(ValueError):
            DVFSConfig(vf_table=((2.0, 1.5), (0.6, 1.0)))

    def test_gpm_interval_must_be_multiple_of_pic(self):
        control = ControlConfig(gpm_interval_s=5e-3, pic_interval_s=0.7e-3)
        with pytest.raises(ValueError):
            _ = control.pics_per_gpm

    def test_gpm_shorter_than_pic_rejected(self):
        with pytest.raises(ValueError):
            ControlConfig(gpm_interval_s=0.1e-3, pic_interval_s=0.5e-3)

    def test_stall_activity_bounds(self):
        with pytest.raises(ValueError):
            CoreConfig(stall_activity=1.5)

    def test_memory_latency_positive(self):
        with pytest.raises(ValueError):
            MemoryConfig(memory_latency_s=0.0)

    def test_leakage_multiplier_length_checked(self):
        with pytest.raises(ValueError):
            CMPConfig(island_leakage_multipliers=(1.0, 2.0))

    def test_leakage_multiplier_positive(self):
        with pytest.raises(ValueError):
            CMPConfig(island_leakage_multipliers=(1.0, 2.0, -1.0, 1.0))

    def test_uncore_fraction_bounds(self):
        with pytest.raises(ValueError):
            CMPConfig(uncore_fraction=1.0)

    def test_pole_count_enforced(self):
        with pytest.raises(ValueError):
            ControlConfig(desired_poles=(0.1 + 0j, 0.2 + 0j))


def test_replace_produces_new_value():
    faster = dataclasses.replace(
        DEFAULT_CONFIG, control=ControlConfig(pic_interval_s=0.25e-3)
    )
    assert faster.control.pics_per_gpm == 20
    assert DEFAULT_CONFIG.control.pics_per_gpm == 10
