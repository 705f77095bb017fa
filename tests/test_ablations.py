"""Ablation experiments: the design-choice findings hold in quick mode."""

import pytest

from repro.experiments import ablations, fig07_provisioning
from repro.experiments.ablations import (
    run_energy_floor,
    run_gpm_policy,
    run_maxbips_prediction,
    run_pid_terms,
    run_quantization,
    run_transducer,
)
from repro.rng import DEFAULT_SEED
from repro.runner import cache_key

pytestmark = pytest.mark.slow


class TestPIDTerms:
    def test_all_variants_track(self):
        result = run_pid_terms(quick=True)
        assert len(result.rows) == 3
        for _name, err, _noise, _power in result.rows:
            assert err < 0.08  # every variant keeps the chip near budget


class TestQuantization:
    def test_quantized_tracking_no_tighter_than_continuous(self):
        result = run_quantization(quick=True)
        by_mode = {row[0]: row[1] for row in result.rows}
        assert by_mode["quantized"] >= by_mode["continuous"] - 0.01


class TestTransducer:
    def test_sensing_error_reported(self):
        result = run_transducer(quick=True)
        by_kind = {row[0]: row[1] for row in result.rows}
        assert by_kind["per-island"] < 0.05
        assert by_kind["global"] < 0.08


class TestGPMPolicy:
    def test_all_policies_run_and_track(self):
        result = run_gpm_policy(quick=True)
        names = [row[0] for row in result.rows]
        assert len(names) == 3
        for _name, deg, power in result.rows:
            assert deg < 0.15
            assert 0.5 < power < 0.9

    @pytest.mark.parametrize("quick", [False, True])
    def test_default_policy_run_is_fig07s_run(self, quick):
        """The "proportional (default)" row is fig07's run under one key,
        so a shared result cache simulates it once."""
        default_run = ablations._gpm_policy_plan(DEFAULT_SEED, quick)[-1]
        (fig07_run,) = fig07_provisioning.plan(DEFAULT_SEED, quick)
        assert cache_key(default_run) == cache_key(fig07_run)


class TestMaxBIPSPrediction:
    def test_static_loses_more_than_measured(self):
        result = run_maxbips_prediction(quick=True)
        by_kind = {row[0]: row[1] for row in result.rows}
        assert by_kind["static"] > by_kind["measured"]

    def test_both_variants_stay_under_budget(self):
        result = run_maxbips_prediction(quick=True)
        for _kind, _deg, _mean, max_power in result.rows:
            assert max_power <= 0.8 + 1e-6


class TestEnergyFloor:
    def test_looser_floor_saves_more_power(self):
        result = run_energy_floor(quick=True)
        floors = [row[0] for row in result.rows]
        saved = [row[2] for row in result.rows]
        assert floors == sorted(floors, reverse=True)
        assert saved == sorted(saved)  # monotone: lower floor, more saved

    def test_power_saved_exceeds_perf_cost(self):
        """The policy's point: each saved watt costs less than a
        proportional amount of throughput."""
        result = run_energy_floor(quick=True)
        for _floor, _power, saved, degradation in result.rows:
            if saved > 0.02:
                assert saved > degradation
