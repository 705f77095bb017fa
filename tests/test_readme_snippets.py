"""The README's code snippets actually work.

Documentation rot is a real failure mode for a library of this size;
these tests execute the behaviours the README promises.
"""

import pytest

pytestmark = pytest.mark.slow


def test_quickstart_snippet():
    from repro import DEFAULT_CONFIG, run_cpm

    result = run_cpm(DEFAULT_CONFIG, budget_fraction=0.8, n_gpm_intervals=6)
    assert 0.6 < result.mean_chip_power_frac < 0.9
    assert result.telemetry["island_power_frac"].shape[1] == 4


def test_calibration_snippet():
    from repro import DEFAULT_CONFIG, default_calibration

    cal = default_calibration(DEFAULT_CONFIG)
    assert cal.system_gain > 0
    assert cal.pid_gains.kp > 0
    assert cal.validation_error < 0.10
    assert cal.stability_limit > 1.0


def test_policy_swap_snippet():
    from repro import DEFAULT_CONFIG, ThermalAwarePolicy, run_cpm

    result = run_cpm(
        DEFAULT_CONFIG,
        policy=ThermalAwarePolicy(),
        budget_fraction=0.8,
        n_gpm_intervals=4,
    )
    assert result.scheme_name == "cpm"


def test_fault_injection_snippet():
    from repro import CPMScheme, DEFAULT_CONFIG, Simulation
    from repro.faults import GainError, StuckSensor, inject

    scheme = inject(CPMScheme(), GainError(multiplier=1.4), StuckSensor(island=2))
    result = Simulation(DEFAULT_CONFIG, scheme, budget_fraction=0.8).run(3)
    assert result.telemetry.n_intervals == 30


def test_record_replay_snippet(tmp_path):
    from repro import DEFAULT_CONFIG, NoManagementScheme, Simulation
    from repro.workloads import RecordedWorkload, record

    capture = record(DEFAULT_CONFIG, n_ticks=20)
    path = capture.save(tmp_path / "wl.npz")
    loaded = RecordedWorkload.load(path)
    result = Simulation(DEFAULT_CONFIG, NoManagementScheme(), workload=loaded).run(2)
    assert result.total_instructions > 0
