"""Resilience layer: sensor guard, GPM guard, scheduled faults, chaos.

Unit-level tests drive each guard's state machine directly; integration
tests assert the two load-bearing contracts from docs/ROBUSTNESS.md:

* a guarded clean run is **bit-identical** to plain CPM (the guards are
  transparent until something misbehaves), and
* under every scheduled fault scenario the guarded scheme keeps window
  power within tolerance of the budget while the unguarded scheme
  demonstrably crashes or violates in at least one scenario.
"""

import numpy as np
import pytest

from repro.cmpsim.dvfs import DVFSTable
from repro.cmpsim.simulator import Fleet, Simulation
from repro.cmpsim.telemetry import ResilienceLog, WindowStats
from repro.config import DEFAULT_CONFIG
from repro.control.pid import PIDGains
from repro.core.cpm import CPMScheme
from repro.faults import (
    FaultWindow,
    MissedGPMFault,
    ScheduledStuckSensor,
    StuckActuatorFault,
    TransientSensorDropout,
    inject,
)
from repro.gpm import (
    EnergyAwarePolicy,
    PerformanceAwarePolicy,
    ThermalAwarePolicy,
    UniformPolicy,
    VariationAwarePolicy,
)
from repro.gpm.guard import GPMGuard, GPMGuardConfig
from repro.pic.actuator import DVFSActuator
from repro.pic.controller import PerIslandController
from repro.pic.bank import MODE_FAILSAFE, MODE_HOLD, MODE_NOMINAL, SensorGuardConfig
from repro.pic.guard import GuardedPerIslandController
from repro.power.transducer import LinearTransducer
from repro.resilience import GuardedCPMScheme

SMALL = DEFAULT_CONFIG.with_islands(4, 2)
BUDGET = 0.5
GAINS = PIDGains(0.4, 0.15, 0.05)
TRANSDUCER = LinearTransducer(k0=0.35, k1=0.05)


def make_guarded_controller(**kwargs):
    kwargs.setdefault("log", ResilienceLog())
    return GuardedPerIslandController(
        gains=GAINS,
        transducer=TRANSDUCER,
        actuator=DVFSActuator(DVFSTable(), initial_frequency=1.2),
        sensor_smoothing=kwargs.pop("sensor_smoothing", 1.0),
        **kwargs,
    )


def assert_results_identical(a, b):
    for name in a.telemetry._SERIES:
        np.testing.assert_array_equal(
            a.telemetry[name], b.telemetry[name],
            err_msg=f"series {name!r} differs",
        )
    assert a.total_instructions == b.total_instructions


# ---------------------------------------------------------------------------
# Sensor guard state machine
# ---------------------------------------------------------------------------


class TestSensorGuardConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(util_min=1.0, util_max=0.5),
            dict(stuck_window=1),
            dict(stuck_tolerance=-1e-3),
            dict(failsafe_after=0),
            dict(rearm_after=0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SensorGuardConfig(**bad)


class TestSensorGuardStateMachine:
    def test_nan_reading_enters_hold_on_last_known_good(self):
        ctl = make_guarded_controller()
        ctl.invoke(0.2, 0.5)
        assert ctl.mode == MODE_NOMINAL
        inv = ctl.invoke(0.2, float("nan"))
        assert ctl.mode == MODE_HOLD
        assert inv.utilization == 0.5  # held input, not the NaN
        assert ctl.pid.integrator_frozen
        assert ctl.log.count_of("sensor_bad_nan") == 1
        events = ctl.log.events_of("sensor_fault_detected")
        assert len(events) == 1 and events[0].detail == "nan"

    def test_out_of_range_reading_detected(self):
        ctl = make_guarded_controller()
        ctl.invoke(0.2, 7.0)
        assert ctl.mode == MODE_HOLD
        assert ctl.log.count_of("sensor_bad_range") == 1

    def test_stuck_counter_detected_after_window_fills(self):
        guard = SensorGuardConfig(stuck_window=4)
        ctl = make_guarded_controller(guard=guard)
        for _ in range(3):
            ctl.invoke(0.2, 0.5)
        assert ctl.mode == MODE_NOMINAL
        ctl.invoke(0.2, 0.5)  # fourth identical sample fills the window
        assert ctl.mode == MODE_HOLD
        assert ctl.log.count_of("sensor_bad_stuck") == 1

    def test_dithering_readings_never_trip_stuck(self):
        guard = SensorGuardConfig(stuck_window=4)
        ctl = make_guarded_controller(guard=guard)
        for i in range(12):
            ctl.invoke(0.2, 0.5 + 0.001 * (i % 3))
        assert ctl.mode == MODE_NOMINAL

    def test_failsafe_after_streak_pins_floor(self):
        guard = SensorGuardConfig(failsafe_after=3)
        ctl = make_guarded_controller(guard=guard)
        ctl.invoke(0.2, 0.5)
        for _ in range(2):
            ctl.invoke(0.2, float("nan"))
        assert ctl.mode == MODE_HOLD
        inv = ctl.invoke(0.2, float("nan"))
        assert ctl.mode == MODE_FAILSAFE
        assert inv.applied_frequency == ctl.failsafe_frequency
        assert inv.applied_frequency == ctl.actuator.table.f_min
        assert inv.frequency_delta == 0.0
        assert len(ctl.log.events_of("failsafe_entered")) == 1

    def test_rearm_after_good_streak(self):
        guard = SensorGuardConfig(failsafe_after=2, rearm_after=3)
        ctl = make_guarded_controller(guard=guard)
        ctl.invoke(0.2, 0.5)
        for _ in range(2):
            ctl.invoke(0.2, float("nan"))
        assert ctl.mode == MODE_FAILSAFE
        # Two good samples: still degraded (streak incomplete).
        ctl.invoke(0.2, 0.51)
        ctl.invoke(0.2, 0.52)
        assert ctl.mode == MODE_FAILSAFE
        ctl.invoke(0.2, 0.53)
        assert ctl.mode == MODE_NOMINAL
        assert not ctl.pid.integrator_frozen
        assert len(ctl.log.events_of("sensor_rearmed")) == 1

    def test_bad_sample_resets_rearm_streak(self):
        guard = SensorGuardConfig(failsafe_after=2, rearm_after=2)
        ctl = make_guarded_controller(guard=guard)
        for _ in range(2):
            ctl.invoke(0.2, float("nan"))
        ctl.invoke(0.2, 0.5)
        ctl.invoke(0.2, float("nan"))  # interrupts the good streak
        ctl.invoke(0.2, 0.51)
        assert ctl.mode == MODE_FAILSAFE
        ctl.invoke(0.2, 0.52)
        assert ctl.mode == MODE_NOMINAL

    def test_reset_clears_guard_state(self):
        ctl = make_guarded_controller()
        ctl.invoke(0.2, float("nan"))
        assert ctl.mode == MODE_HOLD
        ctl.reset()
        assert ctl.mode == MODE_NOMINAL
        assert not ctl.pid.integrator_frozen
        # A fresh stuck window: old samples must not linger.
        assert len(ctl._recent) == 0

    def test_clean_readings_bit_identical_to_unguarded(self):
        plain = PerIslandController(
            gains=GAINS,
            transducer=TRANSDUCER,
            actuator=DVFSActuator(DVFSTable(), initial_frequency=1.2),
            sensor_smoothing=1.0,
        )
        guarded = make_guarded_controller()
        for i in range(40):
            util = 0.4 + 0.2 * np.sin(0.3 * i)
            a = plain.invoke(0.2, util)
            b = guarded.invoke(0.2, util)
            assert a == b


# ---------------------------------------------------------------------------
# GPM guard
# ---------------------------------------------------------------------------

ISL_MIN = np.array([0.05, 0.05])
ISL_MAX = np.array([0.45, 0.45])
F_FLOOR = 0.6


def make_window(power, setpoints):
    power = np.asarray(power, dtype=float)
    return WindowStats(
        island_power_frac=power,
        island_bips=np.full(power.size, 5.0),
        island_utilization=np.full(power.size, 0.7),
        island_setpoints=np.asarray(setpoints, dtype=float),
        island_energy_j=power * 85.0 * 5e-3,
        island_instructions=np.full(power.size, 5e9 * 5e-3),
        duration_s=5e-3,
    )


def make_guard(**kwargs):
    config = GPMGuardConfig(**kwargs.pop("config", {}))
    return GPMGuard(ISL_MIN, ISL_MAX, config=config, **kwargs)


class TestGPMGuardConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(violation_margin=0.0),
            dict(strikes_to_quarantine=0),
            dict(windows_to_restore=0),
            dict(reserve_headroom=-0.1),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            GPMGuardConfig(**bad)


class TestGPMGuard:
    FREQ_HIGH = np.array([2.0, 2.0])

    def violate(self, guard, times=2):
        """Feed ``times`` windows where island 0 ignores its cap."""
        sp = np.array([0.15, 0.25])
        for _ in range(times):
            window = make_window([0.44, 0.25], sp)
            sp = guard.review(
                sp, [window], BUDGET,
                island_frequency=self.FREQ_HIGH, f_floor=F_FLOOR,
            )
        return sp

    def test_transparent_on_healthy_telemetry(self):
        guard = make_guard()
        sp = np.array([0.2, 0.25])
        window = make_window([0.2, 0.25], sp)
        out = guard.review(
            sp, [window], BUDGET,
            island_frequency=self.FREQ_HIGH, f_floor=F_FLOOR,
        )
        np.testing.assert_array_equal(out, sp)
        assert not guard.quarantined.any()

    def test_transparent_without_telemetry(self):
        guard = make_guard()
        sp = np.array([0.2, 0.25])
        out = guard.review(sp, [], BUDGET)
        np.testing.assert_array_equal(out, sp)

    def test_quarantine_after_strikes(self):
        guard = make_guard()
        out = self.violate(guard, times=2)
        assert guard.quarantined[0] and not guard.quarantined[1]
        assert len(guard.log.events_of("island_quarantined")) == 1
        # The bad island is commanded to its floor and the enforced total
        # leaves room for its reserved (actual) draw.
        assert out[0] == ISL_MIN[0]
        reserved = 0.44 * 1.1  # measured x (1 + headroom), clipped to max
        assert out.sum() <= BUDGET - min(reserved, ISL_MAX[0]) + out[0] + 1e-9

    def test_single_strike_does_not_quarantine(self):
        guard = make_guard()
        self.violate(guard, times=1)
        assert not guard.quarantined.any()
        assert guard.log.count_of("cap_violation_window") == 1

    def test_islands_at_floor_never_strike(self):
        guard = make_guard()
        sp = np.array([0.06, 0.25])
        window = make_window([0.2, 0.25], sp)  # island 0 overdraws hugely
        at_floor = np.array([F_FLOOR, 2.0])
        for _ in range(3):
            guard.review(
                sp, [window], BUDGET,
                island_frequency=at_floor, f_floor=F_FLOOR,
            )
        assert not guard.quarantined.any()

    def test_restore_after_floor_obedience(self):
        guard = make_guard()
        self.violate(guard, times=2)
        assert guard.quarantined[0]
        sp = np.array([ISL_MIN[0], 0.25])
        window = make_window([0.1, 0.25], sp)
        at_floor = np.array([F_FLOOR, 2.0])
        for _ in range(2):  # windows_to_restore
            guard.review(
                sp, [window], BUDGET,
                island_frequency=at_floor, f_floor=F_FLOOR,
            )
        assert not guard.quarantined[0]
        assert len(guard.log.events_of("island_restored")) == 1

    def test_underuse_reclaim_caps_floor_island(self):
        guard = make_guard()
        # Island 0 pinned at the floor, drawing far below its set-point.
        sp = np.array([0.3, 0.15])
        window = make_window([0.08, 0.15], sp)
        at_floor = np.array([F_FLOOR, 2.0])
        out = guard.review(
            sp, [window], BUDGET,
            island_frequency=at_floor, f_floor=F_FLOOR,
        )
        assert guard.log.count_of("budget_reclaimed") == 1
        # Its set-point is capped near its measured draw...
        assert out[0] <= 0.08 * 1.1 + 1e-9
        # ...and the freed budget flows to the healthy island.
        assert out[1] > sp[1]

    def test_conservation_backstop_rescales(self):
        guard = make_guard()
        out = guard.review(np.array([0.4, 0.4]), [], BUDGET)
        assert out.sum() <= BUDGET + 1e-9
        assert len(guard.log.events_of("conservation_rescale")) == 1

    def test_self_constrained_never_grows_setpoints(self):
        guard = make_guard(self_constrained=True)
        self.violate(guard, times=2)
        assert guard.quarantined[0]
        sp = np.array([0.15, 0.2])
        window = make_window([0.44, 0.2], sp)
        out = guard.review(
            sp, [window], BUDGET,
            island_frequency=self.FREQ_HIGH, f_floor=F_FLOOR,
        )
        assert out[1] <= sp[1] + 1e-12  # shrink-only for healthy islands

    def test_shape_mismatch_rejected(self):
        guard = make_guard()
        with pytest.raises(ValueError):
            guard.review(np.array([0.1, 0.2, 0.3]), [], BUDGET)


# ---------------------------------------------------------------------------
# Scheduled faults and the wrapper
# ---------------------------------------------------------------------------


class TestFaultWindow:
    def test_half_open_interval(self):
        w = FaultWindow(10, 20)
        assert not w.active(9)
        assert w.active(10) and w.active(19)
        assert not w.active(20)
        assert w.duration == 10

    @pytest.mark.parametrize("bad", [(-1, 5), (5, 5), (8, 2)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            FaultWindow(*bad)


class TestFaultySchemeWrapper:
    def run_small(self, scheme, n_gpm=6):
        sim = Simulation(SMALL, scheme, budget_fraction=BUDGET, seed=9)
        return sim.run(n_gpm)

    def test_getattr_delegates_to_inner(self):
        inner = CPMScheme()
        wrapped = inject(inner, MissedGPMFault(FaultWindow(0, 10)))
        assert wrapped.policy is inner.policy
        with pytest.raises(AttributeError):
            wrapped.does_not_exist

    def test_rebind_does_not_stack_faults(self):
        fault = StuckActuatorFault(0, FaultWindow(20, 40), frequency_ghz=99.0)
        wrapped = inject(CPMScheme(), fault)
        self.run_small(wrapped)
        second = self.run_small(wrapped)  # re-bind on a fresh simulation
        fresh = self.run_small(
            inject(CPMScheme(), StuckActuatorFault(
                0, FaultWindow(20, 40), frequency_ghz=99.0)),
        )
        assert_results_identical(second, fresh)

    def test_missed_gpm_suppresses_provisioning(self):
        class Probe(CPMScheme):
            gpm_ticks: list = []

            def on_gpm(self, sim):
                Probe.gpm_ticks.append(sim.tick)
                super().on_gpm(sim)

        Probe.gpm_ticks = []
        wrapped = inject(Probe(), MissedGPMFault(FaultWindow(20, 40)))
        self.run_small(wrapped)
        assert Probe.gpm_ticks  # GPM ran outside the window
        assert not any(20 <= t < 40 for t in Probe.gpm_ticks)

    def test_transient_dropout_crashes_unguarded(self):
        wrapped = inject(
            CPMScheme(), TransientSensorDropout(0, FaultWindow(20, 40))
        )
        with pytest.raises(Exception):
            self.run_small(wrapped)

    def test_transient_dropout_fails_at_the_tick_its_nan_is_applied(self):
        # The unguarded PID turns the NaN reading into a NaN frequency
        # request; the chip kernel's ladder check rejects it on the tick
        # it would take effect, before any NaN power is computed.
        sim = Simulation(
            SMALL,
            inject(CPMScheme(), TransientSensorDropout(0, FaultWindow(20, 40))),
            budget_fraction=BUDGET,
            seed=9,
        )
        with pytest.raises(ValueError, match="outside ladder"):
            sim.run(6)
        assert sim.tick == 20
        assert np.isnan(sim.chip.island_frequency[0])
        assert np.isfinite(sim.telemetry.finalize()["chip_power_frac"]).all()

    def test_transient_dropout_survived_by_guarded(self):
        base = GuardedCPMScheme()
        wrapped = inject(base, TransientSensorDropout(0, FaultWindow(20, 40)))
        self.run_small(wrapped)
        assert base.log.count_of("sensor_bad_nan") > 0
        assert len(base.log.events_of("sensor_fault_detected")) >= 1

    def test_stuck_sensor_holds_pre_window_reading(self):
        base = GuardedCPMScheme()
        wrapped = inject(base, ScheduledStuckSensor(0, FaultWindow(20, 40)))
        self.run_small(wrapped)
        assert base.log.count_of("sensor_bad_stuck") > 0


# ---------------------------------------------------------------------------
# Guarded scheme: clean-run transparency
# ---------------------------------------------------------------------------


class TestGuardedTransparency:
    @pytest.mark.parametrize(
        "policy",
        [PerformanceAwarePolicy, ThermalAwarePolicy, EnergyAwarePolicy,
         UniformPolicy, VariationAwarePolicy],
    )
    def test_clean_run_bit_identical_to_plain_cpm(self, policy):
        plain = Simulation(
            SMALL, CPMScheme(policy=policy()),
            budget_fraction=BUDGET, seed=11,
        ).run(8)
        scheme = GuardedCPMScheme(policy=policy())
        guarded = Simulation(
            SMALL, scheme, budget_fraction=BUDGET, seed=11
        ).run(8)
        assert_results_identical(plain, guarded)
        # Transparent means *no* resilience interventions fired.
        assert len(scheme.log.events) == 0

    def test_rerun_resets_the_log(self):
        scheme = GuardedCPMScheme()
        wrapped = inject(scheme, TransientSensorDropout(0, FaultWindow(20, 30)))
        Simulation(SMALL, wrapped, budget_fraction=BUDGET, seed=9).run(6)
        first = scheme.log.count_of("sensor_bad_nan")
        Simulation(SMALL, wrapped, budget_fraction=BUDGET, seed=9).run(6)
        assert scheme.log.count_of("sensor_bad_nan") == first  # not doubled


# ---------------------------------------------------------------------------
# Chaos harness acceptance
# ---------------------------------------------------------------------------

pytestmark_slow = pytest.mark.slow


@pytest.mark.slow
class TestChaosAcceptance:
    @pytest.fixture(scope="class")
    def outcomes(self):
        from repro.experiments.chaos import run_cases

        return run_cases(seed=12345, quick=True)

    def test_guarded_never_violates_the_budget(self, outcomes):
        guarded = [o for o in outcomes if o.guarded]
        assert guarded
        for o in guarded:
            assert not o.crashed, o.scenario
            assert o.violation_rate == 0.0, o.scenario

    def test_unguarded_demonstrably_fails_somewhere(self, outcomes):
        unguarded = [o for o in outcomes if not o.guarded]
        assert any(o.crashed or o.violation_rate > 0.0 for o in unguarded)

    def test_guarded_sensor_faults_recover_within_bounds(self, outcomes):
        for o in outcomes:
            if o.guarded and o.scenario in ("stuck-sensor", "sensor-dropout"):
                # Documented bound: detection <= 14 PIC ticks, re-arm
                # within rearm_after of the fault clearing; allow a few
                # windows of settling on top.
                assert o.recovery_ticks is not None, o.scenario
                assert o.recovery_ticks <= 40, o.scenario

    def test_guard_events_logged_for_fault_scenarios(self, outcomes):
        for o in outcomes:
            if not o.guarded or o.scenario == "missed-gpm":
                continue
            assert o.guard_counts, o.scenario


@pytest.mark.slow
class TestChaosCache:
    def test_warm_grid_resimulates_only_the_crash(self, monkeypatch, tmp_path):
        """Every chaos run is cached except the quarantined crash."""
        from repro.experiments.chaos import run_cases

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        cold = run_cases(quick=True)
        simulated = []
        original = Fleet.run

        def recording_run(fleet, n_gpm_intervals):
            simulated.extend(sim.scheme for sim in fleet.members)
            return original(fleet, n_gpm_intervals)

        monkeypatch.setattr(Fleet, "run", recording_run)
        warm = run_cases(quick=True)
        (scheme,) = simulated
        assert type(scheme.inner) is CPMScheme
        assert [type(f) for f in scheme.faults] == [TransientSensorDropout]
        # repr, not ==: a crash's NaN BIPS loss never equals itself.
        assert repr(warm) == repr(cold)


@pytest.mark.slow
class TestGuardedBudgetProperty:
    """Every fault scenario x every GPM policy keeps power within budget."""

    POLICIES = (PerformanceAwarePolicy, ThermalAwarePolicy, EnergyAwarePolicy,
                UniformPolicy, VariationAwarePolicy)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "scenario",
        ["stuck-sensor", "sensor-dropout", "stuck-actuator", "missed-gpm"],
    )
    def test_window_power_stays_bounded(self, scenario, policy):
        from repro.experiments.chaos import (
            BUDGET_TOLERANCE,
            DETECTION_GRACE_WINDOWS,
            _make_fault,
            _window_power,
        )

        window = FaultWindow(30, 60)
        scheme = inject(
            GuardedCPMScheme(policy=policy()), _make_fault(scenario, window)
        )
        result = Simulation(
            SMALL, scheme, budget_fraction=BUDGET, seed=12345
        ).run(9)
        pics = SMALL.control.pics_per_gpm
        onset_window = window.start // pics
        post = _window_power(result)[onset_window + DETECTION_GRACE_WINDOWS:]
        assert post.size
        assert np.all(np.isfinite(post))
        assert np.all(post <= BUDGET * (1.0 + BUDGET_TOLERANCE)), scenario
