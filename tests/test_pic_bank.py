"""The PIC bank equals, bit for bit, the scalar controllers it flattens.

:class:`~repro.pic.bank.PICBank` is the run path's second tier; the
per-island :class:`~repro.pic.controller.PerIslandController` and
:class:`~repro.pic.guard.GuardedPerIslandController` stay as public API
and as the oracle here.  Each property steps a bank and a list of scalar
controllers on the same readings and compares every per-island output
and state variable byte for byte after every step.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmpsim.dvfs import DVFSTable
from repro.cmpsim.telemetry import ResilienceLog
from repro.control.pid import PIDGains
from repro.pic.actuator import DVFSActuator
from repro.pic.bank import SENSOR_SMOOTHING, PICBank, SensorGuardConfig
from repro.pic.controller import PerIslandController
from repro.pic.guard import GuardedPerIslandController
from repro.power.transducer import LinearTransducer

TABLE = DVFSTable()
LADDER = TABLE.frequencies.tolist()


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def banks(draw, guarded: bool):
    """Bank parameters plus a reading sequence for ``n`` islands."""
    n = draw(st.integers(1, 5))
    gain = st.floats(-0.5, 3.0, allow_subnormal=False)
    params = {
        "gains": PIDGains(draw(gain), draw(gain), draw(gain)),
        "transducers": [
            LinearTransducer(
                k0=draw(st.floats(0.01, 0.5)), k1=draw(st.floats(-0.05, 0.05))
            )
            for _ in range(n)
        ],
        "quantized": draw(st.booleans()),
        "initial_frequency": draw(
            st.one_of(st.none(), st.sampled_from(LADDER), st.floats(0.0, 3.0))
        ),
        "max_step_ghz": draw(st.floats(0.01, 2.0)),
    }
    if guarded:
        params["guard"] = SensorGuardConfig(
            stuck_window=draw(st.integers(2, 4)),
            failsafe_after=draw(st.integers(1, 4)),
            rearm_after=draw(st.integers(1, 3)),
            failsafe_frequency_ghz=draw(
                st.one_of(st.none(), st.floats(0.0, 3.0))
            ),
        )
    # Set-points at 0 and 1 drive islands into both ladder walls.
    setpoint = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.6))
    reading = st.floats(0.0, 1.2)
    if guarded:
        reading = st.one_of(
            reading,
            st.sampled_from([math.nan, math.inf, -0.5, 7.0]),
            st.just("repeat"),
        )
    ticks = []
    previous = [0.5] * n
    for _ in range(draw(st.integers(1, 30))):
        setpoints = draw(st.lists(setpoint, min_size=n, max_size=n))
        readings = draw(st.lists(reading, min_size=n, max_size=n))
        # "repeat" re-sends the island's previous reading: a stuck counter.
        readings = [p if r == "repeat" else r for p, r in zip(previous, readings)]
        previous = readings
        ticks.append((setpoints, readings))
    return params, ticks


def scalar_controllers(params, log=None):
    controllers = []
    for island, transducer in enumerate(params["transducers"]):
        actuator = DVFSActuator(
            TABLE,
            quantized=params["quantized"],
            initial_frequency=params["initial_frequency"],
        )
        common = dict(
            gains=params["gains"],
            transducer=transducer,
            actuator=actuator,
            max_step_ghz=params["max_step_ghz"],
            sensor_smoothing=SENSOR_SMOOTHING,
        )
        if "guard" in params:
            controllers.append(
                GuardedPerIslandController(
                    guard=params["guard"], log=log, island=island, **common
                )
            )
        else:
            controllers.append(PerIslandController(**common))
    return controllers


def assert_bank_matches(params, ticks, guarded):
    bank_log, scalar_log = ResilienceLog(), ResilienceLog()
    bank = PICBank(table=TABLE, log=bank_log if guarded else None, **params)
    controllers = scalar_controllers(params, scalar_log)
    assert bits(bank.frequency) == bits([c.frequency for c in controllers])
    for t, (setpoints, readings) in enumerate(ticks):
        bank_log.now = scalar_log.now = t
        bank.step(setpoints, readings)
        invocations = [
            c.invoke(s, u) for c, s, u in zip(controllers, setpoints, readings)
        ]
        where = f"tick {t}"
        assert bits(bank.sensed_power) == bits(
            [i.sensed_power for i in invocations]
        ), where
        assert bits(bank.frequency) == bits(
            [i.applied_frequency for i in invocations]
        ), where
        assert bits(bank.integral) == bits(
            [c.pid.integral for c in controllers]
        ), where
        assert bank.saturation == [c.pid._saturated_sign for c in controllers], where
        assert bank.integrator_frozen == [
            c.pid.integrator_frozen for c in controllers
        ], where
    if guarded:
        assert bank_log.events == scalar_log.events
        assert bank_log.counts == scalar_log.counts


@given(case=banks(guarded=False))
@settings(max_examples=150, deadline=None)
def test_bank_equals_scalar_controllers(case):
    params, ticks = case
    assert_bank_matches(params, ticks, guarded=False)


@given(case=banks(guarded=True))
@settings(max_examples=150, deadline=None)
def test_guarded_bank_equals_guarded_controllers(case):
    params, ticks = case
    assert_bank_matches(params, ticks, guarded=True)


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize(
    "setpoint, wall", [(1.0, +1), (0.0, -1)], ids=["ceiling", "floor"]
)
def test_bank_pins_at_both_ladder_walls(quantized, setpoint, wall):
    """A set-point no frequency can reach drives the island to the wall,
    where the ladder clamp (not the PID limit) reports the saturation."""
    params = {
        "gains": PIDGains(0.5, 0.5, 0.0),
        "transducers": [LinearTransducer(k0=0.3, k1=0.0)] * 2,
        "quantized": quantized,
        "initial_frequency": 1.3,
        "max_step_ghz": 0.3,
    }
    ticks = [([setpoint] * 2, [0.4, 0.9])] * 12
    assert_bank_matches(params, ticks, guarded=False)
    bank = PICBank(table=TABLE, **params)
    for setpoints, readings in ticks:
        bank.step(setpoints, readings)
    edge = TABLE.f_max if wall > 0 else TABLE.f_min
    assert bank.frequency == [edge, edge]
    assert bank.saturation == [wall, wall]


def test_hooks_run_last_added_first():
    bank = PICBank(
        PIDGains(0.1, 0.1, 0.0), [LinearTransducer(k0=0.2, k1=0.0)], TABLE
    )
    seen = []
    bank.add_sensor_hook(lambda u: seen.append("first") or u)
    bank.add_sensor_hook(lambda u: seen.append("second") or u)
    bank.add_actuator_hook(lambda f: seen.append("third") or f)
    bank.add_actuator_hook(lambda f: seen.append("fourth") or f)
    bank.step([0.1], [0.5])
    assert seen == ["second", "first", "fourth", "third"]


class TestValidation:
    def make(self, **kwargs):
        return PICBank(
            PIDGains(1, 1, 1), [LinearTransducer(k0=0.2, k1=0.0)], TABLE, **kwargs
        )

    @pytest.mark.parametrize("max_step", [0.0, -1.0, math.nan])
    def test_max_step_must_be_positive(self, max_step):
        with pytest.raises(ValueError):
            self.make(max_step_ghz=max_step)

    @pytest.mark.parametrize("f0", [math.nan, math.inf, -math.inf])
    def test_initial_frequency_must_be_finite(self, f0):
        with pytest.raises(ValueError):
            self.make(initial_frequency=f0)

    def test_guard_needs_a_log(self):
        with pytest.raises(ValueError):
            self.make(guard=SensorGuardConfig())

    def test_needs_an_island(self):
        with pytest.raises(ValueError):
            PICBank(PIDGains(1, 1, 1), [], TABLE)
