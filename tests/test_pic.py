"""PIC tier: actuator semantics and the per-island controller loop."""

import numpy as np
import pytest

from repro.cmpsim.dvfs import DVFSTable
from repro.control.pid import PIDGains
from repro.control.pole_placement import design_pid
from repro.pic.actuator import DVFSActuator
from repro.pic.controller import PerIslandController
from repro.power.transducer import LinearTransducer

POLES = (-0.15 + 0j, 0.35 + 0.25j, 0.35 - 0.25j)


class TestDVFSActuator:
    def test_starts_at_top(self):
        act = DVFSActuator(DVFSTable())
        assert act.frequency == 2.0

    def test_delta_application(self):
        act = DVFSActuator(DVFSTable(), initial_frequency=1.4)
        assert act.apply_delta(-0.2) == pytest.approx(1.2)
        assert act.apply_delta(0.05) == pytest.approx(1.25)

    def test_clamping_and_saturation_flags(self):
        act = DVFSActuator(DVFSTable(), initial_frequency=1.9)
        assert act.apply_delta(0.5) == 2.0
        assert act.last_saturation == 1
        act.apply(0.1)
        assert act.frequency == 0.6
        assert act.last_saturation == -1
        act.apply(1.3)
        assert act.last_saturation == 0

    def test_quantized_mode(self):
        act = DVFSActuator(DVFSTable(), quantized=True, initial_frequency=1.3)
        assert act.frequency in (1.2, 1.4)
        applied = act.apply(1.33)
        assert applied == pytest.approx(1.4)

    @pytest.mark.parametrize("f0", [float("nan"), float("inf")])
    def test_non_finite_initial_frequency_rejected(self, f0):
        with pytest.raises(ValueError):
            DVFSActuator(DVFSTable(), initial_frequency=f0)

    def test_reset(self):
        act = DVFSActuator(DVFSTable())
        act.apply(0.8)
        act.reset()
        assert act.frequency == 2.0
        assert act.last_saturation == 0
        act.reset(1.4)
        assert act.frequency == 1.4


class FakeIsland:
    """Island power model for controller loop tests.

    Power responds to frequency through a known gain; utilization is the
    (noisy) inverse of the transducer so sensing is consistent.
    """

    def __init__(self, transducer: LinearTransducer, gain: float):
        self.transducer = transducer
        self.gain = gain
        self.frequency = 1.3
        self.power = 0.12

    def apply_frequency(self, f: float) -> None:
        delta = f - self.frequency
        self.frequency = f
        self.power = float(np.clip(self.power + self.gain * delta, 0.01, 0.3))

    def utilization(self) -> float:
        t = self.transducer
        return (self.power - t.k1) / t.k0


class TestPerIslandController:
    GAIN = 0.13
    TRANSDUCER = LinearTransducer(k0=0.32, k1=-0.06)

    def controller(self, **kwargs):
        gains = design_pid(self.GAIN, POLES)
        return PerIslandController(
            gains=gains,
            transducer=self.TRANSDUCER,
            actuator=DVFSActuator(DVFSTable(), initial_frequency=1.3),
            sensor_smoothing=kwargs.pop("sensor_smoothing", 1.0),
            **kwargs,
        )

    def run_loop(self, controller, island, setpoint, steps=30):
        invocations = []
        for _ in range(steps):
            inv = controller.invoke(setpoint, island.utilization())
            island.apply_frequency(inv.applied_frequency)
            invocations.append(inv)
        return invocations

    def test_tracks_setpoint(self):
        island = FakeIsland(self.TRANSDUCER, self.GAIN)
        controller = self.controller()
        self.run_loop(controller, island, setpoint=0.16)
        assert island.power == pytest.approx(0.16, abs=0.002)

    def test_settles_within_paper_bounds(self):
        """5-6 invocations to settle, like the paper's PIC."""
        island = FakeIsland(self.TRANSDUCER, self.GAIN)
        controller = self.controller()
        invocations = self.run_loop(controller, island, setpoint=0.16, steps=12)
        errors = [abs(inv.error) / 0.16 for inv in invocations]
        assert all(e < 0.03 for e in errors[6:])

    def test_tracks_downward(self):
        island = FakeIsland(self.TRANSDUCER, self.GAIN)
        island.power = 0.2
        island.frequency = 1.9
        controller = self.controller()
        controller.actuator.reset(1.9)
        self.run_loop(controller, island, setpoint=0.10)
        assert island.power == pytest.approx(0.10, abs=0.003)

    def test_saturation_at_ladder_bottom(self):
        """An unreachable set-point parks the island at f_min without
        winding up, and recovery is immediate."""
        island = FakeIsland(self.TRANSDUCER, self.GAIN)
        controller = self.controller()
        self.run_loop(controller, island, setpoint=0.0001, steps=20)
        assert controller.frequency == pytest.approx(0.6)
        # Raise the set-point: must move off the floor within a few steps.
        invs = self.run_loop(controller, island, setpoint=0.15, steps=6)
        assert invs[-1].applied_frequency > 0.7

    def test_invocation_record_consistency(self):
        controller = self.controller()
        inv = controller.invoke(0.15, 0.6)
        assert inv.setpoint == 0.15
        assert inv.utilization == 0.6
        assert inv.sensed_power == pytest.approx(self.TRANSDUCER(0.6))
        assert inv.error == pytest.approx(0.15 - self.TRANSDUCER(0.6))

    def test_sensor_smoothing_filters(self):
        controller = self.controller(sensor_smoothing=0.5)
        controller.invoke(0.15, 0.8)
        inv = controller.invoke(0.15, 0.0)
        # Smoothed utilization is 0.4, not 0.
        assert inv.sensed_power == pytest.approx(self.TRANSDUCER(0.4))

    def test_reset_clears_everything(self):
        controller = self.controller(sensor_smoothing=0.5)
        controller.invoke(0.15, 0.8)
        controller.reset(1.0)
        assert controller.frequency == 1.0
        inv = controller.invoke(0.15, 0.6)
        assert inv.sensed_power == pytest.approx(self.TRANSDUCER(0.6))

    def test_validation(self):
        with pytest.raises(ValueError):
            self.controller(max_step_ghz=0.0)
        with pytest.raises(ValueError):
            self.controller(max_step_ghz=float("nan"))
        with pytest.raises(ValueError):
            PerIslandController(
                gains=PIDGains(1, 1, 1),
                transducer=self.TRANSDUCER,
                actuator=DVFSActuator(DVFSTable()),
                sensor_smoothing=0.0,
            )
