"""Fault injection for robustness studies.

The paper's headline robustness claim is analytic: the closed loop stays
stable for any true system gain up to ``g`` times the design gain
(Eq. 13).  Real deployments face messier failures — sensors that stick,
transducers that drift, actuators that quantize or lag.  This module
provides composable faults that corrupt a CPM scheme's sensing and
actuation paths, so the stability and graceful-degradation claims can be
exercised end to end (see ``tests/test_fault_injection.py``).

Faults wrap a :class:`~repro.core.cpm.CPMScheme` (or any scheme exposing
its :class:`~repro.pic.bank.PICBank` as ``bank``) and are applied at
``bind`` time::

    scheme = CPMScheme()
    faulty = inject(scheme, BiasedTransducer(bias=+0.01), StuckSensor(...))

Two fault families coexist:

* **bind-time faults** (the originals) corrupt the paths for the whole
  run — gain error, calibration bias, sensor noise;
* **scheduled faults** carry a :class:`FaultWindow` and activate/clear at
  scripted simulator ticks — transient sensor dropout, stuck-at
  actuator, missed GPM invocations.  These drive the chaos harness
  (``repro chaos``): a fault that *clears* is what lets recovery latency
  be measured.

Sensing and actuation faults register hooks on the bank's two stages: a
sensor hook rewrites each tick's utilization list before the sensor
guard sees it, an actuator hook rewrites the frequency requests (PID and
fail-safe alike) before the ladder clamp.  Calibration faults rescale the
bank's gains or shift its transducers.  Hooks read ``sim.tick`` at call
time, never a wall clock, so faulty runs stay bit-identical across
``jobs=N``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import SeedSequenceFactory

__all__ = [
    "BiasedTransducer",
    "Fault",
    "FaultWindow",
    "FaultySchemeWrapper",
    "GainError",
    "LaggedActuator",
    "MissedGPMFault",
    "NoisySensor",
    "ScheduledStuckSensor",
    "StuckActuatorFault",
    "StuckSensor",
    "TransientSensorDropout",
    "inject",
]


class Fault:
    """Base class: a mutation applied to a bound scheme's controller bank."""

    def apply(self, scheme, sim) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def suppresses_gpm(self, sim) -> bool:
        """Whether the GPM invocation at the current tick should be lost.

        Overridden by :class:`MissedGPMFault`; everything else returns
        False.  Queried by :class:`FaultySchemeWrapper` on every GPM
        tick.
        """
        del sim
        return False


@dataclass(frozen=True)
class FaultWindow:
    """Half-open tick interval ``[start, end)`` during which a fault is live.

    Ticks are PIC intervals (``sim.tick``); multiply GPM intervals by
    ``pics_per_gpm`` to schedule against the supervisor tier.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.end <= self.start:
            raise ValueError("end must be after start")

    def active(self, tick: int) -> bool:
        return self.start <= tick < self.end

    @property
    def duration(self) -> int:
        return self.end - self.start


def _bank_of(scheme, island: int | None = None):
    """The scheme's controller bank, checking ``island`` is one of its."""
    bank = scheme.bank
    if island is not None and island >= bank.n_islands:
        raise ValueError(
            f"island {island} out of range ({bank.n_islands} islands)"
        )
    return bank


def _replaced(values: list, island: int, value) -> list:
    """A copy of ``values`` with entry ``island`` set to ``value``."""
    values = list(values)
    values[island] = value
    return values


@dataclass
class GainError(Fault):
    """The plant's true gain differs from the identified one.

    Implemented by scaling the PID gains *down* by ``multiplier`` —
    equivalent, from the loop's perspective, to the true plant gain being
    ``multiplier`` times the design gain (the quantity Eq. 13 bounds).
    """

    multiplier: float

    def __post_init__(self):
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")

    def apply(self, scheme, sim) -> None:
        bank = _bank_of(scheme)
        bank.gains = bank.gains.scaled(self.multiplier)


@dataclass
class BiasedTransducer(Fault):
    """Systematic sensing offset: every island's sensed power is shifted
    by ``bias`` (fraction of max chip power).  Models calibration drift;
    the integral term cannot remove it because the loop regulates the
    *sensed* value."""

    bias: float

    def apply(self, scheme, sim) -> None:
        bank = _bank_of(scheme)
        bank.k1 = [k1 + self.bias for k1 in bank.k1]


@dataclass
class NoisySensor(Fault):
    """Additive white noise on the utilization reading."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def apply(self, scheme, sim) -> None:
        rng = SeedSequenceFactory(self.seed).generator("faults/noisy-sensor")

        # One stream for every island, drawn in island order each tick.
        def noisy(utilization):
            noise = rng.normal(0.0, self.sigma, size=len(utilization)).tolist()
            return [max(u + e, 0.0) for u, e in zip(utilization, noise)]

        _bank_of(scheme).add_sensor_hook(noisy)


@dataclass
class StuckSensor(Fault):
    """One island's utilization reading freezes at its first value after
    ``stick_after`` invocations — the classic dead-counter failure."""

    island: int
    stick_after: int = 20

    def __post_init__(self):
        if self.island < 0:
            raise ValueError("island must be non-negative")
        if self.stick_after < 0:
            raise ValueError("stick_after must be non-negative")

    def apply(self, scheme, sim) -> None:
        state = {"count": 0, "stuck_value": None}

        def stick(utilization):
            state["count"] += 1
            if state["count"] <= self.stick_after:
                return utilization
            if state["stuck_value"] is None:
                state["stuck_value"] = utilization[self.island]
            return _replaced(utilization, self.island, state["stuck_value"])

        _bank_of(scheme, self.island).add_sensor_hook(stick)


@dataclass
class TransientSensorDropout(Fault):
    """One island's utilization reads NaN while the window is active.

    The nastiest sensor failure: without a guard the NaN flows through
    the EWMA smoother and poisons the PID state for the *rest of the
    run*, not just the dropout — the fault clears but the controller
    never does.
    """

    island: int
    window: FaultWindow

    def apply(self, scheme, sim) -> None:
        def drop(utilization):
            if not self.window.active(sim.tick):
                return utilization
            return _replaced(utilization, self.island, float("nan"))

        _bank_of(scheme, self.island).add_sensor_hook(drop)


@dataclass
class ScheduledStuckSensor(Fault):
    """One island's utilization freezes at its last pre-fault value while
    the window is active, then unsticks — the recoverable variant of
    :class:`StuckSensor`."""

    island: int
    window: FaultWindow

    def apply(self, scheme, sim) -> None:
        state: dict = {"held": None}

        def stick(utilization):
            if not self.window.active(sim.tick):
                state["held"] = None
                return utilization
            if state["held"] is None:
                state["held"] = utilization[self.island]
            return _replaced(utilization, self.island, state["held"])

        _bank_of(scheme, self.island).add_sensor_hook(stick)


@dataclass
class StuckActuatorFault(Fault):
    """One island's DVFS knob ignores commands while the window is active.

    The knob wedges at ``frequency_ghz`` (default: whatever it was when
    the fault struck) — commands from the PID *and* from the sensor
    guard's fail-safe clamp are both lost, exactly like a wedged voltage
    regulator.  Only the GPM tier can contain this one, by provisioning
    around the island; wedging at the top of the ladder is the scenario
    that forces a quarantine.
    """

    island: int
    window: FaultWindow
    #: Frequency the knob wedges at; ``None`` holds the pre-fault value.
    frequency_ghz: float | None = None

    def apply(self, scheme, sim) -> None:
        bank = _bank_of(scheme, self.island)

        def wedge(requested):
            if not self.window.active(sim.tick):
                return requested
            wedged = (
                bank.frequency[self.island]
                if self.frequency_ghz is None
                else self.frequency_ghz
            )
            return _replaced(requested, self.island, wedged)

        bank.add_actuator_hook(wedge)


@dataclass
class MissedGPMFault(Fault):
    """GPM invocations are lost while the window is active.

    Models a hung or preempted supervisor: the islands keep tracking
    stale set-points until the GPM comes back.  Applied by
    :class:`FaultySchemeWrapper` (nothing on the scheme is mutated).
    """

    window: FaultWindow

    def apply(self, scheme, sim) -> None:
        del scheme, sim  # enforced via suppresses_gpm, not mutation

    def suppresses_gpm(self, sim) -> bool:
        return self.window.active(sim.tick)


@dataclass
class LaggedActuator(Fault):
    """Frequency commands take effect one PIC interval late (an extra
    sample of loop delay on top of the inherent one)."""

    def apply(self, scheme, sim) -> None:
        bank = _bank_of(scheme)
        pending = list(bank.frequency)

        def lag(requested):
            delayed = list(pending)
            pending[:] = requested
            return delayed

        bank.add_actuator_hook(lag)


class FaultySchemeWrapper:
    """A scheme decorator that applies faults after the inner bind.

    Unknown attributes delegate to the inner scheme, so telemetry access
    like ``wrapper.log`` or ``wrapper.bank`` works unchanged.
    Re-binding is safe because every bind builds a fresh bank, so the
    faults land on it once.
    """

    def __init__(self, inner, faults: list[Fault]):
        self.inner = inner
        self.faults = list(faults)
        self.name = f"{inner.name}+faults"

    def __getattr__(self, name):
        # Bypass normal lookup for our own storage to avoid recursion
        # while unpickling (inner is absent until __dict__ is restored).
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    def bind(self, sim) -> None:
        self.inner.bind(sim)
        for fault in self.faults:
            fault.apply(self.inner, sim)

    def on_gpm(self, sim) -> None:
        if any(fault.suppresses_gpm(sim) for fault in self.faults):
            return
        self.inner.on_gpm(sim)

    def on_pic(self, sim) -> None:
        self.inner.on_pic(sim)


def inject(scheme, *faults: Fault) -> FaultySchemeWrapper:
    """Wrap ``scheme`` so ``faults`` are applied when it binds."""
    if not faults:
        raise ValueError("need at least one fault")
    return FaultySchemeWrapper(scheme, list(faults))
