"""Unit conventions and conversion helpers used across the library.

The whole library sticks to one set of internal units so that numeric
constants never need per-module interpretation:

==============  ==========================================
quantity        internal unit
==============  ==========================================
time            seconds
frequency       GHz (clock rate of a core / island)
voltage         volts
power           watts (absolute) or *fraction of max chip
                power* when a value is documented as a
                "share" / "budget"
temperature     degrees Celsius
energy          joules
instructions    raw counts; throughput reported in BIPS
                (billions of instructions per second)
==============  ==========================================

Power *budgets*, *set-points* and every per-interval power series that an
experiment reports follow the paper's convention of being expressed as a
fraction of the maximum chip power (e.g. the default chip-wide budget is
``0.8``, i.e. "80% of maximum chip power").

This table is machine-checked: each row has a matching annotation alias
in :mod:`repro.unit_types` (``Seconds``, ``GigaHz``, ``Volts``,
``Watts``/``PowerFraction``, ``Celsius``, ``Joules``, ``Bips``), and the
``dimensions`` pass of :mod:`repro.lintkit` statically verifies that
annotated values never cross scales or quantities without going through
the helpers below.  The rule catalogue (DIM001–DIM005) is documented in
``docs/INVARIANTS.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# Annotations only (never read at run time), so importing this module
# loads neither NumPy nor the alias module: the stdlib-only linter reads
# its constants.
if TYPE_CHECKING:
    from .unit_types import (
        BipsLike,
        GigaHz,
        Joules,
        Microseconds,
        Milliseconds,
        Nanojoules,
        Nanoseconds,
        Seconds,
        SecondsLike,
    )

__all__ = [
    "EPS",
    "GHZ_TO_HZ",
    "MICRO",
    "MICROSECONDS",
    "MILLI",
    "MILLISECONDS",
    "NANOSECONDS",
    "NJ_PER_J",
    "NS_PER_S",
    "approx_eq",
    "bips",
    "cycles_at",
    "ms",
    "ns",
    "to_nj",
    "to_ns",
    "us",
]

MILLISECONDS = 1e-3
MICROSECONDS = 1e-6
NANOSECONDS = 1e-9

GHZ_TO_HZ = 1e9

#: Nanoseconds in one second (seconds -> nanoseconds multiplier).
NS_PER_S = 1e9

#: Nanojoules in one joule (joules -> nanojoules multiplier); energy-per-
#: instruction figures are conventionally quoted in nJ/instruction.
NJ_PER_J = 1e9

#: Dimensionless SI prefix multipliers, for floors/resolutions that are
#: "a thousandth / a millionth of the quantity's natural scale".
MILLI = 1e-3
MICRO = 1e-6

#: Default absolute tolerance for "are these two internal-unit quantities
#: the same" comparisons (and for guarding divisions by almost-zero).
#: One part in 10^9 is far below every physical resolution in the model
#: (frequency steps are 0.2 GHz, intervals 0.5 ms, powers ~watts).
EPS = 1e-9


def approx_eq(a: float, b: float) -> bool:
    """True when ``a`` and ``b`` agree to within :data:`EPS` (absolute)."""
    return abs(a - b) <= EPS


def ms(value: Milliseconds) -> Seconds:
    """Convert milliseconds to seconds."""
    return value * MILLISECONDS


def us(value: Microseconds) -> Seconds:
    """Convert microseconds to seconds."""
    return value * MICROSECONDS


def ns(value: Nanoseconds) -> Seconds:
    """Convert nanoseconds to seconds."""
    return value * NANOSECONDS


def to_ns(value: Seconds) -> Nanoseconds:
    """Convert seconds to nanoseconds (latency tables, cycle math)."""
    return value * NS_PER_S


def to_nj(value: Joules) -> Nanojoules:
    """Convert joules to nanojoules (energy-per-instruction figures)."""
    return value * NJ_PER_J


def cycles_at(latency_seconds: Seconds, frequency_ghz: GigaHz) -> float:
    """Number of core cycles a fixed wall-clock latency occupies.

    This is the conversion at the heart of the memory-boundness effect: an
    off-chip access costs a constant number of *seconds*, so it costs
    ``latency * f`` *cycles* — more cycles at higher frequency, which is why
    scaling up the clock does not speed up memory-bound code.
    """
    if frequency_ghz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_ghz}")
    return latency_seconds * frequency_ghz * GHZ_TO_HZ


def bips(instructions, seconds: SecondsLike, check: bool = True) -> BipsLike:
    """Throughput in billions of instructions per second.

    Vectorized: either argument may be a scalar or a numpy array (aligned
    shapes), matching the per-core accounting in the simulator.
    ``check=False`` skips the interval validation, for the chip kernel,
    which validates its interval once per run.
    """
    if check:
        import numpy as np

        # Written as "not > 0" so a NaN interval is rejected too.
        if not np.all(np.asarray(seconds) > 0.0):
            raise ValueError(f"interval must be positive, got {seconds}")
    return instructions / seconds / 1e9
