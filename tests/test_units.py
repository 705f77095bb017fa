"""Unit-conversion helpers."""

import numpy as np
import pytest

from repro import units


def test_time_conversions():
    assert units.ms(5) == pytest.approx(5e-3)
    assert units.us(2) == pytest.approx(2e-6)
    assert units.ns(100) == pytest.approx(1e-7)


def test_cycles_at_scales_with_frequency():
    # 100 ns at 2 GHz is 200 cycles — the Table I memory latency.
    assert units.cycles_at(100e-9, 2.0) == pytest.approx(200.0)
    # Half the frequency, half the cycles for the same wall-clock time.
    assert units.cycles_at(100e-9, 1.0) == pytest.approx(100.0)


def test_cycles_roundtrip():
    seconds = units.seconds_for_cycles(200.0, 2.0)
    assert units.cycles_at(seconds, 2.0) == pytest.approx(200.0)


def test_bips():
    assert units.bips(2e9, 1.0) == pytest.approx(2.0)
    assert units.bips(1e9, 0.5) == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_invalid_frequency_rejected(bad):
    with pytest.raises(ValueError):
        units.cycles_at(1e-9, bad)
    with pytest.raises(ValueError):
        units.seconds_for_cycles(100, bad)


def test_bips_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        units.bips(1e9, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), np.array([5e-4, float("nan")])])
def test_bips_rejects_nan_interval(bad):
    with pytest.raises(ValueError):
        units.bips(1.0, bad)
