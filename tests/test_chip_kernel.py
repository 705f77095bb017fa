"""The fused chip kernel equals, bit for bit, the public models it fuses.

:meth:`Chip.compute_interval` inlines :func:`cpi_stack`,
:meth:`CorePowerModel.power`, :meth:`DynamicPowerModel.core_activity`
and :meth:`RCThermalModel.step`.  Those scalar/vector model APIs stay in
use by calibration, MaxBIPS and the analysis code, so this property test
is what keeps the two from drifting apart.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.arrayops import island_sums
from repro.cmpsim.chip import Chip
from repro.cmpsim.core import cpi_stack
from repro.config import DEFAULT_CONFIG, DVFSConfig
from repro.thermal.rc_model import RCThermalModel
from repro.workloads.mixes import mix_for_config

LADDER = tuple(f for f, _ in DVFSConfig().vf_table)
F_MIN, F_MAX = LADDER[0], LADDER[-1]

SHAPES = [(4, 2), (8, 4), (8, 8), (16, 4)]


def assert_bits_equal(kernel, reference, name):
    kernel = np.asarray(kernel, dtype=float)
    reference = np.asarray(reference, dtype=float)
    assert kernel.shape == reference.shape, name
    assert kernel.tobytes() == reference.tobytes(), (
        f"{name}: kernel {kernel!r} != models {reference!r}"
    )


@st.composite
def cases(draw):
    n_cores, n_islands = draw(st.sampled_from(SHAPES))

    def per_core(lo, hi):
        return np.array(
            draw(st.lists(st.floats(lo, hi), min_size=n_cores, max_size=n_cores))
        )

    frequency = st.one_of(st.sampled_from(LADDER), st.floats(F_MIN, F_MAX))
    return {
        "shape": (n_cores, n_islands),
        "alpha": per_core(0.05, 1.0),
        "cpi_base": per_core(0.5, 2.5),
        "l1_mpki": per_core(0.0, 60.0),
        "l2_mpki": per_core(0.0, 30.0),
        "frequencies": draw(
            st.lists(frequency, min_size=n_islands, max_size=n_islands)
        ),
        "transitioned": draw(
            st.one_of(
                st.none(),
                st.lists(st.booleans(), min_size=n_islands, max_size=n_islands),
            )
        ),
        "temperatures": per_core(40.0, 100.0),
        "leaky": draw(st.booleans()),
    }


def make_chip(n_cores, n_islands, leaky):
    config = DEFAULT_CONFIG.with_islands(n_cores, n_islands)
    if leaky:
        multipliers = tuple(1.0 + 0.25 * (i % 4) for i in range(n_islands))
        config = dataclasses.replace(config, island_leakage_multipliers=multipliers)
    return Chip(config, mix_for_config(config).specs())


@given(case=cases())
@settings(max_examples=120, deadline=None)
def test_kernel_equals_public_models(case):
    n_cores, n_islands = case["shape"]
    chip = make_chip(n_cores, n_islands, case["leaky"])
    cfg = chip.config
    dt = cfg.control.pic_interval_s
    chip.set_island_frequencies(case["frequencies"])
    chip.thermal.temperatures = case["temperatures"].copy()
    transitioned = case["transitioned"]
    if transitioned is not None:
        transitioned = np.array(transitioned, dtype=bool)
    alpha, cpi_base = case["alpha"], case["cpi_base"]
    l1_mpki, l2_mpki = case["l1_mpki"], case["l2_mpki"]

    # The public models, composed the way the chip used to compose them.
    freq = chip.island_frequency[chip.island_of_core]
    volt = np.asarray(chip.dvfs.voltage_at(freq))
    perf = cpi_stack(freq, alpha, cpi_base, l1_mpki, l2_mpki, cfg.memory)
    if transitioned is not None and transitioned.any():
        effective_dt = np.where(
            transitioned[chip.island_of_core],
            dt * (1.0 - cfg.dvfs.transition_overhead),
            dt,
        )
    else:
        effective_dt = dt
    instructions = perf.ips * effective_dt
    power = chip.power_model.power(
        volt,
        freq,
        busy=perf.busy,
        alpha=alpha,
        temperature_c=case["temperatures"],
        leakage_multiplier=chip.leakage_multipliers,
    )
    activity = chip.power_model.dynamic.core_activity(perf.busy, alpha)
    utilization = activity * freq / chip.dvfs.f_max
    thermal = RCThermalModel(chip.floorplan, cfg.thermal)
    thermal.temperatures = case["temperatures"].copy()
    temperatures = thermal.step(power, dt)
    island = chip.island_of_core
    island_power = island_sums(island, power, n_islands)
    island_bips = island_sums(island, units.bips(instructions, effective_dt), n_islands)
    island_util = island_sums(island, utilization, n_islands) / cfg.cores_per_island
    chip_power = float(island_power.sum() + chip.uncore_power_w)

    terms = chip.workload_terms(alpha, cpi_base, l1_mpki, l2_mpki)
    result = chip.compute_interval(terms, 0, dt, transitioned)

    expected = {
        "core_busy": perf.busy,
        "core_ips": perf.ips,
        "core_instructions": instructions,
        "core_power_w": power,
        "core_utilization": utilization,
        "core_temperature_c": temperatures,
        "island_power_w": island_power,
        "island_power_frac": island_power / chip.max_power_w,
        "island_bips": island_bips,
        "island_utilization": island_util,
        "island_frequency_ghz": chip.island_frequency,
        "chip_power_w": chip_power,
        "chip_power_frac": chip_power / chip.max_power_w,
        "chip_bips": float(island_bips.sum()),
    }
    for name, reference in expected.items():
        assert_bits_equal(getattr(result, name), reference, name)
    assert_bits_equal(chip.thermal.temperatures, temperatures, "chip temperatures")
