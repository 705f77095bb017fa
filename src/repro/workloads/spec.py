"""Synthetic models of the SPEC applications used in the thermal study.

The paper's thermal-aware evaluation (Figure 18) schedules four CPU-bound
SPEC CPU2000 applications — mesa, bzip2, gcc and sixtrack — one per core
on an 8-core CMP with single-core islands.  The study only needs
applications that all demand a large share of chip power (so the thermal
constraints actually bind); these models are therefore all CPU-bound with
high activity, differentiated by their phase texture.
"""

from __future__ import annotations

from typing import Dict

from .benchmark import CPU_BOUND, BenchmarkSpec
from .phases import Phase

__all__ = ["SPEC_BENCHMARKS", "spec_benchmark"]

SPEC_BENCHMARKS: Dict[str, BenchmarkSpec] = {
    "mesa": BenchmarkSpec(
        name="mesa",
        kind=CPU_BOUND,
        suite="spec",
        description="3-D graphics library; steady rasterization compute",
        phases=(
            Phase(alpha=0.94, cpi_base=0.85, l1_mpki=5.0, l2_mpki=0.30),
            Phase(alpha=0.89, cpi_base=0.95, l1_mpki=7.0, l2_mpki=0.50),
        ),
        mean_dwell_intervals=40.0,
    ),
    "bzip2": BenchmarkSpec(
        name="bzip2",
        kind=CPU_BOUND,
        suite="spec",
        description="compression; alternating compress/decompress phases",
        phases=(
            Phase(alpha=0.91, cpi_base=0.95, l1_mpki=9.0, l2_mpki=0.80),
            Phase(alpha=0.82, cpi_base=1.10, l1_mpki=13.0, l2_mpki=1.40),
        ),
        mean_dwell_intervals=25.0,
        noise_sigma=0.020,
    ),
    "gcc": BenchmarkSpec(
        name="gcc",
        kind=CPU_BOUND,
        suite="spec",
        description="compiler; branchy integer code, irregular phases",
        phases=(
            Phase(alpha=0.86, cpi_base=1.05, l1_mpki=11.0, l2_mpki=1.00),
            Phase(alpha=0.78, cpi_base=1.20, l1_mpki=15.0, l2_mpki=1.80),
            Phase(alpha=0.92, cpi_base=0.95, l1_mpki=8.0, l2_mpki=0.60),
        ),
        mean_dwell_intervals=15.0,
        noise_sigma=0.030,
    ),
    "sixtrack": BenchmarkSpec(
        name="sixtrack",
        kind=CPU_BOUND,
        suite="spec",
        description="particle tracking; dense FP loops, very steady",
        phases=(
            Phase(alpha=0.96, cpi_base=0.80, l1_mpki=4.0, l2_mpki=0.25),
        ),
        mean_dwell_intervals=100.0,
        noise_sigma=0.008,
    ),
}


def spec_benchmark(name: str) -> BenchmarkSpec:
    """Look up a SPEC model by name."""
    try:
        return SPEC_BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            f"unknown SPEC benchmark {name!r}; known: {sorted(SPEC_BENCHMARKS)}"
        ) from None
