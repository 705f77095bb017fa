"""Synthetic models of the eight PARSEC benchmarks of Table II.

The numbers below are *synthetic calibrations*, not PARSEC measurements:
each benchmark gets phases whose base CPI, activity and miss rates place
it in the CPU-bound/memory-bound class the paper assigns it (Table III)
and give it a plausible amount of phase variation for its algorithm
(x264's frame types, streamcluster's batch boundaries, ...).  What the
experiments depend on is the *class structure* — four frequency-sensitive
applications and four frequency-insensitive ones with distinguishable
phase behaviour — which these models deliver by construction.

Specs are defined for the ``simlarge`` input set; the paper ran the
memory-bound applications with ``native`` inputs ("we found that when we
use the native input set, the benchmarks become memory intensive"), which
:func:`repro.workloads.benchmark.BenchmarkSpec.with_input_set` derives.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .benchmark import CPU_BOUND, MEMORY_BOUND, BenchmarkSpec
from .phases import Phase

__all__ = ["PARSEC_BENCHMARKS", "SHORT_NAMES", "parsec_benchmark"]


def _spec(
    name: str,
    kind: str,
    description: str,
    phases: Tuple[Phase, ...],
    **kwargs,
) -> BenchmarkSpec:
    return BenchmarkSpec(
        name=name,
        kind=kind,
        suite="parsec",
        description=description,
        phases=phases,
        **kwargs,
    )


PARSEC_BENCHMARKS: Dict[str, BenchmarkSpec] = {
    "blackscholes": _spec(
        "blackscholes",
        CPU_BOUND,
        "PDE option pricing; tiny working set, very regular compute",
        phases=(
            Phase(alpha=0.96, cpi_base=0.80, l1_mpki=3.0, l2_mpki=0.20),
            Phase(alpha=0.90, cpi_base=0.90, l1_mpki=4.5, l2_mpki=0.35),
        ),
        noise_sigma=0.010,
    ),
    "bodytrack": _spec(
        "bodytrack",
        CPU_BOUND,
        "body tracking; particle-filter compute with per-frame phases",
        phases=(
            Phase(alpha=0.93, cpi_base=0.90, l1_mpki=6.0, l2_mpki=0.45),
            Phase(alpha=0.84, cpi_base=1.05, l1_mpki=9.0, l2_mpki=0.80),
            Phase(alpha=0.89, cpi_base=0.95, l1_mpki=7.0, l2_mpki=0.55),
        ),
        mean_dwell_intervals=30.0,
    ),
    "freqmine": _spec(
        "freqmine",
        CPU_BOUND,
        "frequent itemset mining; FP-tree traversal with moderate locality",
        phases=(
            Phase(alpha=0.88, cpi_base=0.95, l1_mpki=8.0, l2_mpki=0.60),
            Phase(alpha=0.80, cpi_base=1.10, l1_mpki=12.0, l2_mpki=1.20),
        ),
        mean_dwell_intervals=50.0,
    ),
    "x264": _spec(
        "x264",
        CPU_BOUND,
        "H.264 video encoding; frame-type phases (I/P/B)",
        phases=(
            Phase(alpha=0.96, cpi_base=0.85, l1_mpki=5.0, l2_mpki=0.30),
            Phase(alpha=0.86, cpi_base=1.00, l1_mpki=8.0, l2_mpki=0.70),
            Phase(alpha=0.76, cpi_base=1.05, l1_mpki=10.0, l2_mpki=1.00),
        ),
        mean_dwell_intervals=20.0,
        noise_sigma=0.025,
    ),
    "streamcluster": _spec(
        "streamcluster",
        MEMORY_BOUND,
        "online clustering kernel; streams points, little reuse",
        phases=(
            Phase(alpha=0.75, cpi_base=1.00, l1_mpki=28.0, l2_mpki=6.0),
            Phase(alpha=0.77, cpi_base=1.10, l1_mpki=34.0, l2_mpki=9.0),
        ),
        mean_dwell_intervals=60.0,
    ),
    "facesim": _spec(
        "facesim",
        MEMORY_BOUND,
        "face-motion FE simulation; sparse solver sweeps over large meshes",
        phases=(
            Phase(alpha=0.77, cpi_base=1.10, l1_mpki=22.0, l2_mpki=4.5),
            Phase(alpha=0.71, cpi_base=1.20, l1_mpki=28.0, l2_mpki=7.0),
            Phase(alpha=0.80, cpi_base=1.05, l1_mpki=18.0, l2_mpki=3.5),
        ),
        mean_dwell_intervals=45.0,
    ),
    "canneal": _spec(
        "canneal",
        MEMORY_BOUND,
        "cache-aware simulated annealing; pointer chasing over a huge netlist",
        phases=(
            Phase(alpha=0.68, cpi_base=1.25, l1_mpki=36.0, l2_mpki=9.0),
            Phase(alpha=0.63, cpi_base=1.35, l1_mpki=42.0, l2_mpki=12.0),
        ),
        mean_dwell_intervals=80.0,
        noise_sigma=0.020,
    ),
    "vips": _spec(
        "vips",
        MEMORY_BOUND,
        "image processing pipeline; tile streaming with moderate reuse",
        phases=(
            Phase(alpha=0.79, cpi_base=1.00, l1_mpki=24.0, l2_mpki=5.0),
            Phase(alpha=0.73, cpi_base=1.10, l1_mpki=30.0, l2_mpki=8.0),
            Phase(alpha=0.84, cpi_base=0.95, l1_mpki=20.0, l2_mpki=4.0),
        ),
        mean_dwell_intervals=25.0,
        noise_sigma=0.025,
    ),
}

#: Short names used in the paper's tables and figure labels.
SHORT_NAMES: Dict[str, str] = {
    "blackscholes": "bschls",
    "bodytrack": "btrack",
    "facesim": "fsim",
    "freqmine": "fmine",
    "streamcluster": "sclust",
    "canneal": "canneal",
    "x264": "x264",
    "vips": "vips",
}


def parsec_benchmark(name: str, input_set: str | None = None) -> BenchmarkSpec:
    """Look up a PARSEC model by full or short name, optionally re-inputted.

    When ``input_set`` is ``None``, the paper's choice is applied: native
    inputs for memory-bound benchmarks, simlarge for CPU-bound ones.
    """
    long_names = {short: full for full, short in SHORT_NAMES.items()}
    key = long_names.get(name, name)
    try:
        spec = PARSEC_BENCHMARKS[key]
    except KeyError:
        raise KeyError(
            f"unknown PARSEC benchmark {name!r}; known: {sorted(PARSEC_BENCHMARKS)}"
        ) from None
    if input_set is None:
        input_set = "native" if spec.kind == MEMORY_BOUND else "simlarge"
    return spec.with_input_set(input_set)
