"""Workload synthesis substrate (PARSEC / SPEC analogues).

The paper's policies depend on a handful of workload properties — whether
BIPS responds to frequency (CPU- vs memory-bound), utilization noise, and
phase changes over time — not on the actual computation.  This package
models the eight PARSEC applications of Table II (plus the four SPEC
applications used in the thermal study) as phase-driven synthetic
benchmarks with those properties.  Each phase's base CPI, activity and
L1/L2 MPKI are constants set by hand to place the benchmark in its
CPU-/memory-bound class; no cache or address trace derives them.

* :mod:`repro.workloads.phases` — a Markov phase machine with AR(1)
  activity noise producing per-interval workload state.
* :mod:`repro.workloads.benchmark` — benchmark specifications and their
  per-core phase machines.
* :mod:`repro.workloads.parsec` — the eight PARSEC models with
  ``simlarge`` and ``native`` input-set variants (native is more
  memory-intensive, as the paper observed).
* :mod:`repro.workloads.spec` — mesa/bzip2/gcc/sixtrack CPU-bound models
  for the thermal-aware policy study.
* :mod:`repro.workloads.mixes` — the island assignments of Table III
  (Mix-1, Mix-2, Mix-3).
* :mod:`repro.workloads.recorded` — a run's workload as one block:
  :func:`~repro.workloads.recorded.record` draws it (every live
  simulation does), and a saved
  :class:`~repro.workloads.recorded.RecordedWorkload` replays it.
"""

from .benchmark import BenchmarkInstance, BenchmarkSpec
from .mixes import MIX1, MIX2, MIX3, Mix, mix_for_config, thermal_mix
from .parsec import PARSEC_BENCHMARKS, parsec_benchmark
from .phases import Phase, PhaseMachine
from .recorded import RecordedWorkload, record
from .spec import SPEC_BENCHMARKS, spec_benchmark

__all__ = [
    "MIX1",
    "MIX2",
    "MIX3",
    "BenchmarkInstance",
    "BenchmarkSpec",
    "Mix",
    "PARSEC_BENCHMARKS",
    "Phase",
    "PhaseMachine",
    "RecordedWorkload",
    "SPEC_BENCHMARKS",
    "mix_for_config",
    "parsec_benchmark",
    "record",
    "spec_benchmark",
    "thermal_mix",
]
