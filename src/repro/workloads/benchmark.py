"""Benchmark specifications and stateful per-core instances.

A :class:`BenchmarkSpec` is the static description of one application:
its phase set, dwell/noise parameters, its memory-reference behaviour
(used by the trace-driven cache calibration), and a classification used by
the mix tables.  A :class:`BenchmarkInstance` binds a spec to a core with
its own random stream and produces one :class:`WorkloadSample` per
simulation interval.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .phases import Phase, PhaseBlock, PhaseMachine

__all__ = [
    "BenchmarkInstance",
    "BenchmarkSpec",
    "CPU_BOUND",
    "MEMORY_BOUND",
    "MemoryBehavior",
    "WorkloadSample",
]

#: Classification letters used by Table III ("C" cpu-bound, "M" memory-bound).
CPU_BOUND = "C"
MEMORY_BOUND = "M"


@dataclass(frozen=True)
class MemoryBehavior:
    """Parameters of the synthetic address stream for cache calibration.

    The address generator mixes three reference patterns whose proportions
    set where accesses land in the hierarchy:

    * sequential streaming through a large footprint (compulsory misses),
    * reuse within a hot working set (hits),
    * scattered references over the full footprint (conflict/capacity
      misses in L1 that may still hit L2).
    """

    #: Hot working-set size in bytes (fits L1 for CPU-bound apps).
    working_set_bytes: int
    #: Total memory footprint in bytes.
    footprint_bytes: int
    #: Fraction of references that stream sequentially.
    streaming_fraction: float
    #: Fraction of references scattered uniformly over the footprint.
    scatter_fraction: float
    #: Memory references per instruction (loads+stores).
    refs_per_instruction: float = 0.3

    def __post_init__(self) -> None:
        if self.working_set_bytes <= 0 or self.footprint_bytes <= 0:
            raise ValueError("working set and footprint must be positive")
        if self.working_set_bytes > self.footprint_bytes:
            raise ValueError("working set cannot exceed the footprint")
        if not 0.0 <= self.streaming_fraction <= 1.0:
            raise ValueError("streaming_fraction must be in [0, 1]")
        if not 0.0 <= self.scatter_fraction <= 1.0:
            raise ValueError("scatter_fraction must be in [0, 1]")
        if self.streaming_fraction + self.scatter_fraction > 1.0:
            raise ValueError("pattern fractions must sum to at most 1")
        if self.refs_per_instruction <= 0:
            raise ValueError("refs_per_instruction must be positive")


@dataclass(frozen=True)
class BenchmarkSpec:
    """Static description of one synthetic benchmark."""

    name: str
    #: ``"C"`` (cpu-bound) or ``"M"`` (memory-bound), as in Table III.
    kind: str
    suite: str  # "parsec" or "spec"
    description: str
    phases: Tuple[Phase, ...]
    memory: MemoryBehavior
    #: Expected intervals between phase transitions (PIC intervals).
    mean_dwell_intervals: float = 40.0
    noise_sigma: float = 0.015
    noise_rho: float = 0.8
    #: Which input set these phases model ("simlarge" or "native").
    input_set: str = "simlarge"

    def __post_init__(self) -> None:
        if self.kind not in (CPU_BOUND, MEMORY_BOUND):
            raise ValueError(f"kind must be 'C' or 'M', got {self.kind!r}")
        if not self.phases:
            raise ValueError("benchmark needs at least one phase")
        if self.input_set not in ("simlarge", "native"):
            raise ValueError(f"unknown input set {self.input_set!r}")

    @property
    def mean_l2_mpki(self) -> float:
        """Average off-chip miss rate across phases (boundness indicator)."""
        return float(np.mean([p.l2_mpki for p in self.phases]))

    @property
    def mean_cpi_base(self) -> float:
        return float(np.mean([p.cpi_base for p in self.phases]))

    def with_input_set(self, input_set: str) -> "BenchmarkSpec":
        """Derive the other input-set variant.

        The paper found native inputs make the benchmarks memory-intensive;
        the native variant scales every phase's miss rates up (working sets
        blow out of the caches) and the footprint along with them.
        """
        if input_set == self.input_set:
            return self
        if input_set == "native":
            factor = 1.5
        elif input_set == "simlarge":
            factor = 1.0 / 1.5
        else:
            raise ValueError(f"unknown input set {input_set!r}")
        phases = tuple(
            replace(p, l1_mpki=p.l1_mpki * factor, l2_mpki=p.l2_mpki * factor)
            for p in self.phases
        )
        memory = replace(
            self.memory,
            footprint_bytes=int(self.memory.footprint_bytes * factor),
            working_set_bytes=int(self.memory.working_set_bytes * min(factor, 4.0)),
        )
        return replace(self, phases=phases, memory=memory, input_set=input_set)


@dataclass(frozen=True)
class WorkloadSample:
    """Per-interval workload state consumed by the core CPI stack."""

    alpha: float
    cpi_base: float
    l1_mpki: float
    l2_mpki: float


class BenchmarkInstance:
    """A benchmark bound to one core: stateful phase machine + counters."""

    def __init__(self, spec: BenchmarkSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self._machine = PhaseMachine(
            spec.phases,
            mean_dwell_intervals=spec.mean_dwell_intervals,
            noise_sigma=spec.noise_sigma,
            noise_rho=spec.noise_rho,
            rng=rng,
        )
        self.instructions_retired = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    def advance(self) -> WorkloadSample:
        """Produce the workload state for the next simulation interval."""
        state = self._machine.advance()
        phase = state.phase
        return WorkloadSample(
            alpha=state.alpha,
            cpi_base=phase.cpi_base,
            l1_mpki=phase.l1_mpki,
            l2_mpki=phase.l2_mpki,
        )

    def advance_block(self, n_intervals: int) -> PhaseBlock:
        """Produce ``n_intervals`` consecutive workload states at once.

        Bit-identical to ``n_intervals`` successive :meth:`advance` calls
        (see :meth:`~repro.workloads.phases.PhaseMachine.advance_block`).
        """
        return self._machine.advance_block(n_intervals)

    def retire(self, instructions: float) -> None:
        """Account instructions executed during the last interval."""
        if instructions < 0:
            raise ValueError("cannot retire a negative instruction count")
        self.instructions_retired += instructions

