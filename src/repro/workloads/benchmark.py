"""Benchmark specifications and their per-core phase machines.

A :class:`BenchmarkSpec` is the static description of one application:
its phase set, dwell/noise parameters, and a classification used by the
mix tables.  A :class:`BenchmarkInstance` binds a spec to a core with
its own random stream and draws that core's workload block
(:func:`~repro.workloads.recorded.record` draws every core's).
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
]

#: Classification letters used by Table III ("C" cpu-bound, "M" memory-bound).
CPU_BOUND = "C"
MEMORY_BOUND = "M"


@dataclass(frozen=True)
class BenchmarkSpec:
    """Static description of one synthetic benchmark."""

    name: str
    #: ``"C"`` (cpu-bound) or ``"M"`` (memory-bound), as in Table III.
    kind: str
    suite: str  # "parsec" or "spec"
    description: str
    phases: Tuple[Phase, ...]
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

    def with_input_set(self, input_set: str) -> "BenchmarkSpec":
        """Derive the other input-set variant.

        The paper found native inputs make the benchmarks memory-intensive;
        the native variant scales every phase's miss rates up (working sets
        blow out of the caches).
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
        return replace(self, phases=phases, input_set=input_set)


class BenchmarkInstance:
    """A benchmark bound to one core: its stateful phase machine."""

    def __init__(self, spec: BenchmarkSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self._machine = PhaseMachine(
            spec.phases,
            mean_dwell_intervals=spec.mean_dwell_intervals,
            noise_sigma=spec.noise_sigma,
            noise_rho=spec.noise_rho,
            rng=rng,
        )

    @property
    def name(self) -> str:
        return self.spec.name

    def advance_block(self, n_intervals: int) -> PhaseBlock:
        """Produce ``n_intervals`` consecutive workload states at once.

        Bit-identical to ``n_intervals`` successive
        :meth:`~repro.workloads.phases.PhaseMachine.advance` calls (see
        :meth:`~repro.workloads.phases.PhaseMachine.advance_block`).
        """
        return self._machine.advance_block(n_intervals)
