"""Workload recording and replay.

Seeded phase machines already make runs reproducible *within* one
platform, but a saved workload lets you replay the exact same per-tick
samples against a *different* platform (another V/F ladder, island
grouping, power model) or from another tool entirely.

* :func:`record` — run a mix's phase machines for N ticks and capture
  every core's sample stream.
* :class:`RecordedWorkload` — the capture; NumPy-backed, save/load as
  ``.npz``.
* :class:`ReplayInstance` — a drop-in replacement for
  :class:`~repro.workloads.benchmark.BenchmarkInstance` that replays one
  core's stream (cycling if the simulation outlives the recording).
* Pass ``RecordedWorkload.instances()`` to
  :class:`~repro.cmpsim.simulator.Simulation` via its ``instances``
  parameter to drive a run from the capture.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

import numpy as np

from ..config import CMPConfig
from ..rng import DEFAULT_SEED, SeedSequenceFactory
from .benchmark import BenchmarkInstance, WorkloadSample
from .mixes import Mix, mix_for_config
from .phases import PhaseBlock

__all__ = ["RecordedWorkload", "ReplayInstance", "record"]

_FIELDS = ("alpha", "cpi_base", "l1_mpki", "l2_mpki")


@dataclass(frozen=True)
class RecordedWorkload:
    """A per-core, per-tick capture of workload samples.

    Arrays have shape ``(n_ticks, n_cores)``; ``benchmarks`` names the
    application each core ran when the capture was made.
    """

    benchmarks: tuple[str, ...]
    alpha: np.ndarray
    cpi_base: np.ndarray
    l1_mpki: np.ndarray
    l2_mpki: np.ndarray

    def __post_init__(self) -> None:
        shape = self.alpha.shape
        for name in _FIELDS:
            arr = getattr(self, name)
            if arr.ndim != 2 or arr.shape != shape:
                raise ValueError(f"{name} must have shape (n_ticks, n_cores)")
        if shape[1] != len(self.benchmarks):
            raise ValueError("need one benchmark name per core column")
        if shape[0] < 1:
            raise ValueError("recording must contain at least one tick")

    @property
    def n_ticks(self) -> int:
        return int(self.alpha.shape[0])

    @property
    def n_cores(self) -> int:
        return int(self.alpha.shape[1])

    # ------------------------------------------------------------------
    def instances(self) -> list["ReplayInstance"]:
        """One replay instance per core, for a simulation's ``instances=``."""
        return [ReplayInstance(self, core) for core in range(self.n_cores)]

    # ------------------------------------------------------------------
    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Serialize to ``.npz``; returns the path written."""
        path = pathlib.Path(path)
        np.savez_compressed(
            path,
            benchmarks=np.asarray(self.benchmarks),
            **{name: getattr(self, name) for name in _FIELDS},
        )
        # np.savez appends .npz when missing.
        return path if path.suffix == ".npz" else path.with_suffix(
            path.suffix + ".npz"
        )

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "RecordedWorkload":
        with np.load(path, allow_pickle=False) as data:
            return cls(
                benchmarks=tuple(str(b) for b in data["benchmarks"]),
                **{name: data[name] for name in _FIELDS},
            )


class ReplayInstance:
    """Replays one core's recorded stream with the
    :class:`~repro.workloads.benchmark.BenchmarkInstance` interface."""

    def __init__(self, recording: RecordedWorkload, core: int) -> None:
        if not 0 <= core < recording.n_cores:
            raise IndexError(f"core {core} outside the recording")
        self.recording = recording
        self.core = core
        self._tick = 0
        self.instructions_retired = 0.0

    @property
    def name(self) -> str:
        return f"replay:{self.recording.benchmarks[self.core]}"

    def advance(self) -> WorkloadSample:
        r = self.recording
        t = self._tick % r.n_ticks  # cycle if the run outlives the capture
        self._tick += 1
        return WorkloadSample(
            alpha=float(r.alpha[t, self.core]),
            cpi_base=float(r.cpi_base[t, self.core]),
            l1_mpki=float(r.l1_mpki[t, self.core]),
            l2_mpki=float(r.l2_mpki[t, self.core]),
        )

    def advance_block(self, n_intervals: int) -> PhaseBlock:
        """Replay ``n_intervals`` ticks at once (cycling like :meth:`advance`)."""
        if n_intervals < 1:
            raise ValueError("need at least one interval")
        r = self.recording
        t = (self._tick + np.arange(int(n_intervals))) % r.n_ticks
        self._tick += int(n_intervals)
        return PhaseBlock(
            phase_index=np.zeros(int(n_intervals), dtype=np.int64),
            alpha=r.alpha[t, self.core],
            cpi_base=r.cpi_base[t, self.core],
            l1_mpki=r.l1_mpki[t, self.core],
            l2_mpki=r.l2_mpki[t, self.core],
        )

    def retire(self, instructions: float) -> None:
        if instructions < 0:
            raise ValueError("cannot retire a negative instruction count")
        self.instructions_retired += instructions


def record(
    config: CMPConfig,
    n_ticks: int,
    mix: Mix | None = None,
    seed: int = DEFAULT_SEED,
) -> RecordedWorkload:
    """Capture ``n_ticks`` of the mix's workload streams.

    Uses the same stream derivation as :class:`~repro.cmpsim.simulator.
    Simulation`, so a replay of ``record(config, N, seed=s)`` reproduces
    the exact samples a live run with seed ``s`` would have seen.
    """
    if n_ticks < 1:
        raise ValueError("n_ticks must be positive")
    mix = mix_for_config(config, mix)
    specs = mix.specs()
    seeds = SeedSequenceFactory(seed)
    instances = [
        BenchmarkInstance(spec, seeds.generator(f"workload/core{i}/{spec.name}"))
        for i, spec in enumerate(specs)
    ]
    arrays = {name: np.empty((n_ticks, len(specs))) for name in _FIELDS}
    for i, instance in enumerate(instances):
        block = instance.advance_block(n_ticks)
        for name in _FIELDS:
            arrays[name][:, i] = getattr(block, name)
    return RecordedWorkload(
        benchmarks=tuple(spec.name for spec in specs), **arrays
    )
