"""A run's workload as one block: drawing, saving and replaying it.

Workload evolution never observes the control loop, so a run's whole
workload is one ``(n_ticks, n_cores)`` block per signal.  A live
simulation draws it with :func:`record`; a saved block replays the
exact same per-tick samples against a *different* platform (another V/F
ladder, island grouping, power model) or comes from another tool
entirely.

* :func:`record` — run a mix's phase machines for N ticks and capture
  every core's sample stream.
* :class:`RecordedWorkload` — the capture; NumPy-backed, save/load as
  ``.npz``.  Pass it as :class:`~repro.cmpsim.simulator.Simulation`'s
  ``workload`` to drive a run from it (cycled if the run outlives it).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

import numpy as np

from ..config import CMPConfig
from ..rng import DEFAULT_SEED, SeedSequenceFactory
from .benchmark import BenchmarkInstance
from .mixes import Mix, mix_for_config

__all__ = ["RecordedWorkload", "record"]

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


def record(
    config: CMPConfig,
    n_ticks: int,
    mix: Mix | None = None,
    seed: int = DEFAULT_SEED,
) -> RecordedWorkload:
    """Capture ``n_ticks`` of the mix's workload streams.

    This is the draw of every live :class:`~repro.cmpsim.simulator.
    Simulation`: each core's phase machine runs on its own named stream
    of ``seed``, so a replay of ``record(config, N, seed=s)`` reproduces
    the exact samples a live run with seed ``s`` sees.
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
