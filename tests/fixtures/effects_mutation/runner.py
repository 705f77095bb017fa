"""Mirror worker entry points with planted violations (see __init__)."""

from __future__ import annotations

from .simulator import Simulation, retune

__all__ = ["run_many"]

#: Module-level result store mutated inside the worker — invisible to
#: sibling processes under fork-based parallelism.
_RESULTS = {}


def _execute(request: dict) -> float:
    retune(request["gain"])
    sim = Simulation(request["seed"])
    out = sim.run()
    _RESULTS[request["key"]] = out  # expect: EFF001
    return out


def _worker_loop(queue) -> float:
    return _execute(queue.get())


def run_many(requests: list[dict]) -> list[float]:
    return [_execute(request) for request in requests]
