"""Parallel execution engine for independent simulation runs.

Every figure in the paper is a sweep of mutually independent
:class:`~repro.cmpsim.simulator.Simulation` runs (budgets × mixes ×
schemes × seeds).  This module gives the sweep layer four things the
serial loops it replaces did not have:

* :func:`run_many` — fan a list of :class:`RunRequest`\\ s over a process
  pool, with results returned **in request order** regardless of worker
  scheduling.  Determinism is unchanged: every run's randomness is fixed
  by its request's seed, so ``jobs=4`` returns bit-identical results to
  ``jobs=1``.
* a calibration wave — before a pooled sweep fans out, every distinct
  default calibration its runs need (one per platform, mix and seed) is
  computed once, in parallel, and passed to each run explicitly, so
  workers never repeat the paper's offline calibration step.
* an on-disk result cache under ``.repro-cache/`` keyed by a content hash
  of everything that determines a run's outcome (config, mix, scheme
  name + parameters, budget, seed, horizon).  The cache is shared across
  processes and sessions — unlike the old per-process
  ``functools.lru_cache``, the no-management reference is computed once
  per machine, not once per worker.
* :func:`seed_stream` — deterministic per-run seed derivation for
  replicated runs of one configuration.

Cache layout and invalidation are documented in ``docs/PERFORMANCE.md``:
entries live at ``<cache_dir>/<key[:2]>/<key>.pkl``, a changed key field
is a miss (a new entry is written; stale entries are inert), and a
corrupt or truncated entry is deleted and recomputed, never crashed on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import pathlib
import pickle
import time
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, is_dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .cmpsim.simulator import PowerScheme, Simulation, SimulationResult
from .config import CMPConfig
from .core.calibration import Calibration, CalibratedScheme, CalibrationPoint
from .rng import DEFAULT_SEED, role_seed
from .unit_types import PowerFraction
from .workloads.mixes import Mix

__all__ = [
    "CACHE_VERSION",
    "RunFailure",
    "RunRequest",
    "cache_key",
    "describe_scheme",
    "resolve_cache_dir",
    "resolve_jobs",
    "run_many",
    "run_one",
    "seed_stream",
]

#: Bump to invalidate every existing cache entry (simulation semantics
#: or the entry layout changed in a way the key cannot see).  2: columnar
#: telemetry entries, and an explicit calibration enters the key.
CACHE_VERSION = 2

_CACHE_DIR_ENV = "REPRO_CACHE_DIR"
_CACHE_DISABLE_ENV = "REPRO_CACHE"
_DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass(frozen=True)
class RunRequest:
    """One independent simulation run, fully specified.

    ``scheme_factory`` is a zero-argument callable returning a fresh
    :class:`~repro.cmpsim.simulator.PowerScheme` (a scheme class works).
    It must be picklable (module-level callable, class, or
    ``functools.partial`` of one) for process-pool execution; closures
    force :func:`run_many` to fall back to serial.
    """

    config: CMPConfig
    scheme_factory: Callable[[], PowerScheme]
    mix: Mix | None = None
    budget_fraction: PowerFraction = 0.8
    seed: int = DEFAULT_SEED
    n_gpm_intervals: int = 25
    #: Overrides the scheme identity in the cache key.  Set this when the
    #: factory's introspected parameters do not capture everything that
    #: matters (or to share cache entries between equivalent factories).
    scheme_key: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("budget_fraction must be in (0, 1]")
        if self.n_gpm_intervals < 1:
            raise ValueError("need at least one GPM interval")


# ----------------------------------------------------------------------
# Content hashing
# ----------------------------------------------------------------------
def _stable(obj: object, depth: int = 0) -> str:
    """A canonical string for ``obj`` that is stable across processes.

    ``repr`` alone is not enough: default object reprs embed memory
    addresses, dict iteration order is insertion order, and sets are
    unordered.  This walks the value recursively, sorting unordered
    containers and describing objects by class plus their (sorted)
    attributes.  It only needs to be *stable and discriminating*, not
    invertible.
    """
    if depth > 12:
        raise ValueError("value too deeply nested for a stable cache key")
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        return f"ndarray({obj.dtype.str},{obj.shape},{obj.tobytes().hex()})"
    if isinstance(obj, np.generic):
        return repr(obj.item())
    if isinstance(obj, (list, tuple)):
        inner = ",".join(_stable(x, depth + 1) for x in obj)
        return f"{type(obj).__name__}[{inner}]"
    if isinstance(obj, (set, frozenset)):
        inner = ",".join(sorted(_stable(x, depth + 1) for x in obj))
        return f"{type(obj).__name__}[{inner}]"
    if isinstance(obj, dict):
        inner = ",".join(
            f"{_stable(k, depth + 1)}:{_stable(v, depth + 1)}"
            for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        )
        return f"dict[{inner}]"
    if isinstance(obj, type):
        return f"class:{obj.__module__}.{obj.__qualname__}"
    if callable(obj) and hasattr(obj, "__qualname__"):
        return f"callable:{getattr(obj, '__module__', '?')}.{obj.__qualname__}"
    if is_dataclass(obj):
        fields = {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
        }
        return f"{type(obj).__qualname__}({_stable(fields, depth + 1)})"
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        public = {k: v for k, v in attrs.items() if not k.startswith("_")}
        return f"{type(obj).__qualname__}({_stable(public, depth + 1)})"
    return f"{type(obj).__qualname__}()"


def describe_scheme(factory: Callable[[], PowerScheme]) -> str:
    """Stable description of the scheme a factory builds: name + params.

    Builds one throwaway instance and canonicalizes its class and public
    attributes, so two factories producing identically-parameterized
    schemes share cache entries and any parameter change is a cache miss.
    """
    scheme = factory()
    return _stable(scheme)


def cache_key(request: RunRequest) -> str:
    """Content hash of everything that determines the run's outcome."""
    scheme_desc = (
        request.scheme_key
        if request.scheme_key is not None
        else describe_scheme(request.scheme_factory)
    )
    payload = "|".join(
        (
            f"v{CACHE_VERSION}",
            _stable(request.config),
            _stable(request.mix),
            scheme_desc,
            repr(float(request.budget_fraction)),
            repr(int(request.seed)),
            repr(int(request.n_gpm_intervals)),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------
def resolve_cache_dir(
    cache_dir: str | pathlib.Path | None,
) -> pathlib.Path | None:
    """Resolve a caller's cache-dir argument to a usable path (or None).

    ``None`` disables caching.  The string ``"auto"`` selects
    ``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` under the current
    directory; setting ``REPRO_CACHE=0`` force-disables even ``"auto"``.
    Anything else is used as the directory path directly.
    """
    if cache_dir is None:
        return None
    if cache_dir == "auto":
        if os.environ.get(_CACHE_DISABLE_ENV, "1") == "0":
            return None
        return pathlib.Path(
            os.environ.get(_CACHE_DIR_ENV, _DEFAULT_CACHE_DIR)
        )
    return pathlib.Path(cache_dir)


def _entry_path(cache_dir: pathlib.Path, key: str) -> pathlib.Path:
    return cache_dir / key[:2] / f"{key}.pkl"


def _cache_load(
    cache_dir: pathlib.Path, key: str
) -> SimulationResult | None:
    """Return the cached result for ``key``, or None.

    A corrupt, truncated, or wrong-version entry is deleted and treated
    as a miss — the cache must never turn into a crash.
    """
    path = _entry_path(cache_dir, key)
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except FileNotFoundError:
        return None
    except Exception:  # lint: ignore[ROB001] - corruption is just a miss
        payload = None
    if (
        isinstance(payload, dict)
        and payload.get("version") == CACHE_VERSION
        and payload.get("key") == key
    ):
        return payload["result"]
    try:
        path.unlink()
    except OSError:
        pass
    return None


def _cache_store(
    cache_dir: pathlib.Path, key: str, result: SimulationResult
) -> None:
    """Atomically write ``result`` under ``key`` (best-effort).

    The temp-file + ``os.replace`` dance makes concurrent writers safe:
    readers only ever see complete entries, and the last writer of
    identical content wins.  Storage failures are swallowed — caching is
    an optimization, not a contract.
    """
    path = _entry_path(cache_dir, key)
    payload = {"version": CACHE_VERSION, "key": key, "result": result}
    tmp: pathlib.Path | None = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            # Make sure the bytes are durable before the rename publishes
            # them: without the fsync a crash can promote a zero-length
            # file to the final name on some filesystems.
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        # A failed write must not leave a stray temp file for every
        # future listing to trip over.
        if tmp is not None:
            try:
                tmp.unlink()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _execute(
    request: RunRequest,
    cache_dir: str | pathlib.Path | None,
    calibration: Calibration | None = None,
) -> SimulationResult:
    """Run one request, consulting the cache (worker-side entry point).

    ``calibration`` is the request's default calibration, computed by
    the sweep's calibration wave; without it the scheme calibrates (or
    hits the in-process memo) when it binds.
    """
    directory = resolve_cache_dir(cache_dir)
    key = cache_key(request) if directory is not None else None
    if directory is not None and key is not None:
        cached = _cache_load(directory, key)
        if cached is not None:
            return cached
    scheme = request.scheme_factory()
    if calibration is not None:
        assert isinstance(scheme, CalibratedScheme)
        scheme.use_calibration(calibration)
    sim = Simulation(
        request.config,
        scheme,
        mix=request.mix,
        budget_fraction=request.budget_fraction,
        seed=request.seed,
    )
    result = sim.run(request.n_gpm_intervals)
    if directory is not None and key is not None:
        _cache_store(directory, key, result)
    return result


def _calibrate(point: CalibrationPoint) -> Calibration:
    """Compute one default calibration (worker-side entry point)."""
    return point.calibration()


def _calibration_points(
    requests: Sequence[RunRequest],
) -> dict[CalibrationPoint, list[int]]:
    """The distinct default calibrations ``requests`` need, each mapped to
    the positions of the requests that need it.

    Only schemes that would calibrate in ``bind`` declare a point: a
    scheme built with an explicit calibration, or one that never
    calibrates (MaxBIPS, no management), needs none.
    """
    points: dict[CalibrationPoint, list[int]] = {}
    for position, request in enumerate(requests):
        scheme = request.scheme_factory()
        if not isinstance(scheme, CalibratedScheme):
            continue
        point = scheme.calibration_point(
            request.config, request.mix, request.seed
        )
        if point is not None:
            points.setdefault(point, []).append(position)
    return points


def run_one(
    request: RunRequest, cache_dir: str | pathlib.Path | None = None
) -> SimulationResult:
    """Execute one request in this process, using the cache if enabled."""
    return _execute(request, cache_dir)


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None or 0 means "all cores".

    "All cores" counts the CPUs this process may run on (its affinity
    mask, which CPU pinning and container limits narrow), not the
    machine's, so ``--jobs 0`` never oversubscribes a pinned process.
    """
    if jobs is None or jobs == 0:
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError("jobs must be non-negative")
    return int(jobs)


def _picklable(requests: Sequence[RunRequest]) -> bool:
    try:
        pickle.dumps(requests)
        return True
    except Exception:  # lint: ignore[ROB001] - unpicklable means serial
        return False


# ----------------------------------------------------------------------
# Hardened execution: timeouts, retry, quarantine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunFailure:
    """Why one request produced no result.

    ``kind`` is ``"crash"`` (the worker process died), ``"timeout"``
    (it exceeded ``timeout_s`` and was terminated) or ``"error"`` (the
    simulation raised).  ``attempts`` counts executions including
    retries.
    """

    index: int
    kind: str
    attempts: int
    message: str = ""


def _retry_backoff_s(attempt: int) -> float:
    """Bounded exponential backoff before relaunching a crashed worker."""
    return min(0.05 * (2.0 ** attempt), 0.5)


def _supervised_worker(conn, task: Callable, args: tuple) -> None:
    """Entry point of one supervised worker process."""
    try:
        result = task(*args)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - report, parent decides
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        except Exception:  # lint: ignore[CTL002] - pipe gone; exit = crash
            pass
    finally:
        conn.close()


def _run_supervised(
    tasks: dict[int, tuple[Callable, tuple]],
    n_workers: int,
    timeout_s: float | None,
    retries: int,
    on_error: str,
    failures: list[RunFailure],
    label: str = "request",
) -> dict[int, Any]:
    """Run ``tasks`` (index -> (function, args)) in supervised processes.

    Unlike the :class:`ProcessPoolExecutor` fast path this owns each
    worker process directly, so a hung task can be ``terminate()``d on
    deadline and a crashed one relaunched — an executor would poison the
    whole pool instead (``BrokenProcessPool`` aborts every pending
    future).  Returns the results by index; appends a
    :class:`RunFailure` per abandoned task.  ``label`` names what a task
    index counts in error messages.
    """
    ctx = multiprocessing.get_context()
    queue = deque(tasks)
    attempts = {i: 0 for i in tasks}
    results: dict[int, Any] = {}
    #: reader-connection -> (task index, process, deadline or None)
    active: dict = {}

    def launch(index: int) -> None:
        reader, writer = ctx.Pipe(duplex=False)
        task, args = tasks[index]
        proc = ctx.Process(
            target=_supervised_worker, args=(writer, task, args), daemon=True
        )
        proc.start()
        writer.close()
        attempts[index] += 1
        deadline = None
        if timeout_s is not None:
            deadline = time.monotonic() + timeout_s  # lint: ignore[DET003]
        active[reader] = (index, proc, deadline)

    def reap(reader) -> None:
        index, proc, _ = active.pop(reader)
        proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - stuck in interpreter exit
            proc.kill()
            proc.join()
        reader.close()

    def settle(index: int, kind: str, message: str) -> None:
        """A task failed for good, or goes back for another attempt."""
        retryable = kind in ("crash", "timeout") and attempts[index] <= retries
        if retryable:
            time.sleep(_retry_backoff_s(attempts[index] - 1))
            queue.append(index)
            return
        failure = RunFailure(
            index=index, kind=kind, attempts=attempts[index], message=message
        )
        if on_error == "raise":
            for other_reader, (_, proc, _) in list(active.items()):
                proc.terminate()
                reap(other_reader)
            raise RuntimeError(
                f"run_many: {label} {index} failed ({kind}) after "
                f"{attempts[index]} attempt(s): {message or 'no detail'}"
            )
        failures.append(failure)

    while queue or active:
        while queue and len(active) < n_workers:
            launch(queue.popleft())
        if not active:
            continue
        wait_s = 0.1
        if timeout_s is not None:
            now = time.monotonic()  # lint: ignore[DET003]
            soonest = min(d for (_, _, d) in active.values() if d is not None)
            wait_s = max(0.0, min(wait_s, soonest - now))
        ready = mp_connection.wait(list(active), timeout=wait_s)
        for reader in ready:
            index, proc, _ = active[reader]
            try:
                status, payload = reader.recv()
            except (EOFError, OSError):
                reap(reader)
                settle(index, "crash", f"worker exited with {proc.exitcode}")
                continue
            reap(reader)
            if status == "ok":
                results[index] = payload
            else:
                settle(index, "error", str(payload))
        if timeout_s is not None:
            now = time.monotonic()  # lint: ignore[DET003]
            for reader, (index, proc, deadline) in list(active.items()):
                if deadline is not None and now >= deadline:
                    proc.terminate()
                    reap(reader)
                    settle(
                        index, "timeout", f"exceeded {timeout_s:g}s deadline"
                    )
    return results


def _calibrate_supervised(
    points: dict[CalibrationPoint, list[int]],
    pending: Sequence[int],
    n_workers: int,
    timeout_s: float | None,
    retries: int,
    on_error: str,
    failures: list[RunFailure],
) -> dict[int, Calibration]:
    """The hardened calibration wave: each point once, supervised.

    Returns the calibration for each pending position whose point was
    computed.  A point given up on becomes one :class:`RunFailure` (same
    kind and attempts) for each request that needed it.
    """
    point_failures: list[RunFailure] = []
    solved = _run_supervised(
        {k: (_calibrate, (point,)) for k, point in enumerate(points)},
        n_workers,
        timeout_s,
        retries,
        on_error,
        point_failures,
        label="calibration",
    )
    users = list(points.values())
    for failure in point_failures:
        for position in users[failure.index]:
            failures.append(
                dataclasses.replace(
                    failure,
                    index=pending[position],
                    message=f"calibration failed: {failure.message}",
                )
            )
    return {
        position: solved[k]
        for k, positions in enumerate(users)
        if k in solved
        for position in positions
    }


def run_many(
    requests: Iterable[RunRequest],
    jobs: int | None = 1,
    cache_dir: str | pathlib.Path | None = None,
    *,
    timeout_s: float | None = None,
    retries: int = 0,
    on_error: str = "raise",
    failures: list[RunFailure] | None = None,
) -> list[SimulationResult]:
    """Execute independent runs, returning results in request order.

    ``jobs`` is the number of worker processes (``None``/``0`` = all
    usable cores, ``1`` = serial in-process).  Results are bit-identical
    across ``jobs`` settings: each run's outcome is a pure function of
    its request.  ``cache_dir`` enables the on-disk result cache (the
    string ``"auto"`` resolves via :func:`resolve_cache_dir`); workers
    share it, so duplicate requests in one sweep cost one simulation.

    Requests that cannot be pickled (e.g. lambda scheme factories) are
    executed serially with a warning rather than failing.

    Cache hits are resolved in the calling process before any workers
    start, so a fully-warm sweep never pays process-pool startup and a
    partially-warm one only fans out the misses.

    With worker processes, the misses first go through a *calibration
    wave*: every distinct default calibration they need is computed
    once, in parallel, and handed to each run explicitly, so no worker
    recalibrates a point another already did.  The serial path relies
    on the in-process calibration memo instead.

    Hardening (all off by default — the fast executor path is unchanged
    when none are requested):

    * ``timeout_s`` — per-run wall-clock deadline; a run past it is
      terminated.  Needs worker processes, so it is not enforced on the
      serial path (a warning is emitted if it would be ignored).  Each
      calibration of the wave gets the same deadline.
    * ``retries`` — how many times a crashed or timed-out run is
      relaunched (with bounded exponential backoff) before being given
      up on.  Runs that merely *raise* are not retried: the simulator is
      deterministic, so a clean exception would only repeat.
    * ``on_error`` — ``"raise"`` (default) aborts the sweep on the first
      abandoned request; ``"quarantine"`` records a
      :class:`RunFailure` in ``failures``, leaves ``None`` in that
      result slot, and keeps going, so one poisoned request no longer
      costs the whole sweep.  A calibration given up on is a failure of
      every request that needed it.
    """
    if on_error not in ("raise", "quarantine"):
        raise ValueError(f"on_error must be 'raise' or 'quarantine', not {on_error!r}")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout_s must be positive")
    if failures is None:
        failures = []
    hardened = (
        timeout_s is not None or retries > 0 or on_error == "quarantine"
    )
    request_list = list(requests)
    n_jobs = resolve_jobs(jobs)
    results: list[SimulationResult | None] = [None] * len(request_list)
    pending = list(range(len(request_list)))
    directory = resolve_cache_dir(cache_dir)
    if directory is not None:
        pending = []
        for i, request in enumerate(request_list):
            cached = _cache_load(directory, cache_key(request))
            if cached is not None:
                results[i] = cached
            else:
                pending.append(i)
    pending_requests = [request_list[i] for i in pending]
    if (
        n_jobs > 1
        and len(pending_requests) > 1
        and not _picklable(pending_requests)
    ):
        warnings.warn(
            "run_many: requests are not picklable (lambda or local scheme "
            "factory?); falling back to serial execution",
            RuntimeWarning,
            stacklevel=2,
        )
        n_jobs = 1
    serial = n_jobs <= 1 or (len(pending_requests) <= 1 and not hardened)
    n_workers = min(n_jobs, len(pending_requests))
    points = {} if serial else _calibration_points(pending_requests)
    if serial:
        if timeout_s is not None:
            warnings.warn(
                "run_many: timeout_s requires jobs > 1; running serially "
                "without a deadline",
                RuntimeWarning,
                stacklevel=2,
            )
        for i in pending:
            if on_error == "quarantine":
                try:
                    results[i] = _execute(request_list[i], cache_dir)
                except Exception as exc:  # noqa: BLE001 - quarantined
                    failures.append(
                        RunFailure(
                            index=i,
                            kind="error",
                            attempts=1,
                            message=f"{type(exc).__name__}: {exc}",
                        )
                    )
            else:
                results[i] = _execute(request_list[i], cache_dir)
    elif hardened:
        calibrations = _calibrate_supervised(
            points, pending, n_workers, timeout_s, retries, on_error, failures
        )
        needed = {p for positions in points.values() for p in positions}
        tasks = {
            pending[p]: (_execute, (request, cache_dir, calibrations.get(p)))
            for p, request in enumerate(pending_requests)
            if p in calibrations or p not in needed
        }
        computed = _run_supervised(
            tasks, n_workers, timeout_s, retries, on_error, failures
        )
        for i, result in computed.items():
            results[i] = result
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            wave: list[Calibration | None] = [None] * len(pending_requests)
            for positions, calibration in zip(
                points.values(), pool.map(_calibrate, points)
            ):
                for p in positions:
                    wave[p] = calibration
            # map() preserves input order regardless of completion order.
            in_order = pool.map(
                _execute,
                pending_requests,
                [cache_dir] * len(pending_requests),
                wave,
            )
            for i, result in zip(pending, in_order):
                results[i] = result
    return results  # type: ignore[return-value]  # filled unless quarantined


def seed_stream(root_seed: int, n_runs: int, role: str = "runner") -> list[int]:
    """``n_runs`` deterministic, distinct seeds derived from ``root_seed``.

    Use for replicated runs of one configuration (e.g. seed-robustness
    sweeps): the stream depends only on ``(root_seed, role)``, so adding
    runs extends it without disturbing earlier seeds.
    """
    if n_runs < 0:
        raise ValueError("n_runs must be non-negative")
    return [role_seed(root_seed, f"{role}/run{i}") for i in range(n_runs)]
