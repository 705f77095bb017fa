"""Parallel execution engine for independent simulation runs.

Every figure in the paper is a sweep of mutually independent
:class:`~repro.cmpsim.simulator.Simulation` runs (budgets × mixes ×
schemes × seeds).  This module gives the sweep layer four things the
serial loops it replaces did not have:

* :func:`run_many` — run a list of :class:`RunRequest`\\ s on a pool of
  long-lived worker processes (or in this process), with results
  returned **in request order** regardless of worker scheduling, under
  one failure policy: per-run deadlines, retry of crashed runs, and
  quarantine of failed ones.  Determinism is unchanged: every run's
  randomness is fixed by its request's seed, so ``jobs=4`` returns
  bit-identical results to ``jobs=1``.
* a calibration wave — before the runs, the excitation runs of every
  distinct default calibration they need (one per platform, mix and
  seed) run as requests, deduplicated and cached like any other; each
  calibration is fitted here once and passed to each run explicitly,
  so workers never repeat the paper's offline calibration step.
* deduplication — requests with the same cache key are simulated once.
* fleets — misses that share a config and a horizon run as
  :class:`~repro.cmpsim.simulator.Fleet`\\ s, one task each, advanced by
  one chip-kernel call per tick (one run per task under supervision).
* an on-disk result cache under ``.repro-cache/`` keyed by a content hash
  of everything that determines a run's outcome (config, mix, scheme
  spec, budget, seed, horizon) and of the simulator's own source
  (:func:`code_fingerprint`).  The key is computed from the request
  alone: no scheme is built to key it.  The cache is shared across
  processes and sessions.
* :func:`seed_stream` — deterministic per-run seed derivation for
  replicated runs of one configuration.

Cache layout and invalidation are documented in ``docs/PERFORMANCE.md``:
entries live at ``<cache_dir>/<key[:2]>/<key>.pkl``, a changed key field
is a miss (a new entry is written; stale entries are inert), and a
corrupt or truncated entry is deleted and recomputed, never crashed on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import multiprocessing
import operator
import os
import pathlib
import pickle
import platform
import sys
import time
import types
import warnings
from collections import deque
from dataclasses import dataclass, is_dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .cmpsim.simulator import Fleet, PowerScheme, Simulation, SimulationResult
from .config import CMPConfig
from .core.calibration import (
    FITTED,
    Calibration,
    CalibratedScheme,
    CalibrationPoint,
    calibration_requests,
    fit_once,
)
from .rng import DEFAULT_SEED, role_seed
from .unit_types import PowerFraction
from .workloads.mixes import Mix, mix_for_config

__all__ = [
    "CACHE_VERSION",
    "RunFailure",
    "RunRequest",
    "cache_key",
    "code_fingerprint",
    "resolve_cache_dir",
    "resolve_jobs",
    "run_many",
    "run_one",
    "seed_stream",
]

#: The layout of a cache entry.  Bump it when that layout changes; a
#: change to what a run computes needs no bump, because the key holds
#: :func:`code_fingerprint`.  2: columnar telemetry entries.  3: the
#: result carries the run's resilience log.  4: columnar GPM windows.
CACHE_VERSION = 4

_CACHE_DIR_ENV = "REPRO_CACHE_DIR"
_CACHE_DISABLE_ENV = "REPRO_CACHE"
_DEFAULT_CACHE_DIR = ".repro-cache"
_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent


@dataclass(frozen=True)
class RunRequest:
    """One independent simulation run, fully specified.

    ``scheme_factory`` is the run's *scheme spec*: a zero-argument
    callable returning a fresh :class:`~repro.cmpsim.simulator.PowerScheme`
    that is also the scheme's identity in :func:`cache_key`.  It must be
    a module-level class or function, or a ``functools.partial`` of one
    whose arguments are spec values: None, bool, int, float, complex or
    str; tuples, frozensets and str-keyed dicts of spec values; numpy
    arrays; instances of module-level dataclasses whose ``init`` fields
    are spec values; or nested specs.  Anything else (a lambda, a local
    class, a plain object argument) raises a TypeError naming it.  A
    spec pickles by construction, so every request can run in a worker.
    """

    config: CMPConfig
    scheme_factory: Callable[[], PowerScheme]
    mix: Mix | None = None
    budget_fraction: PowerFraction = 0.8
    seed: int = DEFAULT_SEED
    n_gpm_intervals: int = 25

    def __post_init__(self) -> None:
        # operator.index admits any integer (NumPy's too) and rejects a
        # float, which the key would otherwise truncate onto the entry
        # of another request.
        for name in ("seed", "n_gpm_intervals"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise TypeError(f"{name} must be an integer, not {value!r}") from None
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("budget_fraction must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_gpm_intervals < 1:
            raise ValueError("need at least one GPM interval")
        if not isinstance(
            self.scheme_factory, (type, types.FunctionType, functools.partial)
        ):
            raise TypeError(
                f"scheme_factory: {self.scheme_factory!r} is not a class, "
                "a function or a functools.partial"
            )
        _stable(self.scheme_factory, "scheme_factory")


# ----------------------------------------------------------------------
# Content hashing
# ----------------------------------------------------------------------
def _qualified(obj: type | types.FunctionType, where: str) -> str:
    """``module.qualname`` of a class or function that its module
    reaches by that name (so a worker can import it); else TypeError."""
    found: object = sys.modules.get(obj.__module__)
    for part in obj.__qualname__.split("."):
        found = getattr(found, part, None)
    name = f"{obj.__module__}.{obj.__qualname__}"
    if found is not obj:
        raise TypeError(f"{where}: {name} is not a module-level class or function")
    return name


def _stable(value: object, where: str) -> str:
    """The canonical text of a spec value (see :class:`RunRequest`).

    Stable across processes: no text holds a memory address, and
    unordered containers are sorted.  It only needs to be stable and
    discriminating, not invertible.  ``where`` names the value (down to
    the partial's argument and the dataclass field) in the TypeError
    raised for anything that is not a spec value.
    """
    if value is None or isinstance(value, (bool, int, float, complex, str)):
        return repr(value)
    if isinstance(value, np.ndarray):
        return f"ndarray({value.dtype.str},{value.shape},{value.tobytes().hex()})"
    if isinstance(value, tuple):
        return f"tuple[{','.join(_stable(x, where) for x in value)}]"
    if isinstance(value, frozenset):
        return f"frozenset[{','.join(sorted(_stable(x, where) for x in value))}]"
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        inner = ",".join(f"{k!r}:{_stable(value[k], where)}" for k in sorted(value))
        return f"dict[{inner}]"
    if isinstance(value, functools.partial):
        if not isinstance(value.func, (type, types.FunctionType)):
            raise TypeError(f"{where}: a partial of {value.func!r} is not a spec")
        args = [
            _stable(v, f"{where} argument {i}") for i, v in enumerate(value.args)
        ]
        args += [
            f"{k}={_stable(v, f'{where} argument {k!r}')}"
            for k, v in sorted(value.keywords.items())
        ]
        return f"partial({_qualified(value.func, where)},{','.join(args)})"
    if isinstance(value, (type, types.FunctionType)):
        return _qualified(value, where)
    if is_dataclass(value):
        fields = ",".join(
            f"{f.name}={_stable(getattr(value, f.name), f'{where}.{f.name}')}"
            for f in dataclasses.fields(value)
            if f.init
        )
        return f"{_qualified(type(value), where)}({fields})"
    raise TypeError(
        f"{where}: a {type(value).__qualname__} instance is not a spec value "
        "(None, a number, str, tuple, frozenset, str-keyed dict, numpy "
        "array, dataclass instance, class, function or functools.partial)"
    )


@functools.lru_cache(maxsize=None)
def code_fingerprint(root: pathlib.Path = _PACKAGE_ROOT) -> str:
    """SHA-256 over the numeric environment (NumPy's and Python's
    versions and the machine type) and the relative path and bytes of
    every ``.py`` file of the package (``root``) outside ``lintkit/``, in
    path order, once per process: an upgrade that may change a run's
    bits, or an edit to the code a run may execute (a plan's scheme
    factory in ``experiments/`` included), is a new cache key."""
    digest = hashlib.sha256()
    environment = f"{np.__version__}|{sys.version}|{platform.machine()}"
    digest.update(environment.encode() + b"\0")
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*.py"))
    for relative, path in files:
        if not relative.startswith("lintkit/"):
            digest.update(relative.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _mix_text(config: CMPConfig, mix: Mix | None) -> str:
    """The canonical text of a request's mix as the simulator resolves
    it for ``config`` (``None`` is the config's default mix)."""
    return _stable(mix_for_config(config, mix), "mix")


def cache_key(request: RunRequest) -> str:
    """Content hash of everything that determines the run's outcome:
    the config, the mix as the simulator resolves it (``None`` is the
    default mix), the scheme spec's canonical text, budget, seed and
    horizon, and :func:`code_fingerprint`.  It never calls the factory."""
    config, mix = request.config, request.mix
    return _keyed(request, _stable(config, "config"), _mix_text(config, mix))


def _keyed(request: RunRequest, config_text: str, mix_text: str) -> str:
    """:func:`cache_key` of ``request``, given its config's text and
    its :func:`_mix_text`."""
    payload = "|".join(
        (
            f"v{CACHE_VERSION}",
            code_fingerprint(),
            config_text,
            mix_text,
            _stable(request.scheme_factory, "scheme_factory"),
            repr(float(request.budget_fraction)),
            repr(request.seed),
            repr(request.n_gpm_intervals),
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
#: One fleet member as :func:`_execute` takes it: the request, its
#: cache key, its default calibration (or None) and its scheme if the
#: caller already built it (or None).
_Member = tuple[RunRequest, str, "Calibration | None", "PowerScheme | None"]


def _execute(
    members: Sequence[_Member], directory: pathlib.Path | None
) -> list[SimulationResult]:
    """Run ``members`` as one fleet and store each result under its key
    (worker-side entry point; :func:`run_many` has already looked the
    keys up and grouped requests that share a config and a horizon).

    A member's calibration is its request's default calibration, fitted
    by the sweep's calibration wave; without it the scheme calibrates
    (or hits the in-process memo) when it binds.  A member's scheme is
    the request's scheme if the caller already built it, so an
    in-process sweep calls each factory once per run.
    """
    sims = []
    for request, _, calibration, scheme in members:
        if scheme is None:
            scheme = request.scheme_factory()
        if calibration is not None:
            assert isinstance(scheme, CalibratedScheme)
            scheme.use_calibration(calibration)
        sims.append(
            Simulation(
                request.config,
                scheme,
                mix=request.mix,
                budget_fraction=request.budget_fraction,
                seed=request.seed,
            )
        )
    results = Fleet(sims).run(members[0][0].n_gpm_intervals)
    if directory is not None:
        for (_, key, _, _), result in zip(members, results):
            _cache_store(directory, key, result)
    return results


def _fleets(
    positions: Sequence[int],
    group_of: Callable[[int], Any],
    width_of: Callable[[int], int],
) -> list[list[int]]:
    """Split ``positions`` into fleets: each group of positions that
    share ``group_of`` (config text and horizon) is cut, in order, into
    fleets of at most ``width_of(group size)`` members."""
    groups: dict[Any, list[int]] = {}
    for i in positions:
        groups.setdefault(group_of(i), []).append(i)
    fleets = []
    for group in groups.values():
        width = width_of(len(group))
        fleets += [group[j : j + width] for j in range(0, len(group), width)]
    return fleets


def _calibration_points(
    requests: Sequence[RunRequest],
    schemes: Sequence[PowerScheme] | None = None,
) -> dict[CalibrationPoint, list[int]]:
    """The distinct default calibrations ``requests`` need, each mapped to
    the positions of the requests that need it.

    Only schemes that would calibrate in ``bind`` declare a point: a
    scheme built with an explicit calibration, or one that never
    calibrates (MaxBIPS, no management), needs none.  ``schemes`` are
    the requests' schemes if already built.
    """
    points: dict[CalibrationPoint, list[int]] = {}
    for position, request in enumerate(requests):
        scheme = (
            request.scheme_factory() if schemes is None else schemes[position]
        )
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
    return run_many([request], jobs=1, cache_dir=cache_dir)[0]


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


# ----------------------------------------------------------------------
# Executors and the failure policy
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


#: One finished task, as an executor reports it: (task index, kind,
#: value, message).  ``kind`` is ``"ok"`` (value: the result), ``"error"``
#: (value: the exception raised), ``"crash"`` or ``"timeout"``.
_Outcome = tuple[int, str, Any, str]


class _InProcess:
    """Runs each task in this process as it is submitted: the executor
    for ``jobs=1`` and for a lone unsupervised miss."""

    slots = 1

    def __init__(self) -> None:
        self._done: list[_Outcome] = []

    def submit(self, index: int, task: Callable, args: tuple) -> None:
        try:
            outcome = (index, "ok", task(*args), "")
        except Exception as exc:  # noqa: BLE001 - the failure policy decides
            outcome = (index, "error", exc, f"{type(exc).__name__}: {exc}")
        self._done.append(outcome)

    def collect(self) -> list[_Outcome]:
        done, self._done = self._done, []
        return done

    def close(self) -> None:
        pass


def _worker_loop(conn) -> None:
    """Entry point of one pool worker: run ``(task, args)`` messages from
    ``conn`` until the stop message (None), replying ``(kind, value,
    message)`` to each."""
    with conn, contextlib.suppress(EOFError):  # EOF: the parent is gone
        for task, args in iter(conn.recv, None):
            try:
                reply = ("ok", task(*args), "")
            except Exception as exc:  # noqa: BLE001 - the parent decides
                message = f"{type(exc).__name__}: {exc}"
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:  # lint: ignore[ROB001] - sent as its message
                    exc = RuntimeError(message)
                reply = ("error", exc, message)
            conn.send(reply)


class _Pool:
    """Up to ``slots`` long-lived worker processes, started on demand and
    fed one task at a time by pipe.

    The parent watches every busy worker with one ``wait``: a crash
    reads as end-of-file, an overdue task gets its worker terminated.
    Only such a worker is replaced.  :meth:`close` has healthy workers
    return from :func:`_worker_loop`, so their exit handlers run.
    """

    def __init__(self, slots: int, timeout_s: float | None) -> None:
        self.slots = slots
        self._timeout_s = timeout_s
        self._idle: list[tuple[Any, Any]] = []  # (process, connection)
        #: connection -> (process, task index, deadline or None)
        self._busy: dict[Any, tuple[Any, int, float | None]] = {}

    def submit(self, index: int, task: Callable, args: tuple) -> None:
        if self._idle:
            proc, conn = self._idle.pop()
        else:
            conn, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_worker_loop, args=(child,), daemon=True
            )
            proc.start()
            child.close()
        deadline = None
        if self._timeout_s is not None:
            deadline = time.monotonic() + self._timeout_s  # lint: ignore[DET003]
        with contextlib.suppress(OSError):  # died idle: reads as a crash
            conn.send((task, args))
        self._busy[conn] = (proc, index, deadline)

    def collect(self) -> list[_Outcome]:
        """Wait for finished or overdue tasks and report each one."""
        wait_s = None
        if self._timeout_s is not None:
            soonest = min(d for _, _, d in self._busy.values())
            wait_s = max(0.0, soonest - time.monotonic())  # lint: ignore[DET003]
        done: list[_Outcome] = []
        for conn in mp_connection.wait(list(self._busy), wait_s):
            proc, index, _ = self._busy.pop(conn)
            try:
                done.append((index, *conn.recv()))
                self._idle.append((proc, conn))
            except (EOFError, OSError):
                _reap(proc, conn)
                message = f"worker exited with {proc.exitcode}"
                done.append((index, "crash", None, message))
        if self._timeout_s is not None:
            now = time.monotonic()  # lint: ignore[DET003]
            for conn, (proc, index, deadline) in list(self._busy.items()):
                if now >= deadline:
                    del self._busy[conn]
                    proc.terminate()
                    _reap(proc, conn)
                    message = f"exceeded {self._timeout_s:g}s deadline"
                    done.append((index, "timeout", None, message))
        return done

    def close(self) -> None:
        """Terminate workers whose tasks were abandoned; stop the rest."""
        for conn, (proc, _, _) in self._busy.items():
            proc.terminate()
            _reap(proc, conn)
        for _, conn in self._idle:
            with contextlib.suppress(OSError):  # already gone
                conn.send(None)
        for proc, conn in self._idle:
            _reap(proc, conn)


def _reap(proc, conn) -> None:
    """Join a worker that is exiting (killing it if it hangs there)."""
    proc.join(timeout=5.0)
    if proc.is_alive():  # pragma: no cover - stuck in interpreter exit
        proc.kill()
        proc.join()
    conn.close()


def _run_tasks(
    executor: _InProcess | _Pool,
    tasks: dict[int, tuple[Callable, tuple]],
    retries: int,
    on_error: str,
    failures: list[RunFailure],
    label: str,
) -> dict[int, Any]:
    """Run ``tasks`` (index -> (function, args)) on ``executor`` under the
    one failure policy; return the results by index.

    A crashed or timed-out task goes back in the queue, after a backoff,
    until it has had ``retries`` retries.  A task given up on appends a
    :class:`RunFailure` to ``failures`` under ``on_error="quarantine"``.
    Under ``"raise"`` a task that raised re-raises its own exception,
    and a crash or timeout raises a RuntimeError naming the ``label``,
    index, kind and attempts.
    """
    queue = deque(tasks)
    attempts = dict.fromkeys(tasks, 0)
    results: dict[int, Any] = {}
    running = 0
    while queue or running:
        while queue and running < executor.slots:
            index = queue.popleft()
            attempts[index] += 1
            executor.submit(index, *tasks[index])
            running += 1
        for index, kind, value, message in executor.collect():
            running -= 1
            if kind == "ok":
                results[index] = value
            elif kind != "error" and attempts[index] <= retries:
                time.sleep(_retry_backoff_s(attempts[index] - 1))
                queue.append(index)
            elif on_error == "quarantine":
                failures.append(
                    RunFailure(index, kind, attempts[index], message)
                )
            elif kind == "error":
                raise value
            else:
                raise RuntimeError(
                    f"run_many: {label} {index} failed ({kind}) after "
                    f"{attempts[index]} attempt(s): {message}"
                )
    return results


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
    usable cores, ``1`` = in this process).  Results are bit-identical
    across ``jobs`` settings: each run's outcome is a pure function of
    its request, so requests with the same :func:`cache_key` are
    simulated once and share a result.  ``cache_dir`` enables the on-disk result cache (the
    string ``"auto"`` resolves via :func:`resolve_cache_dir`); workers
    share it.

    Every sweep follows one plan on one executor (this process, or a
    pool of up to ``jobs`` long-lived workers): resolve cache hits
    here, so a fully-warm sweep neither builds a scheme nor starts a
    worker; run the *calibration wave*, then the misses.  The misses of
    each phase that share a config (by its canonical text) and a horizon
    run as fleets of at most ``ceil(group size / jobs)`` members, one
    task each; a member's result equals its solo run's bit for bit.  The wave
    serves each default calibration the misses need from this
    process's memo
    (:data:`~repro.core.calibration.FITTED`) or, failing that, runs its
    :func:`~repro.core.calibration.calibration_requests` as requests
    (keyed, deduplicated, cached and executed like the misses), fits
    them here and memoizes the fit; each run is handed its calibration.

    One failure policy covers both executors.  A deadline, a retry or
    quarantine sends even a single miss to a worker when ``jobs > 1``,
    and makes every task one run, since each belongs to one run:

    * ``timeout_s`` — per-run wall-clock deadline; a run past it is
      terminated.  Needs worker processes, so it is not enforced in
      this process (a warning is emitted if it would be ignored).  Each
      excitation run of the wave gets the same deadline.
    * ``retries`` — how many times a crashed or timed-out run is
      relaunched (with bounded exponential backoff) before being given
      up on.  Runs that merely *raise* are not retried: the simulator is
      deterministic, so a clean exception would only repeat.
    * ``on_error`` — ``"raise"`` (default) aborts the sweep on the first
      abandoned request with the run's own exception, a fleet member's
      included (a RuntimeError
      with its message if it cannot be pickled), or a RuntimeError for
      a crash or timeout; ``"quarantine"`` records a :class:`RunFailure`
      in ``failures``, leaves ``None`` in that result slot, and keeps
      going.  A calibration whose excitation run was given up on, or
      whose fit raised, is a failure of every request that needed it,
      and a failed request is a failure at every position that asked
      for it.
    """
    if on_error not in ("raise", "quarantine"):
        raise ValueError(f"on_error must be 'raise' or 'quarantine', not {on_error!r}")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout_s must be positive")
    if failures is None:
        failures = []
    directory = resolve_cache_dir(cache_dir)
    request_list: list[RunRequest] = []
    keys: list[str] = []
    first: dict[str, int] = {}
    results: dict[int, SimulationResult | None] = {}
    # Each distinct config object is encoded once per sweep, and each
    # mix once per config it is resolved for.  The memos are keyed by
    # identity, not by ``==``: equal configs may encode differently (an
    # int vs a float field), and each must keep its own key.  Each holds
    # what it keyed, so no id can be reused meanwhile.
    config_texts: dict[int, tuple[CMPConfig, str]] = {}
    mix_texts: dict[tuple[int, int], tuple[CMPConfig, Mix | None, str]] = {}

    def config_text(config: CMPConfig) -> str:
        known = config_texts.get(id(config))
        if known is None:
            known = config_texts[id(config)] = (config, _stable(config, "config"))
        return known[1]

    def key_of(request: RunRequest) -> str:
        config, mix = request.config, request.mix
        known = mix_texts.get((id(config), id(mix)))
        if known is None:
            known = mix_texts[id(config), id(mix)] = (
                config, mix, _mix_text(config, mix)
            )
        return _keyed(request, config_text(config), known[2])

    def enlist(batch: Iterable[RunRequest]) -> list[int]:
        """Add ``batch`` to the sweep: key and look up each request.
        Return, per request, the position of the first one with its key."""
        primaries = []
        for request in batch:
            key = key_of(request)
            position = first.setdefault(key, len(keys))
            if position == len(keys):
                results[position] = (
                    None if directory is None else _cache_load(directory, key)
                )
            request_list.append(request)
            keys.append(key)
            primaries.append(position)
        return primaries

    primary = enlist(requests)
    pending = [i for i in dict.fromkeys(primary) if results[i] is None]
    # Only a miss builds its scheme: the wave asks it for its point.
    schemes = {i: request_list[i].scheme_factory() for i in pending}
    points = _calibration_points(
        [request_list[i] for i in pending], list(schemes.values())
    )
    point_of = {pending[j]: point for point, js in points.items() for j in js}
    # The calibration wave: the excitation runs of each point not yet
    # fitted.  A point that cannot be calibrated (a negative seed makes
    # invalid requests) is a failure of every run that needs it.
    wave: dict[CalibrationPoint, list[int]] = {}
    broken: dict[CalibrationPoint, RunFailure] = {}

    def fails(point: CalibrationPoint, exc: Exception) -> None:
        if on_error == "raise":
            raise exc
        message = f"{type(exc).__name__}: {exc}"
        broken[point] = RunFailure(-1, "error", 1, message)

    for point in points:
        if point not in FITTED:
            try:
                wave[point] = enlist(calibration_requests(point))
            except ValueError as exc:
                fails(point, exc)
    excite = list(
        dict.fromkeys(i for ps in wave.values() for i in ps if results[i] is None)
    )
    excited = set(excite)
    runs = [i for i in pending if i not in excited]
    n_jobs = resolve_jobs(jobs)
    supervised = timeout_s is not None or retries > 0 or on_error == "quarantine"

    # Misses that share a config and a horizon run as fleets, one task
    # each, of at most ceil(group size / workers) members, so every
    # worker gets work.  A supervised sweep runs one run per task: a
    # deadline, a retry and a quarantine each belong to one run.
    def group_of(i: int) -> tuple[str, int]:
        request = request_list[i]
        return config_text(request.config), request.n_gpm_intervals

    def width_of(size: int) -> int:
        return 1 if supervised else -(-size // n_jobs)

    wave_fleets = _fleets(excite, group_of, width_of)
    run_fleets = _fleets(runs, group_of, width_of)
    in_process = n_jobs <= 1 or (
        len(wave_fleets) + len(run_fleets) <= 1 and not supervised
    )
    if in_process and timeout_s is not None:
        warnings.warn(
            "run_many: timeout_s requires jobs > 1; running serially "
            "without a deadline",
            RuntimeWarning,
            stacklevel=2,
        )

    fleet_of: dict[int, list[int]] = {}

    def task(fleet: list[int]) -> tuple[Callable, tuple]:
        # A task is keyed by its first member.  A run gets its point's
        # fit (the wave's runs need none); a worker builds its own
        # schemes from the pickled specs.
        fleet_of[fleet[0]] = fleet
        members = [
            (
                request_list[i],
                keys[i],
                FITTED[point_of[i]] if i in point_of else None,
                schemes.get(i) if in_process else None,
            )
            for i in fleet
        ]
        return _execute, (members, directory)

    def run_fleets_of(tasks: dict[int, tuple[Callable, tuple]], label: str) -> None:
        done = _run_tasks(executor, tasks, retries, on_error, failed, label)
        for first, fleet_results in done.items():
            results.update(zip(fleet_of[first], fleet_results))

    n_tasks = max(len(wave_fleets), len(run_fleets))
    executor = (
        _InProcess() if in_process else _Pool(min(n_jobs, n_tasks), timeout_s)
    )
    failed: list[RunFailure] = []
    try:
        run_fleets_of({f[0]: task(f) for f in wave_fleets}, "calibration run")
        lost = {f.index: f for f in failed}
        for point, positions in wave.items():
            cause = next((lost[i] for i in positions if i in lost), None)
            if cause is not None:
                broken[point] = cause
                continue
            try:
                fit_once(point, [results[i] for i in positions])  # type: ignore[misc]
            except Exception as exc:  # noqa: BLE001 - the failure policy decides
                fails(point, exc)
        # The fits hold what the runs need; free the excitation results.
        for i in range(len(primary), len(keys)):
            results.pop(i, None)
        tasks: dict[int, tuple[Callable, tuple]] = {}
        for fleet in run_fleets:
            healthy = []
            for i in fleet:
                point = point_of.get(i)
                if point in broken:
                    failed.append(
                        dataclasses.replace(
                            broken[point],
                            index=i,
                            message=f"calibration failed: {broken[point].message}",
                        )
                    )
                else:
                    healthy.append(i)
            if healthy:
                tasks[healthy[0]] = task(healthy)
        run_fleets_of(tasks, "request")
    finally:
        executor.close()
    for failure in failed:
        failures.extend(
            dataclasses.replace(failure, index=j)
            for j, i in enumerate(primary)
            if i == failure.index
        )
    # Every slot is filled unless its request was quarantined.
    return [results[i] for i in primary]  # type: ignore[misc]


def seed_stream(root_seed: int, n_runs: int, role: str = "runner") -> list[int]:
    """``n_runs`` deterministic, distinct seeds derived from ``root_seed``.

    Use for replicated runs of one configuration (e.g. seed-robustness
    sweeps): the stream depends only on ``(root_seed, role)``, so adding
    runs extends it without disturbing earlier seeds.
    """
    if n_runs < 0:
        raise ValueError("n_runs must be non-negative")
    return [role_seed(root_seed, f"{role}/run{i}") for i in range(n_runs)]
