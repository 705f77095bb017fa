"""Per-interval telemetry recording and windowed aggregation.

The simulator writes one row per PIC interval into per-series NumPy
columns that the experiments slice directly; :meth:`Telemetry.finalize`
only trims them to the recorded length.  GPM-window
aggregation (per-island mean power/BIPS between two GPM invocations) lives
here too because both the GPM policies and the figures need it.  A pickled
telemetry (a cache entry, a pool result) holds the windows column-wise as
well, one array per :class:`WindowStats` field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List

import numpy as np

from ..unit_types import (
    BipsArray,
    JoulesArray,
    PowerFractionArray,
    Seconds,
)
from .chip import IntervalResult

__all__ = ["ResilienceEvent", "ResilienceLog", "Telemetry", "WindowStats"]


@dataclass(frozen=True)
class ResilienceEvent:
    """One guard decision: a fault detected, a degradation, a recovery."""

    tick: int
    kind: str
    island: int | None = None
    detail: str = ""


@dataclass
class ResilienceLog:
    """Append-only record of guard activity during one run.

    The run's :class:`~repro.cmpsim.simulator.Simulation` owns it
    (``sim.log``) and returns it as ``SimulationResult.log``.  The guards
    (sensor guard in ``repro.pic.guard``, GPM guard in
    ``repro.gpm.guard``) write here so tests and the chaos harness can
    assert on detection and recovery instead of inferring them from power
    traces.  ``now`` is the simulator tick the owning scheme stamps
    before invoking the guarded tier; guards never read a clock
    themselves, so logging stays deterministic.
    """

    events: List[ResilienceEvent] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    now: int = 0

    def count(self, kind: str, n: int = 1) -> None:
        """Bump the counter for ``kind`` without recording an event."""
        self.counts[kind] = self.counts.get(kind, 0) + n

    def record(
        self, kind: str, island: int | None = None, detail: str = ""
    ) -> None:
        """Record one event at the current tick (and count it)."""
        self.events.append(
            ResilienceEvent(tick=self.now, kind=kind, island=island, detail=detail)
        )
        self.count(kind)

    def count_of(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def events_of(self, kind: str) -> List[ResilienceEvent]:
        return [e for e in self.events if e.kind == kind]


@dataclass(frozen=True)
class WindowStats:
    """Aggregates over one completed GPM window (several PIC intervals)."""

    #: Mean per-island power over the window, fraction of max chip power.
    island_power_frac: PowerFractionArray
    #: Mean per-island throughput over the window, BIPS.
    island_bips: BipsArray
    #: Mean per-island utilization over the window.
    island_utilization: np.ndarray
    #: Island set-points in force during the window (fractions).
    island_setpoints: PowerFractionArray
    #: Total energy consumed per island over the window, joules.
    island_energy_j: JoulesArray
    #: Instructions retired per island over the window.
    island_instructions: np.ndarray
    duration_s: Seconds


#: The :class:`WindowStats` fields that hold one value per island.
_WINDOW_ARRAYS = tuple(f.name for f in fields(WindowStats) if f.name != "duration_s")


class Telemetry:
    """Per-interval record of a simulation run, one array per series.

    Each series is a preallocated column whose row ``i`` is interval
    ``i``: ``(T,)`` for chip-level and scalar series, ``(T, n_islands)``
    or ``(T, n_cores)`` for per-island and per-core ones.  :meth:`reserve`
    allocates the columns once, before the first row (the simulator
    reserves the whole run), and ``record`` writes a row in place;
    recording past the reserved size raises.  :meth:`finalize` trims the
    columns to the recorded rows; after it, and in any unpickled copy,
    ``record`` raises.

    GPM windows are kept as the list of :class:`WindowStats` the
    simulator pushes.  A pickle stores them column-wise instead: one
    ``(n_windows, n_islands)`` array per array field and one
    ``(n_windows,)`` array of durations.  An unpickled copy keeps those
    columns and builds the list, of row views, only when
    :attr:`windows` is first read.
    """

    #: Series name -> (row width attribute or None for a scalar, dtype).
    _LAYOUT: Dict[str, tuple[str | None, type]] = {
        "time_s": (None, float),
        "island_setpoint_frac": ("n_islands", float),
        "island_power_frac": ("n_islands", float),
        "island_sensed_frac": ("n_islands", float),
        "island_frequency_ghz": ("n_islands", float),
        "island_utilization": ("n_islands", float),
        "island_bips": ("n_islands", float),
        "chip_power_frac": (None, float),
        "chip_bips": (None, float),
        "core_temperature_c": ("n_cores", float),
        "core_utilization": ("n_cores", float),
        "is_gpm_tick": (None, bool),
    }
    _SERIES = tuple(_LAYOUT)

    def __init__(self, n_islands: int, n_cores: int) -> None:
        self.n_islands = n_islands
        self.n_cores = n_cores
        #: None in an unpickled copy until :attr:`windows` is first read.
        self._windows: List[WindowStats] | None = []
        #: The windows column-wise, as unpickled.
        self._window_columns: Dict[str, np.ndarray] | None = None
        self._rows = 0
        self._finalized = False
        self._columns = self._allocate(0)

    def _allocate(self, capacity: int) -> Dict[str, np.ndarray]:
        """Empty columns with room for ``capacity`` rows."""
        columns: Dict[str, np.ndarray] = {}
        for key, (width, dtype) in self._LAYOUT.items():
            shape: tuple[int, ...] = (
                (capacity,) if width is None else (capacity, getattr(self, width))
            )
            columns[key] = np.empty(shape, dtype=dtype)
        return columns

    def reserve(self, n_rows: int) -> None:
        """Allocate the columns for ``n_rows`` intervals, before the first."""
        if self._rows or self._finalized:
            raise RuntimeError("telemetry is reserved before the first row")
        self._columns = self._allocate(n_rows)

    def record(
        self,
        time_s: Seconds,
        result: IntervalResult,
        setpoints: np.ndarray,
        sensed: np.ndarray,
        is_gpm_tick: bool,
    ) -> None:
        """Write one interval's worth of data as the next row."""
        if self._finalized:
            raise RuntimeError("telemetry already finalized")
        i = self._rows
        if i == len(self._columns["time_s"]):
            raise RuntimeError(f"telemetry reserved for {i} rows is full")
        col = self._columns
        col["time_s"][i] = time_s
        col["island_setpoint_frac"][i] = setpoints
        col["island_power_frac"][i] = result.island_power_frac
        col["island_sensed_frac"][i] = sensed
        col["island_frequency_ghz"][i] = result.island_frequency_ghz
        col["island_utilization"][i] = result.island_utilization
        col["island_bips"][i] = result.island_bips
        col["chip_power_frac"][i] = result.chip_power_frac
        col["chip_bips"][i] = result.chip_bips
        col["core_temperature_c"][i] = result.core_temperature_c
        col["core_utilization"][i] = result.core_utilization
        col["is_gpm_tick"][i] = is_gpm_tick
        self._rows = i + 1

    def push_window(self, window: WindowStats) -> None:
        """Record aggregates for a completed GPM window."""
        self.windows.append(window)

    @property
    def windows(self) -> List[WindowStats]:
        """Completed GPM-window aggregates, oldest first."""
        if self._windows is None:
            assert self._window_columns is not None
            columns = self._window_columns
            durations = columns["duration_s"].tolist()
            self._windows = [
                WindowStats(
                    **{name: columns[name][i] for name in _WINDOW_ARRAYS},
                    duration_s=duration,
                )
                for i, duration in enumerate(durations)
            ]
        return self._windows

    @property
    def n_intervals(self) -> int:
        return self._rows

    def finalize(self) -> Dict[str, np.ndarray]:
        """Trim the columns to the recorded rows and stop recording
        (idempotent)."""
        if not self._finalized:
            self._columns = self._trimmed()
            self._finalized = True
        return self._columns

    def _trimmed(self) -> Dict[str, np.ndarray]:
        return {key: column[: self._rows] for key, column in self._columns.items()}

    def _stacked_windows(self) -> Dict[str, np.ndarray]:
        """The windows column-wise: row ``k`` of each array is window ``k``."""
        windows = self.windows
        columns = {
            name: np.array([getattr(w, name) for w in windows]).reshape(
                len(windows), self.n_islands
            )
            for name in _WINDOW_ARRAYS
        }
        columns["duration_s"] = np.array(
            [w.duration_s for w in windows], dtype=float
        )
        return columns

    def __getstate__(self) -> dict:
        # Only the recorded rows travel: a pickle (cache entry, pool
        # result) holds one contiguous array per series and one per
        # window field, however many windows the run completed.
        return {
            "n_islands": self.n_islands,
            "n_cores": self.n_cores,
            "columns": self._trimmed(),
            "windows": self._stacked_windows(),
        }

    def __setstate__(self, state: dict) -> None:
        self.n_islands = state["n_islands"]
        self.n_cores = state["n_cores"]
        self._columns = state["columns"]
        self._window_columns = state["windows"]
        self._windows = None
        self._rows = len(self._columns["time_s"])
        self._finalized = True

    def __getitem__(self, key: str) -> np.ndarray:
        """Array access, finalizing on first use."""
        arrays = self.finalize()
        if key not in arrays:
            raise KeyError(f"unknown telemetry series {key!r}; have {sorted(arrays)}")
        return arrays[key]

    # ------------------------------------------------------------------
    # Analysis helpers used by experiments
    # ------------------------------------------------------------------
    def gpm_tick_indices(self) -> np.ndarray:
        """Interval indices at which the GPM ran."""
        return np.flatnonzero(self["is_gpm_tick"])
