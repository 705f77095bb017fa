"""Golden telemetry digests: the "same behaviour" oracle.

A small matrix of platform × scheme × DVFS mode is simulated for a few
GPM windows at a fixed seed, and every telemetry series (plus the run's
GPM-window aggregates, its total instruction count and, for a guarded
scheme, its resilience event log) is hashed with SHA-256.  The committed digests
in ``tests/golden/telemetry_digests.json`` pin the simulator bit for bit:
a refactor that claims to keep behaviour must leave them unchanged, and a
change that moves them must say so.

The file records the numpy version it was made with.  ``exp`` and
``pow`` may round differently across numpy releases, so on any other
version the comparison is skipped rather than failed.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_golden_digests.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.maxbips import MaxBIPSScheme
from repro.baselines.no_management import NoManagementScheme
from repro.baselines.static_uniform import StaticUniformScheme
from repro.cmpsim.simulator import Simulation
from repro.cmpsim.telemetry import WindowStats
from repro.config import DEFAULT_CONFIG, DVFSConfig
from repro.core.cpm import CPMScheme
from repro.faults import (
    BiasedTransducer,
    FaultWindow,
    GainError,
    LaggedActuator,
    MissedGPMFault,
    NoisySensor,
    ScheduledStuckSensor,
    StuckActuatorFault,
    StuckSensor,
    TransientSensorDropout,
    inject,
)
from repro.gpm import EnergyAwarePolicy, ThermalAwarePolicy, VariationAwarePolicy
from repro.resilience import GuardedCPMScheme

__all__ = ["GOLDEN_PATH", "compute_digests", "result_digests"]

GOLDEN_PATH = Path(__file__).parent / "golden" / "telemetry_digests.json"
GOLDEN_SEED = 2010
GOLDEN_WINDOWS = 5
BUDGET = 0.8
SHAPES = {"8c4i": (8, 4), "32c8i": (32, 8)}
DVFS_MODES = ("continuous", "quantized")


def _guarded_under_dropout(config):
    ticks_per_window = config.control.pics_per_gpm
    fault = TransientSensorDropout(
        island=1,
        window=FaultWindow(2 * ticks_per_window, 3 * ticks_per_window),
    )
    return inject(GuardedCPMScheme(), fault)


#: A fault window inside the golden horizon: it opens after the first
#: GPM window and clears a window before the end, so both the fault and
#: the recovery land in the digests.
FAULT_WINDOW = FaultWindow(15, 35)


def _faulty(*faults, scheme=CPMScheme):
    return lambda config: inject(scheme(), *faults)


SCHEMES = {
    "cpm": lambda config: CPMScheme(),
    "maxbips": lambda config: MaxBIPSScheme(),
    "none": lambda config: NoManagementScheme(),
    "cpm-guarded-dropout": _guarded_under_dropout,
    "cpm-gain-error": _faulty(GainError(1.3)),
    "cpm-biased-transducer": _faulty(BiasedTransducer(0.01)),
    "cpm-noisy-sensor": _faulty(NoisySensor(0.02, seed=1)),
    "cpm-stuck-sensor": _faulty(StuckSensor(island=1, stick_after=15)),
    "cpm-lagged-actuator": _faulty(LaggedActuator()),
    "cpm-scheduled-stuck-sensor": _faulty(
        ScheduledStuckSensor(island=1, window=FAULT_WINDOW)
    ),
    "cpm-stuck-actuator": _faulty(
        StuckActuatorFault(island=1, window=FAULT_WINDOW, frequency_ghz=99.0)
    ),
    "cpm-missed-gpm": _faulty(MissedGPMFault(window=FAULT_WINDOW)),
    # Pins the order in which stacked sensor faults run.
    "cpm-composed-faults": _faulty(
        GainError(1.2),
        NoisySensor(0.02, seed=1),
        StuckSensor(island=1, stick_after=15),
    ),
    "cpm-guarded-scheduled-stuck-sensor": _faulty(
        ScheduledStuckSensor(island=1, window=FAULT_WINDOW),
        scheme=GuardedCPMScheme,
    ),
    "cpm-guarded-stuck-actuator": _faulty(
        StuckActuatorFault(island=1, window=FAULT_WINDOW, frequency_ghz=99.0),
        scheme=GuardedCPMScheme,
    ),
    "static-uniform": lambda config: StaticUniformScheme(),
    "cpm-thermal": lambda config: CPMScheme(policy=ThermalAwarePolicy()),
    "cpm-variation": lambda config: CPMScheme(policy=VariationAwarePolicy()),
    "cpm-energy": lambda config: CPMScheme(policy=EnergyAwarePolicy()),
}


def _sha256(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}|{arr.shape}|".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _log_digest(log) -> str:
    """Every guard decision of a run, in order, plus its counters."""
    events = [(e.tick, e.kind, e.island, e.detail) for e in log.events]
    payload = repr((events, sorted(log.counts.items())))
    return hashlib.sha256(payload.encode()).hexdigest()


def _windows_digest(windows) -> str:
    """Every GPM window's aggregates: each array field stacked to
    ``(n_windows, n_fields, n_islands)``, plus the windows' durations."""
    names = [f.name for f in dataclasses.fields(WindowStats) if f.name != "duration_s"]
    stacked = np.array([[getattr(w, name) for name in names] for w in windows])
    durations = np.array([w.duration_s for w in windows], dtype=float)
    payload = _sha256(stacked) + _sha256(durations)
    return hashlib.sha256(payload.encode()).hexdigest()


def _run_digests(config, make_scheme) -> dict[str, str]:
    scheme = make_scheme(config)
    result = Simulation(
        config, scheme, budget_fraction=BUDGET, seed=GOLDEN_SEED
    ).run(GOLDEN_WINDOWS)
    return result_digests(result, scheme)


def result_digests(result, scheme) -> dict[str, str]:
    """Every digest of one run's ``result``; ``scheme`` is the run's."""
    digests = {
        key: _sha256(values)
        for key, values in sorted(result.telemetry.finalize().items())
    }
    digests["windows"] = _windows_digest(result.telemetry.windows)
    digests["total_instructions"] = _sha256(
        np.array(result.total_instructions, dtype=float)
    )
    if isinstance(getattr(scheme, "inner", scheme), GuardedCPMScheme):
        assert result.log is scheme.log
        digests["resilience_log"] = _log_digest(result.log)
    else:
        assert not result.log.events and not result.log.counts
    return digests


def _cases():
    for shape, (cores, islands) in SHAPES.items():
        base = DEFAULT_CONFIG.with_islands(cores, islands)
        for mode in DVFS_MODES:
            config = dataclasses.replace(base, dvfs=DVFSConfig(mode=mode))
            for scheme, make_scheme in SCHEMES.items():
                yield f"{shape}/{scheme}/{mode}", config, make_scheme


def compute_digests() -> dict[str, dict[str, str]]:
    """Digests of every case in the matrix, keyed ``shape/scheme/mode``."""
    return {
        case: _run_digests(config, make_scheme)
        for case, config, make_scheme in _cases()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    stored = json.loads(GOLDEN_PATH.read_text())
    if stored["numpy_version"] != np.__version__:
        pytest.skip(
            f"golden digests were made with numpy {stored['numpy_version']}; "
            f"this is numpy {np.__version__}, whose exp/pow bits may differ"
        )
    return stored


def test_golden_file_covers_the_matrix():
    stored = json.loads(GOLDEN_PATH.read_text())
    assert sorted(stored["runs"]) == sorted(case for case, _, _ in _cases())
    assert stored["seed"] == GOLDEN_SEED
    assert stored["gpm_windows"] == GOLDEN_WINDOWS


@pytest.mark.parametrize("case", [case for case, _, _ in _cases()])
def test_telemetry_matches_golden_digests(golden, case):
    config, make_scheme = next(
        (config, make) for name, config, make in _cases() if name == case
    )
    assert _run_digests(config, make_scheme) == golden["runs"][case]


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    payload = {
        "numpy_version": np.__version__,
        "seed": GOLDEN_SEED,
        "gpm_windows": GOLDEN_WINDOWS,
        "budget_fraction": BUDGET,
        "runs": compute_digests(),
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['runs'])} runs to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
