"""End-to-end runtime benchmark: simulator tick cost and runner speedup.

Measures the wall-clock cost of one simulated PIC tick (µs per tick,
best of a few runs) of a CPM run at 8c4i, 32c8i and 64c16i, of a
fault-free guarded CPM run at 32c8i (``guarded_32c8i``), and of the
MaxBIPS and no-management baselines at 32c8i, the runs per second of
CPM fleets of 1, 8 and 64 members at 32c8i (one process, one
chip-kernel call per tick for the whole fleet), and times a
4-point budget sweep through ``repro.runner.run_many`` — serial, cold
parallel (fresh cache), cold parallel with a per-run deadline
(``timeout_s``, which should cost no more than without), and warm
parallel (cache hits).  The warm sweep's read path is also split by
layer (``warm_hit``): ms per hit for the cache key, the entry's file
read and its unpickle, and the numpy arrays one entry holds.

Writes ``BENCH_runtime.json`` at the repo root (``--out`` overrides).
The host CPU count is recorded in the output: on single-core runners the
process-pool fan-out cannot add parallel speedup, so the sweep gains
come from the on-disk result cache.

Usage::

    python benchmarks/bench_runtime.py            # full horizons
    python benchmarks/bench_runtime.py --quick    # CI-sized horizons
    python benchmarks/bench_runtime.py --jobs 8   # pool width for the sweep
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import pickle
import sys
import tempfile
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.baselines import MaxBIPSScheme, NoManagementScheme
from repro.config import DEFAULT_CONFIG
from repro.cmpsim.simulator import Fleet, Simulation
from repro.core.cpm import CPMScheme
from repro.resilience import GuardedCPMScheme
from repro.rng import DEFAULT_SEED
from repro.runner import RunRequest, cache_key, run_many

__all__ = [
    "CONFIGS",
    "REPO_ROOT",
    "SWEEP_BUDGETS",
    "FLEET_WIDTHS",
    "bench_configs",
    "bench_fleets",
    "bench_sweep",
    "bench_warm_hits",
    "main",
]

SWEEP_BUDGETS = (0.75, 0.80, 0.85, 0.90)
#: (name, cores, islands, scheme class) of each µs-per-tick line.
CONFIGS = (
    ("8c4i", 8, 4, CPMScheme),
    ("32c8i", 32, 8, CPMScheme),
    ("64c16i", 64, 16, CPMScheme),
    ("guarded_32c8i", 32, 8, GuardedCPMScheme),
    ("maxbips_32c8i", 32, 8, MaxBIPSScheme),
    ("no_management_32c8i", 32, 8, NoManagementScheme),
)

#: Members per fleet in the runs-per-second lines (32c8i, CPM).
FLEET_WIDTHS = (1, 8, 64)


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()  # lint: ignore[DET003] benchmark harness measures wall time by design
        fn()
        best = min(best, time.perf_counter() - start)  # lint: ignore[DET003] benchmark harness measures wall time by design
    return best


def _single_run_seconds(config, scheme, n_gpm: int, repeats: int):
    result = {}

    def once():
        sim = Simulation(
            config, scheme(), budget_fraction=0.8, seed=DEFAULT_SEED
        )
        result["run"] = sim.run(n_gpm)

    seconds = _time(once, repeats)
    return seconds, result["run"].telemetry.n_intervals


def bench_configs(n_gpm: int, repeats: int) -> list[dict]:
    """µs per tick of the run at each of :data:`CONFIGS`."""
    rows = []
    for name, n_cores, n_islands, scheme in CONFIGS:
        config = DEFAULT_CONFIG.with_islands(n_cores, n_islands)
        # Warm the in-process calibration memo so its one-time cost does
        # not land on the timed runs.
        _single_run_seconds(config, scheme, 1, 1)
        seconds, ticks = _single_run_seconds(config, scheme, n_gpm, repeats)
        rows.append(
            {
                "name": name,
                "scheme": scheme.name,
                "n_cores": n_cores,
                "n_islands": n_islands,
                "ticks": ticks,
                "seconds": round(seconds, 4),
                "us_per_tick": round(seconds / ticks * 1e6, 1),
                "ticks_per_s": round(ticks / seconds, 1),
            }
        )
        print(f"{name}: {seconds / ticks * 1e6:6.1f} us/tick")
    return rows


def bench_fleets(n_gpm: int, repeats: int) -> list[dict]:
    """Runs per second of a 32c8i CPM fleet at each of :data:`FLEET_WIDTHS`.

    Members share the platform and the seed (so one calibration) and
    differ in budget; each fleet runs in this process.
    """
    config = DEFAULT_CONFIG.with_islands(32, 8)
    _single_run_seconds(config, CPMScheme, 1, 1)  # warm the calibration memo
    rows = []
    for width in FLEET_WIDTHS:
        budgets = np.linspace(0.7, 0.95, width)

        def once():
            sims = [
                Simulation(config, CPMScheme(), budget_fraction=b, seed=DEFAULT_SEED)
                for b in budgets.tolist()
            ]
            Fleet(sims).run(n_gpm)

        seconds = _time(once, repeats)
        ticks = n_gpm * config.control.pics_per_gpm
        rows.append(
            {
                "members": width,
                "n_gpm_intervals": n_gpm,
                "seconds": round(seconds, 4),
                "runs_per_s": round(width / seconds, 2),
                "us_per_member_tick": round(seconds / (width * ticks) * 1e6, 1),
            }
        )
        print(
            f"fleet of {width:2d} at 32c8i: {width / seconds:7.2f} runs/s "
            f"({seconds / (width * ticks) * 1e6:5.1f} us per member-tick)"
        )
    return rows


class _ArrayCounter(pickle.Pickler):
    """A pickler that counts the numpy arrays it writes."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays = 0

    def reducer_override(self, obj):
        if isinstance(obj, np.ndarray):
            self.arrays += 1
        return NotImplemented


def bench_warm_hits(requests, cache: str, repeats: int) -> dict:
    """ms per warm hit, layer by layer, over a cache ``requests`` filled.

    ``cache_key_ms`` is :func:`cache_key` called alone, which encodes the
    request's config every time; ``run_many`` encodes each distinct
    config once per call, so ``other_ms`` (the whole warm ``run_many``
    less the file reads and unpickles) holds its keys and bookkeeping.
    """
    n = len(requests)
    paths = [
        pathlib.Path(cache) / key[:2] / f"{key}.pkl"
        for key in map(cache_key, requests)
    ]
    blobs = [path.read_bytes() for path in paths]
    key_s = _time(lambda: [cache_key(r) for r in requests], repeats)
    read_s = _time(lambda: [path.read_bytes() for path in paths], repeats)
    unpickle_s = _time(lambda: [pickle.loads(blob) for blob in blobs], repeats)
    warm_s = _time(lambda: run_many(requests, jobs=1, cache_dir=cache), repeats)
    counter = _ArrayCounter(io.BytesIO())
    counter.dump(pickle.loads(blobs[0]))
    out = {
        "hits": n,
        "warm_ms_per_hit": round(warm_s / n * 1e3, 4),
        "cache_key_ms": round(key_s / n * 1e3, 4),
        "read_ms": round(read_s / n * 1e3, 4),
        "unpickle_ms": round(unpickle_s / n * 1e3, 4),
        "other_ms": round((warm_s - read_s - unpickle_s) / n * 1e3, 4),
        "arrays_per_entry": counter.arrays,
        "entry_kb": round(sum(map(len, blobs)) / n / 1024, 1),
    }
    print(
        f"warm hit: {out['warm_ms_per_hit']:.3f} ms (key {out['cache_key_ms']:.3f}, "
        f"read {out['read_ms']:.3f}, unpickle {out['unpickle_ms']:.3f} ms; "
        f"{out['arrays_per_entry']} arrays per entry)"
    )
    return out


def bench_sweep(n_gpm: int, jobs: int, repeats: int) -> dict:
    """Time a 4-point budget sweep four ways; pooled vs serial."""
    requests = [
        RunRequest(
            config=DEFAULT_CONFIG,
            scheme_factory=CPMScheme,
            budget_fraction=budget,
            seed=DEFAULT_SEED,
            n_gpm_intervals=n_gpm,
        )
        for budget in SWEEP_BUDGETS
    ]

    serial_s = _time(lambda: run_many(requests, jobs=1), 1)
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as cache:
        cold_s = _time(lambda: run_many(requests, jobs=jobs, cache_dir=cache), 1)
        warm_s = _time(lambda: run_many(requests, jobs=jobs, cache_dir=cache), 1)
        warm_hit = bench_warm_hits(requests, cache, repeats)
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as cache:
        supervised_s = _time(
            lambda: run_many(
                requests, jobs=jobs, cache_dir=cache, timeout_s=600.0
            ),
            1,
        )

    out = {
        "budgets": list(SWEEP_BUDGETS),
        "n_gpm_intervals": n_gpm,
        "jobs": jobs,
        "runner_serial_s": round(serial_s, 4),
        f"runner_jobs{jobs}_cold_s": round(cold_s, 4),
        f"runner_jobs{jobs}_supervised_cold_s": round(supervised_s, 4),
        f"runner_jobs{jobs}_warm_s": round(warm_s, 4),
        f"speedup_jobs{jobs}_cold_vs_serial": round(serial_s / cold_s, 2),
        f"speedup_jobs{jobs}_warm_vs_serial": round(serial_s / warm_s, 2),
        "warm_hit": warm_hit,
    }
    print(
        f"sweep ({len(SWEEP_BUDGETS)} budgets): serial {serial_s:.3f}s, "
        f"jobs={jobs} cold {cold_s:.3f}s ({serial_s / cold_s:.2f}x), "
        f"supervised cold {supervised_s:.3f}s, "
        f"warm {warm_s:.3f}s ({serial_s / warm_s:.2f}x)"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized horizons (6 GPM intervals, 1 repeat)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the sweep benchmark")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_runtime.json"),
                        help="output JSON path")
    args = parser.parse_args(argv)

    tick_gpm = 6 if args.quick else 100
    sweep_gpm = 6 if args.quick else 25
    repeats = 1 if args.quick else 5

    payload = {
        "benchmark": "bench_runtime",
        "quick": args.quick,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "configs": bench_configs(tick_gpm, repeats),
        "fleets": bench_fleets(sweep_gpm, repeats),
        "sweep": bench_sweep(sweep_gpm, args.jobs, repeats),
        "notes": [
            "us_per_tick is the best-of-repeats wall time of one serial run "
            "(calibration warmed) divided by its PIC ticks; guarded_32c8i is "
            "GuardedCPMScheme with no fault, so it prices the sensor guard; "
            "maxbips_32c8i (static prediction table) and "
            "no_management_32c8i price the baselines' GPM tiers against "
            "a tick with no controller work.",
            "fleets: runs per second of a 32c8i CPM fleet (members share "
            "the seed and differ in budget) run in this process at the "
            "paper horizon, best of repeats; a fleet of 1 is a plain "
            "Simulation.run, and us_per_member_tick is the wall time per "
            "member per PIC tick.",
            "sweep speedups are wall-clock ratios vs run_many(jobs=1) on "
            "this host; with cpu_count=1 the pool adds no parallelism and "
            "the warm gain comes from the result cache.",
            "runner_jobsN_supervised_cold_s is the cold sweep with "
            "timeout_s=600: a deadline only changes the failure policy on "
            "the same worker pool, so it should read like the cold line.",
            "sweep.warm_hit splits one warm hit into layers, each the best "
            "of repeats over every request: cache_key_ms is cache_key() "
            "alone (one full config encoding), read_ms and unpickle_ms the "
            "entry's file read and pickle.loads, other_ms the rest of a warm "
            "run_many(jobs=1) (its keys, encoding each distinct config once, "
            "and bookkeeping); arrays_per_entry counts the numpy arrays one "
            "entry pickles.",
        ],
    }
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
