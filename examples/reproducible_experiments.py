#!/usr/bin/env python3
"""Scenario: a fully reproducible experiment bundle.

Research workflow: capture the exact workload an interesting run saw,
archive it with the run's telemetry, and replay it later — on the same
platform to verify bit-identical results, and on a *variant* platform
(quantized DVFS knobs) to answer "would this anomaly still happen with
discrete actuation?" without workload noise confounding the comparison.

Run:  python examples/reproducible_experiments.py
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np

from repro import CPMScheme, DEFAULT_CONFIG, Simulation
from repro.config import DVFSConfig
from repro.io import save_run
from repro.reporting import as_percent, format_table
from repro.workloads import RecordedWorkload, record

__all__ = ["BUDGET", "N_GPM", "SEED", "main"]

BUDGET = 0.80
N_GPM = 15
SEED = 31337


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_bundle_"))
    ticks = N_GPM * DEFAULT_CONFIG.control.pics_per_gpm

    # 1. Capture the workload and run the original experiment.
    capture = record(DEFAULT_CONFIG, n_ticks=ticks, seed=SEED)
    capture_path = capture.save(workdir / "workload.npz")
    original = Simulation(
        DEFAULT_CONFIG, CPMScheme(), budget_fraction=BUDGET,
        workload=capture,
    ).run(N_GPM)
    paths = save_run(original, workdir, stem="original")
    print(f"Archived bundle in {workdir}:")
    for kind, path in {**paths, "workload": capture_path}.items():
        print(f"  {kind:9s} {path.name}")

    # 2. Reload everything from disk and verify the replay is bit-exact.
    reloaded = RecordedWorkload.load(capture_path)
    replay = Simulation(
        DEFAULT_CONFIG, CPMScheme(), budget_fraction=BUDGET,
        workload=reloaded,
    ).run(N_GPM)
    drift = np.abs(
        replay.telemetry["chip_power_frac"]
        - original.telemetry["chip_power_frac"]
    ).max()
    print(f"\nReplay max drift vs original: {drift:.2e} (bit-exact)")
    assert drift == 0.0

    # 3. Counterfactual: same workload, quantized DVFS knobs.
    quantized_cfg = dataclasses.replace(
        DEFAULT_CONFIG, dvfs=DVFSConfig(mode="quantized")
    )
    quantized = Simulation(
        quantized_cfg, CPMScheme(), budget_fraction=BUDGET,
        workload=reloaded,
    ).run(N_GPM)

    def stats(result):
        chip = result.telemetry["chip_power_frac"][30:]
        return [
            as_percent(float(chip.mean())),
            as_percent(float(np.abs(chip - BUDGET).mean() / BUDGET)),
            f"{result.total_instructions:.4e}",
        ]

    print()
    print(
        format_table(
            ["variant", "mean power", "tracking error", "instructions"],
            [
                ["continuous DVFS"] + stats(original),
                ["quantized DVFS"] + stats(quantized),
            ],
            title="Same captured workload, two actuation models",
        )
    )
    summary = json.loads(paths["summary"].read_text())
    print(f"\nBundle metadata: scheme={summary['scheme']}, "
          f"{summary['n_intervals']} intervals, "
          f"budget {as_percent(summary['budget_fraction'], 0)}")


if __name__ == "__main__":
    main()
