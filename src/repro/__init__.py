"""repro — reproduction of "CPM in CMPs: Coordinated Power Management in
Chip-Multiprocessors" (Mishra, Srikantaiah, Kandemir, Das; SC 2010).

A two-tier, feedback-control power manager for chip multiprocessors whose
cores are grouped into voltage/frequency islands, together with every
substrate it needs: an interval-based CMP simulator, Wattch/HotLeakage-
style power models, synthetic PARSEC/SPEC workloads, a lumped-RC thermal
network, process-variation modelling, and the MaxBIPS baseline.

Quick start::

    from repro import DEFAULT_CONFIG, run_cpm

    result = run_cpm(DEFAULT_CONFIG, budget_fraction=0.8, n_gpm_intervals=20)
    print(result.mean_chip_power_frac)   # tracks ~0.8

The package root is lazy (PEP 562): ``import repro`` imports no
submodule, and each public name imports the submodule that defines it
on first access.  A tool that needs one leaf module, such as the
stdlib-only linter :mod:`repro.lintkit`, so starts without NumPy or the
simulator.  To export a name from the root, add it to ``_EXPORTS`` and
to ``__all__``; lint rule API002 checks that the two agree.
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

#: Public name -> the submodule that defines it, imported on first access.
_EXPORTS = {
    "CMPConfig": ".config",
    "ControlConfig": ".config",
    "CoreConfig": ".config",
    "DEFAULT_CONFIG": ".config",
    "DVFSConfig": ".config",
    "MemoryConfig": ".config",
    "ThermalConfig": ".config",
    "DEFAULT_SEED": ".rng",
    "SeedSequenceFactory": ".rng",
    # Control substrate.
    "DiscretePID": ".control",
    "DiscreteTransferFunction": ".control",
    "PIDGains": ".control",
    "ResponseMetrics": ".control",
    "design_pid": ".control",
    "response_metrics": ".control",
    "stability_gain_limit": ".control",
    # Simulator.
    "Chip": ".cmpsim",
    "DVFSTable": ".cmpsim",
    "Simulation": ".cmpsim",
    "SimulationResult": ".cmpsim",
    # Workloads.
    "MIX1": ".workloads",
    "MIX2": ".workloads",
    "MIX3": ".workloads",
    "Mix": ".workloads",
    "parsec_benchmark": ".workloads",
    "spec_benchmark": ".workloads",
    # Two-tier CPM and its tiers.
    "Calibration": ".core",
    "CPMScheme": ".core",
    "calibrate": ".core",
    "chip_tracking_metrics": ".core",
    "default_calibration": ".core",
    "performance_degradation": ".core",
    "run_cpm": ".core",
    "EnergyAwarePolicy": ".gpm",
    "GlobalPowerManager": ".gpm",
    "PerformanceAwarePolicy": ".gpm",
    "ThermalAwarePolicy": ".gpm",
    "UniformPolicy": ".gpm",
    "VariationAwarePolicy": ".gpm",
    "PerIslandController": ".pic",
    # Baselines.
    "MaxBIPSScheme": ".baselines",
    "NoManagementScheme": ".baselines",
    "StaticUniformScheme": ".baselines",
}

__all__ = [
    "CMPConfig",
    "CPMScheme",
    "Calibration",
    "Chip",
    "ControlConfig",
    "CoreConfig",
    "DEFAULT_CONFIG",
    "DEFAULT_SEED",
    "DVFSConfig",
    "DVFSTable",
    "DiscretePID",
    "DiscreteTransferFunction",
    "EnergyAwarePolicy",
    "GlobalPowerManager",
    "MIX1",
    "MIX2",
    "MIX3",
    "MaxBIPSScheme",
    "MemoryConfig",
    "Mix",
    "NoManagementScheme",
    "PIDGains",
    "PerIslandController",
    "PerformanceAwarePolicy",
    "ResponseMetrics",
    "SeedSequenceFactory",
    "Simulation",
    "SimulationResult",
    "StaticUniformScheme",
    "ThermalAwarePolicy",
    "ThermalConfig",
    "UniformPolicy",
    "VariationAwarePolicy",
    "calibrate",
    "chip_tracking_metrics",
    "default_calibration",
    "design_pid",
    "parsec_benchmark",
    "performance_degradation",
    "response_metrics",
    "run_cpm",
    "spec_benchmark",
    "stability_gain_limit",
]


def __getattr__(name: str):
    """Import a public name's submodule on first access (PEP 562)."""
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(submodule, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
