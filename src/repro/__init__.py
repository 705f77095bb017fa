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
"""

from .config import (
    CMPConfig,
    ControlConfig,
    CoreConfig,
    DEFAULT_CONFIG,
    DVFSConfig,
    MemoryConfig,
    ThermalConfig,
)
from .rng import DEFAULT_SEED, SeedSequenceFactory

# Control substrate.
from .control import (
    DiscretePID,
    DiscreteTransferFunction,
    PIDGains,
    ResponseMetrics,
    design_pid,
    response_metrics,
    stability_gain_limit,
)

# Simulator.
from .cmpsim import Chip, DVFSTable, Simulation, SimulationResult

# Workloads.
from .workloads import MIX1, MIX2, MIX3, Mix, parsec_benchmark, spec_benchmark

# Two-tier CPM and its tiers.
from .core import (
    Calibration,
    CPMScheme,
    calibrate,
    chip_tracking_metrics,
    default_calibration,
    performance_degradation,
    run_cpm,
)
from .gpm import (
    EnergyAwarePolicy,
    GlobalPowerManager,
    PerformanceAwarePolicy,
    ThermalAwarePolicy,
    UniformPolicy,
    VariationAwarePolicy,
)
from .pic import PerIslandController

# Baselines.
from .baselines import MaxBIPSScheme, NoManagementScheme, StaticUniformScheme

__version__ = "1.0.0"

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
