"""Configuration dataclasses mirroring Table I of the paper.

The default values reproduce the paper's platform: 90 nm technology,
2 GHz nominal clock, 8 Pentium-M-style voltage/frequency pairs from
600 MHz to 2.0 GHz, out-of-order x86 cores with private 16 KB L1 caches,
a shared L2, ~100 ns memory, a GPM interval of 5 ms and a PIC interval of
0.5 ms, and a DVFS transition overhead of 0.5% of CPU time.

All classes are frozen: a configuration is a value, and simulations derive
everything else from it.  Use :func:`dataclasses.replace` to build
variants (the experiment harness does this extensively for sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from . import units
from .unit_types import Celsius, GigaHz, Seconds, Watts

__all__ = [
    "CMPConfig",
    "ControlConfig",
    "CoreConfig",
    "DEFAULT_CONFIG",
    "DVFSConfig",
    "MemoryConfig",
    "PENTIUM_M_VF_TABLE",
    "ThermalConfig",
]

#: Pentium-M-style ladder: 8 (frequency GHz, voltage V) operating points.
#: The paper cites the Pentium-M datasheet for a 600 MHz – 2.0 GHz range;
#: the voltages follow the part's roughly affine V(f) relation between its
#: published 0.988 V floor and 1.484 V ceiling.
PENTIUM_M_VF_TABLE: Tuple[Tuple[float, float], ...] = (
    (0.6, 0.988),
    (0.8, 1.059),
    (1.0, 1.130),
    (1.2, 1.201),
    (1.4, 1.272),
    (1.6, 1.343),
    (1.8, 1.414),
    (2.0, 1.484),
)


@dataclass(frozen=True)
class CoreConfig:
    """Microarchitectural parameters of one core (Table I).

    Only the parameters that feed the performance and power models are kept
    as numbers; purely descriptive entries of Table I (fetch width, register
    file size, ...) are retained for documentation and the Table I printer.
    """

    fetch_width: int = 4
    issue_width: int = 2
    commit_width: int = 2
    register_file_entries: int = 80
    #: Effective switching capacitance of the whole core, in W / (V^2 * GHz).
    #: Chosen so a fully-active core at (2.0 GHz, 1.5 V) draws ~8 W dynamic.
    effective_capacitance: float = 1.78
    #: Nominal leakage power at reference voltage/temperature, watts.
    nominal_leakage_w: Watts = 1.5
    #: Effective switching activity during memory-stall cycles.  An
    #: out-of-order core stalled on memory is not quiet: the window is
    #: full, speculative wakeup/select and replay keep structures
    #: toggling.  0 would mean perfect gating of stalled cycles; ~0.65
    #: reproduces the realistic situation where a CMP running a mixed
    #: workload at full frequency draws close to its peak power (the
    #: regime the paper's 75-100%-of-max-power budgets assume).
    stall_activity: float = 0.65
    #: L1 data/instruction caches: 16 KB, 2-way, 64 B blocks, 1-cycle hit.
    l1_size_bytes: int = 16 * 1024
    l1_associativity: int = 2
    l1_block_bytes: int = 64
    l1_hit_cycles: int = 1

    def __post_init__(self) -> None:
        if self.effective_capacitance <= 0:
            raise ValueError("effective_capacitance must be positive")
        if self.nominal_leakage_w < 0:
            raise ValueError("nominal_leakage_w must be non-negative")
        if not 0.0 <= self.stall_activity <= 1.0:
            raise ValueError("stall_activity must be in [0, 1]")


@dataclass(frozen=True)
class MemoryConfig:
    """Shared cache and memory hierarchy parameters (Table I)."""

    #: Shared L2: 512 KB per core, 16-way, 64 B blocks.
    l2_size_bytes_per_core: int = 512 * 1024
    l2_associativity: int = 16
    l2_block_bytes: int = 64
    #: L2 hit latency in *core cycles* (on-chip, scales with the clock).
    l2_hit_cycles: int = 10
    #: Main-memory latency in *seconds* (off-chip, fixed wall-clock time).
    #: 100 ns = 200 cycles at the 2 GHz nominal clock, matching Table I's
    #: "~200 cycles" memory access delay.
    memory_latency_s: Seconds = 100 * units.NANOSECONDS

    def __post_init__(self) -> None:
        if self.memory_latency_s <= 0:
            raise ValueError("memory_latency_s must be positive")
        if self.l2_hit_cycles < 1:
            raise ValueError("l2_hit_cycles must be >= 1")


@dataclass(frozen=True)
class DVFSConfig:
    """Voltage/frequency actuation parameters."""

    #: The discrete operating points available to quantized actuation.
    vf_table: Tuple[Tuple[float, float], ...] = PENTIUM_M_VF_TABLE
    #: ``continuous`` — the actuator may set any frequency in the table's
    #: range (voltage interpolated); matches the paper's PID derivation.
    #: ``quantized`` — snap to the nearest table entry; what MaxBIPS uses.
    mode: str = "continuous"
    #: Fraction of the interval's CPU time lost when the V/F setting
    #: changes (paper: 0.5%, called "conservative").
    transition_overhead: float = 0.005

    def __post_init__(self) -> None:
        if self.mode not in ("continuous", "quantized"):
            raise ValueError(f"unknown DVFS mode {self.mode!r}")
        if not 0.0 <= self.transition_overhead < 1.0:
            raise ValueError("transition_overhead must be in [0, 1)")
        if len(self.vf_table) < 2:
            raise ValueError("vf_table needs at least two operating points")
        freqs = [f for f, _ in self.vf_table]
        if sorted(freqs) != freqs or len(set(freqs)) != len(freqs):
            raise ValueError("vf_table must be sorted by strictly increasing frequency")

    @property
    def f_min(self) -> GigaHz:
        return self.vf_table[0][0]

    @property
    def f_max(self) -> GigaHz:
        return self.vf_table[-1][0]


@dataclass(frozen=True)
class ControlConfig:
    """Invocation cadence and controller design targets."""

    #: GPM (tier 1) invocation interval, seconds.  Paper default: 5 ms.
    gpm_interval_s: Seconds = 5 * units.MILLISECONDS
    #: PIC (tier 2) invocation interval, seconds.  Paper default: 0.5 ms.
    pic_interval_s: Seconds = 0.5 * units.MILLISECONDS
    #: Desired closed-loop poles for the pole-placement PID design.  The
    #: defaults give a settling time of ~5 controller invocations with a
    #: small overshoot, matching the behaviour the paper reports.
    desired_poles: Tuple[complex, ...] = (-0.15 + 0j, 0.35 + 0.25j, 0.35 - 0.25j)

    def __post_init__(self) -> None:
        if self.pic_interval_s <= 0 or self.gpm_interval_s <= 0:
            raise ValueError("controller intervals must be positive")
        if self.gpm_interval_s < self.pic_interval_s:
            raise ValueError("GPM interval must be >= PIC interval")
        if len(self.desired_poles) != 3:
            raise ValueError("PID pole placement needs exactly 3 desired poles")

    @property
    def pics_per_gpm(self) -> int:
        """Number of PIC invocations between successive GPM invocations."""
        ratio = self.gpm_interval_s / self.pic_interval_s
        count = int(round(ratio))
        if not units.approx_eq(ratio, count):
            raise ValueError(
                "gpm_interval_s must be an integer multiple of pic_interval_s "
                f"(got ratio {ratio})"
            )
        return count


@dataclass(frozen=True)
class ThermalConfig:
    """Lumped-RC thermal model parameters."""

    ambient_c: Celsius = 45.0
    #: Vertical thermal resistance core -> heat sink, K/W.
    vertical_resistance_k_per_w: float = 1.2
    #: Lateral thermal resistance between adjacent cores, K/W.
    lateral_resistance_k_per_w: float = 4.0
    #: Per-core thermal capacitance, J/K (time constant ~ R*C ~ 24 ms).
    heat_capacity_j_per_k: float = 0.02
    #: Junction temperature treated as a hotspot, Celsius.
    hotspot_threshold_c: Celsius = 85.0

    def __post_init__(self) -> None:
        if self.vertical_resistance_k_per_w <= 0:
            raise ValueError("vertical_resistance_k_per_w must be positive")
        if self.lateral_resistance_k_per_w <= 0:
            raise ValueError("lateral_resistance_k_per_w must be positive")
        if self.heat_capacity_j_per_k <= 0:
            raise ValueError("heat_capacity_j_per_k must be positive")


@dataclass(frozen=True)
class CMPConfig:
    """Full chip configuration: cores, islands, hierarchy, control cadence.

    The paper's default platform is 8 cores in 4 islands (2 cores per
    island); scalability experiments use 16 and 32 cores with 4 cores per
    island.
    """

    n_cores: int = 8
    n_islands: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    dvfs: DVFSConfig = field(default_factory=DVFSConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    thermal: ThermalConfig = field(default_factory=ThermalConfig)
    #: Uncore (shared L2 banks, interconnect) power as a fraction of the
    #: all-cores-max power; drawn regardless of island DVFS state.
    uncore_fraction: float = 0.10
    #: Per-island leakage multipliers for process-variation studies; length
    #: must equal ``n_islands`` when given.  ``None`` means no variation.
    island_leakage_multipliers: Tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_cores < 1 or self.n_islands < 1:
            raise ValueError("need at least one core and one island")
        if self.n_cores % self.n_islands != 0:
            raise ValueError(
                f"{self.n_cores} cores do not divide evenly into "
                f"{self.n_islands} islands"
            )
        if not 0.0 <= self.uncore_fraction < 1.0:
            raise ValueError("uncore_fraction must be in [0, 1)")
        if self.island_leakage_multipliers is not None:
            if len(self.island_leakage_multipliers) != self.n_islands:
                raise ValueError(
                    "island_leakage_multipliers must have one entry per island"
                )
            if any(m <= 0 for m in self.island_leakage_multipliers):
                raise ValueError("leakage multipliers must be positive")

    @property
    def cores_per_island(self) -> int:
        return self.n_cores // self.n_islands

    def island_of_core(self, core_index: int) -> int:
        """Island id that ``core_index`` belongs to (contiguous blocks)."""
        if not 0 <= core_index < self.n_cores:
            raise IndexError(f"core index {core_index} out of range")
        return core_index // self.cores_per_island

    def with_islands(self, n_cores: int, n_islands: int) -> "CMPConfig":
        """Convenience: same platform, different core/island counts."""
        return replace(self, n_cores=n_cores, n_islands=n_islands)


#: The paper's default platform: 8 cores, 4 islands, 2 cores per island.
DEFAULT_CONFIG = CMPConfig()
