"""Tables I–III: platform configuration and application mixes.

Emits the paper's configuration tables from the library's actual
dataclasses, so the printed tables can never drift from what the
simulator runs.  Its plan is empty: nothing is simulated.
"""

from __future__ import annotations

from .. import units
from ..config import DEFAULT_CONFIG
from ..units import cycles_at
from ..workloads.mixes import MIX1, MIX2, MIX3
from ..workloads.parsec import PARSEC_BENCHMARKS, SHORT_NAMES
from .common import ExperimentResult, Results, experiment, no_runs

__all__ = ["plan", "render", "run"]

plan = no_runs


def render(results: Results, seed: int, quick: bool) -> ExperimentResult:
    cfg = DEFAULT_CONFIG
    result = ExperimentResult(
        experiment="tables",
        description="Tables I-III: platform configuration, benchmarks, mixes",
        headers=("table", "entry", "value"),
    )

    # Table I — core / memory / CMP configuration.
    core = cfg.core
    mem = cfg.memory
    result.add_row("I", "technology", "90 nm, 2 GHz nominal")
    result.add_row(
        "I",
        "core fetch/issue/commit width",
        f"{core.fetch_width}/{core.issue_width}/{core.commit_width}",
    )
    result.add_row("I", "register file", f"{core.register_file_entries} entries")
    result.add_row(
        "I",
        "L1 caches",
        f"{core.l1_size_bytes // 1024}KB {core.l1_associativity}-way, "
        f"{core.l1_block_bytes}B blocks, {core.l1_hit_cycles}-cycle",
    )
    result.add_row(
        "I",
        "L2 cache",
        f"shared, {mem.l2_size_bytes_per_core // 1024}KB/core, "
        f"{mem.l2_associativity}-way LRU, {mem.l2_block_bytes}B blocks, "
        f"{mem.l2_hit_cycles}-cycle",
    )
    nominal_f = cfg.dvfs.f_max
    result.add_row(
        "I",
        "memory latency",
        f"{units.to_ns(mem.memory_latency_s):.0f} ns "
        f"(~{cycles_at(mem.memory_latency_s, nominal_f):.0f} cycles @ "
        f"{nominal_f} GHz)",
    )
    result.add_row(
        "I",
        "CMP configuration",
        f"{cfg.n_cores} OoO cores, {cfg.n_islands} islands, "
        f"{cfg.cores_per_island} cores/island",
    )
    for f, v in cfg.dvfs.vf_table:
        result.add_row("I", f"V/F pair @ {int(f * 1000)} MHz", f"{v:.3f} V")
    result.add_row(
        "I",
        "control cadence",
        f"GPM {cfg.control.gpm_interval_s * 1e3:.1f} ms, "
        f"PIC {cfg.control.pic_interval_s * 1e3:.1f} ms",
    )
    result.add_row(
        "I", "DVFS transition overhead", f"{cfg.dvfs.transition_overhead:.1%}"
    )

    # Table II — PARSEC benchmark descriptions.
    for name in sorted(PARSEC_BENCHMARKS):
        spec = PARSEC_BENCHMARKS[name]
        result.add_row(
            "II",
            f"{name} ({SHORT_NAMES[name]})",
            f"[{spec.kind}] {spec.description}",
        )

    # Table III — mixes and island assignments.
    for mix in (MIX1, MIX2, MIX3):
        for i, (apps, chars) in enumerate(zip(mix.islands, mix.characteristics())):
            result.add_row(
                f"III ({mix.name})",
                f"island {i + 1}",
                f"{', '.join(apps)}  [{chars}]",
            )
    return result


run = experiment(plan, render)
