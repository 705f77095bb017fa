"""Per-layer metrics from the span tables of the traced passes.

Every metric named in ``BENCHMARK.json``'s ``per_layer`` list is built
here.  Inputs are, per traced pass, the parent's span table and the
tables its pool workers spilled; ``extras`` carries the numbers the
workload measured itself (import times, entry sizes, guard events,
per-shape tick times from the untraced passes, tracing overhead).

Simulation-layer metrics count only spans outside calibration:
calibration runs its own excitation simulations, and those are charged
to ``calibration.ms_per_call`` instead.  A layer a workload never calls
reports 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import spans

__all__ = ["LayerTotals", "PER_LAYER_UNITS", "layer_metrics"]

#: Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS = {
    "imports.repro_s": "s",
    "imports.scipy_signal_s": "s",
    "calibration.calls": "count",
    "calibration.ms_per_call": "ms",
    "workloads.advance_block_ms_per_run": "ms",
    "sim.self_us_per_tick": "us",
    "sim.bind_ms_per_run": "ms",
    "chip.compute_interval_us": "us",
    "gpm.on_gpm_us": "us",
    "gpm.on_gpm_calls": "count",
    "pic.on_pic_us": "us",
    "guard.on_pic_us": "us",
    "guard.on_gpm_us": "us",
    "guard.events": "count",
    "maxbips.on_gpm_us": "us",
    "telemetry.record_us": "us",
    "telemetry.entry_kb": "KB",
    "runner.cache_key_ms": "ms",
    "runner.self_ms_per_run": "ms",
    "runner.hit_ratio": "ratio",
    "runner.lookups": "count",
    "runner.pool_overhead_s": "s",
    "tick_us.8c4i": "us",
    "tick_us.32c8i": "us",
    "tick_us.64c16i": "us",
    "tick_us.guarded_32c8i": "us",
    "lint.parse_ms_per_file": "ms",
    "lint.rules_s": "s",
    "lint.dimensions_s": "s",
    "lint.effects_s": "s",
    "lint.findings": "count",
    "trace.overhead_pct": "%",
    "host.reference_ms": "ms",
}

_CALIBRATE = "calibration.calibrate"
_RUNNER = ("runner.run_one", "runner.run_many")


@dataclass
class LayerTotals:
    """Sums over traced passes: ``name -> [count, self s, inclusive s]``."""

    passes: int = 0
    spans: dict[str, list] = field(default_factory=dict)
    runner_self_s: float = 0.0
    pool_overhead_s: float = 0.0

    def add(self, name: str, self_s: float, incl_s: float) -> None:
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += self_s
        entry[2] += incl_s

    def count(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, *names: str) -> float:
        return sum(self.spans.get(n, [0, 0.0, 0.0])[1] for n in names)

    def incl_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def add_pass(self, parent: spans.SpanTable, workers: list[spans.SpanTable]) -> None:
        """Fold one traced pass into the totals."""
        self.passes += 1
        worker_intervals = []
        busiest = 0.0
        for table in [parent, *workers]:
            self_times = spans.self_times(table)
            in_cal = spans.under(table, _CALIBRATE)
            for i, nid in enumerate(table.name):
                name = table.names[nid]
                if in_cal[i]:
                    continue  # charged to calibration's inclusive time
                self.add(name, self_times[i], table.end[i] - table.start[i])
            if table is parent:
                continue
            top = [(table.start[i], table.end[i]) for i in table.top_level()]
            if not top:
                continue
            worker_intervals += top
            lo, hi = min(a for a, _ in top), max(b for _, b in top)
            busy = spans.covered(top, lo, hi)
            busiest = max(busiest, busy)
            # Worker time between its traced calls is the runner's own
            # work there: cache probes and stores, result pickling.
            self.runner_self_s += (hi - lo) - busy
        for name in _RUNNER:
            for i in parent.indices(name):
                if parent.parent[i] >= 0:
                    continue  # nested runner call; the outer one counts it
                lo, hi = parent.start[i], parent.end[i]
                kids = [
                    (parent.start[j], parent.end[j])
                    for j in range(i + 1, len(parent))
                    if parent.parent[j] == i
                ]
                self.runner_self_s += (hi - lo) - spans.covered(
                    kids + worker_intervals, lo, hi
                )
                if workers:
                    self.pool_overhead_s += (hi - lo) - busiest


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(totals: LayerTotals, requests_per_pass: int, extras: dict) -> dict:
    """Every per-layer metric, from the totals and the workload's extras."""
    t = totals
    passes = max(1, t.passes)
    runs = t.count("sim.run")
    ticks = t.count("chip.compute_interval")
    lookups = t.count("runner.cache_key")
    requests = requests_per_pass * t.passes
    hits = max(0, requests - runs) if lookups else 0
    values = {
        "calibration.calls": t.count(_CALIBRATE) / passes,
        "calibration.ms_per_call": _per(t.incl_s(_CALIBRATE), t.count(_CALIBRATE), 1e3),
        "workloads.advance_block_ms_per_run": _per(
            t.self_s("workloads.advance_block"), runs, 1e3
        ),
        "sim.self_us_per_tick": _per(t.self_s("sim.run"), ticks, 1e6),
        "sim.bind_ms_per_run": _per(t.self_s("scheme.bind"), runs, 1e3),
        "chip.compute_interval_us": _per(
            t.self_s("chip.compute_interval"), ticks, 1e6
        ),
        "gpm.on_gpm_us": _per(t.self_s("cpm.on_gpm"), t.count("cpm.on_gpm"), 1e6),
        "gpm.on_gpm_calls": t.count("cpm.on_gpm") / passes,
        "pic.on_pic_us": _per(
            t.self_s("cpm.on_pic", "pic.invoke"), t.count("cpm.on_pic"), 1e6
        ),
        "guard.on_pic_us": _per(
            t.self_s("guard.on_pic", "guard.invoke"), t.count("guard.on_pic"), 1e6
        ),
        "guard.on_gpm_us": _per(
            t.self_s("guard.on_gpm"), t.count("guard.on_gpm"), 1e6
        ),
        "maxbips.on_gpm_us": _per(
            t.self_s("maxbips.on_gpm"), t.count("maxbips.on_gpm"), 1e6
        ),
        "telemetry.record_us": _per(
            t.self_s("telemetry.record"), t.count("telemetry.record"), 1e6
        ),
        "runner.cache_key_ms": _per(t.incl_s("runner.cache_key"), lookups, 1e3),
        "runner.self_ms_per_run": _per(t.runner_self_s, requests, 1e3),
        "runner.hit_ratio": _per(hits, lookups),
        "runner.lookups": lookups / passes,
        "runner.pool_overhead_s": t.pool_overhead_s / passes,
        "lint.parse_ms_per_file": _per(
            t.incl_s("lint.load_module"), t.count("lint.load_module"), 1e3
        ),
        "lint.rules_s": t.self_s("lint.rule_check") / passes,
        "lint.dimensions_s": t.incl_s("lint.dimensions") / passes,
        "lint.effects_s": t.incl_s("lint.effects") / passes,
    }
    values.update(extras)
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
