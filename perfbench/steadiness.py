"""Repeat the benchmark over seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --seeds 1-10 --heldout 1001 \\
        --out perfbench/results/steadiness.json

For every workload in ``BENCHMARK.json`` it runs the benchmark command
once per seed (untraced), then once on the held-out seed and once
traced.  Each end-to-end metric's spread is the distance between the
first and third quartile of its values (``statistics.quantiles(n=4)``)
as a share of their median, printed next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchstats

#: Metrics that are exact for a seed (simulated, not host-timed).
EXACT = ("sim_bips", "sim_overshoot_pct")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [
        *spec["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    result["wall_s"] = time.perf_counter() - t0
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--heldout", type=int, default=1001)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        runs = [_run(spec, workload, seed, 0) for seed in _seeds(args.seeds)]
        entry: dict = {
            "seeds": _seeds(args.seeds),
            "failed_runs": sum(1 for r in runs if not r["correct"]),
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "details": [r["detail"] for r in runs],
            "metrics": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = benchstats.spread(values)
            stats.update(bound=bound, values=values)
            if name in EXACT:
                stats["exact_per_seed"] = True
            entry["metrics"][name] = stats
            flag = "ok" if stats["iqr_share"] < bound / 3 else "WIDE"
            print(
                f"{workload:12s} {name:18s} median {stats['median']:12.4f} "
                f"spread {stats['iqr_share']:7.4f} bound {bound:5.3f} {flag} "
                f"{[round(v, 4) for v in values]}",
                flush=True,
            )
        # Unscaled host medians, to show what the host-speed scaling removes.
        for name, key in (("raw_pass_s", "raw_pass_s"), ("raw_setup_s", "raw_setup_s")):
            values = [statistics.median(r["detail"][key]) for r in runs]
            stats = benchstats.spread(values)
            stats["values"] = values
            entry["metrics"][name] = stats
            print(
                f"{workload:12s} {name:18s} median {stats['median']:12.4f} "
                f"spread {stats['iqr_share']:7.4f} (unscaled host time)",
                flush=True,
            )
        heldout = _run(spec, workload, args.heldout, 0)
        entry["heldout"] = {
            "seed": args.heldout,
            "correct": heldout["correct"],
            "metrics": {k: v["value"] for k, v in heldout["metrics"].items()},
        }
        if not args.no_trace:
            traced = _run(spec, workload, entry["seeds"][0], 1)
            entry["traced"] = {
                "seed": entry["seeds"][0],
                "correct": traced["correct"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            }
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
