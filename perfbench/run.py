"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload steady_tick --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  Every measurement runs in a fresh
``perfbench/worker.py`` process with ``src`` on ``PYTHONPATH``; this
process only starts them, times their set-up and assembles the result.
Exits 2 without a result when the checkout has no program to measure
or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchstats
import hostref

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("steady_tick", "sweep_cold", "replay_warm", "lint_tree")
#: Set-up is timed in fresh processes, the measuring one included, until
#: at least SETUP_MIN samples and SETUP_BUDGET_S seconds are in (at most
#: SETUP_MAX samples); the median is reported.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 3.0
#: Hard limit on any one worker process.
WORKER_TIMEOUT_S = 150.0

E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "ticks_per_s": "1/s",
    "files_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_bips": "BIPS",
    "sim_overshoot_pct": "%",
}


class WorkerError(RuntimeError):
    pass


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _worker(args, role: str, workdir: Path, env: dict) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from start to READY, its JSON)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--role", role,
        "--workdir", str(workdir),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready_s = None
    payload = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready_s is None:
                ready_s = time.perf_counter() - t0
            elif line.startswith("{"):
                payload = json.loads(line)
    finally:
        code = proc.wait()
        watchdog.cancel()
        proc.stdout.close()
    if code != 0:
        raise WorkerError(f"{role} worker for {args.workload} exited with {code}")
    return (ready_s if ready_s is not None else 0.0), payload


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _emit(out: dict, metrics: dict, detail: dict) -> None:
    """Print the detail line, then the result line (always last)."""
    failed = min(out["attempted"], len(out["problems"]))
    print(json.dumps({"detail": dict(detail, problems=out["problems"])}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": out["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("run.py: no src/repro under the current directory", file=sys.stderr)
        return 2
    env = _env(root)
    work = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            _, out = _worker(args, "trace", work / "trace", env)
            detail = {k: out[k] for k in ("untraced_samples", "traced_samples")}
            _emit(out, out["metrics"], detail)
            return 0
        # Set-up is timed in separate processes, so this process samples
        # the host-speed kernel before each of them.
        host = hostref.HostSpeed()
        setup = []
        while len(setup) < SETUP_MIN - 1 or (
            sum(setup) < SETUP_BUDGET_S and len(setup) < SETUP_MAX - 1
        ):
            host.sample(force=True)
            ready_s, _ = _worker(args, "setup", work / f"setup-{len(setup)}", env)
            setup.append(ready_s)
        host.sample(force=True)
        ready_s, out = _worker(args, "measure", work / "measure", env)
        setup.append(ready_s)
        if args.workload == "lint_tree":
            # lint_tree simulates nothing; its simulated metrics come
            # from a separate model probe so the line carries every metric.
            _, probe = _worker(args, "probe", work / "probe", env)
            out.update(probe)
            out["ticks_per_s"] = out["files_per_s"]
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    values = dict(out, setup_s=statistics.median(setup) * host.factor())
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in E2E_UNITS.items()
    }
    detail = {
        # Median, sample count and the tail percentile the rule allows.
        "raw_pass_summary": benchstats.describe(out["samples"]),
        "raw_setup_s": setup,
        "setup_reference_s": host.samples,
        "raw_pass_s": out["samples"],
        "pass_reference_s": out["reference_s"],
    }
    _emit(out, metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
