"""One benchmark process: set up a workload, then (unless only timing
set-up) run its timed passes and print the measurements as JSON.

Started by ``run.py`` from the root of a checkout with ``src`` on
``PYTHONPATH``.  It prints ``READY`` the moment set-up is done, so the
parent can time interpreter start plus set-up, and then one JSON line.

Roles:

* ``setup`` -- set up, print ``READY``, clean up and exit;
* ``measure`` -- untraced passes for ``--seconds``; end-to-end numbers;
* ``trace`` -- alternating untraced and traced passes; per-layer numbers
  and the tracing overhead;
* ``probe`` -- :func:`jobs.model_probe`, for a workload that simulates
  nothing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _timed_import(module: str) -> float:
    t0 = time.perf_counter()
    importlib.import_module(module)
    return time.perf_counter() - t0


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--role", choices=("setup", "measure", "trace", "probe"), required=True
    )
    parser.add_argument("--workdir", type=Path, required=True)
    return parser.parse_args(argv)


def _peak_rss_mb(with_children: bool) -> float:
    """This process's peak RSS, plus its largest child's when the timed
    passes start pool workers (set-up's pool is not counted)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (children if with_children else 0)) / 1024.0


def _measure(workload, seconds: float, min_passes: int = 3) -> dict:
    """Untraced passes until ``seconds`` have been spent timing.

    Host timings are scaled to the nominal host (see ``hostref``); the
    raw ones are returned too.
    """
    import hostref

    host = hostref.HostSpeed()
    samples, attempted, problems, sim = [], 0, [], None
    deadline = time.perf_counter() + seconds
    while len(samples) < min_passes or time.perf_counter() < deadline:
        host.sample()
        result = workload.run_pass()
        samples.append(result.seconds)
        ticks, files = result.ticks, result.files
        attempted += max(1, len(result.outputs))
        problems += workload.check_pass(result)
        if sim is None:
            sim = workload.sim_metrics(result)
        # Drop the outputs before the next pass: live results from an
        # earlier pass would make the next one pay for their GC traversal.
        result = None
    host.sample(force=True)
    extra_attempts, extra_problems = workload.finish()
    attempted += extra_attempts
    problems += extra_problems
    # Every pass delivers the same work, so rates use the median pass.
    pass_s = statistics.median(samples) * host.factor()
    out = {
        "samples": samples,
        "reference_s": host.samples,
        "attempted": attempted,
        "problems": problems,
        "pass_s": pass_s,
        "ticks_per_s": ticks / pass_s,
        "files_per_s": files / pass_s,
        "peak_rss_mb": _peak_rss_mb(workload.pool_in_passes),
    }
    if sim is not None:
        out["sim_bips"], out["sim_overshoot_pct"] = sim
    return out


def _trace(workload, seconds: float, extras: dict) -> dict:
    """Alternate untraced and traced passes; fold spans into layers."""
    import hostref
    import layers
    import spans

    host = hostref.HostSpeed()
    tracer = spans.Tracer(workload.workdir / "spill")
    totals = layers.LayerTotals()
    untraced, traced, run_seconds = [], [], {}
    attempted, problems = 0, []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        for with_trace in (False, True):
            host.sample()
            if with_trace:
                tracer.reset()
                tracer.install(workload.trace_targets())
            try:
                result = workload.run_pass()
            finally:
                tracer.uninstall()
            attempted += max(1, len(result.outputs))
            problems += workload.check_pass(result)
            if with_trace:
                traced.append(result.seconds)
                totals.add_pass(tracer.reset(), tracer.collect_children())
                extras.update(workload.trace_extras(result))
            else:
                untraced.append(result.seconds)
                for label, secs in result.run_seconds.items():
                    run_seconds.setdefault(label, []).append(secs)
            result = None  # see _measure
    for label, secs in run_seconds.items():
        extras[f"tick_us.{label}"] = (
            statistics.median(secs) / workload.ticks_per_run * 1e6
        )
    extras["host.reference_ms"] = statistics.median(host.samples) * 1e3
    base = statistics.median(untraced)
    extras["trace.overhead_pct"] = (statistics.median(traced) - base) / base * 100
    if "imports.scipy_signal_s" not in extras:
        # Not needed by this workload's parent (sweep_cold must fork cold
        # workers); time it now, after the passes, as each worker pays it.
        extras["imports.scipy_signal_s"] = _timed_import("scipy.signal")
    extra_attempts, extra_problems = workload.finish()
    return {
        "attempted": attempted + extra_attempts,
        "problems": problems + extra_problems,
        "untraced_samples": untraced,
        "traced_samples": traced,
        "metrics": layers.layer_metrics(
            totals, workload.requests_per_pass(), extras
        ),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    timings: dict = {}
    # Nothing imported so far touches the program or NumPy, so this is
    # the cold import a user's process pays.
    import jobs

    module = "repro" if args.role == "probe" else jobs.WORKLOADS[args.workload].imports
    timings["imports.repro_s"] = _timed_import(module)

    if args.role == "probe":
        bips, peak = jobs.model_probe(args.seed)
        print(json.dumps({"sim_bips": bips, "sim_overshoot_pct": peak}), flush=True)
        return 0

    workload = jobs.WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        workload.setup(timings)
        print("READY", flush=True)
        if args.role == "setup":
            return 0
        if args.role == "measure":
            out = _measure(workload, args.seconds)
        else:
            out = _trace(workload, args.seconds, timings)
    finally:
        workload.cleanup()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
