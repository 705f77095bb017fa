"""Summary statistics and output digests shared by the benchmark files.

Timings are reported as a median plus the highest percentile that has at
least ten samples beyond it (:func:`tail_percentile`), always with the
sample count.  :func:`result_digest` fingerprints a simulation result so
that runs can be compared bit for bit across passes, processes and the
result cache.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Sequence

__all__ = [
    "TAIL_MIN_BEYOND",
    "describe",
    "is_finite_result",
    "result_digest",
    "spread",
    "tail_percentile",
]

#: A percentile is reported only when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> tuple[int, float] | None:
    """The highest whole percentile above the median with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it, as ``(p, value)``.

    Uses the nearest-rank definition: the p-th percentile is the sample
    of rank ``ceil(p * n / 100)``, and the samples beyond it are the
    ``n - rank`` larger ones.  Returns ``None`` when no percentile above
    the 50th qualifies (fewer than 21 samples).
    """
    n = len(samples)
    ordered = sorted(samples)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def describe(samples: Sequence[float]) -> dict[str, float | int]:
    """Median, sample count and, where the rule allows, a tail percentile."""
    out: dict[str, float | int] = {
        "n": len(samples),
        "median": statistics.median(samples),
    }
    tail = tail_percentile(samples)
    if tail is not None:
        out[f"p{tail[0]}"] = tail[1]
    return out


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and interquartile distance as a share of the
    median, computed as ``statistics.quantiles(values, n=4)`` does."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / abs(median) if median else math.inf,
    }


def result_digest(result) -> str:
    """SHA-256 over a simulation result's telemetry and summary fields.

    Every telemetry series contributes its name, dtype, shape and raw
    bytes, so two results share a digest only if they are bit-identical.
    """
    import numpy as np

    h = hashlib.sha256()
    h.update(
        repr(
            (
                result.scheme_name,
                result.mix_name,
                float(result.budget_fraction),
                float(result.duration_s),
                float(result.total_instructions),
            )
        ).encode()
    )
    for key, values in sorted(result.telemetry.finalize().items()):
        arr = np.ascontiguousarray(values)
        h.update(f"{key}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def is_finite_result(result, expected_ticks: int) -> bool:
    """Telemetry has ``expected_ticks`` rows and no NaN or infinity."""
    import numpy as np

    telemetry = result.telemetry
    if telemetry.n_intervals != expected_ticks:
        return False
    for values in telemetry.finalize().values():
        arr = np.asarray(values)
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            return False
    return True
