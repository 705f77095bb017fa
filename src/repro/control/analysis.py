"""Robustness metrics of a tracking response.

Section II of the paper defines the three metrics a power controller is
judged by, and Section IV reports them for the PIC:

* **maximum overshoot** — how far the observed output exceeds the
  reference, as a fraction of the reference;
* **settling time** — the number of controller invocations until the
  output stays inside a tolerance band around the reference;
* **steady-state error** — the remaining offset once settled.

:func:`response_metrics` computes all three from a recorded series, such
as a closed-loop transfer function's
:meth:`~repro.control.lti.DiscreteTransferFunction.step_response`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import units

__all__ = ["ResponseMetrics", "response_metrics"]


@dataclass(frozen=True)
class ResponseMetrics:
    """The paper's three controller-robustness metrics for one response."""

    #: max(output - reference) / reference; 0.0 when never exceeded.
    max_overshoot: float
    #: max(reference - output) / reference over the settled region... kept
    #: symmetric with overshoot: largest dip below the reference.
    max_undershoot: float
    #: First step index after which the output stays within the tolerance
    #: band forever; ``None`` if the response never settles.
    settling_steps: int | None
    #: |mean(output) - reference| / reference over the settled tail;
    #: ``nan`` when the response never settles.
    steady_state_error: float

    @property
    def settled(self) -> bool:
        return self.settling_steps is not None


def response_metrics(
    output: np.ndarray | list[float],
    reference: float,
    tolerance: float = 0.02,
) -> ResponseMetrics:
    """Compute overshoot / settling / steady-state error for one response.

    Parameters
    ----------
    output:
        The observed output series, one sample per controller invocation.
    reference:
        The constant reference the controller tracked (must be non-zero —
        the metrics are relative).
    tolerance:
        Half-width of the settling band as a fraction of the reference
        (default 2%).

    The steady-state error averages the last quarter of the series, or
    only its settled part when the response settles later than that; the
    average guards against reporting a single noisy sample.
    """
    y = np.asarray(output, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("output must be a non-empty 1-D series")
    if reference == 0.0:
        raise ValueError("reference must be non-zero for relative metrics")
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must be in (0, 1)")

    rel = (y - reference) / abs(reference)
    max_overshoot = float(max(rel.max(), 0.0))
    max_undershoot = float(max((-rel).max(), 0.0))

    # EPS of slack so a sample sitting exactly on the band edge counts as
    # inside despite float rounding ((1.0 + 0.01) - 1.0 > 0.01).
    inside = np.abs(rel) <= tolerance + units.EPS
    settling: int | None = None
    # Find the first index from which the series never leaves the band.
    outside_indices = np.flatnonzero(~inside)
    if outside_indices.size == 0:
        settling = 0
    elif outside_indices[-1] + 1 < y.size:
        settling = int(outside_indices[-1] + 1)

    tail_len = max(1, int(round(y.size * 0.25)))
    if settling is not None:
        tail = y[max(settling, y.size - tail_len) :]
        sse = float(abs(tail.mean() - reference) / abs(reference))
    else:
        sse = float("nan")
    return ResponseMetrics(max_overshoot, max_undershoot, settling, sse)
