"""Utilization→power transducer (paper Figure 6 and the PIC sensor path).

Island power is not directly measurable on a real CMP, so the PIC observes
*processor utilization* (a performance-counter quantity) and converts it to
a power estimate with a fitted linear model ``P = k0 * U + k1``.  The paper
fits this line per benchmark and reports an average R² of 0.96.

The fit here is ordinary least squares on (utilization, power) samples
collected from calibration runs; :class:`LinearTransducer` is the
resulting callable the control loop plugs in as its transducer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..unit_types import PowerFractionLike

__all__ = ["LinearTransducer", "fit_transducer"]


@dataclass(frozen=True)
class LinearTransducer:
    """The fitted sensor/transducer ``P = k0 * U + k1``.

    ``k0`` and ``k1`` carry whatever power unit the fit was performed in —
    the simulator fits in *fraction of max chip power*, matching how
    set-points are expressed.
    """

    k0: float
    k1: float
    r_squared: float = float("nan")
    n_samples: int = 0

    def __call__(self, utilization: float | np.ndarray) -> PowerFractionLike:
        """Convert a utilization measurement to estimated power."""
        if isinstance(utilization, (float, int)):
            # Hot path: one scalar conversion per island per PIC interval.
            return self.k0 * float(utilization) + self.k1
        result = self.k0 * np.asarray(utilization, dtype=float) + self.k1
        if result.ndim == 0:
            return float(result)
        return result



def fit_transducer(
    utilization: np.ndarray | list[float],
    power: np.ndarray | list[float],
) -> LinearTransducer:
    """Least-squares fit of ``P = k0 * U + k1`` over calibration samples."""
    u = np.asarray(utilization, dtype=float)
    p = np.asarray(power, dtype=float)
    if u.shape != p.shape or u.ndim != 1:
        raise ValueError("utilization and power must be matching 1-D arrays")
    if u.size < 2:
        raise ValueError("need at least two calibration samples")
    if np.ptp(u) == 0.0:
        raise ValueError("utilization samples are constant; cannot fit a slope")
    design = np.column_stack([u, np.ones_like(u)])
    (k0, k1), residual, _rank, _sv = np.linalg.lstsq(design, p, rcond=None)
    predictions = k0 * u + k1
    total = float(((p - p.mean()) ** 2).sum())
    if total == 0.0:
        r_squared = 1.0 if np.allclose(predictions, p) else 0.0
    else:
        r_squared = 1.0 - float(((p - predictions) ** 2).sum()) / total
    return LinearTransducer(
        k0=float(k0), k1=float(k1), r_squared=r_squared, n_samples=int(u.size)
    )
