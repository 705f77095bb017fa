"""Discrete-time (z-domain) linear time-invariant transfer functions.

A tiny, dependency-light transfer-function algebra sufficient for the
paper's analysis: composition in series, unity-feedback closure, pole
extraction, stability tests and time-domain simulation.  Coefficients are
stored in descending powers of ``z`` like :func:`numpy.roots` expects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["DiscreteTransferFunction"]

_TRIM_TOL = 1e-12


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop leading (high-order) zero coefficients."""
    nonzero = np.flatnonzero(np.abs(coeffs) > _TRIM_TOL)
    if nonzero.size == 0:
        return np.zeros(1)
    return coeffs[nonzero[0] :]


@dataclass(frozen=True)
class DiscreteTransferFunction:
    """Rational transfer function ``H(z) = num(z) / den(z)``.

    Immutable; all operations return new instances.  The representation is
    not automatically reduced to coprime form — pole/zero cancellations from
    composition are kept, which is harmless for the analyses here (a
    cancelled stable pole does not change stability verdicts because the
    same factor appears in numerator and denominator).
    """

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __init__(self, num: Iterable[float], den: Iterable[float]) -> None:
        num_arr = _trim(np.atleast_1d(np.asarray(num, dtype=complex)))
        den_arr = _trim(np.atleast_1d(np.asarray(den, dtype=complex)))
        if np.allclose(den_arr, 0.0):
            raise ValueError("denominator polynomial is zero")
        # Normalize so the leading denominator coefficient is 1 (monic).
        lead = den_arr[0]
        num_arr = num_arr / lead
        den_arr = den_arr / lead
        if np.allclose(num_arr.imag, 0.0) and np.allclose(den_arr.imag, 0.0):
            num_arr = num_arr.real
            den_arr = den_arr.real
        object.__setattr__(self, "num", tuple(num_arr.tolist()))
        object.__setattr__(self, "den", tuple(den_arr.tolist()))

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __mul__(self, other: "DiscreteTransferFunction") -> "DiscreteTransferFunction":
        """Series composition ``self * other``."""
        if not isinstance(other, DiscreteTransferFunction):
            return NotImplemented
        return DiscreteTransferFunction(
            np.polymul(self.num, other.num), np.polymul(self.den, other.den)
        )

    def __add__(self, other: "DiscreteTransferFunction") -> "DiscreteTransferFunction":
        """Parallel composition ``self + other``."""
        if not isinstance(other, DiscreteTransferFunction):
            return NotImplemented
        num = np.polyadd(
            np.polymul(self.num, other.den), np.polymul(other.num, self.den)
        )
        den = np.polymul(self.den, other.den)
        return DiscreteTransferFunction(num, den)

    def scale(self, k: float) -> "DiscreteTransferFunction":
        """Multiply the transfer function by a scalar gain."""
        return DiscreteTransferFunction(np.asarray(self.num) * k, self.den)

    def feedback(self) -> "DiscreteTransferFunction":
        """Unity negative feedback closure ``H / (1 + H)`` (Equation 11)."""
        num = np.asarray(self.num)
        den = np.asarray(self.den)
        return DiscreteTransferFunction(num, np.polyadd(den, num))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def poles(self) -> np.ndarray:
        """Roots of the denominator polynomial."""
        if len(self.den) < 2:
            return np.empty(0, dtype=complex)
        return np.roots(self.den)

    def zeros(self) -> np.ndarray:
        """Roots of the numerator polynomial."""
        if len(self.num) < 2:
            return np.empty(0, dtype=complex)
        return np.roots(self.num)

    def is_stable(self) -> bool:
        """True when every pole lies strictly inside the unit circle."""
        poles = self.poles()
        if poles.size == 0:
            return True
        return bool(np.all(np.abs(poles) < 1.0))

    def dc_gain(self) -> float:
        """Steady-state gain ``H(1)``; ``inf`` for a pole at z=1."""
        num_at_1 = np.polyval(self.num, 1.0)
        den_at_1 = np.polyval(self.den, 1.0)
        if abs(den_at_1) < _TRIM_TOL:
            return float("inf")
        value = num_at_1 / den_at_1
        return float(np.real(value))

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, u: Sequence[float]) -> np.ndarray:
        """Run the difference equation on input sequence ``u``.

        Implements ``den(q) y = num(q) u`` with the standard alignment where
        ``num`` and ``den`` are in descending powers of z and the system is
        causal (``len(num) <= len(den)``; enforced).
        """
        num = np.asarray(self.num, dtype=float)
        den = np.asarray(self.den, dtype=float)
        if len(num) > len(den):
            raise ValueError("non-causal transfer function (numerator order too high)")
        # Pad numerator so num/den align: relative degree becomes input delay.
        num = np.concatenate([np.zeros(len(den) - len(num)), num])
        u_arr = np.asarray(u, dtype=float)
        y = np.zeros_like(u_arr)
        n = len(den) - 1
        for t in range(len(u_arr)):
            acc = 0.0
            for k in range(n + 1):
                if t - k >= 0:
                    acc += num[k] * u_arr[t - k]
            for k in range(1, n + 1):
                if t - k >= 0:
                    acc -= den[k] * y[t - k]
            y[t] = acc  # den[0] == 1 after normalization
        return y

    def step_response(self, n_steps: int) -> np.ndarray:
        """Response to a unit step of length ``n_steps``."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        return self.simulate(np.ones(n_steps))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiscreteTransferFunction(num={self.num}, den={self.den})"
