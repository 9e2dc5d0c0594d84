"""Piecewise-linear saw-tooth model of the pulsed-measurement boundary envelope.

With projections every ``eps`` (at eps, 2 eps, 3 eps, ...) the boundary
envelope drops by exactly a factor of two at every projection and recovers
linearly in between.  Writing ``t_k = (k + 1) eps`` for the drop instants
(k = 0, 1, 2, ...), the model is

    f(t) = 1                                       on [0, t_0)
    f(t) = (t - t_{k-1}) / ((k+1) eps)
         + (t_k - t)     / (2 k eps)               on [t_{k-1}, t_k), k >= 1

so approaching ``t_k`` from below gives the peak ``1/(k+1)`` and just after
it the trough ``1/(2(k+1))``.  The k = 1 branch is constant at 1/2, matching
the exact single-projection amplitude.  The true envelope between peaks is
not exactly linear; the linear interpolant is kept as the reference model
and the discrepancy is quantified against the slice recursion in the tests.

Matching the absorbing-potential envelope ``(1 - e^{-v0 t})/(v0 t)`` midway
between peaks and troughs at large k fixes the absorption strength at
``v0 * eps ~= 4/3``.
"""

from __future__ import annotations

import numpy as np

from .core import NumericalFailure

__all__ = [
    "sawtooth_envelope",
    "peak_value",
    "trough_value",
    "oscillation_ratio",
    "calibrate_absorption",
]


def peak_value(k) -> np.ndarray | float:
    """Envelope peak 1/(k+1) approached from below at the drop t_k; ``k``
    may be an array."""
    k = np.asarray(k)
    if np.any(k < 0):
        raise ValueError("drop index must be >= 0")
    out = 1.0 / (k + 1)
    return out if out.shape else float(out)


def trough_value(k) -> np.ndarray | float:
    """Envelope trough 1/(2(k+1)) immediately after the drop t_k; exactly
    half the corresponding peak."""
    return 0.5 * peak_value(k)


def sawtooth_envelope(eps: float, t) -> np.ndarray | float:
    """Model envelope f(t) for t >= 0 with projections every eps,
    right-continuous at the drops (the value at t_k itself is the trough, as
    the half-open branches dictate)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("envelope is defined for t >= 0")
    out = np.ones_like(t)
    past = t >= eps
    # k = number of projections already applied at time t (>= 1 where past)
    k = np.floor((t[past] - eps) / eps).astype(int) + 1
    t_lo = eps + (k - 1) * eps
    t_hi = eps + k * eps
    out[past] = (t[past] - t_lo) / ((k + 1) * eps) + (t_hi - t[past]) / (2 * k * eps)
    return out if out.shape else float(out)


def oscillation_ratio(fp, fv) -> np.ndarray | float:
    """Relative oscillation S = fp/fv - 1 of the pulsed envelope around the
    absorbing one, so that g_pulsed = (1 + S) g_absorbing on the boundary."""
    fp = np.asarray(fp, dtype=float)
    fv = np.asarray(fv, dtype=float)
    if np.any(fv < 1e-12):
        raise NumericalFailure("absorbing envelope too small to divide by")
    out = fp / fv - 1.0
    return out if out.shape else float(out)


def calibrate_absorption(eps: float) -> float:
    """Absorption strength v0 = 4/(3 eps) placing the absorbing envelope
    midway between the saw-tooth peaks and troughs at large k."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return 4.0 / (3.0 * eps)
