"""Piecewise-linear saw-tooth model of the pulsed-measurement boundary envelope.

The model lives on the grid of the slice recursion: interval n = 0, 1, 2,
... and offset u in [0, 1], at s = n + u = t/eps, the time in units of the
projection spacing.  Projections at s = 1, 2, 3, ... drop the envelope by
exactly a factor of two and it recovers linearly in between:

    f(0, u) = 1
    f(n, u) = u / (n+1) + (1 - u) / (2n),          n >= 1,

so the u = 1 end of interval n is the peak 1/(n+1), the left limit just
before the drop at s = n + 1, and the u = 0 end of interval n + 1 the
trough 1/(2(n+1)) just after it, exactly half the peak.  Interval 1 is
constant at 1/2, matching the exact single-projection amplitude.  The true
envelope between peaks is not exactly linear; the linear interpolant is
kept as the reference model and the discrepancy is quantified against the
slice recursion in the tests.

Matching the absorbing-potential envelope ``(1 - e^{-v0 t})/(v0 t)`` midway
between peaks and troughs at large n fixes the absorption strength at
``v0 eps = 4/3`` (``V0_EPS``).
"""

from __future__ import annotations

import numpy as np

from .core import NumericalFailure

__all__ = [
    "V0_EPS",
    "sawtooth_envelope",
    "oscillation_ratio",
]


#: Calibrated absorption strength v0 eps, which puts the absorbing envelope
#: midway between the saw-tooth's peaks and troughs at large n.
V0_EPS = 4.0 / 3.0


def sawtooth_envelope(n, u) -> np.ndarray | float:
    """Model envelope on interval ``n`` at offset ``u``, s = n + u; the two
    broadcast.  u = 0 is the right limit just after the drop at s = n and
    u = 1 the left limit just before the drop at s = n + 1."""
    n = np.asarray(n, dtype=float)
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(n) & (n >= 0) & (n == np.floor(n))):
        raise ValueError("interval index must be a whole number >= 0")
    if not np.all((u >= 0) & (u <= 1)):
        raise ValueError("offset must lie in [0, 1]")
    past = np.maximum(n, 1)  # the n = 0 entries take 1 instead
    out = np.where(n > 0, u / (past + 1) + (1 - u) / (2 * past), 1.0)
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
