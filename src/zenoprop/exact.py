"""Closed-form boundary envelopes: the absorbing step and up to three
projections.

With projections onto x > 0 at instants 0 < t_1 < ... < t_n <= t, the
Wick-rotated boundary propagator is the free heat kernel times the
probability that a Brownian bridge on [0, t], pinned to the origin at both
ends, is positive at every t_i: in imaginary time each projection only
restricts one Gaussian integration to the half-line.  That probability is
the dimensionless envelope of the real-time amplitude; the analytic
continuation touches nothing but the (m / 2 pi i t)^{1/2} prefactor, so no
oscillatory quadrature is needed.

The bridge values at the t_i are jointly Gaussian with correlations

    rho_ij = sqrt(t_i (t - t_j) / (t_j (t - t_i))),    i < j,

so the envelope is a Gaussian orthant probability.  The correlations
depend on the instants only through their ratios to one another and to t,
and are formed from those ratios, so the envelope is scale-free and finite
for any duration a float can hold.  For n <= 3 and sign
pattern s (+1 for x > 0, -1 for x < 0 at each instant) it has the closed
form (Sheppard 1899; Plackett 1954, Biometrika 41:351)

    2^-n + sum_{i<j} s_i s_j asin(rho_ij) / (2^{n-1} pi).

``bridge_orthant`` evaluates it.  A last instant at t_n = t gives the
coincidence right limit, exactly half the value without that instant: the
half-value drop at a projection.  The equally spaced envelopes and the
average over projection instants (1/(n+1) for n projections, taken on the
unit interval because it is the same for every duration) are built on it.
Only the dimensionless envelopes live here; the real-time amplitude is the
envelope times the free prefactor.  The test suite checks the orthant
against brute-force quadrature of the constrained Gaussian chain integrals.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

__all__ = [
    "absorbing_envelope",
    "bridge_orthant",
    "projected_envelope_exact",
    "time_averaged_envelope",
]


# ---------------------------------------------------------------------------
# complex absorbing step potential, boundary values
# ---------------------------------------------------------------------------

def absorbing_envelope(v0: float, t) -> np.ndarray | float:
    """Envelope (1 - e^{-v0 t}) / (v0 t) of the boundary propagator for the
    step potential -i v0 theta(-x).  Lies in (0, 1], decreasing in t."""
    t = np.asarray(t, dtype=float)
    if not v0 > 0:
        raise ValueError(f"absorption rate must be positive, got {v0}")
    if np.any(t <= 0):
        raise ValueError("absorbing envelope needs t > 0")
    out = -np.expm1(-v0 * t) / (v0 * t)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# Brownian-bridge orthant: the envelope with up to three projections
# ---------------------------------------------------------------------------

def bridge_orthant(times, t, signs=None) -> np.ndarray | float:
    """Probability that a Brownian bridge on [0, t] has sign ``signs[i]``
    (+1 or -1, all +1 by default) at every ``times[i]``, for up to three
    instants 0 < t_1 < ... < t_n <= t.

    With all signs positive this is the boundary envelope after
    projections at the t_i.  At t_n = t the last correlation vanishes and
    the value is half the (n-1)-instant one: the coincidence right limit.
    Array entries of ``times`` broadcast against each other and against
    ``t``.
    """
    ts = [np.asarray(ti, dtype=float) for ti in times]
    t = np.asarray(t, dtype=float)
    n = len(ts)
    if n > 3:
        raise ValueError(f"closed-form orthant needs at most 3 instants, got {n}")
    signs = (1,) * n if signs is None else tuple(signs)
    if len(signs) != n:
        raise ValueError(f"need one sign per instant, got {len(signs)} for {n}")
    edges = [0.0, *ts]
    if not (np.all(t > 0) and all(np.all(a < b) for a, b in zip(edges, edges[1:]))
            and np.all(edges[-1] <= t)):
        raise ValueError("bridge orthant needs 0 < t_1 < ... < t_n <= t")
    value = np.full(np.broadcast(t, *ts).shape, 2.0**-n)
    for i, j in combinations(range(n), 2):
        rho = np.sqrt((ts[i] / ts[j]) * ((t - ts[j]) / (t - ts[i])))
        value += signs[i] * signs[j] * np.arcsin(rho) / (2.0 ** (n - 1) * np.pi)
    return value if value.ndim else float(value)


def projected_envelope_exact(eps: float, t: float, n_proj: int) -> float:
    """Dimensionless boundary envelope after n_proj in {0, 1, 2, 3} equally
    spaced projections at eps, 2 eps, ..., valid on n_proj eps <= t <=
    (n_proj + 1) eps (t > 0); the value at the right endpoint is the left
    limit of the next drop.  Cases: 1, then 1/2, then
    (1/4)(1 + (2/pi) arctan sqrt((t - 2 eps)/t)), peaking at 1/3."""
    if not (0 <= n_proj <= 3 and t > 0 and n_proj * eps <= t <= (n_proj + 1) * eps):
        raise ValueError(
            f"closed forms need 0 <= n_proj <= 3 and n_proj eps <= t <= (n_proj+1) eps "
            f"with t > 0, got eps={eps}, n_proj={n_proj}, t={t}"
        )
    return bridge_orthant(eps * np.arange(1, n_proj + 1), t)


# ---------------------------------------------------------------------------
# time-averaged boundary identity
# ---------------------------------------------------------------------------

# Midpoint panels per axis of the two-projection simplex average.
_PANELS = 1024


def time_averaged_envelope(n: int) -> float:
    """Average of the n-projection boundary envelope over all ordered
    projection times, on the unit interval (the envelope depends on the
    instants only through their ratios to the duration, so this is the
    average for every duration):

        n! int_0^1 dt_n ... int_0^{t_2} dt_1 bridge_orthant((t_1, ..., t_n), 1)

    which equals 1/(n+1) exactly.  n = 1 is pointwise constant (each single
    projection contributes exactly one half by reflection symmetry); n = 2
    is evaluated by nested midpoint quadrature of the closed form, one row
    of inner nodes at a time.
    """
    if n == 1:
        return 0.5
    if n != 2:
        raise ValueError("time-averaged envelope implemented for n in {1, 2}")
    h = 1.0 / _PANELS
    total = 0.0
    for t in (np.arange(_PANELS) + 0.5) * h:
        h1 = t / _PANELS
        total += bridge_orthant(((np.arange(_PANELS) + 0.5) * h1, t), 1.0).sum() * h1
    return float(2.0 * total * h)
