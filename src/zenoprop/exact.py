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
average over projection instants are built on it.  That average is 1/(n+1)
for n projections and the same for every duration, so it is taken on the
unit interval; for n = 2 one tanh-sinh tensor rule (Takahasi & Mori 1974)
integrates the orthant over the simplex of instants to within 1e-15.
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


def projected_envelope_exact(s: float, n_proj: int) -> float:
    """Dimensionless boundary envelope at s = t/eps after n_proj in
    {0, 1, 2, 3} equally spaced projections at s = 1, 2, ..., valid on
    n_proj <= s <= n_proj + 1 (s > 0, which with more than three
    projections ``bridge_orthant`` refuses); the value at the right
    endpoint is the left limit of the next drop.  Cases: 1, then 1/2, then
    (1/4)(1 + (2/pi) arctan sqrt((s - 2)/s)), peaking at 1/3."""
    if not n_proj <= s <= n_proj + 1:
        raise ValueError(f"the envelope after n_proj projections holds on "
                         f"n_proj <= s <= n_proj + 1, got n_proj={n_proj}, s={s}")
    return bridge_orthant(np.arange(1, n_proj + 1), s)


# ---------------------------------------------------------------------------
# time-averaged boundary identity
# ---------------------------------------------------------------------------

# Tanh-sinh rule on (0, 1) (Takahasi & Mori 1974): nodes x = (1 + tanh(u)) / 2,
# u = (pi/2) sinh(s), at s = k h for |k| <= _TS_HALF_NODES.  The last node,
# s = 25/8, lies 3.3e-16 below one; the next would round to one.
_TS_STEP = 1.0 / 8
_TS_HALF_NODES = 25


def _tanh_sinh_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes strictly inside (0, 1) and their weights.  With e = e^{-2|u|}
    <= 1, each node is formed from its distance e / (1 + e) to the nearer
    end, and each weight h (pi/4) cosh(s) sech^2(u) as h pi cosh(s) e /
    (1 + e)^2, so no cosh(u) is formed and nothing overflows."""
    s = _TS_STEP * np.arange(-_TS_HALF_NODES, _TS_HALF_NODES + 1)
    e = np.exp(-np.pi * np.abs(np.sinh(s)))
    near = e / (1.0 + e)
    nodes = np.where(s < 0, near, 1.0 - near)
    return nodes, _TS_STEP * np.pi * np.cosh(s) * e / (1.0 + e) ** 2


def time_averaged_envelope(n: int) -> float:
    """Average of the n-projection boundary envelope over all ordered
    projection times, on the unit interval (the envelope depends on the
    instants only through their ratios to the duration, so this is the
    average for every duration):

        n! int_0^1 dt_n ... int_0^{t_2} dt_1 bridge_orthant((t_1, ..., t_n), 1)

    which equals 1/(n+1) exactly.  n = 1 is pointwise constant (each single
    projection contributes exactly one half by reflection symmetry).  n = 2
    is 2 int_0^1 t dt int_0^1 da bridge_orthant((a t, t), 1), evaluated by
    one tanh-sinh tensor rule of 51 nodes per axis in t and a = t_1 / t
    (2,601 orthant values): the integrand has square-root singularities at
    the ends of both axes, which the rule's double-exponential node
    clustering resolves.  It reads 1/3 to within 1e-15, and every node lies
    strictly inside 0 < t_1 < t < 1.
    """
    if n == 1:
        return 0.5
    if n != 2:
        raise ValueError("time-averaged envelope implemented for n in {1, 2}")
    x, w = _tanh_sinh_rule()
    t = x[:, None]
    # one reduction, not a matrix product, whose bits would follow the BLAS kernel
    return float(2.0 * ((w * x)[:, None] * bridge_orthant((x * t, t), 1.0) * w).sum())
