"""Closed-form propagators and exact few-projection boundary amplitudes.

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

so the envelope is a Gaussian orthant probability.  For n <= 3 and sign
pattern s (+1 for x > 0, -1 for x < 0 at each instant) it has the closed
form (Sheppard 1899; Plackett 1954, Biometrika 41:351)

    2^-n + sum_{i<j} s_i s_j asin(rho_ij) / (2^{n-1} pi).

``bridge_orthant`` evaluates it, and the equally spaced envelopes, the
half-value drop across a final projection and the time-averaged identity
are all built on it.  The test suite checks it against brute-force
quadrature of the constrained Gaussian chain integrals.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .core import free_propagator

__all__ = [
    "restricted_propagator",
    "free_propagator_boundary_derivative",
    "restricted_propagator_boundary_derivative",
    "absorbing_envelope",
    "absorbing_boundary_propagator",
    "bridge_orthant",
    "projected_envelope_exact",
    "projected_boundary_exact",
    "final_gap_ratio",
    "half_value_ratio",
    "time_averaged_envelope",
    "time_averaged_product",
]


# ---------------------------------------------------------------------------
# image-method restricted propagator and boundary derivatives
# ---------------------------------------------------------------------------

def restricted_propagator(m: float, t: float, x1, x0) -> np.ndarray | complex:
    """Propagator restricted to paths staying in x > 0 (method of images).

    theta(x1) theta(x0) (m/2 pi i t)^{1/2} [e^{i m (x1-x0)^2/2t}
                                            - e^{i m (x1+x0)^2/2t}];
    vanishes whenever either endpoint lies on or left of the boundary.
    """
    if not t > 0:
        raise ValueError(f"restricted propagator needs t > 0, got t={t}")
    x1 = np.asarray(x1, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    direct = free_propagator(m, t, x1, x0)
    image = free_propagator(m, t, x1, -x0)
    inside = (x1 > 0) & (x0 > 0)
    return np.where(inside, direct - image, 0.0 + 0.0j)


def free_propagator_boundary_derivative(m: float, t: float, x1) -> np.ndarray | complex:
    """d/dx0 of the free propagator g(x1, t | x0, 0) evaluated at x0 = 0."""
    if not t > 0:
        raise ValueError("boundary derivative needs t > 0")
    x1 = np.asarray(x1, dtype=float)
    return free_propagator(m, t, x1, 0.0) * (-1j * m * x1 / t)


def restricted_propagator_boundary_derivative(m: float, t: float, x1) -> np.ndarray | complex:
    """d/dx0 of the restricted propagator at x0 = 0 (x1 > 0).

    Equals exactly twice the free-propagator boundary derivative: the image
    term contributes the same amount as the direct term on the boundary.
    """
    if not t > 0:
        raise ValueError("boundary derivative needs t > 0")
    x1 = np.asarray(x1, dtype=float)
    g = free_propagator(m, t, x1, 0.0)
    return -2j * m * x1 / t * g


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


def absorbing_boundary_propagator(m: float, v0: float, t: float) -> complex:
    """g(0, t | 0, 0) for the complex step potential: free prefactor times
    the absorbing envelope."""
    return free_propagator(m, t, 0.0, 0.0) * absorbing_envelope(v0, t)


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
        rho = np.sqrt(ts[i] * (t - ts[j]) / (ts[j] * (t - ts[i])))
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


def projected_boundary_exact(m: float, eps: float, t: float, n_proj: int) -> complex:
    """Exact boundary propagator with n_proj projections: the free prefactor
    (m / 2 pi i t)^{1/2} times the dimensionless envelope."""
    return free_propagator(m, t, 0.0, 0.0) * projected_envelope_exact(eps, t, n_proj)


# ---------------------------------------------------------------------------
# half-value drop across a final projection
# ---------------------------------------------------------------------------

def final_gap_ratio(eps: float, n_proj: int, gap: float) -> float:
    """Envelope ratio with/without the last of n_proj in {1, 2, 3}
    projections, both evolved a further time ``gap`` after the final
    projection instant.

    As gap -> 0 the ratio tends to 1/2: the final projection removes exactly
    half of the boundary amplitude in the coincidence limit.
    """
    if not eps > 0 or not gap > 0:
        raise ValueError("eps and gap must be positive")
    if n_proj not in (1, 2, 3):
        raise ValueError("final-gap ratio implemented for n_proj in {1, 2, 3}")
    times = eps * np.arange(1, n_proj + 1)
    total = n_proj * eps + gap
    return bridge_orthant(times, total) / bridge_orthant(times[:-1], total)


def half_value_ratio(eps: float, n_proj: int, n_halvings: int = 8) -> tuple[np.ndarray, float]:
    """Sweep the final gap through eps / 2**k, k = 1..n_halvings, and
    extrapolate the with/without ratio to gap -> 0.

    The ratio approaches its limit in powers of sqrt(gap); a least-squares
    fit in (1, g^1/2, g, g^3/2) strips the corrections.  Returns (sweep
    values, extrapolated limit); the limit is 1/2 to well within 1e-3.
    """
    gaps = eps / 2.0 ** np.arange(1, n_halvings + 1)
    ratios = np.array([final_gap_ratio(eps, n_proj, g) for g in gaps])
    design = np.column_stack([gaps ** (j / 2.0) for j in range(4)])
    coef, *_ = np.linalg.lstsq(design, ratios, rcond=None)
    return ratios, float(coef[0])


# ---------------------------------------------------------------------------
# time-averaged boundary identity
# ---------------------------------------------------------------------------

def time_averaged_envelope(n: int, tau: float, panels: int = 1024) -> float:
    """Average of the n-projection boundary envelope over all ordered
    projection times in [0, tau]:

        (n!/tau^n) int_0^tau dt_n ... int_0^{t_2} dt_1
            bridge_orthant((t_1, ..., t_n), tau)

    which equals 1/(n+1) exactly.  n = 1 is pointwise constant (each single
    projection contributes exactly one half by reflection symmetry); n = 2
    is evaluated by nested midpoint quadrature of the closed form, one row
    of inner nodes at a time.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    if n == 1:
        # sqrt(tau) T_+(t1, tau - t1) = 1/2 for every t1; the average is exact.
        return 0.5
    if n != 2:
        raise ValueError("time-averaged envelope implemented for n in {1, 2}")
    h = tau / panels
    total = 0.0
    for t in (np.arange(panels) + 0.5) * h:
        h1 = t / panels
        total += bridge_orthant(((np.arange(panels) + 0.5) * h1, t), tau).sum() * h1
    return float(2.0 / tau**2 * total * h)


def time_averaged_product(m: float, tau: float, n: int, panels: int = 1024) -> complex:
    """Time-averaged boundary amplitude: (m / 2 pi i tau)^{1/2} / (n+1) up to
    quadrature error in the n = 2 case."""
    return free_propagator(m, tau, 0.0, 0.0) * time_averaged_envelope(n, tau, panels)
