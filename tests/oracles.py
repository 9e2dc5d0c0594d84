"""Independent oracles and helpers used by the tests: they never call the
code paths they check."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from zenoprop.core import ROOT_INV_I, heat_kernel, snap_to_integer
from zenoprop.exact import absorbing_envelope, bridge_orthant
from zenoprop.lattice import LatticeConfig, constrained_walk_probability, richardson_limit
from zenoprop.recursion import advance_slice, boundary_amplitude, initial_slice
from zenoprop.sawtooth import oscillation_ratio
from zenoprop.wavepacket import packet_boundary_derivative


def spearman_rho(a, b) -> float:
    """Spearman rank correlation (no ties expected in our scans)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    ra = np.empty(n)
    rb = np.empty(n)
    ra[np.argsort(a)] = np.arange(n)
    rb[np.argsort(b)] = np.arange(n)
    d2 = float(((ra - rb) ** 2).sum())
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def free_evolution_quadrature(psi0_fn, m: float, t: float, x_out: np.ndarray,
                              x_lo: float, x_hi: float, n_nodes: int = 6000) -> np.ndarray:
    """Free evolution by direct quadrature of the propagator integral
    (oscillatory; adequate at moderate t for smooth compact initial data)."""
    y = np.linspace(x_lo, x_hi, n_nodes)
    w = np.full(n_nodes, y[1] - y[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    psi0 = psi0_fn(y)
    pref = np.sqrt(m / (2 * np.pi * t)) * np.exp(-1j * np.pi / 4)
    out = np.empty(len(x_out), dtype=complex)
    for i, xx in enumerate(x_out):
        out[i] = np.sum(w * psi0 * pref * np.exp(1j * m * (xx - y) ** 2 / (2 * t)))
    return out


def dense_crossing_term(
    x1,
    tau: float,
    G: np.ndarray,
    t_grid: np.ndarray,
    kmax: float,
    dk: float,
    chunk: int = 512,
) -> np.ndarray:
    """The crossing part -int dt2 dgf/dx(x1,tau|0,t2) G(t2) at unit mass,
    with the time sum and the k -> x transform as dense phase matrices (the
    reference for ``zenoprop.wavepacket.crossing_term``).

    Evaluated in momentum space, where the final free leg is
    exp(-i k^2 (tau - t2) / 2) and the boundary-derivative kernel is -ik.
    The t2 endpoint at tau produces a slowly decaying 1/k tail encoding a
    step at x1 = 0; it is subtracted via G(tau) and its transform

        -2 G(tau) [ (i/2) sgn(x) - J(x)/(2 pi) ],
        J(x) = i sqrt(pi/(i a)) int_0^x exp(i x'^2 / 4a) dx',  a = tau/2,

    added back in closed form (the Fresnel integral is a cheap 1-d
    cumulative quadrature), leaving an O(1/k^2) remainder for the numeric
    transform.  The momenta are k = j dk for j = -J..J without j = 0,
    J = kmax/dk rounded up, summed over both signs of k as they stand,
    without using that the integrand is odd in k.
    """
    xs = np.atleast_1d(np.asarray(x1, dtype=float))
    t = np.asarray(t_grid, dtype=float)
    nt = len(t) - 1
    dt = t[1] - t[0]
    g_end = G[-1]
    g_smooth = G - g_end

    n_k = int(np.ceil(snap_to_integer(kmax / dk)))
    j = np.arange(-n_k, n_k + 1)
    k = j[j != 0] * dk
    wt = np.full(nt + 1, dt)
    wt[0] *= 0.5
    wt[-1] *= 0.5
    gw = g_smooth * wt
    spectral = np.zeros(len(k), dtype=complex)
    for i0 in range(0, len(k), chunk):
        kk = k[i0 : i0 + chunk]
        phase = np.exp(-1j * (kk[:, None] ** 2 / 2) * (tau - t[None, :]))
        spectral[i0 : i0 + chunk] = (-1j * kk) * (phase @ gw)
    smooth_part = (np.exp(1j * np.outer(xs, k)) @ (spectral * dk)) / (2 * np.pi)

    a = tau / 2
    x_hi = float(np.abs(xs).max()) if xs.size else 0.0
    xf = np.linspace(0.0, max(x_hi, 1e-12), 20001)
    integrand = np.exp(1j * xf**2 / (4 * a))
    cum = np.concatenate(
        [[0.0 + 0.0j], np.cumsum((integrand[1:] + integrand[:-1]) / 2 * np.diff(xf))]
    )
    fresnel = np.interp(np.abs(xs), xf, cum.real) + 1j * np.interp(np.abs(xs), xf, cum.imag)
    fresnel = fresnel * np.sign(xs)
    J = 1j * np.sqrt(np.pi / (1j * a)) * fresnel
    tail_part = -(2 * g_end) * (0.5j * np.sign(xs) - J / (2 * np.pi))
    return -(smooth_part + tail_part)


def direct_trig_sum(c: np.ndarray, theta) -> np.ndarray:
    """sum_j c_j exp(i j theta) summed term by term (the reference for
    ``zenoprop.wavepacket._trig_sum``).

    The index is split as j = 128 a + b, so each phase is the product of
    the two exponentials exp(i 128 a theta) exp(i b theta), and the sum
    over b is one matrix product: the phase tables have len(theta)
    (128 + len(c)/128) entries instead of len(theta) len(c).
    """
    block = 128
    c = np.asarray(c, dtype=complex)
    theta = np.asarray(theta, dtype=float)
    rows = -(-len(c) // block)
    table = np.zeros(rows * block, dtype=complex)
    table[: len(c)] = c
    inner = np.exp(1j * np.outer(theta, np.arange(block))) @ table.reshape(rows, block).T
    outer = np.exp(1j * np.outer(theta, block * np.arange(rows)))
    return np.sum(inner * outer, axis=1)


def validate_table_schema(doc: dict, schema: dict) -> list[str]:
    """Minimal structural validation of a table document against the shipped
    schema (object/required/properties/array-items subset; enough to pin the
    published format without an external validator)."""
    problems: list[str] = []

    def walk(node, spec, path):
        kinds = spec.get("type")
        kinds = [kinds] if isinstance(kinds, str) else (kinds or [])
        if kinds:
            ok = any(
                (k == "object" and isinstance(node, dict))
                or (k == "array" and isinstance(node, list))
                or (k == "string" and isinstance(node, str))
                or (k == "number" and isinstance(node, (int, float)) and not isinstance(node, bool))
                for k in kinds
            )
            if not ok:
                problems.append(f"{path}: expected {kinds}, got {type(node).__name__}")
                return
        if isinstance(node, dict):
            for req in spec.get("required", []):
                if req not in node:
                    problems.append(f"{path}: missing required key {req!r}")
            props = spec.get("properties", {})
            if spec.get("additionalProperties") is False:
                for key in node:
                    if key not in props:
                        problems.append(f"{path}: unexpected key {key!r}")
            for key, sub in props.items():
                if key in node:
                    walk(node[key], sub, f"{path}.{key}")
        if isinstance(node, list):
            if "minItems" in spec and len(node) < spec["minItems"]:
                problems.append(f"{path}: fewer than {spec['minItems']} items")
            item_spec = spec.get("items")
            if item_spec:
                for i, item in enumerate(node):
                    walk(item, item_spec, f"{path}[{i}]")

    walk(doc, schema, "$")
    return problems


_QUAD_KINDS = ("midpoint", "trapezoid")


@dataclass(frozen=True)
class QuadratureRule:
    """Composite quadrature rule on a single interval.

    ``midpoint`` places its nodes at panel centres (the rule used by the
    slice recursion and the brute-force chain integrals); ``trapezoid`` uses
    the ``n_panels + 1`` inclusive endpoints and serves as the cross-check.
    """

    kind: str
    n_panels: int

    def __post_init__(self) -> None:
        if self.kind not in _QUAD_KINDS:
            raise ValueError(f"kind must be one of {_QUAD_KINDS}, got {self.kind!r}")
        if self.n_panels < 1:
            raise ValueError("n_panels must be >= 1")


def quadrature_nodes(rule: QuadratureRule, a: float, b: float) -> np.ndarray:
    """Sample positions at which ``integrate`` expects the integrand values."""
    h = (b - a) / rule.n_panels
    if rule.kind == "midpoint":
        return a + (np.arange(rule.n_panels) + 0.5) * h
    return np.linspace(a, b, rule.n_panels + 1)


def integrate(values: np.ndarray, rule: QuadratureRule, a: float, b: float) -> float:
    """Quadrature of samples taken at ``quadrature_nodes(rule, a, b)``.

    Exact for constants with either rule and for linear integrands with both
    rules (midpoint by symmetry, trapezoid by construction).
    """
    values = np.asarray(values, dtype=float)
    h = (b - a) / rule.n_panels
    if rule.kind == "midpoint":
        if len(values) != rule.n_panels:
            raise ValueError(
                f"midpoint rule with {rule.n_panels} panels needs "
                f"{rule.n_panels} samples, got {len(values)}"
            )
        return float(values.sum() * h)
    if len(values) != rule.n_panels + 1:
        raise ValueError(
            f"trapezoid rule with {rule.n_panels} panels needs "
            f"{rule.n_panels + 1} samples, got {len(values)}"
        )
    return float((values.sum() - 0.5 * (values[0] + values[-1])) * h)


def _check_intervals(intervals) -> np.ndarray:
    iv = np.asarray(intervals, dtype=float)
    if np.any(iv <= 0):
        raise ValueError("all intervals must be positive")
    return iv


def chain_integral(
    signs: str,
    intervals,
    panels: int | None = None,
    span: float = 10.0,
    refine: bool = False,
) -> float:
    """Brute-force tensor-product midpoint quadrature of T_signs.

    The integration box extends ``span * sqrt(max(intervals))`` along every
    constrained axis, where the Gaussian mass is far below the quadrature
    error.  ``panels`` defaults to 2048 per axis for n <= 2 and 256 for
    n = 3.  With ``refine=True`` the rule is re-run at doubled resolution
    and Richardson-extrapolated in the step size (the composite midpoint
    error is quadratic), which is required to reach ~1e-9 in three
    dimensions where 256 panels alone leave ~1e-5.
    """
    n = len(signs)
    if n < 1 or n > 3:
        raise ValueError("brute-force chain integral supports 1 <= n <= 3")
    if any(s not in "+-0" for s in signs):
        raise ValueError(f"sign string may contain only '+', '-', '0': {signs!r}")
    iv = _check_intervals(intervals)
    if len(iv) != n + 1:
        raise ValueError(f"need {n + 1} intervals for {n} constrained points")
    if panels is None:
        panels = 2048 if n <= 2 else 256
    if refine:
        coarse = chain_integral(signs, iv, panels=panels, span=span)
        fine = chain_integral(signs, iv, panels=2 * panels, span=span)
        return (4.0 * fine - coarse) / 3.0

    half = span * float(np.sqrt(iv.max()))
    h = half / panels
    pos = (np.arange(panels) + 0.5) * h
    axes = []
    for s in signs:
        if s == "+":
            axes.append(pos)
        elif s == "-":
            axes.append(-pos)
        else:
            axes.append(np.concatenate([-pos[::-1], pos]))
    norm = np.pi ** (-n / 2.0) / np.sqrt(np.prod(iv))

    if n == 1:
        y1 = axes[0]
        total = np.exp(-y1**2 / iv[0] - y1**2 / iv[1]).sum()
        return float(norm * total * h)
    if n == 2:
        y1 = axes[0][:, None]
        y2 = axes[1][None, :]
        total = np.exp(
            -y1**2 / iv[0] - (y1 - y2) ** 2 / iv[1] - y2**2 / iv[2]
        ).sum()
        return float(norm * total * h * h)
    # n == 3: loop the outer axis to bound memory
    y2 = axes[1][:, None]
    y3 = axes[2][None, :]
    inner = np.exp(-(y2 - y3) ** 2 / iv[2] - y3**2 / iv[3])
    total = 0.0
    for y1 in axes[0]:
        outer = np.exp(-y1**2 / iv[0] - (y1 - y2) ** 2 / iv[1])
        total += float((outer * inner).sum())
    return float(norm * total * h**3)


def brute_force_walk_probability(cfg: LatticeConfig) -> float:
    """Enumerate all 2**n_steps walks (n_steps <= 20): each walk that returns
    and sits at or above the origin at every checkpoint counts 2^-n_steps,
    halved for each checkpoint at the origin (theta(0) = 1/2)."""
    n = cfg.n_steps
    if n > 20:
        raise ValueError("brute force capped at 20 steps")
    codes = np.arange(2**n, dtype=np.uint32)
    steps = np.where(
        (codes[:, None] >> np.arange(n)[None, :]) & 1, 1, -1
    ).astype(np.int32)
    pos = np.cumsum(steps, axis=1)
    checks = pos[:, cfg.steps_per_projection - 1 : n - 1 : cfg.steps_per_projection]
    ok = (pos[:, -1] == 0) & (checks >= 0).all(axis=1)
    weight = 0.5 ** (checks == 0).sum(axis=1)
    return float(weight[ok].sum()) / 2.0**n


def exact_walk_probability(cfg: LatticeConfig) -> Fraction:
    """The return probability as an exact fraction: a DP over integer walk
    counts, one step at a time.  At each projection the sites left of the
    origin go and the origin keeps half its weight: an even origin count is
    halved, and an odd one stays while every site above it is doubled, one
    more factor of 2 in the denominator, 2**(n_steps + doublings), by which
    the counts are divided at the end.  It keeps only the sites that can
    still return to the origin, |x| <= the steps left: ``counts[i]`` holds
    the weighted walks at site lo + i, and lo is 0 after a projection."""
    n = cfg.n_steps
    lo, counts = 0, np.ones(1, dtype=object)  # Python ints, no overflow
    doublings = 0
    for step in range(1, n + 1):
        counts = np.concatenate((counts, [0, 0])) + np.concatenate(([0, 0], counts))
        lo -= 1
        keep_lo, keep_hi = max(lo, step - n), min(lo + len(counts) - 1, n - step)
        projection = step < n and step % cfg.steps_per_projection == 0
        if projection:
            keep_lo = max(keep_lo, 0)
        counts, lo = counts[keep_lo - lo : keep_hi - lo + 1], keep_lo
        if projection and counts[0] % 2:
            counts[1:] *= 2
            doublings += 1
        elif projection:
            counts[0] //= 2
    return Fraction(int(counts.sum()), 2 ** (n + doublings))


def longdouble_walk_probability(cfg: LatticeConfig) -> float:
    """The return probability from a DP in ``np.longdouble``, one step at a
    time: each step moves half of every site's probability to either
    neighbour, and each projection drops the sites left of the origin and
    halves the origin's.  Where ``np.longdouble`` is the x87 80-bit format
    (a 64-bit significand) the rounding over a walk of n steps stays near
    n 2^-64, about 4e-15 at 65,536 steps: the reference for walks too long
    for ``exact_walk_probability``, rounded to the nearest double at the
    end.  An entry below 2^-160 at either end of the window is dropped; it
    could add at most its own value to the result, so the at most 2^17
    dropped move a walk of 65,536 steps by less than 2^-143."""
    n, spp = cfg.n_steps, cfg.steps_per_projection
    half, tiny = np.longdouble(0.5), np.longdouble(2.0) ** -160
    base, p = 0, np.ones(1, dtype=np.longdouble)  # after t steps, p[j] at 2 (base + j) - t
    for step in range(1, n + 1):
        p *= half
        p = np.concatenate((p, [0])) + np.concatenate(([0], p))
        if p[0] < tiny:
            p, base = p[1:], base + 1
        if p[-1] < tiny:
            p = p[:-1]
        if step < n and step % spp == 0:  # a projection
            cut = max((step + 1) // 2 - base, 0)
            p, base = p[cut:], base + cut
            if 2 * base == step:
                p[0] *= half  # the origin, theta(0) = 1/2
    at = n // 2 - base  # the origin, if n is even and it was not dropped
    return float(p[at]) if n % 2 == 0 and 0 <= at < p.size else 0.0


def lattice_envelope(t: float, eps: float, m: float = 1.0,
                     levels: tuple[int, ...] = (16, 64, 256, 1024, 4096)) -> float:
    """Walk estimate of the projected envelope at any t > 0, projections
    every eps, the last interval possibly partial.

    The refinement sweep of ``continuum_peak_estimate`` with the free
    return density ``heat_kernel(m, t, 0, 0)`` as the target, so the ratio
    tends to the envelope itself; the same Richardson stages
    (``richardson_limit``) remove the errors O(eta^2) to O(eta^(2L-2)) of
    its L levels.  t / eps times every level must be an integer step count.
    """
    ratios = []
    for r in levels:
        steps = t / eps * r
        n_steps = int(round(steps))
        if abs(steps - n_steps) > 1e-9:
            raise ValueError(f"t = {t} is not a whole number of steps at level {r}")
        eta = np.sqrt(eps / r / m)
        u = constrained_walk_probability(LatticeConfig(n_steps, r))
        ratios.append(u / (2 * eta) / heat_kernel(m, t, 0.0, 0.0))
    return richardson_limit(ratios)


def unconstrained_return_probability(n_steps: int) -> float:
    """C(2k, k) / 4**k for n_steps = 2k (zero for odd step counts)."""
    if n_steps % 2:
        return 0.0
    k = n_steps // 2
    return comb(2 * k, k) / 4.0**k


def catalan_number(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def richardson_right_limit(prev, cfg, offset: float = 1e-4) -> float:
    """Right limit of the envelope just after the projection at the integer
    s of the pre-projection slice ``prev``, without the coincidence formula:
    the envelope at rescaled-time offsets ``offset / 4`` and ``offset``
    past the projection (``direct_boundary_amplitude``), extrapolated in
    sqrt(offset), the order of the leading correction.  The quadrature
    resolves the kernels of those offsets only on fine grids: at spacing
    1/512 sqrt(eps/m) (``conftest.fine_config``) the trough error is at
    most 2.5e-5 over k = 1..20, and the kernels of 1e-4 / 4 and 1e-4 span
    2.6 and 5.1 spacings."""
    near, far = (direct_boundary_amplitude(prev, cfg, d) / heat_kernel(
        cfg.m, (prev.s + d) * cfg.eps, 0.0, 0.0) for d in (offset / 4, offset))
    return 2.0 * near - far


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0 .. B_n as exact rationals (B_1 = -1/2), from the recurrence
    sum_{k <= j} C(j + 1, k) B_k = 0 for j >= 1."""
    b = [Fraction(1)]
    for j in range(1, n + 1):
        b.append(-sum(comb(j + 1, k) * b[k] for k in range(j)) / (j + 1))
    return b


@functools.cache
def gregory_end_weights(nodes: int) -> tuple[Fraction, ...]:
    """Gregory's end weights over the first ``nodes`` nodes of a half-line
    rule of unit spacing, in exact rationals: w_j = 1 + c_j, where the
    corrections c_j make the rule with weight one at every later node
    integrate 1, y, ..., y^(nodes-1) exactly.  By the Euler-Maclaurin
    formula, sum_j c_j = -1/2 and sum_j c_j j^k = -zeta(-k) = B_(k+1)/(k+1)
    for k = 1 .. nodes-1; the Vandermonde system is solved by exact
    Gauss-Jordan elimination."""
    b = bernoulli_numbers(nodes)
    rhs = [Fraction(-1, 2)] + [b[k + 1] / (k + 1) for k in range(1, nodes)]
    rows = [[Fraction(j) ** k for j in range(nodes)] + [rhs[k]] for k in range(nodes)]
    for i in range(nodes):
        pivot = next(r for r in range(i, nodes) if rows[r][i])
        rows[i], rows[pivot] = rows[pivot], rows[i]
        rows[i] = [a / rows[i][i] for a in rows[i]]
        for r in range(nodes):
            if r != i and rows[r][i]:
                rows[r] = [a - rows[r][i] * p for a, p in zip(rows[r], rows[i])]
    return tuple(1 + row[-1] for row in rows)


def quadrature_weights(cfg) -> np.ndarray:
    """The slice quadrature weights written out: the spacing, times Gregory's
    ten-node end weights (``gregory_end_weights(10)``) over the first ten
    nodes and halved at the far end of the grid."""
    weights = np.full(cfg.grid.n_points, cfg.grid.spacing)
    weights[:10] *= [float(w) for w in gregory_end_weights(10)]
    weights[-1] *= 0.5
    return weights


def truncated_kernel(cfg, dt: float) -> np.ndarray:
    """The heat kernel of a step dt written out, sqrt(m / 2 pi dt)
    exp(-m x^2 / 2 dt), at grid offsets x = 0, h, 2h, ... out to ten widths
    sqrt(dt / m), rounded up to a whole spacing."""
    h = cfg.grid.spacing
    x = np.arange(int(np.ceil(10 * np.sqrt(dt / cfg.m) / h)) + 1) * h
    return np.sqrt(cfg.m / (2 * np.pi * dt)) * np.exp(-cfg.m * x * x / (2 * dt))


def direct_advance(prev, cfg) -> np.ndarray:
    """The slice one whole interval past ``prev``, as a direct ``np.convolve``
    of the quadrature-weighted slice with the truncated kernel of a step of
    eps: the reference for the recursion's FFT convolution."""
    half = truncated_kernel(cfg, cfg.eps)
    taps = len(half) - 1
    full = np.convolve(prev.values * quadrature_weights(cfg), np.concatenate([half[:0:-1], half]))
    return full[taps : taps + cfg.grid.n_points]


def direct_boundary_amplitude(prev, cfg, u: float) -> float:
    """F(prev.s + u, 0) for one offset u as the ``np.dot`` of the truncated
    kernel with the weighted slice: the per-sample reference for the
    batched ``boundary_amplitude``."""
    half = truncated_kernel(cfg, u * cfg.eps)
    return float(np.dot(half, (prev.values * quadrature_weights(cfg))[: len(half)]))


def interval_by_interval_recursion(cfg) -> np.ndarray:
    """The envelope table of ``run_recursion``, one row per interval n and
    one column per offset u = j / samples_per_interval, j = 0 ..
    samples_per_interval, with each interval's boundary samples taken from
    its slice before the next advance: the reference for the recursion that
    advances every slice first and then samples all intervals in one
    ``boundary_amplitude`` call."""
    spi = cfg.samples_per_interval
    interior = np.arange(1, spi) / spi
    rows = [np.ones(spi + 1)]
    prev = initial_slice(cfg)
    for n in range(1, cfg.n_max + 1):
        s = n + interior
        # this interval's samples, from its slice alone
        inner = boundary_amplitude([prev.values], cfg)[0] / heat_kernel(
            cfg.m, s * cfg.eps, 0.0, 0.0
        )
        prev = advance_slice(prev, cfg, float(n + 1))
        peak = prev.values[0] / heat_kernel(cfg.m, (n + 1) * cfg.eps, 0.0, 0.0)
        rows.append(np.concatenate(([0.5 * rows[-1][-1]], inner, [peak])))
    return np.array(rows)


# Rybicki's sum for Dawson's function (Rybicki 1989; Numerical Recipes
# 6.10): D(x) = lim_{h -> 0} (1/sqrt(pi)) sum_{n odd} exp(-(x - n h)^2) / n.
# Centred on the even multiple of h nearest x, 32 odd offsets each side
# reach 12.6, past which the Gaussian weights are below 1e-66, and the
# aliasing error at h = 0.2 is about exp(-(pi / 2h)^2), 1e-27.
_DAWSON_H = 0.2
_DAWSON_OFFSETS = np.arange(-63, 64, 2)


def dawson(x) -> np.ndarray:
    """Dawson's integral D(x) = exp(-x^2) int_0^x exp(y^2) dy, numpy only,
    to about 4e-16 absolute (the two nearest terms cancel as x -> 0, so
    relative accuracy is 1e-15 only from x of about 0.5 on)."""
    x = np.asarray(x, dtype=float)
    n0 = 2 * np.rint(x / (2 * _DAWSON_H))
    shifted = (x - n0 * _DAWSON_H)[..., None] - _DAWSON_OFFSETS * _DAWSON_H
    terms = np.exp(-shifted * shifted) / (n0[..., None] + _DAWSON_OFFSETS)
    return terms.sum(axis=-1) / np.sqrt(np.pi)


def _baxter_nodes(k_max: int, theta_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights in u on [0, sqrt(74 / theta_min)],
    24 per panel: panels of 2 / sqrt(k_max + 1) out to 16 / sqrt(k_max + 1),
    where the characteristic functions of the k_max-step walk vary, then
    panels growing 1.6-fold.  One 4001-point rule over the whole range
    errs by 5e-13 even on the free interval."""
    end = np.sqrt(74.0 / theta_min)   # exp(-theta u^2 / 2) < 1e-16 beyond
    width = 2.0 / np.sqrt(k_max + 1)
    edges = list(np.arange(9) * width)
    while edges[-1] < end:
        width *= 1.6
        edges.append(edges[-1] + width)
    edges = np.minimum(edges, end)
    x, w = np.polynomial.legendre.leggauss(24)
    lo, half = edges[:-1, None], np.diff(edges)[:, None] / 2
    return (lo + half * (x + 1)).ravel(), (half * w).ravel()


def baxter_envelope(k_max: int, theta, mu: float = 0.0) -> np.ndarray:
    """Exact boundary envelope f(k + theta) after k projections, for
    k = 0..k_max and offsets theta in (0, 1], in units of eps: an array of
    shape (k_max + 1, len(theta)).  The peaks are theta = 1.

    The envelope is P(S_1 > 0, ..., S_k > 0 | S_k + Y = 0) for the unit
    Gaussian walk S and an independent Y ~ N(0, theta) (the ``exact``
    module), so, with a_k(u) = E[exp(i u S_k); S_1..S_k > 0],

        f(k + theta) = (sqrt(2 pi (k + theta)) / pi)
                       int_0^inf Re a_k(u) exp(-theta u^2 / 2) du.

    The Spitzer-Baxter identity (Spitzer 1956; Baxter 1958; Feller vol. II,
    ch. XII) gives k a_k = sum_{n=1..k} g_n a_{k-n} with a_0 = 1 and
    g_n(u) = E[exp(i u S_n); S_n > 0]
           = exp(-n u^2 / 2) / 2 + (i / sqrt(pi)) D(u sqrt(n / 2)).
    Grid-free and independent of the slice recursion.

    With ``mu`` each projection is the partial one theta(x) + mu theta(-x),
    0 <= mu < 1: a path counts mu^j for its j negative checkpoints, and
    a_k(u) = E[exp(i u S_k) mu^j].  Sparre Andersen's form of the identity
    then takes h_n = g_n + mu^n (exp(-n u^2 / 2) - g_n) for g_n: the
    negative half-line's part of the n-step transform carries mu^n
    (``weighted_baxter_envelope``)."""
    return weighted_baxter_envelope(k_max, theta, float(mu) ** np.arange(1, k_max + 1))


def weighted_baxter_envelope(k_max: int, theta, negative_weights) -> np.ndarray:
    """``baxter_envelope`` with h_n = g_n + w_n (exp(-n u^2 / 2) - g_n) for
    the given weights w_1 .. w_k_max of the negative half-line."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if not np.all((0 < theta) & (theta <= 1)):
        raise ValueError("offsets must lie in (0, 1]")
    u, w = _baxter_nodes(k_max, theta.min())
    n = np.arange(1, k_max + 1)[:, None]
    free = np.exp(-n * u * u / 2)
    g = 0.5 * free + 1j / np.sqrt(np.pi) * dawson(u * np.sqrt(n / 2))
    g += np.asarray(negative_weights, dtype=float)[:, None] * (free - g)
    a = np.empty((k_max + 1, len(u)), dtype=complex)
    a[0] = 1.0
    for k in range(1, k_max + 1):
        a[k] = (g[:k] * a[k - 1 :: -1]).sum(axis=0) / k
    integrals = a.real @ (w[:, None] * np.exp(-np.outer(u * u, theta) / 2))
    k = np.arange(k_max + 1)[:, None]
    return np.sqrt(2 * np.pi * (k + theta)) / np.pi * integrals


def numeric_oscillation_curve(envelope, v0_eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Oscillation ratio S(s) = f(s)/f_absorbing(s) - 1 of a numeric envelope
    table on the (interval n, offset u) grid against the absorbing envelope
    at strength v0 eps, as s = n + u and S in the row order of the ``fp``
    table: row by row, without the first entry (s = 0)."""
    spi = envelope.shape[1] - 1
    s = (np.arange(len(envelope))[:, None] + np.arange(spi + 1) / spi).ravel()[1:]
    fv = absorbing_envelope(v0_eps, s)
    return s, np.atleast_1d(oscillation_ratio(envelope.ravel()[1:], fv))


def free_propagator(m: float, t: float, x, y) -> np.ndarray | complex:
    """Free-particle propagator ``<x| exp(-i p^2 t / 2m) |y>`` for t != 0.

    For t > 0 this is ``sqrt(m / 2 pi t) exp(-i pi/4) exp(i m (x-y)^2 / 2t)``;
    negative times return the complex conjugate of the reversed evolution.
    The kernel is distributional at t = 0, which is rejected.
    """
    if t == 0:
        raise ValueError("free propagator is distributional at t = 0")
    if t < 0:
        return np.conjugate(free_propagator(m, -t, x, y))
    dx = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    pref = ROOT_INV_I * np.sqrt(m / (2 * np.pi * t))
    return pref * np.exp(1j * m * dx * dx / (2 * t))


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


def free_packet(wp: WavePacket, t: float, x, spreading: bool = False):
    """Freely evolved packet, in the packet's units (hbar = m = sigma = 1).

    The default drags the envelope along the classical trajectory without
    spreading (adequate for times short against m sigma^2 / hbar); with
    ``spreading=True`` the exact free evolution of the initial Gaussian is
    returned (used wherever the reconstruction identities are checked at
    full accuracy).
    """
    x = np.asarray(x, dtype=float)
    a = 0.25
    if not spreading:
        c = wp.q + wp.p * t
        return wp.norm_factor * np.exp(
            -((x - c) ** 2) * a + 1j * wp.p * x - 1j * wp.energy * t
        )
    if t == 0:
        return wp.norm_factor * np.exp(-a * (x - wp.q) ** 2 + 1j * wp.p * x)
    b = 1 / (2 * t)
    A = a - 1j * b
    beta = 2 * a * wp.q + 1j * wp.p - 2j * b * x
    pref = ROOT_INV_I * np.sqrt(1 / (2 * np.pi * t)) * wp.norm_factor
    return pref * np.sqrt(np.pi / A) * np.exp(
        1j * b * x**2 - a * wp.q**2 + beta**2 / (4 * A)
    )


def step_reflection(k, m: float, v0: float):
    """Plane-wave reflection amplitude R(k) = (k - q) / (k + q) of the
    complex step -i v0 theta(-x), q = sqrt(k^2 + 2 i m v0) on the principal
    branch (Im q > 0: the transmitted wave decays into x < 0)."""
    q = np.sqrt(k**2 + 2j * m * v0)
    return (k - q) / (k + q)


def absorbing_step_packet(wp: WavePacket, v0: float, tau: float, x) -> np.ndarray:
    """Exact evolution of a Gaussian packet in x > 0 under the complex step
    potential -i v0 theta(-x), at x > 0, in the packet's units (Allcock
    1969; Muga et al. 2004):

        psi(x, tau) = psi_free(x, tau)
                      + int dk/2pi phi(k) R(|k|) exp(-i k x - i k^2 tau / 2),

    phi(k) = N sqrt(4 pi) exp(-(k-p)^2 - i (k-p) q) the packet's transform.
    The k integral is a plain sum over p +- 8, where phi falls to exp(-64);
    257 nodes already converge it to roundoff.
    """
    x = np.asarray(x, dtype=float)
    k, dk = np.linspace(wp.p - 8, wp.p + 8, 257, retstep=True)
    phi = wp.norm_factor * np.sqrt(4 * np.pi) * np.exp(-((k - wp.p) ** 2) - 1j * (k - wp.p) * wp.q)
    spectral = phi * step_reflection(np.abs(k), 1.0, v0) * np.exp(-1j * k**2 * tau / 2)
    reflected = np.exp(-1j * np.outer(x, k)) @ spectral * (dk / (2 * np.pi))
    return free_packet(wp, tau, x, spreading=True) + reflected


def crossing_density(wp: WavePacket, v0: float, tau):
    """Unnormalised crossing-time density in the strong-absorption regime,
    at unit mass,

        (2 / sqrt(v0)) |d psi_free/dx (0, tau)|^2,

    proportional to the kinetic-energy density at the origin; vanishes as
    v0 -> inf (total reflection) and scales exactly as v0^{-1/2}."""
    if not v0 > 0:
        raise ValueError("v0 must be positive")
    d = packet_boundary_derivative(wp, tau)
    return 2.0 / np.sqrt(v0) * np.abs(d) ** 2


def normalized_crossing_density(wp: WavePacket, tau):
    """Normalised crossing-time density |d psi/dx(0, tau)|^2 / p at unit mass:
    independent of the absorption strength by construction and integrating
    to one for a packet that fully crosses."""
    if wp.p <= 0:
        raise ValueError("normalised crossing density needs mean momentum p > 0")
    d = packet_boundary_derivative(wp, tau)
    return np.abs(d) ** 2 / wp.p
