"""Constrained random walks on a space-time lattice.

A walker starts at the origin, takes steps of +-eta with probability 1/2
each per time slice dtau, and must sit strictly on the positive axis at the
intermediate constraint instants (every ``steps_per_projection`` slices).
The return probability u(0, tau | 0, 0) under these constraints comes from
a dynamic program over the probabilities of the live sites, exact up to
rounding: each free stretch between checkpoints is one convolution with
the binomial pmf, direct below 128 steps and by the pmf's closed-form
spectrum from 128 on (``constrained_walk_probability``).  Mapped to a
density through the factor 1/(2 eta) (reachable sites alternate parity, so
the effective site spacing is 2 eta) it converges, as the lattice under
each projection interval is refined at fixed physical tau and eps, to the
continuum boundary amplitude with that many projections:

    (1/2 eta) u  ->  sqrt(m / 2 pi tau) * eps / tau,

the peak law, with m = dtau / eta^2.  The finite-lattice error runs in
powers of eta, led by the O(eta) of the site-based boundary cutoff, so a
refinement sweep that halves eta level to level extrapolates cleanly, one
Richardson stage per power (``richardson_limit``).

A site counts as positive only when it lies above the origin.  With a
constraint at every step the walk therefore probes the restricted
(absorbing-boundary) propagator through an O(eta) boundary layer, as if an
absorbing wall stood half a site above the origin, and (1/2 eta) u tends to
one HALF of the expression above.  With many steps per projection interval
the convention only shifts the O(eta) term, which the refinement sweep at
fixed physical constraint spacing removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import five_smooth_at_least

__all__ = [
    "LatticeConfig",
    "constrained_walk_probability",
    "LatticeSweep",
    "richardson_limit",
    "continuum_peak_estimate",
]


# Longest walk a refinement sweep may run.  At the cap the slowest walk
# has a projection at every step, 65,536 direct convolutions with the
# two-point pmf: about 0.25 s on a 2-vCPU VM, 0.09 s at 4 steps per
# interval and 0.06 s at 16.  A sweep's finest level has at least 16 steps
# per interval, so the cap holds a sweep to about 0.1 s.
MAX_WALK_STEPS = 65_536

# Shortest segment between checkpoints that advances by one product with the
# binomial kernel's spectrum rather than by a direct convolution with its pmf.
_SPECTRAL_STEPS = 128


def _binomial_spectrum(steps: int, length: int) -> np.ndarray:
    """The rfft of the ``steps``-step pmf C(steps, i) 2^-steps centred on
    i = steps // 2 and periodised over ``length`` points: cos(pi k / length)
    to the power ``steps``, times exp(-i pi k / length) for odd ``steps``.

    The power is formed as exp(steps log1p(-2 sin^2(pi k / 2 length))),
    which keeps each mode to a few ulp where cos(.)**steps loses about
    ``steps`` ulp.  Only the modes above exp(-745), the smallest subnormal,
    are formed; the rest, the Nyquist mode among them, are zero.
    """
    keep = int(length / math.pi * math.acos(math.exp(-745.0 / steps))) + 1
    theta = np.arange(keep) * (math.pi / length)
    modes = np.exp(steps * np.log1p(-2.0 * np.sin(0.5 * theta) ** 2))
    spectrum = np.zeros(length // 2 + 1, complex)
    spectrum[:keep] = modes * np.exp(-1j * theta) if steps % 2 else modes
    return spectrum


@dataclass(frozen=True)
class LatticeConfig:
    """A walk of ``n_steps`` unit steps, constrained after every
    ``steps_per_projection`` steps; the lattice spacings enter only the
    continuum map of ``continuum_peak_estimate``."""

    n_steps: int
    steps_per_projection: int

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.steps_per_projection < 1:
            raise ValueError("steps_per_projection must be >= 1")


def constrained_walk_probability(cfg: LatticeConfig) -> float:
    """Probability of returning to the origin after n_steps while
    satisfying the positivity constraint at every intermediate multiple of
    steps_per_projection.

    The walk runs in segments that end at the next checkpoint (projection
    or last step).  It keeps the probabilities of the live sites, ``p[j]``
    at site x = 2 (base + j) - step, and a segment of l free steps replaces
    them by their convolution with the binomial pmf C(l, i) 2^-l; a
    projection then drops the sites at or left of the origin.  Below
    ``_SPECTRAL_STEPS`` = 128 steps the convolution is direct, one
    ``np.convolve`` per part of at most 53 steps, whose pmf is exact in
    binary floating point: a rounded pmf would bias every segment alike
    (at 64 steps its mass is 1 + 2.1e-17).  From 128 steps on it is one
    product with the pmf's closed-form spectrum (``_binomial_spectrum``): an
    rfft of the window padded by the kernel's reach isqrt(21 l - 1) + 3
    (past it the pmf is below 2^-60 of its centre), the product and an
    irfft, at a 2^a 3^b 5^c length at which no image within that reach
    wraps, trimmed to the entries above 2^-50 of its peak, beneath which
    lies the transform's rounding noise.  The choice depends only on the
    segment's length.

    The probabilities never exceed 1, so nothing needs rescaling.  The
    entries below 2^-128 are dropped from the window's right end: a dropped
    entry could add at most its own value to the result, so a walk at the
    65,536-step cap (at most 2^16 segments of at most 2^16 sites) moves by
    less than 2^-96, where its return probability is at least 2.4e-8 (a
    projection at every step).  The left end needs no such trim: each
    projection cuts it at the origin, a first direct segment leaves no
    entry below 2^-127, a spectral one is trimmed already, and the last
    segment's tail takes no further step.  The pmf of a part is at least
    2^-53, so no product comes near the subnormals.

    Through step 53 every probability is a dyadic rational k 2^-step, and
    each product with the pmf and each sum fits the 53-bit significand, so
    the result matches brute-force enumeration bit for bit on small
    lattices.  Longer walks round: against exact counts the result stays
    within 1e-15 relative through 4,000 steps, and against a long-double
    DP within 1e-14 through 65,536.
    """
    n = cfg.n_steps
    if n % 2:
        return 0.0  # the origin has the parity of even step counts only
    spp, tiny = cfg.steps_per_projection, 2.0**-128
    p, base = np.ones(1), 0  # after t steps, p[j] is the probability at 2 (base + j) - t
    pmfs = {}  # the pmf of each part length, at most three
    for step in range(0, n, spp):
        steps = min(spp, n - step)
        if steps < _SPECTRAL_STEPS:
            for part in [53] * ((steps - 1) // 53) + [(steps - 1) % 53 + 1]:
                if part not in pmfs:
                    pmfs[part] = np.array([math.comb(part, i) / 2**part for i in range(part + 1)])
                p = np.convolve(p, pmfs[part])
        else:
            # p sits `reach` points into the transform, so out[k] is the
            # convolution's entry k + steps // 2 - reach
            reach = math.isqrt(21 * steps - 1) + 3
            length = five_smooth_at_least(p.size + 2 * reach)
            padded = np.zeros(length)
            padded[reach : reach + p.size] = p
            out = np.fft.irfft(np.fft.rfft(padded) * _binomial_spectrum(steps, length), length)
            kept = np.flatnonzero(out > out.max() * 2.0**-50)
            p = out[kept[0] : kept[-1] + 1]
            base += steps // 2 - reach + kept[0]
        if step + steps < n:  # a projection: the sites at or left of the origin go
            cut = (step + steps) // 2 + 1 - base  # >= 1, as the segment reached x <= 0
            p, base = p[cut:], base + cut
        if not p[-1] >= tiny:
            # the segment added `steps` entries, so twice as many are scanned
            p = p[: p.size - int((p[: -2 * steps - 3 : -1] >= tiny).argmax())]
    return float(p[n // 2 - base])


def richardson_limit(values) -> float:
    """The limit eta -> 0 of ``values`` taken at an eta that halves from each
    to the next, with errors in powers of eta: stage j = 1 ... len - 1 maps
    T to (2^j T[1:] - T[:-1]) / (2^j - 1), which removes the eta^j term and
    leaves one value after the last stage (Richardson's deferred approach to
    the limit).  At three values it is (4 (2c - b) - (2b - a)) / 3."""
    table = np.asarray(values, dtype=float)
    for j in range(1, table.size):
        table = (2.0**j * table[1:] - table[:-1]) / (2.0**j - 1)
    return float(table[0])


@dataclass
class LatticeSweep:
    ratios: np.ndarray
    extrapolated: float


def continuum_peak_estimate(
    n_intervals: int,
    levels: tuple[int, ...] = (4, 16, 64, 256, 1024),
) -> LatticeSweep:
    """Refinement sweep of the walk toward the continuum peak law.

    Holds the number of constraint intervals ``n_intervals`` = tau/eps
    fixed while quadrupling the number r of steps per interval (so eta
    halves level to level), forms the ratio

        [(1/2 eta) u] / [sqrt(m / 2 pi tau) * eps / tau]

    at each level, and removes the errors O(eta) to O(eta^(L-1)) of its L
    levels by every Richardson stage (``richardson_limit``).  The ratio is
    scale-free, so it is formed from the unit walk, m = eps = 1: its value
    is the same for every physical (m, eps) with tau = n_intervals eps, and
    the physical eta = sqrt(eps/m/r) and dtau = eps/r enter only the
    command line's table.  The extrapolated ratio is 1 to 5.9e-6 at the
    default five levels and four intervals, and to 5.4e-8 at six levels
    (4 to 4,096) and eight intervals.  No interval, fewer than three
    levels, levels that do not quadruple, and a finest walk of more than
    ``MAX_WALK_STEPS`` steps are rejected with ``ValueError``.
    """
    if n_intervals < 1:
        raise ValueError("the sweep needs at least one interval")
    if len(levels) < 3:
        raise ValueError("refinement sweep needs at least three levels to extrapolate")
    for a, b in zip(levels, levels[1:]):
        if b != 4 * a:
            raise ValueError("levels must quadruple so that eta halves")
    if n_intervals * levels[-1] > MAX_WALK_STEPS:
        raise ValueError(
            f"finest walk too long: {n_intervals:.6g} intervals at levels "
            f"{levels[0]}..{levels[-1]} steps per interval exceed {MAX_WALK_STEPS} steps"
        )

    target = np.sqrt(1 / (2 * np.pi * n_intervals)) * (1 / n_intervals)
    ratios = [constrained_walk_probability(LatticeConfig(n_intervals * r, r))
              / (2 * np.sqrt(1 / r)) / target for r in levels]
    return LatticeSweep(ratios=np.array(ratios), extrapolated=richardson_limit(ratios))
