"""Constrained random walks on a space-time lattice.

A walker starts at the origin, takes steps of +-eta with probability 1/2
each per time slice dtau, and must sit strictly on the positive axis at the
intermediate constraint instants (every ``steps_per_projection`` slices).
The return probability u(0, tau | 0, 0) under these constraints comes from
a dynamic program over walk counts, exact up to rounding; mapped to a
density through the factor 1/(2 eta) (reachable sites alternate parity, so
the effective site spacing is 2 eta) it converges, as the lattice under
each projection interval is refined at fixed physical tau and eps, to the
continuum boundary amplitude with that many projections:

    (1/2 eta) u  ->  sqrt(m / 2 pi tau) * eps / tau,

the peak law, with m = dtau / eta^2.  The leading finite-lattice error is
O(eta) from the site-based boundary cutoff, so a short refinement sweep
extrapolates cleanly.

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

__all__ = [
    "LatticeConfig",
    "constrained_walk_probability",
    "LatticeSweep",
    "continuum_peak_estimate",
]


# Longest walk a refinement sweep may run.  The DP makes at most
# n^2 / 4 + n site additions for n steps (0.15 n^2 with 8 projection
# intervals); on a 2-vCPU VM 32,768 steps, the finest walk the benchmark
# runs, take about 0.07 s and a walk at the cap about 0.21 s, so the cap
# holds a sweep to about 0.3 s.
MAX_WALK_STEPS = 65_536

# Steps between rescales of the walk counts: a count after k steps is at
# most 2^k, so 960 steps keep every count below 2^960, short of the float
# limit 2^1024.
_RESCALE_STEPS = 960


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

    Dynamic programming over walk counts, the probabilities times 2^step,
    updating only live sites.  After ``step`` steps only sites of that
    parity are occupied, so site x = 2j - step is stored at ``w[j + 1]``
    (``w[0]`` stays zero) and one step is one sum, ``v[j] = w[j - 1] +
    w[j]``, into a second buffer that then takes the place of the first.
    Only sites with |x| <= n_steps - step can still return to the origin,
    and after a projection nothing at or left of it survives, so each step
    updates that window alone.  The steps run in segments that end at the
    next projection, rescale or the last step, so a step is only its window
    bounds and one sum, and the rescale and the projection are applied once
    at a segment's end.  Every ``_RESCALE_STEPS`` steps the live
    counts are multiplied by the exact power of two 2^-960, so no count
    reaches the float limit 2^1024; the result is the final count times
    2^(rescaled - n_steps).

    Through step 53 every count is an integer of at most 2^step, exact in
    binary floating point, so the result matches brute-force enumeration
    bit for bit on small lattices.  Longer walks round, to at most about
    n_steps * 2^-53 relative.  Halving is exact in the normal float range,
    so each sum equals 2^step times the sum of halved probabilities that a
    DP over all 2n + 1 sites forms, bit for bit; only values below about
    2^-1022, deep in the tails, can round differently.
    """
    n = cfg.n_steps
    if n % 2:
        return 0.0  # the origin has the parity of even step counts only
    half = n // 2
    # j = 0 .. n/2, the sites with |x| <= n - step, in two buffers cut from
    # one allocation so that w[2] and v[2] start 64-byte cache lines.  numpy's
    # SIMD sum runs fastest into an aligned output (on a 2-vCPU AVX-512 VM
    # the finest benchmark walk takes 0.067 s aligned so, 0.085-0.12 s as
    # the allocator places the buffers), and after a projection at a step
    # divisible by 16 a window that starts at lo = step / 2 + 2 is aligned.
    size = -(-(half + 2) // 8) * 8
    buf = np.zeros(2 * size + 8)
    first = -(buf.ctypes.data + 16) % 64 // 8
    w = buf[first : first + half + 2]
    v = buf[first + size : first + size + half + 2]
    w[1] = 1.0
    lo = 1  # lowest index still occupied (right of the origin after a projection)
    rescaled = 0  # binary exponent taken out of the counts so far
    spp, every = cfg.steps_per_projection, _RESCALE_STEPS
    step = 0
    while step < n:
        # one segment: up to the next projection, rescale or the last step
        end = min(n, (step // spp + 1) * spp, (step // every + 1) * every)
        for step in range(step + 1, end + 1):
            a = step - half + 1
            if a < lo:
                a = lo
            b = half + 2 if step > half else step + 2
            np.add(w[a - 1 : b - 1], w[a:b], v[a:b])
            w, v = v, w
        if end % every == 0:
            w[a:b] *= 2.0**-every
            rescaled += every
        if end < n and end % spp == 0:
            lo = end // 2 + 2
            w[lo - 1] = v[lo - 1] = 0.0  # neither buffer writes below lo again
    return math.ldexp(float(w[half + 1]), rescaled - n)


@dataclass
class LatticeSweep:
    steps_per_projection: np.ndarray
    etas: np.ndarray
    ratios: np.ndarray
    extrapolated: float


def continuum_peak_estimate(
    tau: float,
    eps: float,
    m: float = 1.0,
    levels: tuple[int, ...] = (4, 16, 64, 256),
) -> LatticeSweep:
    """Refinement sweep of the walk toward the continuum peak law.

    Holds the physical duration ``tau`` and constraint spacing ``eps``
    fixed while quadrupling the number of steps per constraint interval
    (so eta halves level to level), forms the ratio

        [(1/2 eta) u] / [sqrt(m / 2 pi tau) * eps / tau]

    at each level, and removes the O(eta) and O(eta^2) errors by two
    Richardson stages.  The extrapolated ratio is 1 to a few parts in 1e3
    at the default levels.  Fewer than three levels, levels that do not
    quadruple, and a finest walk of more than ``MAX_WALK_STEPS`` steps are
    rejected with ``ValueError``.
    """
    if not tau > 0 or not eps > 0:
        raise ValueError("tau and eps must be positive")
    if len(levels) < 3:
        raise ValueError("refinement sweep needs at least three levels to extrapolate")
    for a, b in zip(levels, levels[1:]):
        if b != 4 * a:
            raise ValueError("levels must quadruple so that eta halves")
    n_intervals = tau / eps
    # the first test keeps a huge level from overflowing the float product
    if levels[-1] > MAX_WALK_STEPS or not n_intervals * levels[-1] <= MAX_WALK_STEPS:
        raise ValueError(
            f"finest walk too long: tau/eps = {n_intervals:.6g} intervals at levels "
            f"{levels[0]}..{levels[-1]} steps per interval exceed {MAX_WALK_STEPS} steps"
        )
    if round(n_intervals) < 1:
        raise ValueError("tau must be at least eps")
    if abs(n_intervals - round(n_intervals)) > 1e-9:
        raise ValueError("tau must be an integer multiple of eps")
    n_intervals = int(round(n_intervals))

    target = np.sqrt(m / (2 * np.pi * tau)) * (eps / tau)
    etas, ratios = [], []
    for r in levels:
        eta = np.sqrt(eps / r / m)
        u = constrained_walk_probability(LatticeConfig(n_intervals * r, r))
        etas.append(eta)
        ratios.append(u / (2 * eta) / target)

    first = [2 * b - a for a, b in zip(ratios, ratios[1:])]
    second = [(4 * b - a) / 3 for a, b in zip(first, first[1:])]
    return LatticeSweep(
        steps_per_projection=np.array(levels),
        etas=np.array(etas),
        ratios=np.array(ratios),
        extrapolated=float(second[-1]),
    )
