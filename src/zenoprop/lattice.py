"""Constrained random walks on a space-time lattice.

A walker starts at the origin, takes steps of +-eta with probability 1/2
each per time slice dtau, and must sit strictly on the positive axis at the
intermediate constraint instants (every ``steps_per_projection`` slices).
The return probability u(0, tau | 0, 0) under these constraints comes from
a dynamic program over walk counts, exact up to rounding, which sums only
the sites that can still survive, builds its add operands once per segment
between projections and rescales, and trims its window at each rescale to
the counts that survive it; a stretch of 128 or more free steps between
checkpoints advances instead by one product with the closed-form spectrum
of the binomial kernel (``constrained_walk_probability``).  Mapped to a
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

from .core import five_smooth_at_least

__all__ = [
    "LatticeConfig",
    "constrained_walk_probability",
    "LatticeSweep",
    "continuum_peak_estimate",
]


# Longest walk a refinement sweep may run.  A walk constrained every
# _SPECTRAL_STEPS steps or more advances by one transform of its live
# window per interval: 32,768 steps at 4,096 per interval, the finest walk
# the benchmark runs, take 0.5-1 ms, and 65,536 steps at 128 per interval
# 30-50 ms.  So the cap's worst case is a walk on the counts DP, which sums
# at most n/2 + 1 sites a step, about 0.1 n^2 in all once its rescales trim
# the underflowed tails: at the cap about 0.26-0.31 s with a projection at
# every step and 0.13 s at 127 steps per interval, on a 2-vCPU VM.  A
# sweep's finest level has at least 16 steps per interval, so the cap holds
# a sweep to about 0.2 s.
MAX_WALK_STEPS = 65_536

# Steps between rescales of the walk counts: a count after k steps is at
# most 2^k, so 960 steps keep every count below 2^960, short of the float
# limit 2^1024.
_RESCALE_STEPS = 960

# Shortest segment between checkpoints that advances by one product with the
# binomial kernel's spectrum rather than one DP step at a time.  On a
# 2-vCPU VM the product costs about as much as 100 DP steps, and up to 1.5x
# as much as 64 on small windows.
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
    or last step).  A segment of ``_SPECTRAL_STEPS`` = 128 steps or more
    advances by one spectral product; shorter ones run the counts DP step
    by step, so a walk constrained at least every 127 steps, or shorter
    than 128 steps, never leaves the DP.  The choice depends only on the
    segment's length.

    The counts DP: dynamic programming over walk counts, the probabilities
    times 2^step, updating only live sites.  After ``step`` steps only
    sites of that parity are occupied, so site x = 2j - step is stored at
    ``w[j + 1]`` (``w[0]`` stays zero) and one step is one sum, ``v[j] =
    w[j - 1] + w[j]``, into a second buffer that then takes the place of
    the first.  A step writes only the sites that can still reach the next
    checkpoint's surviving range (x > 0 at a projection, the origin at the
    last step), and after a projection nothing at or left of it survives.
    After every ``_RESCALE_STEPS`` DP steps all counts are multiplied by
    the exact power of two 2^-960, so no count reaches the float limit
    2^1024; the result is the final value times 2^(rescaled - n_steps).

    A DP segment also ends at a rescale.  It builds its two sets of add
    operands once, over the union of its steps' windows (its first step's
    left edge, its last step's right edge), and alternates them, so a step
    is one ``np.add`` call.  The extra entries it sums are zeros right of
    the support, 0 + 0 = +0, and dead sites left of the reach cutoff, which
    feed only dead sites; scaling both whole buffers at a rescale keeps
    those finite too.  At a rescale the window is trimmed to the counts
    that survive it: the tails that the factor 2^-960 takes below the
    smallest subnormal become exact zeros, and as a step never moves a
    nonzero count to a lower j and moves the highest one up by at most
    one, the window's low end rises to the first nonzero count (rounded
    down to a cache line) and its top end tracks the last one.

    The spectral product: a free segment of l steps convolves the window
    with the binomial pmf C(l, i) 2^-l, whose spectrum, centred and
    periodised, has a closed form (``_binomial_spectrum``).  So the segment
    is one rfft of the window, padded by the kernel's reach ceil(sqrt(21
    l)) + 2 (past it the pmf is below 2^-60 of its centre), one product
    and one irfft, at a 2^a 3^b 5^c length at which no image within that
    reach wraps.  The pmf carries no factor 2^l, so l joins ``rescaled``,
    and the output is trimmed to the entries above 2^-50 of its peak,
    beneath which lies the transform's rounding noise.

    Through step 53 every count is an integer of at most 2^step, exact in
    binary floating point, so the result matches brute-force enumeration
    bit for bit on small lattices.  On the DP longer walks round, to at
    most about n_steps * 2^-53 relative.  Halving is exact in the normal
    float range, so each sum equals 2^step times the sum of halved
    probabilities that a DP over all 2n + 1 sites forms, bit for bit; only
    values below about 2^-1022, deep in the tails, can round differently.
    A spectral segment instead rounds each entry to a few units of 2^-53
    of the window's peak: against exact counts the result stays within
    1e-15 relative through 1,200 steps, and at 32,768 steps it is closer
    to a long-double DP than the counts DP is.
    """
    n = cfg.n_steps
    if n % 2:
        return 0.0  # the origin has the parity of even step counts only
    half = n // 2
    # j = 0 .. n/2, the sites with |x| <= n - step, in two buffers cut from
    # one allocation so that w[2] and v[2] start 64-byte cache lines.  numpy's
    # SIMD sum runs fastest into an aligned output (on a 2-vCPU AVX-512 VM
    # the finest benchmark walk took 0.067 s aligned so, 0.085-0.12 s as
    # the allocator placed the buffers).  After a projection at a step
    # divisible by 16 a window that starts at lo = step / 2 + 2 is aligned,
    # and a trim rounds lo down to an aligned index (the benchmark's sweep
    # takes 0.068 s so, 0.092 s with lo at the first nonzero count).
    size = -(-(half + 2) // 8) * 8
    buf = np.zeros(2 * size + 8)
    first = -(buf.ctypes.data + 16) % 64 // 8
    w = buf[first : first + half + 2]
    v = buf[first + size : first + size + half + 2]
    w[1] = 1.0
    lo = 1  # lowest index that may hold a live nonzero count; w[lo - 1] = v[lo - 1] = 0
    top = 1  # highest index that may hold a nonzero count
    rescaled = 0  # binary exponent taken out of the counts so far
    spp, every, spectral = cfg.steps_per_projection, _RESCALE_STEPS, _SPECTRAL_STEPS
    due = every  # the step of the next rescale: `every` DP steps after the last
    add = np.add
    step = 0
    while step < n:
        # one segment, to the next checkpoint (projection or last step) or,
        # on the DP, to the next rescale
        nxt = min(n, (step // spp + 1) * spp)
        a = max(lo, step + 2 - nxt // 2)  # only sites that can still survive nxt
        if nxt - step >= spectral:
            # w[a - 1 : top + 1] sits `reach` points into the transform and
            # out[p] lands at index off + p; the trimmed output replaces the
            # window.  v is next read only by a DP tail, at v[lo - 1], zeroed
            # at the projection, and at entries that tail has written.
            end = nxt
            steps = end - step
            b = min(half + 2, top + steps + 1)
            reach = min(math.isqrt(21 * steps - 1) + 3, steps // 2 + 1)
            length = five_smooth_at_least(top + 4 - a + 2 * reach)
            padded = np.zeros(length)
            padded[reach : reach + top + 2 - a] = w[a - 1 : top + 1]
            spectrum = np.fft.rfft(padded) * _binomial_spectrum(steps, length)
            out = np.fft.irfft(spectrum, length)
            off = a - 1 - reach + steps // 2
            out = out[max(0, a - off) : b - off]
            base = max(a, off)  # the index of out[0]
            kept = np.flatnonzero(out > out.max() * 2.0**-50)
            w[a - 1 : b] = 0.0
            w[base + kept[0] : base + kept[-1] + 1] = out[kept[0] : kept[-1] + 1]
            top = base + kept[-1]
            rescaled += steps
            due += steps  # the pmf does not grow the counts
        else:
            end = min(nxt, due)
            b = min(half + 2, top + end - step + 1)
            x = (w[a - 1 : b - 1], w[a:b], v[a:b])
            y = (v[a - 1 : b - 1], v[a:b], w[a:b])
            for _ in range((end - step) // 2):
                add(*x)
                add(*y)
            if (end - step) % 2:
                add(*x)
                w, v = v, w
            top = b - 1
        if end == due:
            # The whole allocation, dead entries too, so none can overflow.
            # Then trim, writing no zeros: w[top + 1 : b] is zero as top is
            # w's last nonzero count, and an entry of v (step end - 1) is at
            # most the two entries of w it was added into, at its own index
            # and one up, so it scales to zero wherever either does; v[lo - 1]
            # is thus zero whenever it can still reach a live site.
            buf *= 2.0**-every
            rescaled += every
            due = end + every
            a = max(lo, end + 1 - half)
            nonzero = w[a:b] != 0
            low = a + int(nonzero.argmax())
            top = b - 1 - int(nonzero[::-1].argmax())
            lo = max(lo, low - (low - 2) % 8)
        if end < n and end % spp == 0:
            lo = end // 2 + 2
            w[lo - 1] = v[lo - 1] = 0.0  # neither buffer writes below lo again
        step = end
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
    Richardson stages.  The ratio is scale-free, so it is formed from the
    unit walk, m = eps = 1 over N = tau/eps intervals, which no (m, eps)
    can overflow; the physical eta = sqrt(eps)/sqrt(m)/sqrt(r) is reported
    alongside, formed from the three roots so that it leaves the floats only
    where its value does.  The
    extrapolated ratio is 1 to a few parts in 1e3 at the default levels.  Fewer than three levels, levels that do not
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

    target = np.sqrt(1 / (2 * np.pi * n_intervals)) * (1 / n_intervals)
    etas, ratios = [], []
    for r in levels:
        u = constrained_walk_probability(LatticeConfig(n_intervals * r, r))
        etas.append(np.sqrt(eps) / np.sqrt(m) / np.sqrt(r))
        ratios.append(u / (2 * np.sqrt(1 / r)) / target)

    first = [2 * b - a for a, b in zip(ratios, ratios[1:])]
    second = [(4 * b - a) / 3 for a, b in zip(first, first[1:])]
    return LatticeSweep(
        steps_per_projection=np.array(levels),
        etas=np.array(etas),
        ratios=np.array(ratios),
        extrapolated=float(second[-1]),
    )
