"""Euclidean slice recursion for the pulsed-measurement boundary propagator.

The boundary amplitude with n equally spaced projections is computed by
propagating a spatial slice through imaginary time.  In rescaled time
``s = t / eps`` the slice obeys

    F_n(s, x) = int_0^inf dy K(m, (s - n) eps, x, y) F_{n-1}(n, y),
    n <= s <= n + 1,

with ``K`` the heat kernel and ``F_0`` the heat kernel itself; the
projection onto x > 0 is enacted purely by the half-line integration range.
The real-time boundary amplitude is recovered through the dimensionless
envelope

    f(t) = F(s, 0) / K(m, t, 0, 0),    t = s eps,

which equals one for free evolution and continues to real time untouched
(only the square-root prefactor rotates).

The envelope depends on t/eps alone, never on m, so the recursion works at
m = eps = 1, in units of eps and of the thermal width sqrt(eps/m).  Its
times are s, no physical (m, eps) reaches its arithmetic, and callers
multiply the times by eps.  ``m`` and ``eps`` stay as unit class constants
of ``RecursionConfig``, so the formulas keep their physical form and code
that reads ``cfg.m`` and ``cfg.eps`` (the benchmark sizes the advances'
kernels that way) still works.

Numerics: slices live on a uniform grid over [0, x_max], derived from
n_max and samples_per_interval alone (``RecursionConfig``), with x_max
about ten thermal widths of the total duration and a spacing tied to the
narrowest kernel, which spans 16 spacings.  The y-integral is the
trapezoid rule with Gregory's end corrections over the first five nodes at
y = 0.  The integrand is smooth on y >= 0, so the O(h^2) end term that the
corrections cancel is the plain trapezoid's whole error; the far end, where
the slice is negligible, keeps its half weight.  At these grids the peaks
are exact to about 1e-11 and the envelope with up to three projections
matches its closed forms to about 1e-9.

Every advance spans one whole interval, a step of eps: the weighted slice's
spectrum times the heat kernel's, exp(-(eps / 2m) k^2) / h in closed form
(``RecursionConfig.kernel_spectrum``), at the smallest power-of-two length
that puts the kernel's first periodic image kernel_span widths past the
grid.  The transforms run in a fixed order, so results are deterministic,
and agree with a direct sum over the kernel cut at kernel_span widths to
~1e-15 of the slice maximum (negative roundoff tails are clipped to zero,
since the exact slice is non-negative).  The boundary
samples need only F(n + u, 0), and the kernel of a sample depends on its
offset u alone, not on n.  So the recursion advances every slice first,
keeping each only out to the widest kernel's reach, and then takes the
samples of all intervals in one pass over blocks of kernel rows, each
block built once and dotted with every slice near the origin
(``boundary_amplitude``).  On the free interval 0 < s <= 1 the slice is the
heat kernel itself and the envelope is exactly one, so only the slice at
s = 1 is built.  Samples at offsets whose kernels span fewer than four
spacings are refused; the recursion's own narrowest step, eps /
samples_per_interval, spans at least 16.

One-sided limits at the projection instants: the left limit is the ordinary
sample at the end of an interval; the right limit is the exact coincidence
value, half the left limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import BoundaryCurve, Grid1D, heat_kernel, pow2_at_least

__all__ = [
    "EuclideanSlice",
    "RecursionConfig",
    "MAX_WORK",
    "predicted_work",
    "initial_slice",
    "advance_slice",
    "boundary_amplitude",
    "run_recursion",
]


@dataclass
class EuclideanSlice:
    """Slice F(s, x) at rescaled time s, one value per point of its config's
    grid (``RecursionConfig.grid``).  Values are real and non-negative: the
    kernel is positive and the initial slice is."""

    s: float
    values: np.ndarray


# Fewest grid spacings the narrowest heat kernel may span.  With n_max = 3
# and 16 samples per interval the peak error is 8.2e-12 at 16 spacings (the
# default), 3.1e-8 at 4, 1.5e-6 at 2 and 2.2e-3 at 0.6; the error against
# the closed forms is 6.6e-10, 8.2e-6, 4.2e-4 and 6.6e-2 (the plain
# trapezoid: 4.4e-4 and 1.9e-4 at 4 spacings).
MIN_KERNEL_SPACINGS = 4

# Gregory's end corrections: the trapezoid weights of the first five nodes
# times these factors cancel the h^2 and h^4 Euler-Maclaurin terms of the
# y = 0 end, leaving an O(h^6) error, and the weights stay positive.
_END_WEIGHTS = np.array([95 / 288, 317 / 240, 23 / 30, 793 / 720, 157 / 160])


# Most work a run may take (``predicted_work``), in units of about one
# nanosecond on a 2-vCPU VM.  The largest accepted `fp` runs, whether the
# advances, the boundary kernel or the table rows dominate, took 4.1-6.5 s
# and at most 256 MB of peak RSS there, written as JSON; the benchmark's
# shapes predict 2.1e7 (fp20) and 8.6e8 (fp3_dense).
MAX_WORK = 10**10


@dataclass(frozen=True)
class RecursionConfig:
    """Recursion settings at m = eps = 1 (the module's units, which serve
    every physical (m, eps) because the envelope depends on t/eps alone):
    n_max projections, each interval sampled at ``samples_per_interval``
    offsets.  The slice grid is derived from the two, once: it spans ten
    thermal widths of the total duration at spacing
    ``h = 1 / (16 sqrt(max(samples_per_interval, 16)))`` thermal widths
    sqrt(eps/m).  The spacing is tied to the narrowest kernel, of width
    sqrt(1 / samples_per_interval), which spans 16 spacings (more below 16
    samples per interval): h is 1/64 at 16 samples and 1/1024 at 4096.  The
    Gaussian tails beyond x_max are below 1e-20.  So every grid has at least
    907 points, and the widest kernel, a step of one interval, ends at least
    266 points short of the grid's far end."""

    n_max: int
    samples_per_interval: int
    grid: Grid1D = field(init=False, compare=False, repr=False)
    m: ClassVar[float] = 1.0               # the units: mass and spacing are one
    eps: ClassVar[float] = 1.0
    kernel_span: ClassVar[float] = 10.0    # kernel reach in std widths (taps, padding)

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.samples_per_interval < 2:
            raise ValueError("samples_per_interval must be >= 2")
        samples = max(self.samples_per_interval, 16)
        h = 1.0 / (16.0 * np.sqrt(float(samples)))
        # ten thermal widths, 10 sqrt(n_max + 1), are 160 sqrt((n_max + 1) samples)
        # spacings
        n_points = int(np.ceil(160.0 * np.sqrt(float((self.n_max + 1) * samples)))) + 1
        object.__setattr__(self, "grid", Grid1D(h * (n_points - 1), n_points))
        work = predicted_work(self)
        if not work <= MAX_WORK:
            raise ValueError(f"predicted work {work:.3g} exceeds the cap of {MAX_WORK:.3g} "
                             "(MAX_WORK): use fewer projections or samples per interval")

    @functools.cached_property
    def kernel_spectrum(self) -> np.ndarray:
        """exp(-(eps / 2m) k_j^2) / h at k_j = 2 pi j / (L h), j = 0 .. L/2:
        by Poisson summation the rfft of the heat kernel of a step of eps,
        sampled at spacing h and periodised on the power of two L at or above
        n_points + taps.  Built on first use and read-only, as runs share it."""
        length = pow2_at_least(self.grid.n_points + int(_taps(self, self.eps)))
        k = 2 * np.pi / (length * self.grid.spacing) * np.arange(length // 2 + 1)
        spectrum = np.exp(-self.eps / (2 * self.m) * k * k) / self.grid.spacing
        spectrum.flags.writeable = False
        return spectrum


def predicted_work(cfg: RecursionConfig) -> float:
    """Work of ``run_recursion(cfg)`` and of writing its table, from the
    config alone, in units of about one nanosecond: each of the n_max
    advances counts 80 per point of its FFT length, each boundary kernel
    value n_max + 4 (it is built once and dotted with every slice), and each
    row of the envelope curve 40,000.  A row written as JSON takes about
    18 us but also 1.1 KB, and its weight holds a table at the cap to
    250,000 rows.  Nothing is allocated."""
    # the widest kernel's taps, as _taps counts them, in Python ints, which
    # hold any size a config can be given
    taps = math.ceil(cfg.kernel_span * math.sqrt(cfg.eps / cfg.m) / cfg.grid.spacing)
    fft_points = cfg.n_max * pow2_at_least(cfg.grid.n_points + taps)
    kernel_values = cfg.samples_per_interval * (2 * taps / 3 + 1)
    rows = cfg.samples_per_interval + cfg.n_max * (cfg.samples_per_interval + 1)
    return 80.0 * fft_points + (cfg.n_max + 4) * kernel_values + 40_000.0 * rows


def initial_slice(cfg: RecursionConfig) -> EuclideanSlice:
    """F_0(1, x): the heat kernel spread from the origin over the free
    interval, the slice just before the first projection."""
    return EuclideanSlice(1.0, heat_kernel(cfg.m, cfg.eps, cfg.grid.points(), 0.0))


def _taps(cfg: RecursionConfig, dt):
    """Kernel points past the origin for steps dt: kernel_span widths.  A
    step of at most one interval ends inside the grid (``RecursionConfig``)."""
    return np.ceil(cfg.kernel_span * np.sqrt(dt / cfg.m) / cfg.grid.spacing).astype(int)


def _weighted(values: np.ndarray, cfg: RecursionConfig) -> np.ndarray:
    """Slice values on the first points of the grid (along the last axis)
    times their quadrature weights: the spacing, end-corrected over the
    first five nodes and halved at the far end of the grid, where the slice
    is negligible."""
    w = values * cfg.grid.spacing
    w[..., : len(_END_WEIGHTS)] *= _END_WEIGHTS
    if w.shape[-1] == cfg.grid.n_points:
        w[..., -1] *= 0.5
    return w


def advance_slice(prev: EuclideanSlice, cfg: RecursionConfig, s_next: float) -> EuclideanSlice:
    """Propagate the slice taken at a projection, s = n, over one whole
    interval to s_next = n + 1; any other s_next raises ``ValueError``.

    The projection at s = n is enacted by the half-line integration range;
    the output slice is evaluated on the full grid (including x = 0), from
    the weighted slice's spectrum times ``cfg.kernel_spectrum``."""
    if s_next != prev.s + 1:
        raise ValueError(f"an advance spans one whole interval, from s = {prev.s} to "
                         f"{prev.s + 1}, got s_next = {s_next}")
    length = 2 * (len(cfg.kernel_spectrum) - 1)
    spectrum = np.fft.rfft(_weighted(prev.values, cfg), length) * cfg.kernel_spectrum
    # the exact slice is non-negative; clip the FFT roundoff tails
    n = cfg.grid.n_points
    return EuclideanSlice(s_next, np.maximum(np.fft.irfft(spectrum, length)[:n], 0.0))


# Largest block of kernel values the boundary samples hold at once (512 KiB
# of float64, which stays in cache while every slice is dotted with it).
_BLOCK_ENTRIES = 1 << 16


def _kernel_blocks(cfg: RecursionConfig, dt: np.ndarray, taps: np.ndarray):
    """Yield ``(rows, block)``: ``block[i, j]`` is exp(-m x^2 / 2 dt) for the
    step ``dt[rows.start + i]`` at grid offset ``x = j h``.  ``dt`` is
    ascending, so a block of consecutive rows is as wide as its widest
    (last) row: it takes as many rows as fit in ``_BLOCK_ENTRIES`` entries,
    and a row wider than that is a block of its own.  The narrower rows of a
    block run past their own taps, where the kernel is below
    exp(-kernel_span^2 / 2) of its peak.  Every block is a view of one
    buffer, overwritten by the next block."""
    x = np.arange(taps[-1] + 1) * cfg.grid.spacing
    minus_x2 = -x * x
    buffer = np.empty(max(_BLOCK_ENTRIES, taps[-1] + 1))
    start = 0
    while start < len(dt):
        entries = np.arange(1, len(dt) - start + 1) * (taps[start:] + 1)
        stop = start + max(1, int(np.searchsorted(entries, _BLOCK_ENTRIES, side="right")))
        rows = slice(start, stop)
        width = taps[stop - 1] + 1
        block = buffer[: (stop - start) * width].reshape(stop - start, width)
        np.multiply(minus_x2[:width], cfg.m / (2 * dt[rows, None]), out=block)
        yield rows, np.exp(block, out=block)
        start = stop


def boundary_amplitude(values, cfg: RecursionConfig, u) -> np.ndarray:
    """F(n + u, 0), one row per slice taken at a projection, s = n, and one
    column per offset in ``u``, a non-empty ascending 1-D array in (0, 1],
    without forming the advanced slices.

    ``values`` holds one slice per row on the first points of the grid, out
    to at least the widest kernel's reach (the whole grid will do).  Each
    sample is the kernel of its step u eps, cut at kernel_span widths, dotted
    with the weighted slice.  The kernel depends on the offset alone, so each
    block of kernel rows (``_kernel_blocks``) is built once and dotted with
    every slice.  Raises ``ValueError`` for offsets outside (0, 1] or of
    another shape or order, a row shorter than the widest kernel's reach, or
    a kernel spanning fewer than ``MIN_KERNEL_SPACINGS`` spacings, which the
    quadrature does not resolve."""
    values = np.asarray(values, dtype=float)
    u = np.asarray(u, dtype=float)
    outside = ~((0 < u) & (u <= 1))
    if outside.any():
        raise ValueError(f"offsets must lie in (0, 1], got {u[outside].flat[0]}")
    if values.ndim != 2 or values.shape[1] > cfg.grid.n_points:
        raise ValueError("slice values must be rows on the first points of the grid")
    if u.ndim != 1 or not u.size or np.any(u[1:] < u[:-1]):
        raise ValueError("offsets must be a non-empty ascending 1-D array")
    dt = u * cfg.eps
    h = cfg.grid.spacing
    if np.sqrt(dt[0] / cfg.m) < MIN_KERNEL_SPACINGS * h:
        raise ValueError(
            f"a step of {dt[0] / cfg.eps:.3g} eps has a kernel narrower than "
            f"{MIN_KERNEL_SPACINGS} grid spacings of {h:.3g}"
        )
    taps = _taps(cfg, dt)
    if values.shape[1] <= taps[-1]:
        raise ValueError(
            f"slice rows of {values.shape[1]} points fall short of the widest "
            f"kernel's reach of {taps[-1] + 1}"
        )
    weighted = _weighted(values[:, : taps[-1] + 1], cfg)
    sums = np.empty((len(weighted), len(dt)))
    for rows, block in _kernel_blocks(cfg, dt, taps):
        for row, prefix in zip(sums, weighted):
            row[rows] = block @ prefix[: block.shape[1]]
    return sums * heat_kernel(cfg.m, dt, 0.0, 0.0)


def run_recursion(cfg: RecursionConfig) -> BoundaryCurve:
    """Boundary envelope curve for n_max projections.

    Sampling per interval (n, n+1]: the exact right limit at s = n (side
    '+', half the '-' row before it), ``samples_per_interval - 1`` interior
    points at offsets u = j / samples_per_interval, and the sample at
    s = n + 1, which is the peak / left limit at the next projection (side
    '-').  On the free interval (0, 1] the envelope is identically one:
    every sample there is emitted as 1.0, and only the initial slice at
    s = 1 is built.

    The slices are advanced first, one ``advance_slice`` per interval, each
    kept only out to the widest interior kernel's reach.  One
    ``boundary_amplitude`` call then takes every interval's interior
    samples, building each kernel row once for all intervals.  The table is filled as one row of samples_per_interval + 1
    columns per interval, s = n, the interior offsets and s = n + 1, with the
    free interval as row 0 less its first column, and the samples are
    divided by the heat kernel at the origin in two array calls, one for the
    peaks and one for the interior.

    Returns the envelope ``BoundaryCurve``; its times are s = t/eps.
    """
    spi = cfg.samples_per_interval
    interior = np.arange(1, spi) / spi
    reach = _taps(cfg, interior[-1] * cfg.eps) + 1
    prefixes = np.empty((cfg.n_max, reach))
    origins = np.empty(cfg.n_max)
    prev = initial_slice(cfg)
    for n in range(1, cfg.n_max + 1):
        prefixes[n - 1] = prev.values[:reach]
        prev = advance_slice(prev, cfg, float(n + 1))
        origins[n - 1] = prev.values[0]
    amplitude = boundary_amplitude(prefixes, cfg, interior)
    s = np.arange(cfg.n_max + 1)[:, None] + np.concatenate(([0.0], interior, [1.0]))
    times = s * cfg.eps
    envelope = np.ones_like(times)
    envelope[1:, -1] = origins / heat_kernel(cfg.m, times[1:, -1], 0.0, 0.0)
    envelope[1:, 0] = 0.5 * envelope[:-1, -1]
    envelope[1:, 1:-1] = amplitude / heat_kernel(cfg.m, times[1:, 1:-1], 0.0, 0.0)
    sides = np.full(times.shape, "")
    sides[:, 0], sides[:, -1] = "+", "-"
    return BoundaryCurve(times.ravel()[1:], envelope.ravel()[1:], sides.ravel()[1:])
