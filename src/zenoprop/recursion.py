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

Numerics: slices live on a uniform grid over [0, x_max] with x_max about
ten thermal widths of the total duration and a spacing tied to the
narrowest kernel, which spans 16 spacings (``default_config``).  The
y-integral is the trapezoid rule with Gregory's end corrections over the
first five nodes at y = 0.  The integrand is smooth on y >= 0, so the
O(h^2) end term that the corrections cancel is the plain trapezoid's whole
error; the far end, where the slice is negligible, keeps its half weight.
At the default grids the peaks are exact to about 1e-11 and the envelope
with up to three projections matches its closed forms to about 1e-9.

Every advance is a discrete convolution with the heat kernel cut at
``kernel_span`` widths, evaluated as one real FFT product at the smallest
power-of-two length that holds it without wrap-around; the transforms run in
a fixed order, so results are deterministic, and they agree with a direct
summation to ~1e-15 of the slice maximum (negative roundoff tails are
clipped to zero, since the exact slice is non-negative).  Every advance of a
run spans one whole interval, a step of eps, so a run builds that kernel's
spectrum once and hands it to each advance.  The boundary
samples need only F(n + u, 0), and the kernel of a sample depends on its
offset u alone, not on n.  So the recursion advances every slice first,
keeping each only out to the widest kernel's reach, and then takes the
samples of all intervals in one pass over blocks of kernel rows, each
block built once and dotted with every slice near the origin
(``boundary_amplitude``).  On the free interval 0 < s <= 1 the slice is the
heat kernel itself and the envelope is exactly one, so only the slice at
s = 1 is built.  The grid must resolve the narrowest kernel used, that of
the step eps / samples_per_interval, by at least four spacings.

One-sided limits at the projection instants: the left limit is the ordinary
sample at the end of an interval; the right limit is the exact coincidence
value, half the left limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import BoundaryCurve, Grid1D, heat_kernel, pow2_at_least

__all__ = [
    "EuclideanSlice",
    "RecursionConfig",
    "MAX_WORK",
    "predicted_work",
    "default_config",
    "initial_slice",
    "advance_slice",
    "boundary_amplitude",
    "run_recursion",
]


@dataclass
class EuclideanSlice:
    """Slice F(s, x) at rescaled time s on the half-line grid.  Values are
    real and non-negative: the kernel is positive and the initial slice is."""

    s: float
    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.grid.n_points:
            raise ValueError("slice values must match the grid size")


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
    n_max: int
    grid: Grid1D
    samples_per_interval: int = 16
    m: ClassVar[float] = 1.0               # the units: mass and spacing are one
    eps: ClassVar[float] = 1.0
    kernel_span: ClassVar[float] = 10.0    # kernel truncated at this many std widths

    def __post_init__(self) -> None:
        _check_sizes(self.n_max, self.samples_per_interval)
        if self.grid.n_points <= len(_END_WEIGHTS):
            raise ValueError(f"the slice grid needs more than {len(_END_WEIGHTS)} points")
        narrowest = np.sqrt(self.eps / (self.samples_per_interval * self.m))
        if narrowest < MIN_KERNEL_SPACINGS * self.grid.spacing:
            raise ValueError(
                f"grid spacing {self.grid.spacing:.3g} too coarse: the narrowest kernel, "
                f"of width {narrowest:.3g}, spans fewer than {MIN_KERNEL_SPACINGS} spacings"
            )
        work = predicted_work(self)
        if not work <= MAX_WORK:
            raise ValueError(f"predicted work {work:.3g} exceeds the cap of {MAX_WORK:.3g} "
                             "(MAX_WORK): use fewer projections or samples per interval")


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
    taps = min(math.ceil(cfg.kernel_span * math.sqrt(cfg.eps / cfg.m) / cfg.grid.spacing),
               cfg.grid.n_points - 1)
    fft_points = cfg.n_max * pow2_at_least(cfg.grid.n_points + taps)
    kernel_values = cfg.samples_per_interval * (2 * taps / 3 + 1)
    rows = cfg.samples_per_interval + cfg.n_max * (cfg.samples_per_interval + 1)
    return 80.0 * fft_points + (cfg.n_max + 4) * kernel_values + 40_000.0 * rows


def _check_sizes(n_max: int, samples_per_interval: int) -> None:
    """The projection and sample counts every config needs."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if samples_per_interval < 2:
        raise ValueError("samples_per_interval must be >= 2")


def default_config(n_max: int, samples_per_interval: int) -> RecursionConfig:
    """Recursion settings at m = eps = 1 (the module's units, which serve
    every physical (m, eps) because the envelope depends on t/eps alone), on
    a grid spanning ten thermal widths of the total duration, at spacing
    ``h = 1 / (16 sqrt(max(samples_per_interval, 16)))`` thermal widths
    sqrt(eps/m).  The spacing is tied to the narrowest kernel, of width
    sqrt(1 / samples_per_interval), which spans 16 spacings (more below 16
    samples per interval): h is 1/64 at 16 samples and 1/1024 at 4096.  The
    Gaussian tails beyond x_max are below 1e-20.  Other grids go through
    ``RecursionConfig`` directly."""
    _check_sizes(n_max, samples_per_interval)
    samples = max(samples_per_interval, 16)
    h = 1.0 / (16.0 * np.sqrt(float(samples)))
    # ten thermal widths, 10 sqrt(n_max + 1), are 160 sqrt((n_max + 1) samples)
    # spacings
    n_points = int(np.ceil(160.0 * np.sqrt(float((n_max + 1) * samples)))) + 1
    grid = Grid1D(h * (n_points - 1), n_points)
    return RecursionConfig(n_max, grid, samples_per_interval)


def initial_slice(cfg: RecursionConfig) -> EuclideanSlice:
    """F_0(1, x): the heat kernel spread from the origin over the free
    interval, the slice just before the first projection."""
    x = cfg.grid.points()
    return EuclideanSlice(1.0, cfg.grid, heat_kernel(cfg.m, cfg.eps, x, 0.0))


def _integer_index(s: float) -> int:
    n = int(round(s))
    if abs(s - n) > 1e-9:
        raise ValueError(f"slice must sit at an integer rescaled time, got s={s}")
    return n


def _steps(prev: EuclideanSlice, cfg: RecursionConfig, s_next) -> np.ndarray:
    """Imaginary-time steps (s_next - n) eps from the slice at integer s = n
    to each s_next, which must lie in (n, n+1]."""
    n = _integer_index(prev.s)
    s = np.asarray(s_next, dtype=float)
    outside = ~((n < s) & (s <= n + 1))
    if outside.any():
        raise ValueError(f"s_next must lie in ({n}, {n + 1}], got {s[outside].flat[0]}")
    return (s - n) * cfg.eps


def _taps(cfg: RecursionConfig, dt):
    """Kernel points past the origin for steps dt: kernel_span widths, cut
    at the grid length."""
    taps = np.ceil(cfg.kernel_span * np.sqrt(dt / cfg.m) / cfg.grid.spacing)
    return np.minimum(taps, cfg.grid.n_points - 1).astype(int)


def _half_kernel(prev: EuclideanSlice, cfg: RecursionConfig, s_next: float) -> np.ndarray:
    """Heat kernel of the step from integer s = n to s_next in (n, n+1] at
    grid offsets 0, h, ..., cut at kernel_span widths and at the grid length."""
    dt = float(_steps(prev, cfg, s_next))
    return heat_kernel(cfg.m, dt, np.arange(_taps(cfg, dt) + 1) * cfg.grid.spacing, 0.0)


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


def _kernel_spectrum(prev: EuclideanSlice, cfg: RecursionConfig, s_next: float) -> np.ndarray:
    """Spectrum of the truncated kernel of the step from prev.s to s_next,
    zero-padded to the power of two at or above n_points + taps.  The
    symmetric kernel is centred on index 0, so the spectrum is real and the
    convolution needs no output offset."""
    half = _half_kernel(prev, cfg, s_next)
    taps = len(half) - 1
    length = pow2_at_least(cfg.grid.n_points + taps)
    kernel = np.zeros(length)
    kernel[: taps + 1] = half
    kernel[length - taps :] = half[:0:-1]
    return np.fft.rfft(kernel).real


def advance_slice(prev: EuclideanSlice, cfg: RecursionConfig, s_next: float, *,
                  kernel_spectrum: np.ndarray | None = None) -> EuclideanSlice:
    """Propagate a slice taken at integer s = n to s_next in (n, n+1].

    The projection at s = n is enacted by the half-line integration range;
    the output slice is evaluated on the full grid (including x = 0).  The
    linear convolution is one circular FFT convolution with the step's
    ``_kernel_spectrum``, built here unless the caller passes the one it
    built for the same step, as ``run_recursion`` does for its whole-interval
    steps."""
    if kernel_spectrum is None:
        kernel_spectrum = _kernel_spectrum(prev, cfg, s_next)
    else:
        _steps(prev, cfg, s_next)  # s_next must still lie in (n, n+1]
    length = 2 * (len(kernel_spectrum) - 1)
    spectrum = np.fft.rfft(_weighted(prev.values, cfg), length) * kernel_spectrum
    # the exact slice is non-negative; clip the FFT roundoff tails
    n = cfg.grid.n_points
    return EuclideanSlice(s_next, cfg.grid, np.maximum(np.fft.irfft(spectrum, length)[:n], 0.0))


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
    """F(n + u, 0) for every slice taken at an integer s = n and every
    offset u in (0, 1], without forming the advanced slices; the result has
    shape ``(rows,) + shape(u)``.

    ``values`` holds one slice per row on the first points of the grid, out
    to at least the widest kernel's reach (the whole grid will do).  Each
    sample is its truncated kernel, as ``advance_slice`` cuts it, dotted with
    the weighted slice.  The kernel depends on the offset alone, so each
    block of kernel rows (``_kernel_blocks``, in order of step) is built once
    and dotted with every slice, one matrix-vector product per slice.
    Raises ``ValueError`` for an offset outside (0, 1], a row shorter than
    the widest kernel's reach, or a step whose kernel spans fewer than
    ``MIN_KERNEL_SPACINGS`` spacings, which the quadrature does not resolve."""
    values = np.asarray(values, dtype=float)
    u = np.asarray(u, dtype=float)
    outside = ~((0 < u) & (u <= 1))
    if outside.any():
        raise ValueError(f"offsets must lie in (0, 1], got {u[outside].flat[0]}")
    if values.ndim != 2 or values.shape[1] > cfg.grid.n_points:
        raise ValueError("slice values must be rows on the first points of the grid")
    if not u.size:
        return np.zeros((len(values),) + u.shape)
    order = np.argsort(u, axis=None, kind="stable")
    dt = u.ravel()[order] * cfg.eps
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
    amplitude = np.empty_like(sums)
    amplitude[:, order] = sums * heat_kernel(cfg.m, dt, 0.0, 0.0)
    return amplitude.reshape((len(values),) + u.shape)


def run_recursion(cfg: RecursionConfig) -> BoundaryCurve:
    """Boundary envelope curve for n_max projections.

    Sampling per interval (n, n+1]: the exact right limit at s = n (side
    '+', half the '-' row before it), ``samples_per_interval - 1`` interior
    points at offsets u = j / samples_per_interval, and the sample at
    s = n + 1, which is the peak / left limit at the next projection (side
    '-').  On the free interval (0, 1] the envelope is identically one:
    every sample there is emitted as 1.0, and only the initial slice at
    s = 1 is built.

    The slices are advanced first, one ``advance_slice`` per interval.  Each
    advance is a step of one whole interval, so the run builds that step's
    kernel spectrum once, for this run only, and passes it to every advance.
    Each pre-projection slice is kept only out to the widest interior
    kernel's reach.  One ``boundary_amplitude`` call then takes every
    interval's interior samples, building each kernel row once for all
    intervals.  The table is filled as one row of samples_per_interval + 1
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
    kernel_spectrum = _kernel_spectrum(prev, cfg, 2.0)
    for n in range(1, cfg.n_max + 1):
        prefixes[n - 1] = prev.values[:reach]
        prev = advance_slice(prev, cfg, float(n + 1), kernel_spectrum=kernel_spectrum)
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
