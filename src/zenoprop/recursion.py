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
narrowest kernel, which spans 8 spacings.  The y-integral is the
trapezoid rule with Gregory's end corrections over the first ten nodes at
y = 0.  The integrand is smooth on y >= 0, so the Euler-Maclaurin end terms
that the corrections cancel are the plain trapezoid's whole error; the far
end, where the slice is negligible, keeps its half weight.  At these grids
the peaks are exact to about 5e-15 and the envelope with up to three
projections matches its closed forms to about 5e-11.

Every advance spans one whole interval, a step of eps: the weighted slice's
spectrum times the heat kernel's, exp(-(eps / 2m) k^2) / h in closed form
(``RecursionConfig.kernel_spectrum``), at the smallest power-of-two length
that puts the kernel's first periodic image kernel_span widths past the
grid.  The transforms run in a fixed order, so results are deterministic,
and agree with a direct sum over the kernel cut at kernel_span widths to
~1e-15 of the slice maximum (negative roundoff tails are clipped to zero,
since the exact slice is non-negative).  The boundary
samples need only F(n + u, 0) at the run's offsets u = j /
samples_per_interval, 0 < j < samples_per_interval, the same kernel
applied at the origin alone: the recursion advances every slice first,
keeping each only out to the widest kernel's reach, and then takes the
samples of all intervals in one call (``boundary_amplitude``), which
transforms each weighted slice once and sums its spectrum times the
kernel's, exp(-(u eps / 2m) k^2), out to kernel_span widths of that
spectrum, for a block of consecutive offsets and a chunk of slices at a
time.  On the free interval 0 < s <= 1 the slice is the heat kernel itself
and the envelope is exactly one, so only the slice at s = 1 is built.

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

from .core import BoundaryCurve, Grid1D, five_smooth_at_least, heat_kernel, pow2_at_least

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


# Gregory's end corrections: the trapezoid weights of the first ten nodes
# times these factors integrate 1, y, ..., y^9 exactly with the rest of the
# trapezoid rule, cancelling the y = 0 end's Euler-Maclaurin terms through
# h^10 (Fornberg, SIAM Rev. 63, 167, 2021).  Two of them are negative; all
# lie between -1.0 and 2.82.
_END_WEIGHTS = np.array([
    26842253 / 95800320, 263465639 / 159667200, -4157443 / 19958400,
    28050551 / 9979200, -79480853 / 79833600, 41129647 / 15966720,
    1318591 / 9979200, 26280973 / 19958400, 148655719 / 159667200,
    482252033 / 479001600,
])


# Entries of the boundary samples' working arrays (128 KiB of floats): the
# decay factors of a block of offsets, each chunk of rows times them, and
# each chunk of rows transformed, at least one row.  A block holds at least
# one offset, as the first offset's mode count, about 32 sqrt(samples per
# interval), stays below it at every size under the work cap.
_SUM_ENTRIES = 2**14


# Most work a run may take (``predicted_work``), in units of about one
# nanosecond on a 2-vCPU VM.  The largest accepted `fp` runs, 3,028
# projections at 16 samples per interval, where the advances dominate, and
# one projection at 124,868, where the table rows do, took 0.6-3.5 s and at
# most 131 MiB of peak RSS there, as CSV or JSON; the benchmark's shapes
# predict 1.8e7 (fp20) and 6.6e8 (fp3_dense).
MAX_WORK = 10**10


@dataclass(frozen=True)
class RecursionConfig:
    """Recursion settings at m = eps = 1 (the module's units, which serve
    every physical (m, eps) because the envelope depends on t/eps alone):
    n_max projections, each interval sampled at ``samples_per_interval``
    offsets.  The slice grid is derived from the two, once: it spans ten
    thermal widths of the total duration at spacing
    ``h = 1 / (8 sqrt(max(samples_per_interval, 16)))`` thermal widths
    sqrt(eps/m).  The spacing is tied to the narrowest kernel, of width
    sqrt(1 / samples_per_interval), which spans 8 spacings (more below 16
    samples per interval): h is 1/32 at 16 samples and 1/512 at 4096.
    With n_max = 3 and 16 samples per interval the peak error is 2.2e-16 at
    16 spacings, 4.6e-15 at 8, 1.0e-13 at 6 and 9.5e-12 at 4, and the error
    against the closed forms 1.1e-13, 4.7e-11, 4.3e-9 and 4.3e-7; below 4
    spacings the narrowest kernel's modes outrun the boundary samples'
    transform.  The Gaussian tails beyond x_max are below 1e-20.  So every
    grid has at least 454 points, and the widest kernel, a step of one
    interval, ends at least 133 points short of the grid's far end."""

    n_max: int
    samples_per_interval: int
    grid: Grid1D = field(init=False, compare=False, repr=False)
    m: ClassVar[float] = 1.0               # the units: mass and spacing are one
    eps: ClassVar[float] = 1.0
    kernel_span: ClassVar[float] = 10.0    # kernel reach in std widths (taps, padding, modes)

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.samples_per_interval < 2:
            raise ValueError("samples_per_interval must be >= 2")
        samples = max(self.samples_per_interval, 16)
        try:
            h = 1.0 / (8.0 * np.sqrt(float(samples)))
            # ten thermal widths, 10 sqrt(n_max + 1), are 80 sqrt((n_max + 1) samples)
            # spacings
            n_points = int(np.ceil(80.0 * np.sqrt(float((self.n_max + 1) * samples)))) + 1
            object.__setattr__(self, "grid", Grid1D(h * (n_points - 1), n_points))
            work = predicted_work(self)
        except OverflowError:  # sizes past the floats predict work past them too
            work = np.inf
        if not work <= MAX_WORK:
            raise ValueError(f"predicted work {work:.3g} exceeds the cap of {MAX_WORK:.3g} "
                             "(MAX_WORK): use fewer projections or samples per interval")

    @functools.cached_property
    def kernel_spectrum(self) -> np.ndarray:
        """exp(-(eps / 2m) k_j^2) / h at k_j = 2 pi j / (L h), j = 0 .. L/2:
        by Poisson summation the rfft of the heat kernel of a step of eps,
        sampled at spacing h and periodised on the power of two L at or above
        n_points + taps.  Built on first use and read-only, as runs share it."""
        length = _advance_length(self)
        k = 2 * np.pi / (length * self.grid.spacing) * np.arange(length // 2 + 1)
        spectrum = np.exp(-self.eps / (2 * self.m) * k * k) / self.grid.spacing
        spectrum.flags.writeable = False
        return spectrum


def predicted_work(cfg: RecursionConfig) -> float:
    """Work of ``run_recursion(cfg)`` and of writing its table, from the
    config alone, in units of about one nanosecond: each of the n_max
    advances counts 80 per point of its FFT length, and each row of the
    envelope curve 40,000.  A row written as JSON takes about 18 us but also
    1.1 KB, and its weight holds a table at the cap to 250,000 rows.  The
    boundary samples are not counted: a term for them came to at most 3.3%
    of the prediction at accepted sizes, well inside the rows' weight, over
    ten times a row's cost as CSV.  Nothing is allocated."""
    spi = cfg.samples_per_interval
    rows = spi + cfg.n_max * (spi + 1)
    return 80.0 * cfg.n_max * _advance_length(cfg) + 40_000.0 * rows


def initial_slice(cfg: RecursionConfig) -> EuclideanSlice:
    """F_0(1, x): the heat kernel spread from the origin over the free
    interval, the slice just before the first projection."""
    return EuclideanSlice(1.0, heat_kernel(cfg.m, cfg.eps, cfg.grid.points(), 0.0))


def _taps(cfg: RecursionConfig, dt: float) -> int:
    """Kernel points past the origin for a step dt: kernel_span widths, as
    a Python int, which holds any size a config can be given.  A step of at
    most one interval ends inside the grid (``RecursionConfig``)."""
    return math.ceil(cfg.kernel_span * math.sqrt(dt / cfg.m) / cfg.grid.spacing)


def _advance_length(cfg: RecursionConfig) -> int:
    """FFT length of an advance: the power of two at or above n_points plus
    the taps of a step of eps, which puts the kernel's first periodic image
    kernel_span widths past the grid."""
    return pow2_at_least(cfg.grid.n_points + _taps(cfg, cfg.eps))


def _weighted(values: np.ndarray, cfg: RecursionConfig) -> np.ndarray:
    """Slice values on the first points of the grid (along the last axis)
    times their quadrature weights: the spacing, end-corrected over the
    first ten nodes and halved at the far end of the grid, where the slice
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


def boundary_amplitude(values, cfg: RecursionConfig) -> np.ndarray:
    """F(n + u, 0) at the run's offsets u = j / samples_per_interval, 0 < j
    < samples_per_interval: one row per slice taken at a projection, s = n,
    and one column per offset, without forming the advanced slices.

    ``values`` holds one slice per row on the first points of the grid, out
    to at least the widest kernel's reach R (the whole grid will do).  Each
    sample is the heat kernel of its step u eps dotted with the weighted
    slice, summed over the slice's spectrum (Poisson summation): with C the
    real part of the rfft of the weighted rows, cut at R, at the length
    L = ``five_smooth_at_least(2R - 1)``, whose periodic images of the
    kernel lie past every row, the sample is

        (C_0 + 2 sum_{1 <= j <= J_u} C_j exp(-u eps k_j^2 / 2m)) / (L h),

    k_j = 2 pi j / (L h), with J_u the modes out to kernel_span widths of
    the kernel's spectrum, kernel_span sqrt(m / u eps): past them the
    spectrum is below exp(-kernel_span^2 / 2) of its peak, as the kernel
    is at its reach.  The offsets are summed in blocks of consecutive ones,
    each block out to its first offset's modes with every mode past an
    offset's own J_u weighted zero, and the rows are transformed and summed
    a chunk at a time: each block's decay factors, each chunk's product
    with them and each chunk's transform take ``_SUM_ENTRIES`` entries or
    fewer, or one row's transform where that alone is more.  The
    blocks depend on ``cfg`` alone, and each sample is one row's sum, so a
    row gives the same bits alone as in a batch.  Rows shorter than R
    would give wrong samples and raise ``ValueError``."""
    values = np.asarray(values, dtype=float)
    dt = np.arange(1, cfg.samples_per_interval) / cfg.samples_per_interval * cfg.eps
    h = cfg.grid.spacing
    reach = _taps(cfg, dt[-1]) + 1
    if values.shape[1] < reach:
        raise ValueError(
            f"slice rows of {values.shape[1]} points fall short of the widest "
            f"kernel's reach of {reach}"
        )
    length = five_smooth_at_least(2 * reach - 1)
    dk = 2 * np.pi / (length * h)
    modes = np.floor(cfg.kernel_span * np.sqrt(cfg.m / dt) / dk).astype(int)  # descending
    c = np.empty((len(values), modes[0] + 1))
    chunk = max(1, _SUM_ENTRIES // length)
    for r in range(0, len(c), chunk):
        rows = slice(r, r + chunk)
        c[rows] = np.fft.rfft(_weighted(values[rows, :reach], cfg), length)[:, : c.shape[1]].real
    minus_k2 = -(dk * np.arange(1, modes[0] + 1)) ** 2 / (2 * cfg.m)
    sums = np.empty((len(c), len(dt)))
    start = 0
    while start < len(dt):
        top = modes[start]
        block = slice(start, start + _SUM_ENTRIES // top)
        decay = np.exp(dt[block, None] * minus_k2[:top])
        decay[np.arange(top) >= modes[block, None]] = 0.0   # past each offset's own J_u
        chunk = _SUM_ENTRIES // decay.size
        for r in range(0, len(c), chunk):
            rows = slice(r, r + chunk)
            sums[rows, block] = (c[rows, None, 1 : top + 1] * decay).sum(axis=2)
        start = block.stop
    return (c[:, :1] + 2 * sums) / (length * h)


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
    samples.  The table is filled as one row of samples_per_interval + 1
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
    amplitude = boundary_amplitude(prefixes, cfg)
    s = np.arange(cfg.n_max + 1)[:, None] + np.concatenate(([0.0], interior, [1.0]))
    times = s * cfg.eps
    envelope = np.ones_like(times)
    envelope[1:, -1] = origins / heat_kernel(cfg.m, times[1:, -1], 0.0, 0.0)
    envelope[1:, 0] = 0.5 * envelope[:-1, -1]
    envelope[1:, 1:-1] = amplitude / heat_kernel(cfg.m, times[1:, 1:-1], 0.0, 0.0)
    sides = np.full(times.shape, "")
    sides[:, 0], sides[:, -1] = "+", "-"
    return BoundaryCurve(times.ravel()[1:], envelope.ravel()[1:], sides.ravel()[1:])
