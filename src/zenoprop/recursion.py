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

Numerics: slices live on a uniform grid over [0, x_max] with x_max about
ten thermal widths of the total duration and spacing 1e-3 sqrt(eps/m)
unless a point count is given (``default_config``); the y-integral uses
uniform weights with halved endpoints (interior nodes are midpoints of their
panels), making every advance a discrete convolution with the heat kernel
cut at ``kernel_span`` widths.  The convolution is evaluated as one real
FFT product at the smallest 2^a 3^b 5^c length that holds it without
wrap-around; the transforms run in a fixed order, so results are
deterministic, and they agree with a direct summation to ~1e-15 of the
slice maximum (negative roundoff tails are clipped to zero, since the
exact slice is non-negative).  On the free interval
0 < s <= 1 the slice is the heat kernel itself and the envelope is exactly
one, so only the slice at s = 1 is built.  The grid must resolve the
narrowest kernel used, that of the step eps / samples_per_interval, by at
least four spacings.  One-sided limits at the projection instants: the
left limit is the ordinary sample at the end of an interval; the right
limit is the exact coincidence value, half the left limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import BoundaryCurve, Grid1D, heat_kernel
from .exact import absorbing_envelope
from .sawtooth import oscillation_ratio

__all__ = [
    "EuclideanSlice",
    "RecursionConfig",
    "default_config",
    "initial_slice",
    "advance_slice",
    "boundary_amplitude",
    "run_recursion",
    "numeric_oscillation_curve",
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


# Fewest grid spacings the narrowest heat kernel may span: the n_max = 3 peak
# error is 4.4e-4 at 4 spacings, 1.8e-3 at 2 and 2e-2 at 0.6.
MIN_KERNEL_SPACINGS = 4


@dataclass(frozen=True)
class RecursionConfig:
    m: float
    eps: float
    n_max: int
    grid: Grid1D
    samples_per_interval: int = 16
    kernel_span: ClassVar[float] = 10.0    # kernel truncated at this many std widths

    def __post_init__(self) -> None:
        if self.m <= 0 or self.eps <= 0:
            raise ValueError("mass and eps must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.samples_per_interval < 2:
            raise ValueError("samples_per_interval must be >= 2")
        narrowest = np.sqrt(self.eps / (self.samples_per_interval * self.m))
        if narrowest < MIN_KERNEL_SPACINGS * self.grid.spacing:
            raise ValueError(
                f"grid spacing {self.grid.spacing:.3g} too coarse: the narrowest kernel, "
                f"of width {narrowest:.3g}, spans fewer than {MIN_KERNEL_SPACINGS} spacings"
            )


def default_config(
    m: float, eps: float, n_max: int, samples_per_interval: int, grid_points: int | None = None
) -> RecursionConfig:
    """Recursion settings on a grid spanning ten thermal widths of the total
    duration, at spacing ``1e-3 sqrt(eps/m)`` or with ``grid_points`` points
    over the same extent.  At the default spacing the Gaussian tails beyond
    x_max are below 1e-20."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    h = 1e-3 * np.sqrt(eps / m)
    # ten thermal widths, 10 sqrt((n_max + 1) eps/m), are 1e4 sqrt(n_max + 1)
    # spacings for every (m, eps), so the point count depends on n_max alone
    n_points = int(np.ceil(10.0 * np.sqrt(n_max + 1) / 1e-3)) + 1
    grid = Grid1D(h * (n_points - 1), n_points if grid_points is None else grid_points)
    return RecursionConfig(m, eps, n_max, grid, samples_per_interval)


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


def _half_kernel(prev: EuclideanSlice, cfg: RecursionConfig, s_next: float) -> np.ndarray:
    """Heat kernel of the step from integer s = n to s_next in (n, n+1] at
    grid offsets 0, h, ..., cut at kernel_span widths and at the grid length."""
    n = _integer_index(prev.s)
    if not n < s_next <= n + 1:
        raise ValueError(f"s_next must lie in ({n}, {n + 1}], got {s_next}")
    dt = (s_next - n) * cfg.eps
    h = cfg.grid.spacing
    taps = min(int(np.ceil(cfg.kernel_span * np.sqrt(dt / cfg.m) / h)), cfg.grid.n_points - 1)
    return heat_kernel(cfg.m, dt, np.arange(taps + 1) * h, 0.0)


def _weighted(prev: EuclideanSlice, cfg: RecursionConfig, count: int, out=None) -> np.ndarray:
    """The first ``count`` slice values times their quadrature weights: the
    spacing, halved at either end of the grid."""
    w = np.multiply(prev.values[:count], cfg.grid.spacing, out=out)
    w[0] *= 0.5
    if count == cfg.grid.n_points:
        w[-1] *= 0.5
    return w


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length pocketfft transforms quickly."""
    best = 1 << (n - 1).bit_length()
    power5 = 1
    while power5 < best:
        odd = power5   # 3^b 5^c
        while odd < best:
            length = odd
            while length < n:
                length *= 2
            best = min(best, length)
            odd *= 3
        power5 *= 5
    return best


def advance_slice(prev: EuclideanSlice, cfg: RecursionConfig, s_next: float) -> EuclideanSlice:
    """Propagate a slice taken at integer s = n to s_next in (n, n+1].

    The projection at s = n is enacted by the half-line integration range;
    the output slice is evaluated on the full grid (including x = 0).  The
    linear convolution is one circular FFT convolution over at least
    n_points + taps points, with the symmetric kernel centred on index 0, so
    the kernel's spectrum is real and no output offset is needed."""
    half = _half_kernel(prev, cfg, s_next)
    taps = len(half) - 1
    n = cfg.grid.n_points
    length = _fft_length(n + taps)
    # one real buffer takes the kernel, the weighted slice and the result;
    # each spectrum is dropped once used, as at the default grid these
    # arrays set the run's peak memory
    buf = np.zeros(length)
    buf[: taps + 1] = half
    buf[length - taps :] = half[:0:-1]
    del half
    kernel_spectrum = np.fft.rfft(buf).real.copy()   # real: the kernel is even
    buf.fill(0.0)
    _weighted(prev, cfg, n, out=buf[:n])
    spectrum = np.fft.rfft(buf)
    spectrum *= kernel_spectrum
    del kernel_spectrum
    np.fft.irfft(spectrum, length, out=buf)
    # the exact slice is non-negative; clip the FFT roundoff tails
    return EuclideanSlice(s_next, cfg.grid, np.maximum(buf[:n], 0.0))


def boundary_amplitude(prev: EuclideanSlice, cfg: RecursionConfig, s_next: float) -> float:
    """F(s_next, 0) from a slice at integer s = n, without forming the full
    advanced slice (only grid points within reach of the kernel matter)."""
    half = _half_kernel(prev, cfg, s_next)
    return float(np.dot(half, _weighted(prev, cfg, len(half))))


def _envelope(cfg: RecursionConfig, amplitude: float, s: float) -> float:
    return amplitude / float(heat_kernel(cfg.m, s * cfg.eps, 0.0, 0.0))


def run_recursion(cfg: RecursionConfig) -> BoundaryCurve:
    """Boundary envelope curve for n_max projections.

    Sampling per interval (n, n+1]: the exact right limit at s = n (side
    '+', half the '-' row before it), ``samples_per_interval - 1`` interior
    points, and the sample at s = n + 1, which is the peak / left limit at
    the next projection (side '-').  On the free interval (0, 1] the
    envelope is identically one: every sample there is emitted as 1.0, and
    only the initial slice at s = 1 is built.

    Returns the envelope ``BoundaryCurve`` (times are physical, t = s eps).
    """
    spi = cfg.samples_per_interval
    times: list[float] = []
    vals: list[float] = []
    sides: list[str] = []

    def emit(s: float, value: float, side: str) -> None:
        times.append(s * cfg.eps)
        vals.append(value)
        sides.append(side)

    # interval (0, 1]: free spreading, envelope exactly 1
    for j in range(1, spi):
        emit(j / spi, 1.0, "")
    emit(1.0, 1.0, "-")
    prev = initial_slice(cfg)

    for n in range(1, cfg.n_max + 1):
        emit(float(n), 0.5 * vals[-1], "+")
        for j in range(1, spi):
            s = n + j / spi
            emit(s, _envelope(cfg, boundary_amplitude(prev, cfg, s), s), "")
        prev = advance_slice(prev, cfg, float(n + 1))
        emit(float(n + 1), _envelope(cfg, prev.values[0], n + 1.0), "-")

    return BoundaryCurve(np.array(times), np.array(vals), np.array(sides))


def numeric_oscillation_curve(curve: BoundaryCurve, v0: float) -> BoundaryCurve:
    """Oscillation ratio S(t) = f(t)/f_absorbing(t) - 1 of a numeric envelope
    curve against the absorbing envelope at strength v0."""
    fv = absorbing_envelope(v0, curve.times)
    s = oscillation_ratio(curve.values, fv)
    return BoundaryCurve(curve.times, np.atleast_1d(s), curve.sides)
