"""Shared numerical substrate: grids, free-particle kernels, integration weights.

Conventions used throughout the package:

* hbar = 1; the particle mass ``m`` is always an explicit argument.
* The square root of ``1/i`` is fixed once and for all as ``exp(-i pi/4)``,
  so the free propagator prefactor reads ``sqrt(m / (2 pi t)) * exp(-i pi/4)``
  for ``t > 0``.
* Euclidean (imaginary-time) kernels are ordinary heat kernels and are kept
  strictly real and positive.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

#: Branch choice for (1/i)**0.5; asserted by a phase test.
ROOT_INV_I = complex(np.exp(-1j * np.pi / 4))


#: Relative distance from a whole number within which a computed ratio
#: counts as that number: eight roundings (see ``snap_to_integer``).
SNAP = 8 * np.finfo(float).eps


class NumericalFailure(RuntimeError):
    """A computation could not produce a trustworthy number (guards, overflow,
    failed extrapolation).  Distinct from argument/contract errors, which
    raise ``ValueError``."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform half-line grid over [0, x_max] with inclusive endpoints."""

    x_max: float
    n_points: int

    @property
    def spacing(self) -> float:
        return self.x_max / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.x_max, self.n_points)


def heat_kernel(m: float, t: float, x, y) -> np.ndarray | float:
    """Euclidean free kernel ``sqrt(m / 2 pi t) exp(-m (x-y)^2 / 2t)``, t > 0.

    Symmetric in (x, y), positive, and normalised to unit integral over the
    whole line; the semigroup property is exercised by the tests.  ``t`` may
    be an array when ``x - y`` is a scalar.
    """
    if not np.all(np.asarray(t) > 0):
        raise ValueError(f"heat kernel needs t > 0, got t={t}")
    dx = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    prefactor = np.sqrt(m / (2 * np.pi * t))
    return prefactor * np.exp(-m * dx * dx / (2 * t))


def snap_to_integer(x) -> np.ndarray:
    """``x`` with each entry that lies within ``SNAP`` (relative) of a whole
    number replaced by that number.  A ratio that is whole in exact
    arithmetic lands within a few roundings of it and one that is not many
    roundings away: the spacing over a target time step
    (``wavepacket.time_grid``'s steps per projection), a duration over the
    time step, or a momentum cut over its step (``wavepacket.crossing_term``)."""
    x = np.asarray(x, dtype=float)
    nearest = np.rint(x)
    return np.where(np.abs(x - nearest) <= SNAP * nearest, nearest, x)


def pow2_at_least(n: int) -> int:
    """Smallest power of two >= n, for any integer n, numpy's too: the FFT
    length of the slice recursion's zero-padded convolutions."""
    return 1 << max(operator.index(n) - 1, 0).bit_length()


def five_smooth_at_least(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, for any integer n, never above
    ``pow2_at_least(n)``: the transform length of the slice recursion's
    boundary samples, the lattice walk's spectral segments and the
    wave-packet convolution and non-uniform FFT, which pocketfft runs about
    as fast per point as a power of two."""
    n = operator.index(n)
    best = pow2_at_least(n)
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:  # odd = 3^b 5^c; the least odd 2^a >= n
            best = min(best, odd * pow2_at_least(-(-n // odd)))
            odd *= 3
        odd5 *= 5
    return best


def panel_weights(lo, hi):
    """Weights (left, right) of ``int_lo^hi u^{-1/2} phi(u) du`` with ``phi``
    linear between its values at lo and hi, 0 <= lo <= hi and 0 < hi.

    With a = sqrt(lo) and b = sqrt(hi) they are

        left  = (2/3) (hi - lo) (2b + a) / (a + b)^2,
        right = (2/3) (hi - lo) (b + 2a) / (a + b)^2,

    the panel's moments of u^{-1/2} and u^{+1/2} with the differences of
    square roots cancelled by hand, so a panel far from u = 0, or one much
    narrower than its distance from it, loses no digits; a panel of zero
    width away from 0 has zero weights.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a, b = np.sqrt(lo), np.sqrt(hi)
    scale = (2.0 / 3.0) * (hi - lo) / (a + b) ** 2
    return scale * (2 * b + a), scale * (b + 2 * a)


def half_power_weights(n_panels: int, dt: float) -> np.ndarray:
    """Product-integration weights for ``int_0^{n dt} u^{-1/2} phi(u) du``.

    Treats ``phi`` as piecewise linear between the nodes ``u_j = j dt`` and
    integrates the ``u^{-1/2}`` weight exactly on every panel
    (``panel_weights``), which keeps the inverse-square-root kernels of the
    boundary convolutions accurate at the ``u -> 0`` endpoint.  Returns
    weights ``A_j`` with ``integral ~= sum_j A_j phi(j dt)``.
    """
    if n_panels < 1:
        raise ValueError("n_panels must be >= 1")
    if not dt > 0:
        raise ValueError("dt must be positive")
    u = np.arange(n_panels + 1, dtype=float) * dt
    left, right = panel_weights(u[:-1], u[1:])
    weights = np.zeros(n_panels + 1)
    weights[:-1] += left
    weights[1:] += right
    return weights

