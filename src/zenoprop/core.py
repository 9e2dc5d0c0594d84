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

from dataclasses import dataclass

import numpy as np

#: Branch choice for (1/i)**0.5; asserted by a phase test.
ROOT_INV_I = complex(np.exp(-1j * np.pi / 4))


class NumericalFailure(RuntimeError):
    """A computation could not produce a trustworthy number (guards, overflow,
    failed extrapolation).  Distinct from argument/contract errors, which
    raise ``ValueError``."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform half-line grid over [0, x_max] with inclusive endpoints."""

    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        if not self.x_max > 0:
            raise ValueError("x_max must be positive")

    @property
    def spacing(self) -> float:
        return self.x_max / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.x_max, self.n_points)


def heat_kernel(m: float, t: float, x, y) -> np.ndarray | float:
    """Euclidean free kernel ``sqrt(m / 2 pi t) exp(-m (x-y)^2 / 2t)``, t > 0.

    Symmetric in (x, y), positive, and normalised to unit integral over the
    whole line; the semigroup property is exercised by the tests.
    """
    if not t > 0:
        raise ValueError(f"heat kernel needs t > 0, got t={t}")
    dx = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return np.sqrt(m / (2 * np.pi * t)) * np.exp(-m * dx * dx / (2 * t))


def half_power_weights(n_panels: int, dt: float) -> np.ndarray:
    """Product-integration weights for ``int_0^{n dt} u^{-1/2} phi(u) du``.

    Treats ``phi`` as piecewise linear between the nodes ``u_j = j dt`` and
    integrates the ``u^{-1/2}`` weight exactly on every panel, which keeps
    the inverse-square-root kernels of the boundary convolutions accurate at
    the ``u -> 0`` endpoint.  Returns weights ``A_j`` with
    ``integral ~= sum_j A_j phi(j dt)``.
    """
    if n_panels < 1:
        raise ValueError("n_panels must be >= 1")
    if not dt > 0:
        raise ValueError("dt must be positive")
    j = np.arange(n_panels + 1, dtype=float)
    sq = np.sqrt(j * dt)
    m0 = 2.0 * (sq[1:] - sq[:-1])                    # int u^-1/2 over panel
    m1 = (2.0 / 3.0) * (sq[1:] ** 3 - sq[:-1] ** 3)  # int u^+1/2 over panel
    u_lo = j[:-1] * dt
    u_hi = j[1:] * dt
    weights = np.zeros(n_panels + 1)
    weights[:-1] += (u_hi * m0 - m1) / dt
    weights[1:] += (m1 - u_lo * m0) / dt
    return weights


@dataclass
class BoundaryCurve:
    """Sampled curve of boundary data: times, values, and an optional side
    marker per sample ('-' left limit, '+' right limit, '' interior)."""

    times: np.ndarray
    values: np.ndarray
    sides: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values)
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if self.sides is not None:
            self.sides = np.asarray(self.sides)
            if len(self.sides) != len(self.times):
                raise ValueError("sides must match times in length")
        if len(self.times) > 1 and np.any(np.diff(self.times) < 0):
            raise ValueError("times must be non-decreasing")

    def window(self, t_min: float, t_max: float) -> "BoundaryCurve":
        """Subset of samples with t_min <= t <= t_max."""
        sel = (self.times >= t_min) & (self.times <= t_max)
        sides = self.sides[sel] if self.sides is not None else None
        return BoundaryCurve(self.times[sel], self.values[sel], sides)
