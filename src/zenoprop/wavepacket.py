"""Wave-packet diagnostics through the boundary-propagator decomposition.

Any propagator sharing the free dynamics in x > 0 admits a decomposition of
the evolved wave function, for initial data supported in x > 0, into a part
that never crosses the origin (method of images) plus a crossing part routed
through the boundary:

    psi(x1, tau) = psi_restricted(x1, tau)
                   - (1/m^2) int_0^tau dt2 int_0^t2 dt1
                       dgf/dx(x1, tau | x, t2)|_{x=0}
                       * g(0, t2 | 0, t1)
                       * dpsi_free/dx(0, t1)

with both boundary factors written through free quantities (the restricted
derivative is exactly twice the free one, absorbing a factor 4 and leaving
an overall i^2/m^2 = -1/m^2; the sign convention is pinned by reproducing
exact free evolution, see the tests).  The packet enters only through
dpsi_free/dx(0, t1) of the exactly evolved Gaussian, spreading included.
Replacing the absorbing boundary propagator by the pulsed-measurement one
therefore perturbs the wave function by the same double integral with the
boundary difference ``delta_g(u) = S(u) g_absorbing(u)`` in the middle slot,
S the relative oscillation of the saw-tooth envelope around the absorbing
one; the difference is treated as stationary in both times, which holds on
timescales well above the projection spacing.

Numerics: the boundary difference is built with its u^{-1/2} singularity
already peeled off, sqrt(u) delta_g(u) = (m/2 pi i)^{1/2} (f_p - f_v)(u);
the inner time convolution restores it with product-integration weights
and is evaluated as a zero-padded FFT product; the outer integral is
evaluated in momentum space, where the final free leg is diagonal and
nothing is singular; the slowly decaying 1/k endpoint tail (a step
structure at the boundary) is summed analytically via a Fresnel integral
so the numeric transform only handles an O(1/k^2) remainder.  The time sum
at the frequencies k^2/2m and the transform from the uniform k grid to x
are both trigonometric sums at non-uniform angles, evaluated by a
Gaussian-gridding non-uniform FFT (``_trig_sum``) instead of dense phase
matrices; it agrees with the dense sums to about 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ROOT_INV_I, half_power_weights
from .exact import absorbing_envelope
from .sawtooth import calibrate_absorption, sawtooth_envelope

__all__ = [
    "WavePacket",
    "packet_boundary_derivative",
    "suppression_factor",
    "crossing_density",
    "normalized_crossing_density",
    "stationary_delta_g",
    "inner_boundary_convolution",
    "crossing_term",
    "pdx_delta_psi",
    "delta_norm_scan",
]


@dataclass(frozen=True)
class WavePacket:
    """Gaussian packet parameters: centre q, momentum p, width sigma, mass m.

    A packet that crosses the origin moving right has q < 0 and p > 0; the
    classical crossing time is m |q| / p.
    """

    q: float
    p: float
    sigma: float
    m: float = 1.0

    def __post_init__(self) -> None:
        if self.sigma <= 0 or self.m <= 0:
            raise ValueError("sigma and m must be positive")

    @property
    def energy(self) -> float:
        return self.p**2 / (2 * self.m)

    @property
    def zeno_time(self) -> float:
        """m sigma / p, the timescale on which the state changes appreciably
        (positive for right-movers)."""
        return self.m * self.sigma / self.p

    @property
    def norm_factor(self) -> float:
        return (2 * np.pi * self.sigma**2) ** (-0.25)


def packet_boundary_derivative(wp: WavePacket, t):
    """d psi / dx at x = 0 of the initial Gaussian under exact free
    evolution (analytic; the t = 0 value is that of the initial packet)."""
    t = np.asarray(t, dtype=float)
    a = 1.0 / (4 * wp.sigma**2)
    beta0 = 2 * a * wp.q + 1j * wp.p
    at_zero = wp.norm_factor * np.exp(-a * wp.q**2) * beta0
    ts = np.where(t == 0, 1.0, t)
    b = wp.m / (2 * ts)
    A = a - 1j * b
    pref = ROOT_INV_I * np.sqrt(wp.m / (2 * np.pi * ts)) * wp.norm_factor
    psi0 = pref * np.sqrt(np.pi / A) * np.exp(-a * wp.q**2 + beta0**2 / (4 * A))
    out = np.where(t == 0, at_zero, psi0 * (-1j * b * beta0 / A))
    return out if out.ndim else complex(out)


def suppression_factor(wp: WavePacket, eps: float) -> float:
    """Order-of-magnitude suppression of the boundary perturbation,

        exp(-(t_Z^2 / eps^2) (E eps - 1)^2),

    with t_Z = m sigma / p and E = p^2/2m.  Used only to rank an eps scan:
    the Gaussian is not suppressed where the packet's internal oscillation
    period is comparable to the projection spacing and collapses rapidly
    away from it.
    """
    if wp.p <= 0:
        raise ValueError("suppression factor defined for right-movers (p > 0)")
    return float(np.exp(max(suppression_exponent(wp, eps), -745.0)))


def suppression_exponent(wp: WavePacket, eps: float) -> float:
    """log of ``suppression_factor`` without underflow; monotone in it."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return float(-((wp.zeno_time / eps) ** 2) * (wp.energy * eps - 1.0) ** 2)


# ---------------------------------------------------------------------------
# crossing distributions
# ---------------------------------------------------------------------------

def crossing_density(wp: WavePacket, v0: float, tau):
    """Unnormalised crossing-time density in the strong-absorption regime,

        (2 / (m^{3/2} sqrt(v0))) |d psi_free/dx (0, tau)|^2,

    proportional to the kinetic-energy density at the origin; vanishes as
    v0 -> inf (total reflection) and scales exactly as v0^{-1/2}."""
    if not v0 > 0:
        raise ValueError("v0 must be positive")
    d = packet_boundary_derivative(wp, tau)
    return 2.0 / (wp.m**1.5 * np.sqrt(v0)) * np.abs(d) ** 2


def normalized_crossing_density(wp: WavePacket, tau):
    """Normalised crossing-time density |d psi/dx(0, tau)|^2 / (m p):
    independent of the absorption strength by construction and integrating
    to one for a packet that fully crosses."""
    if wp.p <= 0:
        raise ValueError("normalised crossing density needs mean momentum p > 0")
    d = packet_boundary_derivative(wp, tau)
    return np.abs(d) ** 2 / (wp.m * wp.p)


# ---------------------------------------------------------------------------
# boundary difference and the crossing machinery
# ---------------------------------------------------------------------------

def stationary_delta_g(t_grid, eps: float, v0: float, m: float = 1.0) -> np.ndarray:
    """Boundary-propagator difference delta_g(u) = S(u) g_absorbing(0,u|0,0)
    on ``t_grid`` with its u^{-1/2} factor peeled off:

        sqrt(u) delta_g(u) = (m / 2 pi i)^{1/2} (f_p(u) - f_v(u)),

    f_p the saw-tooth and f_v the absorbing envelope.  Both envelopes start
    at one, so the value at u = 0 is exactly zero.
    """
    t = np.asarray(t_grid, dtype=float)
    fv = np.ones_like(t)
    pos = t > 0
    fv[pos] = absorbing_envelope(v0, t[pos])
    return ROOT_INV_I * np.sqrt(m / (2 * np.pi)) * (sawtooth_envelope(eps, t) - fv)


_STENCIL = 12  # half-width, in grid points, of the NUFFT Gaussian stencil


def _pow2_at_least(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length()


def _trig_sum(c: np.ndarray, theta) -> np.ndarray:
    """sum_j c_j exp(i j theta) for arbitrary real theta, by a type-2
    non-uniform FFT with Gaussian gridding (Dutt & Rokhlin 1993; Greengard &
    Lee 2004).

    The index is shifted to n = j - N/2, the coefficients are deconvolved by
    exp(n^2 tau), one zero-padded inverse FFT of power-of-two length M >= 2N
    samples their Gaussian-smoothed sum on the uniform grid 2 pi l / M, and
    a 2*12-point Gaussian stencil interpolates at each theta mod 2 pi.  The
    width tau uses the effective oversampling ratio R = M/N, which balances
    the stencil-truncation and grid-aliasing errors at exp(-12 pi (R - 0.5)
    / R) <= 6e-13 each; after the exp(n^2 tau) amplification the result is
    within about 1e-12 of sum |c_j|.
    """
    c = np.asarray(c, dtype=complex)
    theta = np.asarray(theta, dtype=float)
    n_coef = len(c)
    shift = n_coef // 2
    n_grid = _pow2_at_least(2 * n_coef)
    ratio = n_grid / n_coef
    width = np.pi * _STENCIL / (n_coef**2 * ratio * (ratio - 0.5))
    n = np.arange(n_coef) - shift
    padded = np.zeros(n_grid, dtype=complex)
    padded[n % n_grid] = c * np.exp(n**2 * width)
    smoothed = np.fft.ifft(padded)
    step = 2 * np.pi / n_grid
    reduced = np.mod(theta, 2 * np.pi)[..., None]
    nodes = np.floor(reduced / step).astype(np.int64) + np.arange(1 - _STENCIL, _STENCIL + 1)
    gauss = np.exp(-((reduced - nodes * step) ** 2) / (4 * width))
    interp = np.sqrt(np.pi / width) * np.sum(smoothed[nodes % n_grid] * gauss, axis=-1)
    return np.exp(1j * shift * theta) * interp


def inner_boundary_convolution(phi: np.ndarray, deriv: np.ndarray, dt: float) -> np.ndarray:
    """G(t2) = int_0^t2 u^{-1/2} phi(u) D(t2 - u) du on a uniform grid.

    ``phi`` carries the boundary kernel with its inverse-square-root factor
    peeled off (phi(u) = sqrt(u) * kernel(u)), which the product-integration
    weights then restore exactly panel by panel.  The discrete convolution
    is a zero-padded FFT product.
    """
    if len(phi) != len(deriv):
        raise ValueError("phi and deriv must share the time grid")
    n = len(phi)
    weights = half_power_weights(n - 1, dt)
    size = _pow2_at_least(2 * n - 1)
    spec = np.fft.fft(weights * phi, size) * np.fft.fft(deriv, size)
    return np.fft.ifft(spec)[:n]


def crossing_term(
    x1,
    tau: float,
    G: np.ndarray,
    t_grid: np.ndarray,
    m: float,
    kmax: float,
    dk: float,
) -> np.ndarray:
    """The crossing part -(1/m^2) int dt2 dgf/dx(x1,tau|0,t2) G(t2).

    Evaluated in momentum space, where the final free leg is
    exp(-i k^2 (tau - t2) / 2m) and the boundary-derivative kernel is -ik.
    The t2 endpoint at tau produces a slowly decaying 1/k tail encoding a
    step at x1 = 0; it is subtracted via G(tau) and its transform

        -(2 G(tau)/m) [ (i/2) sgn(x) - J(x)/(2 pi) ],
        J(x) = i sqrt(pi/(i a)) int_0^x exp(i x'^2 / 4a) dx',  a = tau/2m,

    added back in closed form (the Fresnel integral is a cheap 1-d
    cumulative quadrature), leaving an O(1/k^2) remainder for the numeric
    transform.  Both the time sum at frequencies w_k = k^2/2m and the
    transform from the uniform k grid to x1 are trigonometric sums at
    non-uniform angles, w_k dt and x1 dk, evaluated by ``_trig_sum``.
    """
    xs = np.atleast_1d(np.asarray(x1, dtype=float))
    t = np.asarray(t_grid, dtype=float)
    nt = len(t) - 1
    dt = t[1] - t[0]
    g_end = G[-1]
    g_smooth = G - g_end

    k = np.arange(-kmax, kmax + dk, dk)
    wt = np.full(nt + 1, dt)
    wt[0] *= 0.5
    wt[-1] *= 0.5
    gw = g_smooth * wt
    w = k**2 / (2 * m)
    spectral = (-1j * k / m**2) * np.exp(-1j * w * tau) * _trig_sum(gw, w * dt)
    spectral[np.abs(k) <= 1e-12] = 0.0
    smooth_part = (
        np.exp(1j * xs * k[0]) * _trig_sum(spectral * dk, xs * (k[1] - k[0])) / (2 * np.pi)
    )

    a = tau / (2 * m)
    x_hi = float(np.abs(xs).max()) if xs.size else 0.0
    xf = np.linspace(0.0, max(x_hi, 1e-12), 20001)
    integrand = np.exp(1j * xf**2 / (4 * a))
    cum = np.concatenate(
        [[0.0 + 0.0j], np.cumsum((integrand[1:] + integrand[:-1]) / 2 * np.diff(xf))]
    )
    fresnel = np.interp(np.abs(xs), xf, cum.real) + 1j * np.interp(np.abs(xs), xf, cum.imag)
    fresnel = fresnel * np.sign(xs)
    J = 1j * np.sqrt(np.pi / (1j * a)) * fresnel
    tail_part = -(2 * g_end / m) * (0.5j * np.sign(xs) - J / (2 * np.pi))
    return -(smooth_part + tail_part)


def pdx_delta_psi(wp: WavePacket, eps: float, tau: float, x1) -> np.ndarray:
    """Change of the evolved wave function at (x1, tau) caused by swapping
    the absorbing boundary propagator (v0 = 4/(3 eps)) for the
    pulsed-measurement one with projections every eps.

    The time grid is uniform from 0 to tau with step at most eps/16, 1/32
    of the packet's oscillation period 2 pi/E and tau/1024.
    """
    v0 = calibrate_absorption(eps)
    dt = min(eps / 16.0, 2 * np.pi / wp.energy / 32.0, tau / 1024.0)
    t = np.linspace(0.0, tau, int(np.ceil(tau / dt)) + 1)
    phi = stationary_delta_g(t, eps, v0, wp.m)
    G = inner_boundary_convolution(phi, packet_boundary_derivative(wp, t), t[1])

    kmax = float(np.sqrt(2 * wp.m * (wp.energy + 4 * np.pi / eps)) + abs(wp.p) + 8 / wp.sigma)
    span = float(np.abs(np.asarray(x1)).max()) + abs(wp.q) + 10 * wp.sigma
    return crossing_term(x1, tau, G, t, wp.m, kmax, np.pi / (2 * span))


def delta_norm_scan(wp: WavePacket, eps_values, tau: float, x1):
    """L2 norm of the boundary perturbation over the x1 grid for each eps.

    Returns (norms, suppression exponents).
    """
    xs = np.asarray(x1, dtype=float)
    norms = [np.sqrt(np.trapezoid(np.abs(pdx_delta_psi(wp, eps, tau, xs)) ** 2, xs))
             for eps in eps_values]
    return np.array(norms), np.array([suppression_exponent(wp, eps) for eps in eps_values])
