"""Wave-packet diagnostics through the boundary-propagator decomposition,
in units hbar = m = sigma = 1 (sigma the packet's width) throughout.

Any propagator sharing the free dynamics in x > 0 admits a decomposition of
the evolved wave function, for initial data supported in x > 0, into a part
that never crosses the origin (method of images) plus a crossing part routed
through the boundary:

    psi(x1, tau) = psi_restricted(x1, tau)
                   - int_0^tau dt2 int_0^t2 dt1
                       dgf/dx(x1, tau | x, t2)|_{x=0}
                       * g(0, t2 | 0, t1)
                       * dpsi_free/dx(0, t1)

with both boundary factors written through free quantities (the restricted
derivative is exactly twice the free one, absorbing a factor 4 and leaving
an overall i^2 = -1; the sign convention is pinned by reproducing exact free
evolution, see the tests).  The packet enters only through
dpsi_free/dx(0, t1) of the exactly evolved Gaussian, spreading included.
Replacing the absorbing boundary propagator by the pulsed-measurement one
therefore perturbs the wave function by the same double integral with the
boundary difference ``delta_g(u) = S(u) g_absorbing(u)`` in the middle slot,
S the relative oscillation of the saw-tooth envelope around the absorbing
one; the difference is treated as stationary in both times, which holds on
timescales well above the projection spacing.

Numerics: the boundary difference is built with its u^{-1/2} singularity
already peeled off, sqrt(u) delta_g(u) = (2 pi i)^{-1/2} (f_p - f_v)(u);
the inner time convolution restores it with product-integration weights
and is evaluated as an FFT product, the transforms' length argument doing
the zero padding.  The time step is eps/q for a whole q, and the grid runs
back from tau to its first node at or before t = 0 (``time_grid``), so
every drop of the saw-tooth, a lag k eps from that node, is a node too:
the node holds the trough after the drop and the panel that ends there the
peak before it (``_weighted_delta_g``), so the quadrature is second order
in its step at every E eps.  The outer integral
is evaluated in momentum space, where the final free leg is diagonal and
nothing is singular; the slowly decaying 1/k endpoint tail (a step
structure at the boundary) is summed analytically via a Fresnel integral
so the numeric transform only handles an O(1/k^2) remainder.  That step
profile depends on tau and the x grid alone, so an eps scan builds it
once (``step_profile``) and hands it to every crossing term.  The momentum
integrand is odd in k, so only k > 0 is sampled.  The time sum at the
frequencies k^2/2 and the transform from the uniform k grid to x are both
trigonometric sums at non-uniform angles, evaluated by a Gaussian-gridding
non-uniform FFT (``_trig_sum``) instead of dense phase matrices, whose
stencil reads the uniform grid modulo its length; it agrees with the dense
sums to about 1e-12.  A time grid is capped at ``MAX_TIME_POINTS`` points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ROOT_INV_I,
    five_smooth_at_least,
    half_power_weights,
    panel_weights,
    snap_to_integer,
)
from .exact import absorbing_envelope
from .sawtooth import V0_EPS, sawtooth_envelope

__all__ = [
    "WavePacket",
    "packet_boundary_derivative",
    "suppression_factor",
    "stationary_delta_g",
    "inner_boundary_convolution",
    "step_profile",
    "crossing_term",
    "MAX_TIME_POINTS",
    "time_points",
    "time_grid",
    "pdx_delta_psi",
    "scan_geometry",
    "delta_norm_scan",
]


@dataclass(frozen=True)
class WavePacket:
    """Gaussian packet of unit width and mass: centre q and momentum p.

    A packet that crosses the origin moving right has q < 0 and p > 0; the
    classical crossing time is |q| / p.
    """

    q: float
    p: float
    norm_factor = (2 * np.pi) ** (-0.25)

    @property
    def energy(self) -> float:
        return self.p * self.p / 2

    @property
    def zeno_time(self) -> float:
        """1/p, the timescale on which the state changes appreciably
        (positive for right-movers)."""
        return 1 / self.p


def packet_boundary_derivative(wp: WavePacket, t):
    """d psi / dx at x = 0 of the initial Gaussian under exact free
    evolution (analytic; the t = 0 value is that of the initial packet).

    With A = a - i b, a = 1/4 and b = 1/2t, the free propagator's
    sqrt(1/2 pi t) and the Gaussian integral's sqrt(pi/A) combine into
    sqrt(b/A), so one complex reciprocal 1/A serves every factor, and the
    factors are multiplied in place into three complex arrays of the grid.
    """
    t = np.asarray(t, dtype=float)
    a = 0.25
    beta0 = 2 * a * wp.q + 1j * wp.p
    at_zero = np.atleast_1d(t == 0)
    b = np.divide(0.5, np.where(at_zero, 1.0, t))
    inv_a = b * -1j
    inv_a += a
    np.reciprocal(inv_a, out=inv_a)
    out = inv_a * b
    np.sqrt(out, out=out)
    gauss = inv_a * (beta0**2 / 4)
    gauss -= a * wp.q**2
    out *= np.exp(gauss, out=gauss)
    del gauss
    inv_a *= b
    del b
    out *= inv_a
    out *= ROOT_INV_I * wp.norm_factor * -1j * beta0
    out[at_zero] = wp.norm_factor * np.exp(-a * wp.q**2) * beta0
    return out if t.ndim else complex(out[0])


def suppression_exponent(wp: WavePacket, eps: float) -> float:
    """Log of the order-of-magnitude suppression of the boundary
    perturbation, -(t_Z / eps)^2 (E eps - 1)^2 with t_Z = 1/p and
    E = p^2/2.  Used only to rank an eps scan: the perturbation is not
    suppressed where the packet's internal oscillation period is comparable
    to the projection spacing and collapses rapidly away from it."""
    if not (wp.p > 0 and eps > 0):
        raise ValueError("suppression needs a right-mover (p > 0) and eps > 0")
    return float(-((wp.zeno_time / eps) ** 2) * (wp.energy * eps - 1.0) ** 2)


def suppression_factor(exponents) -> np.ndarray:
    """exp of suppression exponents, held at exp(-745), the least subnormal
    double, so that no suppression underflows to zero."""
    return np.exp(np.maximum(exponents, -745.0))


# ---------------------------------------------------------------------------
# boundary difference and the crossing machinery
# ---------------------------------------------------------------------------

_ROOT_G_FREE = ROOT_INV_I * np.sqrt(1 / (2 * np.pi))  # sqrt(u) g_free(0, u | 0, 0)


def stationary_delta_g(s) -> np.ndarray:
    """Boundary-propagator difference delta_g(u) = S(u) g_absorbing(0,u|0,0)
    at s = u/eps, with its u^{-1/2} factor peeled off:

        sqrt(u) delta_g(u) = (2 pi i)^{-1/2} (f_p(s) - f_v(s)),

    f_p the saw-tooth on interval floor(s) at offset s - floor(s) and f_v
    the absorbing envelope at the calibrated v0 eps = 4/3 (``V0_EPS``),
    both functions of s alone.  Both envelopes start at one, so the value
    at s = 0 is exactly zero, and at a drop, s = k, f_p takes its trough
    1/(2k), the u = 0 end of interval k (``sawtooth_envelope``).
    """
    s = np.asarray(s, dtype=float)
    fv = np.ones_like(s)
    pos = s > 0
    fv[pos] = absorbing_envelope(V0_EPS, s[pos])
    n = np.floor(s)
    return _ROOT_G_FREE * (sawtooth_envelope(n, s - n) - fv)


def _weighted_delta_g(n: int, q: int, eps: float) -> np.ndarray:
    """The values that ``inner_boundary_convolution`` convolves for
    ``pdx_delta_psi``: ``stationary_delta_g`` at the n lags u_j = j eps/q,
    s = j/q, times ``half_power_weights``, with each saw-tooth drop taken
    one-sidedly.

    Drop k, at u = k eps, is node k q, whose s = k q / q is k exactly; it
    holds the trough 1/(2k) that the panel after it starts from.  The
    panel that ends there meets the peak 1/k instead, so its right weight
    also carries the jump between the two; a line drawn across the drop
    would err by half of it over a panel, a first-order error in the time
    step.
    """
    dt = eps / q
    weighted = half_power_weights(n - 1, dt) * stationary_delta_g(np.arange(n) / q)
    k = np.arange(1, (n - 1) // q + 1)
    jump = _ROOT_G_FREE * (sawtooth_envelope(k - 1, 1.0) - sawtooth_envelope(k, 0.0))
    weighted[k * q] += panel_weights((k * q - 1) * dt, k * q * dt)[1] * jump
    return weighted


_STENCIL = 12  # half-width, in grid points, of the NUFFT Gaussian stencil


def _trig_sum(c: np.ndarray, theta) -> np.ndarray:
    """sum_j c_j exp(i j theta) for arbitrary real theta, by a type-2
    non-uniform FFT with Gaussian gridding (Dutt & Rokhlin 1993; Greengard &
    Lee 2004).

    The index is shifted to n = j - N/2, the coefficients are deconvolved by
    exp(n^2 tau), one zero-padded inverse FFT of the smallest 2^a 3^b 5^c
    length M >= 2N (``five_smooth_at_least``) samples their
    Gaussian-smoothed sum on the uniform grid 2 pi l / M, and
    a 2*12-point Gaussian stencil interpolates at each theta mod 2 pi.  The
    width tau uses the effective oversampling ratio R = M/N, which balances
    the stencil-truncation and grid-aliasing errors at exp(-12 pi (R - 0.5)
    / R) <= 6e-13 each at R >= 2; after the exp(n^2 tau) amplification the
    result is within about 1e-12 of sum |c_j|.

    The stencil weights are gridded fast (Greengard & Lee): with d the
    offset of theta from its grid node l, the weight of node l + j is

        exp(-(d - j h)^2 / 4 tau)
            = exp(-d^2 / 4 tau) * exp(d h / 2 tau)^j * exp(-j^2 h^2 / 4 tau),

    h = 2 pi / M, so three exponentials per angle and one multiplication per
    node give every weight, and the stencil is read one node offset at a
    time.  The grid is one array of M points, transformed in place, and the
    stencil reads node l + j as node (l + j) mod M (``take`` with
    ``mode="wrap"``), which also covers a node at M, where mod 2 pi of an
    angle just below 0 rounds up, and grids of fewer than 13 nodes.  No
    other temporary is larger than the coefficients or theta.
    """
    c = np.asarray(c, dtype=complex)
    theta = np.asarray(theta, dtype=float)
    n_coef = len(c)
    shift = n_coef // 2
    n_grid = five_smooth_at_least(2 * n_coef)
    ratio = n_grid / n_coef
    width = np.pi * _STENCIL / (n_coef**2 * ratio * (ratio - 0.5))
    n = np.arange(n_coef) - shift
    grid = np.zeros(n_grid, dtype=complex)
    grid[n % n_grid] = c * np.exp(n**2 * width)
    del n
    np.fft.ifft(grid, out=grid)
    step = 2 * np.pi / n_grid
    offset = np.mod(theta, 2 * np.pi)
    node = np.floor(offset / step)
    offset -= node * step
    index = node.astype(np.int64)
    del node
    centre = np.exp(-(offset**2) / (4 * width))
    rise = np.exp(offset * (step / (2 * width)))
    del offset
    interp = grid.take(index, mode="wrap")
    interp *= centre
    column = np.empty_like(interp)
    # nodes l + 1 .. l + 12 by powers of rise, then l - 1 .. l - 11 by 1/rise
    gauss = centre.copy()
    for sign, count in ((1, _STENCIL), (-1, _STENCIL - 1)):
        if sign < 0:  # back to node l and its weight, stepping by 1/rise
            index -= _STENCIL
            gauss = centre
            np.divide(1.0, rise, out=rise)
        for j in range(1, count + 1):
            gauss *= rise
            index += sign
            grid.take(index, out=column, mode="wrap")
            column *= gauss * np.exp(-((j * step) ** 2) / (4 * width))
            interp += column
    del column, gauss, centre, rise, index
    interp *= np.sqrt(np.pi / width)
    return np.multiply(np.exp(1j * shift * theta), interp, out=interp)


def inner_boundary_convolution(weighted: np.ndarray, deriv: np.ndarray) -> np.ndarray:
    """G(t2) = int_0^t2 u^{-1/2} phi(u) D(t2 - u) du on a uniform grid,
    as sum_j weighted_j D(t2 - t_j).

    ``phi`` carries the boundary kernel with its inverse-square-root factor
    peeled off (phi(u) = sqrt(u) * kernel(u)), and ``weighted`` is phi times
    the product-integration weights that restore the factor exactly panel
    by panel: ``half_power_weights(n - 1, dt) * phi`` for a phi linear on
    every panel, ``_weighted_delta_g`` for the saw-tooth's difference.  The
    discrete convolution is an FFT product of the smallest 2^a 3^b 5^c
    length at or above 2n - 1, which the FFT's length argument pads with
    zeros.  The product and its inverse are formed in place in the first
    factor's spectrum, and the result is a copy of its first n entries.
    ``weighted`` and ``deriv`` are dropped once transformed, so arrays that
    the caller does not hold are freed before the next transform.
    """
    if len(weighted) != len(deriv):
        raise ValueError("weighted and deriv must share the time grid")
    n = len(weighted)
    size = five_smooth_at_least(2 * n - 1)
    spec = np.fft.fft(weighted, size)
    del weighted
    spec *= np.fft.fft(deriv, size)
    del deriv
    np.fft.ifft(spec, out=spec)
    return spec[:n].copy()  # a view would keep the whole spectrum alive


def step_profile(x1, tau: float) -> np.ndarray:
    """The step that the 1/k endpoint tail of the crossing term makes in x,

        (i/2) sgn(x) - J(x)/(2 pi),
        J(x) = i sqrt(pi/(i a)) int_0^x exp(i x'^2 / 4a) dx',  a = tau/2,

    on the points ``x1``, the Fresnel integral by a cumulative trapezoid on
    20,001 points out to max |x1|.  It depends on tau and x1 alone, so one
    profile serves every eps of a scan.
    """
    xs = np.atleast_1d(np.asarray(x1, dtype=float))
    a = tau / 2
    x_hi = float(np.abs(xs).max()) if xs.size else 0.0
    xf = np.linspace(0.0, max(x_hi, 1e-12), 20001)
    integrand = np.exp(1j * xf**2 / (4 * a))
    cum = np.concatenate(
        [[0.0 + 0.0j], np.cumsum((integrand[1:] + integrand[:-1]) / 2 * np.diff(xf))]
    )
    fresnel = np.interp(np.abs(xs), xf, cum.real) + 1j * np.interp(np.abs(xs), xf, cum.imag)
    fresnel = fresnel * np.sign(xs)
    J = 1j * np.sqrt(np.pi / (1j * a)) * fresnel
    return 0.5j * np.sign(xs) - J / (2 * np.pi)


def crossing_term(
    x1,
    tau: float,
    G: np.ndarray,
    t_grid: np.ndarray,
    kmax: float,
    dk: float,
    profile: np.ndarray,
) -> np.ndarray:
    """The crossing part -int dt2 dgf/dx(x1,tau|0,t2) G(t2).

    Evaluated in momentum space, where the final free leg is
    exp(-i k^2 (tau - t2) / 2) and the boundary-derivative kernel is -ik.
    The t2 endpoint at tau produces a slowly decaying 1/k tail encoding a
    step at x1 = 0; it is subtracted via G(tau) and added back in closed
    form as -2 G(tau) times ``profile``, the ``step_profile(x1, tau)`` that
    the caller builds once for all calls sharing tau and x1, leaving an
    O(1/k^2) remainder for the numeric transform.

    The momenta are k = j dk for j = -J..J without j = 0, J = kmax/dk
    rounded up.  The integrand -i k exp(-i w (tau - t_0)) T(w),
    w = k^2/2 and T the time sum over the lags t2 - t_0 from the first
    node of the uniform ``t_grid``, is odd in k, so only j = 1..J is
    computed: the time sum at the frequencies w_k, angles w_k dt, and the
    transform to x1 as sum_j c_j (exp(i j x1 dk) - exp(-i j x1 dk)), one
    sum over J coefficients at the angles +x1 dk and -x1 dk.  Both are
    trigonometric sums at non-uniform angles, evaluated by ``_trig_sum``.
    """
    xs = np.atleast_1d(np.asarray(x1, dtype=float))
    t = np.asarray(t_grid, dtype=float)
    dt = t[1] - t[0]
    g_end = G[-1]
    # G - G(tau) with trapezoid weights; halving the end weights is exact
    gw = G - g_end
    gw *= dt
    gw[0] *= 0.5
    gw[-1] *= 0.5

    # k = j dk for j = 1..J; kmax/dk a rounding past a whole number is that number
    n_k = int(np.ceil(snap_to_integer(kmax / dk)))
    if n_k < 1:
        raise ValueError("kmax and dk must be positive")
    k = np.arange(1, n_k + 1) * dk
    w = k**2 / 2
    spectral = _trig_sum(gw, w * dt)
    del gw
    spectral *= np.exp(-1j * (tau - t[0]) * w)
    del w
    spectral *= k * (-1j * dk)  # with the dk of the k -> x sum
    # sum_j c_j (e^{i j theta} - e^{-i j theta}) over j = 1..J, theta = x dk,
    # from one sum over j - 1 at +theta and -theta
    theta = xs * dk
    angles = np.concatenate([theta, -theta])
    both = np.exp(1j * angles) * _trig_sum(spectral, angles)
    smooth_part = (both[: len(xs)] - both[len(xs) :]) / (2 * np.pi)
    return -(smooth_part - (2 * g_end) * profile)


# Most points of a pdx_delta_psi time grid.  At the finest eps of the pdx
# scan the grid has about 300.8 points per unit of p sigma (3,009 at the
# default p sigma = 10); on a 2-vCPU VM the whole scan takes 0.1-0.15 s and
# 39 MiB of peak RSS (ru_maxrss / 1024) at p sigma = 100, and 1.0-1.3 s and
# 94 MiB at p sigma = 871, just under the cap.
MAX_TIME_POINTS = 2**18


def _steps_per_projection(wp: WavePacket, eps: float, tau: float) -> int:
    """q, the fewest time steps per projection interval whose step eps/q is
    at most eps/4, 1/32 of the oscillation period 2 pi/E and tau/1024."""
    target = min(eps / 4.0, 2 * np.pi / wp.energy / 32.0, tau / 1024.0)
    return int(np.ceil(snap_to_integer(eps / target)))


def time_points(wp: WavePacket, eps: float, tau: float) -> int:
    """Points of the ``time_grid`` of ``pdx_delta_psi``, refused with
    ``ValueError`` above ``MAX_TIME_POINTS`` before anything is allocated."""
    # tau/dt a rounding past a whole number is that number (3,008 at the default)
    steps = np.ceil(snap_to_integer(tau / (eps / _steps_per_projection(wp, eps, tau))))
    if not steps < MAX_TIME_POINTS:
        raise ValueError(f"time grid of {steps + 1:.6g} points exceeds the cap of "
                         f"{MAX_TIME_POINTS} (MAX_TIME_POINTS)")
    return int(steps) + 1


def time_grid(wp: WavePacket, eps: float, tau: float) -> tuple[np.ndarray, int]:
    """The time grid of ``pdx_delta_psi`` and its steps per projection q:
    nodes dt = eps/q apart from tau back to the first at t <= 0, so drop k,
    a lag k eps from that node, is node k q.  The quadrature is second order
    in dt: the default column lies within 1.5e-2 of its limit."""
    q = _steps_per_projection(wp, eps, tau)
    t = tau - np.arange(time_points(wp, eps, tau) - 1, -1, -1) * (eps / q)
    t[0] = min(t[0], 0.0)  # tau a whole number of steps starts at 0, not a rounding past it
    return t, q


def pdx_delta_psi(wp: WavePacket, eps: float, tau: float, x1, profile: np.ndarray) -> np.ndarray:
    """Change of the evolved wave function at (x1, tau) caused by swapping
    the absorbing boundary propagator (v0 eps = 4/3) for the
    pulsed-measurement one with projections every eps, on the time grid of
    ``time_grid``, whose node at or before t = 0 takes the packet
    derivative at t = 0; ``profile`` is ``step_profile(x1, tau)``.
    """
    t, q = time_grid(wp, eps, tau)
    # the weighted boundary difference and the packet derivative are held
    # only by the convolution, which frees them once it has copied them
    G = inner_boundary_convolution(_weighted_delta_g(len(t), q, eps),
                                   packet_boundary_derivative(wp, np.maximum(t, 0.0)))

    kmax = float(np.sqrt(2 * (wp.energy + 4 * np.pi / eps)) + abs(wp.p) + 8.0)
    span = float(np.abs(np.asarray(x1)).max()) + abs(wp.q) + 10.0
    return crossing_term(x1, tau, G, t, kmax, np.pi / (2 * span), profile)


# E eps of the pdx scan, the window where the suppression predictor ranks it
_SCAN_E_EPS = np.array([0.125, 0.2, 0.3, 0.4, 0.5, 0.7, 0.85, 1.0, 1.25])


def scan_geometry(p_sigma: float) -> tuple[WavePacket, float, np.ndarray, np.ndarray]:
    """The pdx scan's packet, from q = -10; its final time tau, past the
    classical crossing; its eps values; and its x window, out to 6 past the
    packet's centre at tau.  Each of these is a ``ValueError``, before
    anything is allocated: an energy that is not finite and positive, or is
    subnormal (the eps values E eps / E would overflow); more time steps per
    projection at the coarsest eps, the most of the scan, than an int64
    index holds (below p sigma of about 1.5e-17); and a finest time grid
    over the cap (``time_points``)."""
    wp = WavePacket(q=-10.0, p=p_sigma)
    if not 0 < wp.energy < np.inf:
        raise ValueError(f"packet energy {wp.energy:.6g} is not finite and positive")
    if wp.energy < np.finfo(float).tiny:
        raise ValueError(f"packet energy {wp.energy:.6g} is subnormal")
    tau = 1.8 * abs(wp.q) / wp.p + 0.8 * wp.zeno_time
    eps_values = _SCAN_E_EPS / wp.energy
    steps = _steps_per_projection(wp, eps_values[-1], tau)
    if steps > np.iinfo(np.int64).max:
        raise ValueError(f"{steps:.6g} time steps per projection exceed an int64 index")
    time_points(wp, eps_values[0], tau)
    return wp, tau, eps_values, np.linspace(0.05, abs(wp.q) + wp.p * tau + 6.0, 400)


def delta_norm_scan(p_sigma: float):
    """(tau, eps, E eps, predictor, norms) of the pdx scan at ``p_sigma``
    (``scan_geometry``): at each eps, the L2 norm of the boundary
    perturbation over the x window, all from one step profile."""
    wp, tau, eps_values, xs = scan_geometry(p_sigma)
    profile = step_profile(xs, tau)
    norms = [np.sqrt(np.trapezoid(np.abs(pdx_delta_psi(wp, eps, tau, xs, profile)) ** 2, xs))
             for eps in eps_values]
    predictor = suppression_factor([suppression_exponent(wp, eps) for eps in eps_values])
    return tau, eps_values, _SCAN_E_EPS, predictor, np.array(norms)
