import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    absorbing_step_packet,
    crossing_density,
    dense_crossing_term,
    direct_trig_sum,
    free_evolution_quadrature,
    free_packet,
    normalized_crossing_density,
    spearman_rho,
    step_reflection,
)
from zenoprop import wavepacket
from zenoprop.core import SNAP, five_smooth_at_least, half_power_weights, panel_weights
from zenoprop.exact import absorbing_envelope
from zenoprop.sawtooth import V0_EPS, sawtooth_envelope
from zenoprop.wavepacket import (
    WavePacket,
    _trig_sum,
    _weighted_delta_g,
    crossing_term,
    delta_norm_scan,
    inner_boundary_convolution,
    packet_boundary_derivative,
    pdx_delta_psi,
    scan_geometry,
    stationary_delta_g,
    step_profile,
    suppression_exponent,
    suppression_factor,
    time_grid,
    time_points,
)

ROOT_INV_I = np.exp(-1j * np.pi / 4)


@pytest.fixture
def packet():
    return WavePacket(q=-10.0, p=10.0)


class TestFreePacket:
    def test_center_value_normalisation(self, packet):
        x = np.linspace(-60, 60, 24001)
        for spreading in (False, True):
            psi = free_packet(packet, 0.7, x, spreading=spreading)
            assert np.trapezoid(np.abs(psi) ** 2, x) == pytest.approx(1.0, abs=1e-8)
        assert abs(free_packet(packet, 0.0, np.array(packet.q))) == pytest.approx(
            packet.norm_factor
        )

    def test_center_moves_classically(self, packet):
        x = np.linspace(-60, 60, 24001)
        for t in (0.5, 1.0):
            psi = free_packet(packet, t, x)
            got = x[np.argmax(np.abs(psi))]
            assert got == pytest.approx(packet.q + packet.p * t, abs=0.01)

    def test_spreading_t0_reduces_to_initial(self, packet):
        # t -> 0 limit of the closed form; the residual is the genuine
        # evolution over t (about E * t * |psi| ~ 3e-5 here), not a defect
        x = np.linspace(-15, -5, 2001)
        a = free_packet(packet, 0.0, x, spreading=True)
        b = free_packet(packet, 1e-6, x, spreading=True)
        bound = 2 * packet.energy * 1e-6 * np.max(np.abs(a))
        assert np.max(np.abs(a - b)) < bound

    def test_spreading_matches_quadrature_oracle(self, packet):
        # exact closed form against direct propagator quadrature
        t = 0.8
        x_out = np.linspace(-6, 6, 41)
        want = free_evolution_quadrature(
            lambda y: free_packet(packet, 0.0, y, spreading=True),
            1.0, t, x_out, packet.q - 14, packet.q + 14, n_nodes=24000,
        )
        got = free_packet(packet, t, x_out, spreading=True)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_width_grows(self, packet):
        x = np.linspace(-80, 80, 32001)
        widths = []
        for t in (0.0, 2.0):
            psi = free_packet(packet, t, x, spreading=True)
            prob = np.abs(psi) ** 2
            mean = np.trapezoid(x * prob, x)
            widths.append(np.sqrt(np.trapezoid((x - mean) ** 2 * prob, x)))
        assert widths[1] > widths[0] * 1.3

    def test_energy_overflows_to_inf(self):
        # p^2 / 2 of a huge momentum is inf, not an OverflowError
        assert WavePacket(-10.0, 1e200).energy == np.inf


class TestBoundaryDerivative:
    def test_far_packet_negligible(self):
        wp = WavePacket(q=-50.0, p=1.0)
        assert abs(packet_boundary_derivative(wp, 0.1)) < 1e-12

    def test_matches_finite_difference(self, packet):
        h = 1e-6
        for t in (0.3, 1.0, 1.4):
            fd = (
                free_packet(packet, t, np.array(h), spreading=True)
                - free_packet(packet, t, np.array(-h), spreading=True)
            ) / (2 * h)
            got = packet_boundary_derivative(packet, t)
            assert got == pytest.approx(complex(fd), rel=1e-6)

    def test_spreading_matches_scalar_formula(self, packet):
        # the vectorised closed form against the per-sample formula, t = 0
        # taken from the initial packet
        t = np.linspace(0.0, 2.0, 201)
        a = 0.25
        beta0 = 2 * a * packet.q + 1j * packet.p
        want = np.empty(len(t), dtype=complex)
        for i, tt in enumerate(t):
            psi0 = free_packet(packet, float(tt), np.array(0.0), spreading=True)
            if tt == 0:
                want[i] = psi0 * beta0
            else:
                b = 1 / (2 * tt)
                want[i] = psi0 * (-1j * b * beta0 / (a - 1j * b))
        got = packet_boundary_derivative(packet, t)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
        assert packet_boundary_derivative(packet, 0.0) == want[0]
        assert isinstance(packet_boundary_derivative(packet, 0.5), complex)

    def test_peak_memory_at_finest_eps(self):
        # the default pdx scan's finest time grid: one reciprocal 1/A and the
        # factors multiplied in place into three complex arrays, 0.172 MB
        # (0.69 MB at the 12,033 points of a step of eps/16)
        wp, tau, eps_values, _ = scan_geometry(10.0)
        t = np.maximum(time_grid(wp, eps_values[0], tau)[0], 0.0)
        assert len(t) == 3_009
        assert traced_peak(packet_boundary_derivative, wp, t) < 0.175e6

    def test_crossing_instant_dominated_by_momentum(self, packet):
        # packet centred on the origin: its envelope is stationary there, so
        # the derivative is exactly i p psi, spreading included
        t_c = -packet.q / packet.p
        d = packet_boundary_derivative(packet, t_c)
        psi0 = free_packet(packet, t_c, np.array(0.0), spreading=True)
        assert d == pytest.approx(1j * packet.p * complex(psi0), rel=1e-12)

    def test_zeno_time(self, packet):
        assert packet.zeno_time == pytest.approx(0.1)
        assert packet.energy == pytest.approx(50.0)


class TestSuppressionFactor:
    def test_resonance_point_unsuppressed(self, packet):
        eps = 1.0 / packet.energy
        assert suppression_factor(suppression_exponent(packet, eps)) == pytest.approx(1.0)

    def test_small_eps_substitution(self, packet):
        expo = -((packet.zeno_time / 0.01) ** 2) * (packet.energy * 0.01 - 1) ** 2
        assert suppression_exponent(packet, 0.01) == pytest.approx(expo, rel=1e-12)
        assert suppression_factor(suppression_exponent(packet, 0.01)) == pytest.approx(
            np.exp(expo), rel=1e-12)
        # slow packet where E eps << 1 at eps = t_Z/10: essentially e^(-100)
        slow = WavePacket(q=-10.0, p=0.6)
        assert suppression_factor(suppression_exponent(slow, slow.zeno_time / 10)) < 1e-40
        # held at the least subnormal instead of underflowing to zero
        assert suppression_factor(np.array([-1e4, -745.0])).tolist() == [5e-324, 5e-324]

    def test_validation(self, packet):
        with pytest.raises(ValueError):
            suppression_exponent(packet, 0.0)
        with pytest.raises(ValueError):
            suppression_exponent(WavePacket(q=10.0, p=-1.0), 0.1)


class TestCrossingDistributions:
    def test_normalisation(self, packet):
        t_c = -packet.q / packet.p
        tau = np.linspace(1e-6, 2.5 * t_c, 4000)
        pn = normalized_crossing_density(packet, tau)
        assert np.all(pn >= 0)
        assert np.trapezoid(pn, tau) == pytest.approx(1.0, abs=1e-6)

    def test_peak_near_classical_arrival(self, packet):
        t_c = -packet.q / packet.p
        tau = np.linspace(0.5, 1.5, 2001)
        pn = normalized_crossing_density(packet, tau)
        assert abs(tau[np.argmax(pn)] - t_c) < packet.zeno_time

    def test_absorption_scaling_exact(self, packet):
        a = crossing_density(packet, 1.0, 0.9)
        b = crossing_density(packet, 2.0, 0.9)
        assert a / b == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_strong_absorption_vanishes(self, packet):
        weak = crossing_density(packet, 1.0, 1.0)
        assert crossing_density(packet, 1e12, 1.0) < 1e-5 * weak

    def test_normalized_density_takes_no_absorption_strength(self):
        params = inspect.signature(normalized_crossing_density).parameters
        assert "v0" not in params

    def test_momentum_sign_guard(self):
        wp = WavePacket(q=10.0, p=-3.0)
        with pytest.raises(ValueError):
            normalized_crossing_density(wp, 1.0)


class TestDeltaG:
    def test_model_values(self):
        eps, v0 = 0.5, 8 / 3
        t = np.linspace(0.0, 2.0, 201)
        phi = stationary_delta_g(t / eps)
        # every point against the definition, the drops u = k eps at nodes
        # 50, 100, 150 and 200 included, with the u^{-1/2} of g_absorbing
        # peeled off: sqrt(u) S(u) g_absorbing(u), at v0 eps = 4/3
        assert_allclose(phi[1:], plain_delta_g(t[1:], eps, v0), rtol=1e-12)
        assert phi[0] == 0

    def test_values_do_not_depend_on_the_grid(self):
        # a grid that neither starts at 0 nor is uniform, through the drops
        # 2 and 3: each value is the one its s has alone
        s = np.sort(np.concatenate([np.linspace(0.2, 4.0, 50), [2.0, 3.0, 3.46]]))
        phi = stationary_delta_g(s)
        assert phi.tolist() == [stationary_delta_g(np.array([x]))[0] for x in s]

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            stationary_delta_g(np.linspace(-0.2, 2, 12))


def sawtooth(s):
    """The saw-tooth at s, on interval floor(s) at offset s - floor(s)."""
    n = np.floor(s)
    return sawtooth_envelope(n, s - n)


def plain_delta_g(u, eps, v0):
    """sqrt(u) S(u) g_absorbing(u), the boundary difference from its
    definition with the u^{-1/2} of g_absorbing peeled off."""
    s = sawtooth(u / eps) / absorbing_envelope(v0, u) - 1
    gv = ROOT_INV_I * np.sqrt(1 / (2 * np.pi * u)) * absorbing_envelope(v0, u)
    return np.sqrt(u) * s * gv


class TestTimeGrid:
    """``time_grid``: a step of eps/q that ends the grid at tau and puts
    every drop of the saw-tooth on a node."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.5, 300.0), st.floats(0.1, 2.0), st.floats(0.2, 2.5))
    @example(10.0, 0.125, 1.88)  # the default scan's finest grid, 3,009 points
    # tau a few roundings past 3,008 steps of eps/4: t[0] is 0, not 2.2e-16
    @example(10.0, 0.125, 1.8800000000000003)
    def test_every_drop_is_a_trough_node(self, p_sigma, e_eps, crossings):
        # tau in units of the classical crossing time |q| / p
        wp = WavePacket(q=-10.0, p=p_sigma)
        eps, tau = e_eps / wp.energy, crossings * abs(wp.q) / wp.p
        t, q = time_grid(wp, eps, tau)
        dt = eps / q
        # the target step; q is snapped (core.SNAP), so dt may exceed it by as much
        target = min(eps / 4, 2 * np.pi / wp.energy / 32, tau / 1024)
        assert target / 2 < dt <= target * (1 + SNAP)
        assert len(t) == time_points(wp, eps, tau)
        assert t[-1] == tau
        assert -dt < t[0] <= 0
        # drop k at the lag k eps from t[0] is node k q, whose s = k q / q
        # that _weighted_delta_g takes there is k exactly and holds the
        # trough 1/(2k)
        k = np.arange(1, int(tau / eps) + 2)
        k = k[k * eps <= tau]
        assert np.all(k * q < len(t))
        assert_allclose(t[k * q] - t[0], k * eps, rtol=0, atol=16 * SNAP * tau)
        s = np.arange(len(t))[k * q] / q
        assert np.array_equal(s, k)
        trough = ROOT_INV_I * np.sqrt(1 / (2 * np.pi)) * (sawtooth_envelope(k, 0.0)
                                                          - absorbing_envelope(V0_EPS, k))
        assert_allclose(stationary_delta_g(s), trough, rtol=1e-9)


class TestWeightedDeltaG:
    """``_weighted_delta_g``: the product rule with each drop one-sided."""

    @pytest.mark.parametrize("q", [1, 4, 50])
    def test_one_sided_rule_is_exact_on_the_sawtooth(self, monkeypatch, q):
        # with the absorbing envelope replaced by its first-order expansion
        # 1 - v0 t / 2, a line, the difference is linear between the drops,
        # so the product rule must integrate u^{-1/2} times it exactly over
        # the four intervals of eps in [0, 2], whose drops are nodes q, 2q, 3q
        # and 4q; at q = 1 every node is a drop.  A line drawn across each
        # drop errs by 3.7e-3 relative at q = 50
        def line(rate, s):
            return 1 - rate * s / 2

        monkeypatch.setattr(wavepacket, "absorbing_envelope", line)
        eps = 0.5
        rule = _weighted_delta_g(4 * q + 1, q, eps).sum()
        # int_0^2 u^{-1/2} (f_p - f_v) du = 2 int_0^sqrt(2) (f_p - f_v)(x^2) dx,
        # a polynomial of degree 2 in x on each interval of f_p
        x, w = np.polynomial.legendre.leggauss(8)
        want = 0.0
        for k in range(4):
            a, b = np.sqrt(k * eps), np.sqrt((k + 1) * eps)
            u = ((b - a) * x / 2 + (a + b) / 2) ** 2
            want += (b - a) * np.dot(w, sawtooth(u / eps) - line(4 / 3, u / eps))
        want *= ROOT_INV_I * np.sqrt(1 / (2 * np.pi))
        assert abs(rule - want) < 1e-13 * abs(want)

    def test_drop_on_a_node_ends_the_panel_before_it(self):
        # the drops u = k eps at nodes 50, 100, 150 and 200: the panel that
        # ends at one takes the left value 1/k where the node holds the
        # trough 1/(2k), which the panel after it takes; every other node
        # holds its plain value times its weight
        eps, v0 = 0.5, 8 / 3
        t = np.linspace(0.0, 2.0, 201)
        weighted = _weighted_delta_g(201, 50, eps)
        plain = half_power_weights(200, 0.01)[1:] * plain_delta_g(t[1:], eps, v0)
        drops = [50, 100, 150, 200]
        others = np.setdiff1d(np.arange(1, 201), drops)
        assert_allclose(weighted[others], plain[others - 1], rtol=1e-12)
        assert weighted[0] == 0
        for k, node in enumerate(drops, start=1):
            right = panel_weights(t[node - 1], t[node])[1]
            jump = ROOT_INV_I * np.sqrt(1 / (2 * np.pi)) * (1 / k - 1 / (2 * k))
            assert weighted[node] == pytest.approx(plain[node - 1] + right * jump, rel=1e-12)


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees allocated during ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPdxDeltaPsi:
    def test_peak_memory_at_finest_eps(self):
        # the default pdx scan's finest eps: 3,009 time points, a 6,075-point
        # convolution spectrum multiplied and inverted in place and not held
        # past the convolution, and the crossing term's momenta at k > 0
        # only, 0.684 MB (1.61 MB at the 12,033 points of a step of eps/16),
        # after a first call has imported numpy.fft (0.12 MB more)
        wp, tau, eps_values, xs = scan_geometry(10.0)
        profile = step_profile(xs, tau)
        assert time_points(wp, eps_values[0], tau) == 3_009
        pdx_delta_psi(wp, eps_values[0], tau, xs, profile)
        assert traced_peak(pdx_delta_psi, wp, eps_values[0], tau, xs, profile) < 0.69e6

    def test_norm_decreases_with_eps_in_suppressed_regime(self):
        _, _, e_eps, _, norms = delta_norm_scan(10.0)
        assert norms[e_eps == 0.2] < norms[e_eps == 0.4]

    def test_scan_profile_is_bit_exact(self):
        # one step profile for the whole scan gives the same bits as a
        # profile built afresh for every eps
        wp, tau, eps_values, xs = scan_geometry(10.0)
        norms = delta_norm_scan(10.0)[-1]
        fresh = [np.sqrt(np.trapezoid(
            np.abs(pdx_delta_psi(wp, eps, tau, xs, step_profile(xs, tau))) ** 2, xs))
            for eps in eps_values]
        assert norms.tolist() == fresh

    @pytest.mark.parametrize("p_sigma, bound", [(3.0, 1e-6), (10.0, 1e-12)])
    def test_stretch_before_t0_is_negligible(self, p_sigma, bound):
        # the grid starts up to a step before t = 0, where the packet
        # derivative is held at its t = 0 value; the step profile over
        # tau - t[0] accounts for that stretch of the crossing term exactly.
        # delta_norm moves by 1.3e-7 relative at p sigma = 3 and 1.1e-13 at
        # 10 (delta psi itself by 4.8e-4 and 4.3e-7)
        wp, tau, eps_values, xs = scan_geometry(p_sigma)
        norms = delta_norm_scan(p_sigma)[-1]
        exact = [np.sqrt(np.trapezoid(np.abs(pdx_delta_psi(
            wp, eps, tau, xs, step_profile(xs, tau - time_grid(wp, eps, tau)[0][0])))
            ** 2, xs)) for eps in eps_values]
        assert np.abs(norms / exact - 1).max() <= bound


def pdx_column(p_sigma: float, refine: int = 1) -> np.ndarray:
    """delta_norm of the default pdx scan at ``p_sigma``, on time grids of
    ``refine`` times as many steps per projection interval as
    ``time_grid`` takes."""
    steps = wavepacket._steps_per_projection
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wavepacket, "_steps_per_projection", lambda *args: steps(*args) * refine)
        return delta_norm_scan(p_sigma)[-1]


class TestTimeStep:
    """The time quadrature is second order in its step at every E eps: the
    saw-tooth's drops are nodes taken one-sidedly, so no panel draws a line
    across a jump."""

    @pytest.mark.parametrize("p_sigma", [
        3.0, 10.0, pytest.param(100.0, marks=pytest.mark.slow)])
    def test_default_column_converges_at_second_order(self, p_sigma):
        # against the Richardson (dt^2) value from steps 4 and 8 times finer
        # than the default (eps/16 and eps/32 where eps/4 sets the step):
        # within 9.1e-3, 1.46e-2 and 1.49e-2 at p sigma = 3, 10 and 100, and
        # halving the step shrinks each gap 3.85-4.26 times (7.4e-2 with
        # first-order gaps at a step of eps/16 when a line was drawn across
        # each drop)
        column = {r: pdx_column(p_sigma, r) for r in (1, 2, 4, 8)}
        converged = (4 * column[8] - column[4]) / 3
        gap = {r: np.abs(column[r] / converged - 1) for r in (1, 2)}
        assert gap[1].max() < 2e-2
        assert np.all((3.5 < gap[1] / gap[2]) & (gap[1] / gap[2] < 4.5)), gap[1] / gap[2]


class TestTrigSum:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 513, 1000])
    def test_matches_direct_sum(self, n):
        # odd and even lengths; angles up to 9 rad, beyond pi and 2 pi
        rng = np.random.default_rng(n)
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        theta = np.concatenate([rng.uniform(-9.0, 9.0, 40), [0.0, np.pi, 4.0, -5.0]])
        want = np.exp(1j * np.outer(theta, np.arange(n))) @ c
        got = _trig_sum(c, theta)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.sum(np.abs(c))

    @pytest.mark.parametrize("n_coef, n_angles", [(12_033, 8_288), (8_288, 400), (4_144, 800)])
    def test_matches_direct_sum_at_pdx_sizes(self, n_coef, n_angles):
        # the pdx time sum at p sigma = 40 (12,033 coefficients at 4,144
        # angles; 8,288 on a grid of both signs of k; 3,009 coefficients at
        # the default p sigma = 10) and k -> x transform (4,144 coefficients
        # at 800 angles; 8,288 at 400 on both signs)
        rng = np.random.default_rng(n_coef)
        c = rng.normal(size=n_coef) + 1j * rng.normal(size=n_coef)
        theta = rng.uniform(-9.0, 9.0, n_angles)
        got = _trig_sum(c, theta)
        assert np.max(np.abs(got - direct_trig_sum(c, theta))) <= 1e-11 * np.sum(np.abs(c))

    @pytest.mark.parametrize("n", [1024, 1025])  # oversampling R = 2 and R = 2160/1025
    def test_edge_angles(self, n):
        # grid nodes, +-2 pi, and angles whose remainder mod 2 pi is, or
        # rounds to, 2 pi itself, so that floor(theta / step) reaches M
        n_grid = five_smooth_at_least(2 * n)
        step = 2 * np.pi / n_grid
        nodes = np.array([0, 1, 2, n_grid // 2, n_grid - 2, n_grid - 1]) * step
        below = np.nextafter(2 * np.pi, 0.0)
        theta = np.concatenate([nodes, -nodes, [2 * np.pi, -2 * np.pi, below, -below,
                                                4 * np.pi, -1e-300, -1e-17]])
        assert (np.floor(np.mod(theta, 2 * np.pi) / step) == n_grid).any()
        rng = np.random.default_rng(n)
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        want = np.exp(1j * np.outer(theta, np.arange(n))) @ c
        assert np.max(np.abs(_trig_sum(c, theta) - want)) <= 1e-11 * np.sum(np.abs(c))

    def test_peak_memory_at_pdx_size(self):
        # the 24,300-point grid is transformed in place and read modulo its
        # length, the index array is dropped once gridded, and the stencil is
        # gridded one node offset at a time: 1.12 MB (an N x 24 stencil
        # matrix would peak near 9 MB here, a separate FFT output, index
        # array and wrapped copy at 1.9 MB)
        rng = np.random.default_rng(1)
        c = rng.normal(size=12_033) + 1j * rng.normal(size=12_033)
        theta = rng.uniform(0.0, 4.5, 8_288)
        assert traced_peak(_trig_sum, c, theta) < 1.15e6


class TestCrossingTermOracle:
    """The NUFFT crossing term against the dense phase-matrix sums, on every
    fourth point of the pdx x window at the default p sigma."""

    xs = scan_geometry(10.0)[3][::4]

    @pytest.mark.parametrize(
        "nt, kmax",
        [
            (400, 30.0),  # kmax a multiple of dk, w_k dt up to 1.7
            (150, 30.02),  # kmax not a multiple of dk, w_k dt up to 4.5 > pi
        ],
    )
    def test_matches_dense(self, packet, nt, kmax):
        tau = 1.5
        t = np.linspace(0.0, tau, nt + 1)
        deriv = packet_boundary_derivative(packet, t)
        phi = np.sqrt(1 / (2 * np.pi)) * ROOT_INV_I * np.ones(nt + 1)
        phi[1:] *= absorbing_envelope(2.0, t[1:])
        G = inner_boundary_convolution(half_power_weights(nt, tau / nt) * phi, deriv)
        got = crossing_term(self.xs, tau, G, t, kmax=kmax, dk=0.05,
                            profile=step_profile(self.xs, tau))
        want = dense_crossing_term(self.xs, tau, G, t, kmax=kmax, dk=0.05)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_matches_dense_on_a_grid_from_before_zero(self, packet):
        # pdx's grids end at tau and may start up to a step before t = 0
        tau, nt = 1.5, 400
        t = np.linspace(-0.7 * tau / nt, tau, nt + 1)
        deriv = packet_boundary_derivative(packet, np.maximum(t, 0.0))
        phi = np.sqrt(1 / (2 * np.pi)) * ROOT_INV_I * np.ones(nt + 1)
        phi[1:] *= absorbing_envelope(2.0, t[1:] - t[0])
        G = inner_boundary_convolution(half_power_weights(nt, t[1] - t[0]) * phi, deriv)
        got = crossing_term(self.xs, tau, G, t, kmax=30.0, dk=0.05,
                            profile=step_profile(self.xs, tau - t[0]))
        want = dense_crossing_term(self.xs, tau - t[0], G, t - t[0], kmax=30.0, dk=0.05)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("kmax, dk", [(0.0, 0.05), (30.0, -0.05)])
    def test_rejects_empty_momentum_grid(self, packet, kmax, dk):
        t = np.linspace(0.0, 1.5, 11)
        with pytest.raises(ValueError, match="kmax and dk must be positive"):
            crossing_term(self.xs, 1.5, np.ones(11, dtype=complex), t, kmax, dk,
                          step_profile(self.xs, 1.5))


class TestFreeReconstruction:
    """The decomposition machinery must rebuild exact free evolution when fed
    the free boundary propagator: this pins the overall sign and constant."""

    def test_free_identity(self):
        wp = WavePacket(q=8.0, p=-6.0)
        tau = 2.0
        dt = 2e-4
        nt = int(round(tau / dt))
        t = np.linspace(0.0, tau, nt + 1)
        deriv = packet_boundary_derivative(wp, t)
        phi = np.full(nt + 1, np.sqrt(1 / (2 * np.pi)) * ROOT_INV_I)
        inner = inner_boundary_convolution(half_power_weights(nt, dt) * phi, deriv)
        xg = np.linspace(0.01, 30, 600)
        cross = crossing_term(xg, tau, inner, t, kmax=40.0, dk=0.02,
                              profile=step_profile(xg, tau))
        restricted = free_packet(wp, tau, xg, spreading=True) - free_packet(
            wp, tau, -xg, spreading=True
        )
        recon = restricted + cross
        exact = free_packet(wp, tau, xg, spreading=True)
        err = np.sqrt(np.trapezoid(np.abs(recon - exact) ** 2, xg))
        assert err < 2e-4  # measured 8.75e-5


class TestAbsorbingStepOracle:
    """The exact complex-step solution against its two closed-form limits
    and the branch of q that makes the step absorb."""

    wp = WavePacket(q=8.0, p=-6.0)
    x = np.linspace(0.005, 30.0, 6000)

    def l2(self, values):
        return np.sqrt(np.trapezoid(np.abs(values) ** 2, self.x))

    def test_free_limit(self):
        got = absorbing_step_packet(self.wp, 1e-12, 2.0, self.x)
        want = free_packet(self.wp, 2.0, self.x, spreading=True)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_hard_wall_limit(self):
        image = free_packet(self.wp, 2.0, self.x, spreading=True) - free_packet(
            self.wp, 2.0, -self.x, spreading=True
        )
        gaps = [self.l2(absorbing_step_packet(self.wp, v0, 2.0, self.x) - image)
                for v0 in (1e6, 1e10, 1e14)]
        # R(k) = -1 + 2k/q + ..., |q| ~ sqrt(2 v0): the gap falls as v0^(-1/2)
        assert gaps[0] / gaps[1] == pytest.approx(100.0, rel=0.01)
        assert gaps[1] / gaps[2] == pytest.approx(100.0, rel=0.01)
        assert gaps[2] < 1e-6

    @pytest.mark.parametrize("v0", [1e-3, 2.0, 1e6])
    def test_reflection_below_one(self, v0):
        k = np.linspace(0.0, 50.0, 5001)[1:]
        assert np.all(np.abs(step_reflection(k, 1.0, v0)) < 1.0)


class TestAbsorbingReconstruction:
    """Feeding the absorbing boundary propagator through the decomposition
    must reproduce exact evolution under the complex step potential."""

    def test_matches_exact_step_solution(self):
        wp = WavePacket(q=8.0, p=-6.0)
        v0, tau = 2.0, 2.0
        x = np.linspace(-30.0, 30.0, 12001)
        x = x[x > 0]
        reference = absorbing_step_packet(wp, v0, tau, x)

        dt = 2e-4
        nt = int(round(tau / dt))
        t = np.linspace(0.0, tau, nt + 1)
        deriv = packet_boundary_derivative(wp, t)
        phi = np.sqrt(1 / (2 * np.pi)) * ROOT_INV_I * np.ones(nt + 1)
        phi[1:] *= absorbing_envelope(v0, t[1:])
        inner = inner_boundary_convolution(half_power_weights(nt, dt) * phi, deriv)
        cross = crossing_term(x, tau, inner, t, kmax=40.0, dk=0.02,
                              profile=step_profile(x, tau))
        restricted = free_packet(wp, tau, x, spreading=True) - free_packet(
            wp, tau, -x, spreading=True
        )
        recon = restricted + cross

        diff = np.sqrt(np.trapezoid(np.abs(recon - reference) ** 2, x))
        assert diff < 2e-4  # measured 9.76e-5


class TestSpearmanHelper:
    def test_perfect_and_reversed(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman_rho(a, a * 7) == pytest.approx(1.0)
        assert spearman_rho(a, -a) == pytest.approx(-1.0)
