import inspect

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    dense_crossing_term,
    evolve_step_potential_richardson,
    free_evolution_quadrature,
    free_packet,
    spearman_rho,
)
from zenoprop.exact import absorbing_envelope
from zenoprop.sawtooth import sawtooth_envelope
from zenoprop.wavepacket import (
    WavePacket,
    _trig_sum,
    crossing_density,
    crossing_term,
    delta_norm_scan,
    inner_boundary_convolution,
    normalized_crossing_density,
    packet_boundary_derivative,
    stationary_delta_g,
    suppression_factor,
)

ROOT_INV_I = np.exp(-1j * np.pi / 4)


@pytest.fixture
def packet():
    return WavePacket(q=-10.0, p=10.0, sigma=1.0, m=1.0)


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
            assert got == pytest.approx(packet.q + packet.p * t / packet.m, abs=0.01)

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
            packet.m, t, x_out, packet.q - 14, packet.q + 14, n_nodes=24000,
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

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WavePacket(q=0.0, p=1.0, sigma=0.0)


class TestBoundaryDerivative:
    def test_far_packet_negligible(self):
        wp = WavePacket(q=-50.0, p=1.0, sigma=1.0)
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
        a = 1.0 / (4 * packet.sigma**2)
        beta0 = 2 * a * packet.q + 1j * packet.p
        want = np.empty(len(t), dtype=complex)
        for i, tt in enumerate(t):
            psi0 = free_packet(packet, float(tt), np.array(0.0), spreading=True)
            if tt == 0:
                want[i] = psi0 * beta0
            else:
                b = packet.m / (2 * tt)
                want[i] = psi0 * (-1j * b * beta0 / (a - 1j * b))
        got = packet_boundary_derivative(packet, t)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
        assert packet_boundary_derivative(packet, 0.0) == want[0]
        assert isinstance(packet_boundary_derivative(packet, 0.5), complex)

    def test_crossing_instant_dominated_by_momentum(self, packet):
        # packet centred on the origin: its envelope is stationary there, so
        # the derivative is exactly i p psi, spreading included
        t_c = -packet.q * packet.m / packet.p
        d = packet_boundary_derivative(packet, t_c)
        psi0 = free_packet(packet, t_c, np.array(0.0), spreading=True)
        assert d == pytest.approx(1j * packet.p * complex(psi0), rel=1e-12)

    def test_zeno_time(self, packet):
        assert packet.zeno_time == pytest.approx(0.1)
        assert packet.energy == pytest.approx(50.0)


class TestSuppressionFactor:
    def test_resonance_point_unsuppressed(self, packet):
        eps = 1.0 / packet.energy
        assert suppression_factor(packet, eps) == pytest.approx(1.0)

    def test_small_eps_substitution(self, packet):
        expo = -((packet.zeno_time / 0.01) ** 2) * (packet.energy * 0.01 - 1) ** 2
        assert suppression_factor(packet, 0.01) == pytest.approx(np.exp(expo), rel=1e-12)
        # slow packet where E eps << 1 at eps = t_Z/10: essentially e^(-100)
        slow = WavePacket(q=-10.0, p=0.6, sigma=1.0)
        assert suppression_factor(slow, slow.zeno_time / 10) < 1e-40

    def test_validation(self, packet):
        with pytest.raises(ValueError):
            suppression_factor(packet, 0.0)


class TestCrossingDistributions:
    def test_normalisation(self, packet):
        t_c = -packet.q * packet.m / packet.p
        tau = np.linspace(1e-6, 2.5 * t_c, 4000)
        pn = normalized_crossing_density(packet, tau)
        assert np.all(pn >= 0)
        assert np.trapezoid(pn, tau) == pytest.approx(1.0, abs=1e-6)

    def test_peak_near_classical_arrival(self, packet):
        t_c = -packet.q * packet.m / packet.p
        tau = np.linspace(0.5, 1.5, 2001)
        pn = normalized_crossing_density(packet, tau)
        spread = packet.sigma * packet.m / packet.p
        assert abs(tau[np.argmax(pn)] - t_c) < spread

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
        wp = WavePacket(q=10.0, p=-3.0, sigma=1.0)
        with pytest.raises(ValueError):
            normalized_crossing_density(wp, 1.0)


class TestDeltaG:
    def test_model_values(self):
        eps, v0, m = 0.5, 8 / 3, 1.0
        t = np.linspace(0.0, 2.0, 201)
        phi = stationary_delta_g(t, eps, v0, m)
        # spot check one interior point against the definition, with the
        # u^{-1/2} of g_absorbing peeled off: sqrt(u) S(u) g_absorbing(u)
        u = t[150]
        s = sawtooth_envelope(eps, u) / absorbing_envelope(v0, u) - 1
        gv = ROOT_INV_I * np.sqrt(m / (2 * np.pi * u)) * absorbing_envelope(v0, u)
        assert phi[150] == pytest.approx(np.sqrt(u) * s * gv, rel=1e-12)
        assert phi[0] == 0

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            stationary_delta_g(np.linspace(-0.1, 1, 12), 0.5, 1.0)


class TestPdxDeltaPsi:
    def test_norm_decreases_with_eps_in_suppressed_regime(self, packet):
        t_c = -packet.q * packet.m / packet.p
        tau = 1.4 * t_c
        xs = np.linspace(0.05, 25.0, 240)
        eps_values = np.array([0.2, 0.4]) / packet.energy
        norms, _ = delta_norm_scan(packet, eps_values, tau, xs)
        assert norms[0] < norms[1]


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


class TestCrossingTermOracle:
    """The NUFFT crossing term against the dense phase-matrix sums."""

    @pytest.mark.parametrize(
        "nt, kmax",
        [
            (400, 30.0),  # k = 0 on the grid, w_k dt up to 1.7
            (150, 30.02),  # k = 0 off the grid, w_k dt up to 4.5 > pi
        ],
    )
    def test_matches_dense(self, packet, nt, kmax):
        tau = 1.5
        t = np.linspace(0.0, tau, nt + 1)
        deriv = packet_boundary_derivative(packet, t)
        phi = np.sqrt(packet.m / (2 * np.pi)) * ROOT_INV_I * np.ones(nt + 1)
        phi[1:] *= absorbing_envelope(2.0, t[1:])
        G = inner_boundary_convolution(phi, deriv, tau / nt)
        xs = np.linspace(0.05, 25.0, 90)
        got = crossing_term(xs, tau, G, t, packet.m, kmax=kmax, dk=0.05)
        want = dense_crossing_term(xs, tau, G, t, packet.m, kmax=kmax, dk=0.05)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestFreeReconstruction:
    """The decomposition machinery must rebuild exact free evolution when fed
    the free boundary propagator: this pins the overall sign and constant."""

    def test_free_identity(self):
        wp = WavePacket(q=8.0, p=-6.0, sigma=1.0, m=1.0)
        tau = 2.0
        dt = 2e-4
        nt = int(round(tau / dt))
        t = np.linspace(0.0, tau, nt + 1)
        deriv = packet_boundary_derivative(wp, t)
        phi = np.full(nt + 1, np.sqrt(wp.m / (2 * np.pi)) * ROOT_INV_I)
        inner = inner_boundary_convolution(phi, deriv, dt)
        xg = np.linspace(0.01, 30, 600)
        cross = crossing_term(xg, tau, inner, t, wp.m, kmax=40.0, dk=0.02)
        restricted = free_packet(wp, tau, xg, spreading=True) - free_packet(
            wp, tau, -xg, spreading=True
        )
        recon = restricted + cross
        exact = free_packet(wp, tau, xg, spreading=True)
        err = np.sqrt(np.trapezoid(np.abs(recon - exact) ** 2, xg))
        assert err < 5e-4


class TestAbsorbingReconstruction:
    """Feeding the absorbing boundary propagator through the decomposition
    must reproduce direct evolution under the complex step potential."""

    @pytest.mark.slow
    def test_matches_crank_nicolson(self):
        wp = WavePacket(q=8.0, p=-6.0, sigma=1.0, m=1.0)
        v0, tau, m = 2.0, 2.0, 1.0
        x = np.linspace(-30.0, 30.0, 12001)
        reference = evolve_step_potential_richardson(
            lambda xx: free_packet(wp, 0.0, xx, spreading=True), v0, m, tau, x, dt=4e-4
        )

        dt = 2e-4
        nt = int(round(tau / dt))
        t = np.linspace(0.0, tau, nt + 1)
        deriv = packet_boundary_derivative(wp, t)
        phi = np.sqrt(m / (2 * np.pi)) * ROOT_INV_I * np.ones(nt + 1)
        phi[1:] *= absorbing_envelope(v0, t[1:])
        inner = inner_boundary_convolution(phi, deriv, dt)
        sel = x > 0
        cross = crossing_term(x[sel], tau, inner, t, m, kmax=40.0, dk=0.02)
        restricted = free_packet(wp, tau, x[sel], spreading=True) - free_packet(
            wp, tau, -x[sel], spreading=True
        )
        recon = restricted + cross

        diff = np.sqrt(np.trapezoid(np.abs(recon - reference[sel]) ** 2, x[sel]))
        assert diff < 1e-3


class TestSpearmanHelper:
    def test_perfect_and_reversed(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman_rho(a, a * 7) == pytest.approx(1.0)
        assert spearman_rho(a, -a) == pytest.approx(-1.0)
