import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import QuadratureRule, free_propagator, integrate, quadrature_nodes
from zenoprop.core import BoundaryCurve, Grid1D, ROOT_INV_I, half_power_weights, heat_kernel


class TestGrid:
    def test_spacing_and_points(self):
        g = Grid1D(1.0, 5)
        assert g.spacing == 0.25
        assert_allclose(g.points(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.all(np.diff(g.points()) > 0)

    @pytest.mark.parametrize("bad", [dict(x_max=1, n_points=1),
                                     dict(x_max=0, n_points=4),
                                     dict(x_max=-1, n_points=4)])
    def test_rejects_degenerate(self, bad):
        with pytest.raises(ValueError):
            Grid1D(**bad)


class TestQuadrature:
    def test_constant_exact_both_rules(self):
        for kind in ("midpoint", "trapezoid"):
            rule = QuadratureRule(kind, 37)
            nodes = quadrature_nodes(rule, 0.0, 1.0)
            assert integrate(np.ones_like(nodes), rule, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_linear_exact_trapezoid(self):
        rule = QuadratureRule("trapezoid", 10)
        nodes = quadrature_nodes(rule, 0.0, 1.0)
        assert integrate(nodes, rule, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_gaussian_against_erf(self):
        # sqrt(pi)/2 * erf(8) from the error-function oracle
        rule = QuadratureRule("midpoint", 4096)
        nodes = quadrature_nodes(rule, 0.0, 8.0)
        got = integrate(np.exp(-nodes**2), rule, 0.0, 8.0)
        assert got == pytest.approx(math.sqrt(math.pi) / 2 * math.erf(8.0), abs=1e-8)

    def test_length_mismatch(self):
        rule = QuadratureRule("midpoint", 8)
        with pytest.raises(ValueError):
            integrate(np.zeros(9), rule, 0.0, 1.0)
        with pytest.raises(ValueError):
            integrate(np.zeros(8), QuadratureRule("trapezoid", 8), 0.0, 1.0)

    def test_bad_rule(self):
        with pytest.raises(ValueError):
            QuadratureRule("simpson", 4)
        with pytest.raises(ValueError):
            QuadratureRule("midpoint", 0)


class TestHeatKernel:
    def test_coincident_points(self):
        assert heat_kernel(1.0, 1.0, 0.3, 0.3) == pytest.approx((2 * np.pi) ** -0.5)

    def test_far_separation_vanishes(self):
        assert heat_kernel(1.0, 1.0, 0.0, 60.0) == pytest.approx(0.0, abs=1e-300)

    def test_frozen_fixture(self):
        # closed form at m=2, t=0.5, |x-y|=1, evaluated once at 64-bit
        assert heat_kernel(2.0, 0.5, 1.5, 0.5) == pytest.approx(0.10798193302637613, rel=1e-15)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m, t = rng.uniform(0.2, 3.0, 2)
            x, y = rng.normal(0, 2, 2)
            assert heat_kernel(m, t, x, y) == pytest.approx(heat_kernel(m, t, y, x), rel=1e-15)
            assert heat_kernel(m, t, x, y) > 0

    def test_normalisation(self):
        # integral over 8 thermal widths, trapezoid
        m, t = 1.3, 0.7
        width = np.sqrt(t / m)
        y = np.linspace(-8 * width, 8 * width, 20001)
        vals = heat_kernel(m, t, 0.0, y)
        assert np.trapezoid(vals, y) == pytest.approx(1.0, abs=1e-8)

    def test_semigroup(self):
        m, t1, t2 = 1.0, 0.4, 0.9
        z = np.linspace(-12, 12, 24001)
        for x, y in [(0.0, 0.0), (0.5, -0.3), (1.2, 2.0)]:
            lhs = np.trapezoid(heat_kernel(m, t1, x, z) * heat_kernel(m, t2, z, y), z)
            assert lhs == pytest.approx(heat_kernel(m, t1 + t2, x, y), abs=1e-6)

    def test_domain_error(self):
        for bad_t in (0.0, -1.0):
            with pytest.raises(ValueError):
                heat_kernel(1.0, bad_t, 0.0, 0.0)


class TestFreePropagator:
    def test_phase_convention(self):
        got = free_propagator(1.0, 1.0, 0.0, 0.0)
        assert got == pytest.approx((2 * np.pi) ** -0.5 * ROOT_INV_I)

    def test_unimodular_exponent(self):
        vals = free_propagator(1.0, 2.0, np.array([0.0, 0.7, 5.0, -3.0]), 0.0)
        assert_allclose(np.abs(vals), (4 * np.pi) ** -0.5, rtol=1e-14)

    def test_time_reversal_conjugation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m, t = rng.uniform(0.2, 3.0, 2)
            x, y = rng.normal(0, 2, 2)
            assert free_propagator(m, -t, x, y) == pytest.approx(
                np.conjugate(free_propagator(m, t, x, y)), rel=1e-14
            )

    def test_distributional_time_rejected(self):
        with pytest.raises(ValueError):
            free_propagator(1.0, 0.0, 0.0, 1.0)


class TestHalfPowerWeights:
    def test_reproduces_power_integrals(self):
        # int_0^1 u^{-1/2} * u du = 2/3 exactly for the piecewise-linear rule
        n, dt = 200, 1.0 / 200
        w = half_power_weights(n, dt)
        u = np.arange(n + 1) * dt
        assert np.dot(w, u) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert np.dot(w, np.ones_like(u)) == pytest.approx(2.0, rel=1e-14)

    def test_smooth_integrand(self):
        # int_0^1 u^{-1/2} cos(u) du  (series oracle: sum (-1)^k / (2k)! / (2k+1/2))
        target = sum((-1) ** k / math.factorial(2 * k) / (2 * k + 0.5) for k in range(30))
        n, dt = 400, 1.0 / 400
        w = half_power_weights(n, dt)
        u = np.arange(n + 1) * dt
        assert np.dot(w, np.cos(u)) == pytest.approx(target, abs=1e-6)


class TestBoundaryCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundaryCurve(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            BoundaryCurve(np.array([1.0, 0.5]), np.array([1.0, 2.0]))

    def test_window(self):
        c = BoundaryCurve(np.array([0.0, 1.0, 2.0, 3.0]), np.arange(4.0))
        w = c.window(0.5, 2.5)
        assert_allclose(w.times, [1.0, 2.0])
