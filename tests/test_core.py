import bisect
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import QuadratureRule, free_propagator, integrate, quadrature_nodes
from zenoprop.core import (
    Grid1D,
    ROOT_INV_I,
    five_smooth_at_least,
    half_power_weights,
    heat_kernel,
    panel_weights,
    pow2_at_least,
    snap_to_integer,
)


class TestGrid:
    def test_spacing_and_points(self):
        g = Grid1D(1.0, 5)
        assert g.spacing == 0.25
        assert_allclose(g.points(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.all(np.diff(g.points()) > 0)


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

    def test_array_matches_scalar_bit_for_bit(self):
        # array input is evaluated in place in the scalar operation order
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 3.0, 257)
        for m, t, y in [(1.0, 1.0, 0.0), (1.7, 0.3, 0.4), (40.0, 2.5, -1.1)]:
            got = heat_kernel(m, t, x, y)
            want = np.array([heat_kernel(m, t, xi, y) for xi in x])
            assert np.array_equal(got, want)
            assert np.array_equal(heat_kernel(m, t, y, x), want)
        assert isinstance(heat_kernel(1.0, 1.0, 0.5, 0.0), np.float64)
        # and an array of times at one offset, as the recursion divides by it
        t = rng.uniform(0.01, 30.0, (3, 7))
        for m, y in [(1.0, 0.0), (1.7, 0.4)]:
            want = np.array([[heat_kernel(m, float(ti), y, 0.0) for ti in row] for row in t])
            assert np.array_equal(heat_kernel(m, t, y, 0.0), want)


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

    @pytest.mark.parametrize("n_panels, dt", [(0, 0.1), (-1, 0.1), (1, 0.0), (1, -0.1),
                                              (1, float("nan"))])
    def test_rejects_no_panel_and_no_step(self, n_panels, dt):
        with pytest.raises(ValueError):
            half_power_weights(n_panels, dt)

    def test_smooth_integrand(self):
        # int_0^1 u^{-1/2} cos(u) du  (series oracle: sum (-1)^k / (2k)! / (2k+1/2))
        target = sum((-1) ** k / math.factorial(2 * k) / (2 * k + 0.5) for k in range(30))
        n, dt = 400, 1.0 / 400
        w = half_power_weights(n, dt)
        u = np.arange(n + 1) * dt
        assert np.dot(w, np.cos(u)) == pytest.approx(target, abs=1e-6)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1e-3), (1.88, 1.88 + 6.25e-4),
                                        (2.5, 2.5 + 1e-5), (1e4, 1e4 + 1e-9)])
    def test_panel_weights_keep_their_digits(self, lo, hi):
        # the panel's moments of u^-1/2 and u^+1/2 in 50-digit decimals;
        # differenced in floats they lose about 2 hi / (hi - lo) ulp, which
        # was 7e-6 relative at the 262,144th node of a 1e-5 grid
        with localcontext() as ctx:
            ctx.prec = 50
            a, b = Decimal(lo).sqrt(), Decimal(hi).sqrt()
            m0, m1 = 2 * (b - a), Decimal(2) / 3 * (b**3 - a**3)
            width = Decimal(hi) - Decimal(lo)
            want = [(Decimal(hi) * m0 - m1) / width, (m1 - Decimal(lo) * m0) / width]
        got = panel_weights(lo, hi)
        for g, w in zip(got, want):
            assert float(g) == pytest.approx(float(w), rel=4e-16)

    def test_split_panel_sums_to_the_panel(self):
        # a panel cut anywhere: the two parts' weights on a linear function
        # add up to the whole panel's
        lo, hi = 3.0, 3.01
        for cut in (3.0 + 1e-15, 3.004, 3.01 - 1e-15):
            whole = panel_weights(lo, hi)
            first, second = panel_weights(lo, cut), panel_weights(cut, hi)
            f = lambda u: 2.0 - 5.0 * u
            parts = (first[0] * f(lo) + first[1] * f(cut) + second[0] * f(cut)
                     + second[1] * f(hi))
            assert parts == pytest.approx(whole[0] * f(lo) + whole[1] * f(hi), rel=1e-13)


class TestSnapToInteger:
    @pytest.mark.parametrize("k", [1.0, 3.0, 5.0, 1000.0, 12345.0, 2.0**40 + 1])
    def test_eight_roundings(self, k):
        # an ulp of k is between k eps / 2 and k eps, so 8 ulps lie inside
        # SNAP = 8 eps relative and 17 ulps outside it, at every k
        ulp = math.ulp(k)
        near = np.array([k - 8 * ulp, k + 8 * ulp, k])
        far = np.array([k - 17 * ulp, k + 17 * ulp, k + 0.25])
        assert snap_to_integer(near).tolist() == [k, k, k]
        assert snap_to_integer(far).tolist() == far.tolist()

    def test_nothing_snaps_to_zero_but_zero(self):
        x = np.array([0.0, 5e-324, 1e-300, -1e-300, 1e-17])
        assert snap_to_integer(x).tolist() == x.tolist()


class TestTransformLengths:
    def test_five_smooth_against_brute_force(self):
        # every 2^a 3^b 5^c up to 2^15, and the least one at or above each n
        smooth = sorted(2**a * 3**b * 5**c for a in range(16) for b in range(10)
                        for c in range(7) if 2**a * 3**b * 5**c <= 2**15)
        for n in range(10_001):
            want = smooth[bisect.bisect_left(smooth, n)]
            assert five_smooth_at_least(n) == want, n
            assert want <= pow2_at_least(n)

    def test_five_smooth_at_pdx_sizes(self):
        assert five_smooth_at_least(2 * 12_033 - 1) == 24_300
        assert five_smooth_at_least(2 * 3_009 - 1) == 6_075
        assert five_smooth_at_least(2**21) == 2**21

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
    def test_numpy_integers(self, kind):
        # numpy integers have no bit_length; both lengths take any integer
        # and return a Python int
        assert pow2_at_least(kind(1241)) == 2048
        assert five_smooth_at_least(kind(1241)) == 1250
        assert type(pow2_at_least(kind(1241))) is type(five_smooth_at_least(kind(1241))) is int
        with pytest.raises(TypeError):
            five_smooth_at_least(1241.0)

