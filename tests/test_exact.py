from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    baxter_envelope,
    chain_integral,
    dawson,
    final_gap_ratio,
    free_propagator,
    free_propagator_boundary_derivative,
    half_value_ratio,
    restricted_propagator,
    weighted_baxter_envelope,
)
from zenoprop.exact import (
    _tanh_sinh_rule,
    absorbing_envelope,
    bridge_orthant,
    projected_envelope_exact,
    time_averaged_envelope,
)


class TestRestrictedPropagator:
    def test_vanishes_on_boundary(self):
        assert restricted_propagator(1.0, 1.0, 0.0, 1.0) == 0
        assert restricted_propagator(1.0, 1.0, 1.0, 0.0) == 0
        assert restricted_propagator(1.0, 1.0, -0.5, 1.0) == 0

    def test_direct_substitution(self):
        got = restricted_propagator(1.0, 1.0, 1.0, 1.0)
        want = (2 * np.pi) ** -0.5 * np.exp(-1j * np.pi / 4) * (1 - np.exp(2j))
        assert got == pytest.approx(want, rel=1e-14)

    def test_satisfies_schrodinger_equation(self):
        # finite-difference residual of i dg/dt = -(1/2m) d2g/dx1^2 shrinks at
        # second order in the step
        m, t, x1, x0 = 1.0, 0.8, 1.3, 0.9

        def residual(h):
            dt_ = (restricted_propagator(m, t + h, x1, x0)
                   - restricted_propagator(m, t - h, x1, x0)) / (2 * h)
            dxx = (restricted_propagator(m, t, x1 + h, x0)
                   - 2 * restricted_propagator(m, t, x1, x0)
                   + restricted_propagator(m, t, x1 - h, x0)) / h**2
            return abs(1j * dt_ + dxx / (2 * m))

        r1, r2 = residual(1e-3), residual(5e-4)
        assert r1 < 1e-4
        assert r2 < r1 / 3  # ~4x reduction expected

    def test_time_domain_error(self):
        with pytest.raises(ValueError):
            restricted_propagator(1.0, 0.0, 1.0, 1.0)

    def test_boundary_derivative_is_twice_free(self):
        # the image term doubles the normal derivative on the boundary; the
        # restricted propagator is odd in x0, so its one-sided difference
        # quotient at x0 = 0 is a central one
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(20):
            m, t = rng.uniform(0.5, 2.0, 2)
            x1 = rng.uniform(0.1, 4.0)
            fd = (restricted_propagator(m, t, x1, h) - restricted_propagator(m, t, x1, 0.0)) / h
            want = 2 * free_propagator_boundary_derivative(m, t, x1)
            assert fd == pytest.approx(want, rel=1e-8)

    def test_boundary_derivative_matches_finite_difference(self):
        m, t, x1, h = 1.0, 0.7, 1.1, 1e-6
        fd = (free_propagator(m, t, x1, h) - free_propagator(m, t, x1, -h)) / (2 * h)
        assert free_propagator_boundary_derivative(m, t, x1) == pytest.approx(fd, rel=1e-8)


class TestAbsorbingBoundary:
    def test_short_time_limit(self):
        assert absorbing_envelope(2.0, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_log_two_point(self):
        v0 = 2.0
        assert absorbing_envelope(v0, np.log(2) / v0) == pytest.approx(
            1 / (2 * np.log(2)), rel=1e-14
        )

    def test_long_time_asymptote(self):
        v0, t = 1.0, 50.0
        assert absorbing_envelope(v0, t) == pytest.approx(1 / (v0 * t), rel=1e-12)

    def test_monotone_decreasing(self):
        t = np.linspace(0.01, 30, 4000)
        vals = absorbing_envelope(4 / 3, t)
        assert np.all(np.diff(vals) < 0)
        assert np.all((vals > 0) & (vals <= 1))

    def test_propagator_limits(self):
        # total absorption kills the boundary amplitude, none leaves it free
        assert absorbing_envelope(1e9, 1.0) < 1e-8
        assert absorbing_envelope(1e-9, 1.0) == pytest.approx(1.0, rel=1e-8)

    def test_frozen_modulus(self):
        # m=1, v0=4/3, t=1: (2 pi)^(-1/2) (1-e^(-4/3))/(4/3), frozen at 64-bit
        got = abs(free_propagator(1.0, 1.0, 0.0, 0.0)) * absorbing_envelope(4 / 3, 1.0)
        assert got == pytest.approx(0.2203366777606899, rel=1e-14)

    def test_modulus_monotone_in_time(self):
        t = np.linspace(0.05, 20, 500)
        mods = [abs(free_propagator(1.0, tt, 0.0, 0.0)) * absorbing_envelope(4 / 3, tt) for tt in t]
        assert np.all(np.diff(mods) < 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            absorbing_envelope(0.0, 1.0)
        with pytest.raises(ValueError):
            absorbing_envelope(1.0, -1.0)


def chain(signs: str, intervals) -> float:
    """T_signs in closed form: the bridge orthant over the constrained
    instants (a '0' leaves its instant free), divided by sqrt(total)."""
    times = np.cumsum(intervals[:-1])
    total = float(np.sum(intervals))
    kept = [i for i, sign in enumerate(signs) if sign != "0"]
    return bridge_orthant(
        times[kept], total, [1 if signs[i] == "+" else -1 for i in kept]
    ) / np.sqrt(total)


class TestChainClosedForms:
    def test_equal_interval_values(self):
        eps = 1.7
        assert chain("++", (eps, eps, eps)) == pytest.approx(
            1 / (3 * np.sqrt(3 * eps)), rel=1e-14
        )
        assert chain("+-", (eps, eps, eps)) == pytest.approx(
            1 / (6 * np.sqrt(3 * eps)), rel=1e-14
        )

    def test_symmetry_in_outer_intervals(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            e1, e2, e3 = rng.uniform(0.2, 3.0, 3)
            assert chain("++", (e1, e2, e3)) == pytest.approx(
                chain("++", (e3, e2, e1)), rel=1e-14
            )

    def test_marginalisation_sum(self):
        # removing the middle constraint: ++ plus +- = 1/(2 sqrt(total))
        rng = np.random.default_rng(6)
        for _ in range(30):
            e = rng.uniform(0.2, 3.0, 3)
            total = e.sum()
            got = chain("++", e) + chain("+-", e)
            assert got == pytest.approx(1 / (2 * np.sqrt(total)), abs=1e-10)
        assert chain("++", (1, 2, 3)) + chain("+-", (1, 2, 3)) == pytest.approx(
            1 / (2 * np.sqrt(6)), rel=1e-13
        )

    def test_wide_middle_decoupling(self):
        # e2 -> inf: the two half-line integrals decouple to 1/(4 sqrt(e2))
        big = 1e8
        assert chain("++", (1.0, big, 1.0)) == pytest.approx(
            1 / (4 * np.sqrt(big)), rel=1e-6
        )
        # quadrature oracle confirms the closed form on the way out
        mid = 25.0
        assert chain_integral("++", (1.0, mid, 1.0)) == pytest.approx(
            chain("++", (1.0, mid, 1.0)), abs=1e-6
        )

    def test_reconstructed_triple(self):
        # Sheppard's n = 3 form against n = 2 through the marginalisation and
        # reflection identity 2 T_+++ = T_+0+ + T_++0 - T_0+-
        for eps in (0.5, 1.0, 2.3):
            e = (eps,) * 4
            ppp = chain("+++", e)
            assert 2 * ppp == pytest.approx(
                chain("+0+", e) + chain("++0", e) - chain("0+-", e), abs=1e-14
            )
            assert ppp == pytest.approx(1 / (4 * np.sqrt(4 * eps)), abs=1e-12)

    def test_rejects_nonpositive_intervals(self):
        with pytest.raises(ValueError):
            chain("++", (1.0, 0.0, 1.0))
        for times, t in [((0.0, 1.0), 2.0), ((1.0, 3.0), 2.0), ((), 0.0)]:
            with pytest.raises(ValueError):
                bridge_orthant(times, t)
        with pytest.raises(ValueError):
            bridge_orthant((1.0, 2.0, 3.0, 4.0), 5.0)
        with pytest.raises(ValueError):
            bridge_orthant((1.0, 2.0), 3.0, (1,))

    def test_coincidence_right_limit(self):
        # a last instant at t halves the envelope without it
        assert bridge_orthant((1.0,), 1.0) == 0.5
        assert bridge_orthant((1.0, 2.0), 2.0) == pytest.approx(0.25, abs=1e-16)
        assert bridge_orthant((1.0, 2.0, 3.0), 3.0) == pytest.approx(1 / 6, abs=1e-16)

    def test_broadcasting(self):
        t1 = np.linspace(0.1, 0.9, 5)
        t = np.array([[1.5], [2.5]])
        got = bridge_orthant((t1, 1.0), t, (1, -1))
        assert got.shape == (2, 5)
        for (i, j), value in np.ndenumerate(got):
            assert value == bridge_orthant((t1[j], 1.0), t[i, 0], (1, -1))
        assert bridge_orthant((), np.ones(3)).tolist() == [1.0, 1.0, 1.0]


ordered_instants = st.lists(
    st.floats(0.01, 10.0, allow_nan=False), min_size=2, max_size=4
).map(lambda gaps: (np.cumsum(gaps[:-1]), float(np.sum(gaps))))


class TestBridgeOrthantProperties:
    """Gaussian-orthant identities over random ordered instants, n <= 3."""

    @settings(max_examples=60, deadline=None)
    @given(ordered_instants)
    def test_sign_strings_sum_to_one(self, instants):
        times, t = instants
        total = sum(bridge_orthant(times, t, s) for s in product((1, -1), repeat=len(times)))
        assert total == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(ordered_instants, st.data())
    def test_global_sign_flip(self, instants, data):
        times, t = instants
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=len(times),
                                   max_size=len(times)))
        assert bridge_orthant(times, t, signs) == bridge_orthant(times, t, [-s for s in signs])

    @settings(max_examples=60, deadline=None)
    @given(ordered_instants, st.data())
    def test_time_reversal(self, instants, data):
        times, t = instants
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=len(times),
                                   max_size=len(times)))
        reversed_value = bridge_orthant(t - times[::-1], t, signs[::-1])
        assert bridge_orthant(times, t, signs) == pytest.approx(reversed_value, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(ordered_instants, st.data())
    def test_marginalising_one_instant(self, instants, data):
        times, t = instants
        n = len(times)
        k = data.draw(st.integers(0, n - 1))
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        both = sum(bridge_orthant(times, t, signs[:k] + [s] + signs[k + 1:]) for s in (1, -1))
        without = bridge_orthant(np.delete(times, k), t, signs[:k] + signs[k + 1:])
        assert both == pytest.approx(without, abs=1e-12)


class TestChainBruteForce:
    def test_one_constraint_half(self):
        # single projection: exactly half the free result
        got = chain_integral("+", (1.0, 0.7))
        assert got == pytest.approx(0.5 / np.sqrt(1.7), abs=1e-9)

    def test_matches_closed_form_pp(self):
        got = chain_integral("++", (1.0, 1.0, 1.0))
        assert got == pytest.approx(chain("++", (1, 1, 1)), abs=1e-6)

    def test_matches_closed_form_mixed_triple(self):
        # unequal intervals and mixed signs: Sheppard's n = 3 form
        e = (0.7, 1.3, 0.4, 0.9)
        assert chain_integral("+-+", e, refine=True) == pytest.approx(
            chain("+-+", e), abs=1e-7
        )

    def test_matches_closed_form_pm_unequal(self):
        # frozen from the arctan closed form
        got = chain_integral("+-", (2.0, 1.0, 2.0))
        assert got == pytest.approx(0.05986411761519338, abs=1e-6)

    def test_middle_marginal_equals_merged(self):
        # "0" in the middle merges the adjacent intervals
        got = chain_integral("+0+", (1.0, 1.0, 1.0, 1.0), panels=256, refine=True)
        assert got == pytest.approx(chain("++", (1.0, 2.0, 1.0)), abs=2e-6)

    def test_equal_time_unequal_probe(self):
        got = chain_integral("++", (1.0, 2.0, 1.0))
        assert got == pytest.approx(0.1520433619923482, abs=1e-6)

    def test_reflection_symmetry(self):
        # flipping every sign leaves the integral unchanged (grids mirror exactly)
        for signs, flipped in [("+-", "-+"), ("+0-", "-0+"), ("++-", "--+")]:
            a = chain_integral(signs, (1.0, 0.8, 1.2) if len(signs) == 2 else (1.0, 0.8, 1.2, 0.9),
                               panels=128)
            b = chain_integral(flipped, (1.0, 0.8, 1.2) if len(signs) == 2 else (1.0, 0.8, 1.2, 0.9),
                               panels=128)
            assert a == pytest.approx(b, rel=1e-12)

    def test_time_reversal_symmetry(self):
        a = chain_integral("++-", (1.0, 1.0, 1.0, 1.0), panels=192)
        b = chain_integral("-++", (1.0, 1.0, 1.0, 1.0), panels=192)
        assert a == pytest.approx(b, abs=1e-6)

    def test_triple_identity(self):
        # 2 T_+++ = T_+0+ + T_++0 - T_0+- at equal intervals
        e = (1.0, 1.0, 1.0, 1.0)
        t_ppp = chain_integral("+++", e, refine=True)
        t_p0p = chain_integral("+0+", e, panels=256, refine=True)
        t_pp0 = chain_integral("++0", e, panels=256, refine=True)
        t_0pm = chain_integral("0+-", e, panels=256, refine=True)
        assert 2 * t_ppp == pytest.approx(t_p0p + t_pp0 - t_0pm, abs=1e-6)
        assert t_ppp == pytest.approx(1 / (4 * np.sqrt(4.0)), abs=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            chain_integral("++++", (1,) * 5)
        with pytest.raises(ValueError):
            chain_integral("+x", (1, 1, 1))
        with pytest.raises(ValueError):
            chain_integral("++", (1, 1))


class TestExactEnvelopes:
    def test_case_table(self):
        assert projected_envelope_exact(0.5, 0) == 1.0
        assert projected_envelope_exact(1.5, 1) == 0.5
        # two-projection peak: arctan(1/sqrt(3)) = pi/6 gives exactly 1/3
        assert projected_envelope_exact(3.0, 2) == pytest.approx(1 / 3, rel=1e-14)
        assert projected_envelope_exact(2.0, 2) == pytest.approx(0.25, rel=1e-14)
        assert projected_envelope_exact(4.0, 3) == 0.25
        # three projections cover all of 3 <= s <= 4: 1/6 just after the drop
        assert projected_envelope_exact(3.0, 3) == pytest.approx(1 / 6, rel=1e-14)
        assert 1 / 6 < projected_envelope_exact(3.5, 3) < 0.25

    def test_matches_chain_language(self):
        # two projections at 2 eps <= t < 3 eps equal sqrt(t) T_++(eps, eps, t-2eps),
        # whose arctan form is (1/4)(1 + (2/pi) arctan sqrt((t - 2 eps)/t))
        eps, t = 1.0, 2.6
        arctan_form = 0.25 * (1 + (2 / np.pi) * np.arctan(np.sqrt((t - 2 * eps) / t)))
        assert projected_envelope_exact(t, 2) == pytest.approx(arctan_form, rel=1e-13)
        oracle = np.sqrt(t) * chain_integral("++", (eps, eps, t - 2 * eps))
        assert projected_envelope_exact(t, 2) == pytest.approx(oracle, abs=1e-6)

    def test_full_amplitude(self):
        # the real-time amplitude is the envelope times (m / 2 pi i t)^(1/2)
        got = free_propagator(1.0, 3.0, 0.0, 0.0) * projected_envelope_exact(3.0, 2)
        assert got == pytest.approx(np.sqrt(1 / (2j * np.pi * 3.0)) / 3, rel=1e-12)

    def test_unsupported_combinations(self):
        # s on either side of its interval, more than three projections, and
        # s = 0
        for s, n_proj, message in [
            (2.5, 1, "holds on"), (4.5, 3, "holds on"), (1.5, 2, "holds on"),
            (1.0, 4, "holds on"), (0.5, -1, "holds on"), (4.5, 4, "at most 3 instants"), (0.0, 0, "0 < t_1"),
        ]:
            with pytest.raises(ValueError, match=message):
                projected_envelope_exact(s, n_proj)


class TestBaxterEnvelope:
    """The grid-free Spitzer-Baxter envelope against what is known exactly:
    Dawson's function at both ends, the peaks 1/(k+1) and the closed forms
    of up to three projections."""

    def test_dawson_series(self):
        # Maclaurin sum_n (-2)^n x^(2n+1) / (2n+1)!! below 0.5, and the
        # asymptotic sum_n (2n-1)!! / (2^(n+1) x^(2n+1)) above 50
        x = np.linspace(0.0, 0.5, 101)
        maclaurin = sum((-2.0) ** n * x ** (2 * n + 1) / np.prod(np.arange(1, 2 * n + 2, 2))
                        for n in range(30))
        assert_allclose(dawson(x), maclaurin, rtol=0, atol=5e-16)
        x = np.geomspace(50.0, 1e4, 50)
        asymptotic = sum(np.prod(np.arange(1, 2 * n, 2)) / (2 ** (n + 1) * x ** (2 * n + 1))
                         for n in range(8))
        assert_allclose(dawson(x), asymptotic, rtol=2e-15)

    def test_peaks(self):
        k = np.arange(101)
        peaks = baxter_envelope(100, 1.0)[:, 0]
        assert np.max(np.abs(peaks - 1 / (k + 1))) < 1e-13

    def test_closed_forms(self):
        # f(k + theta) for k <= 3 is the Brownian-bridge orthant
        theta = np.arange(1, 65) / 64
        got = baxter_envelope(3, theta)
        for k in range(4):
            want = [projected_envelope_exact(k + th, k) for th in theta]
            assert_allclose(got[k], want, rtol=0, atol=1e-14)

    def test_offsets_must_lie_in_the_interval(self):
        for theta in (0.0, 1.5, np.nan):
            with pytest.raises(ValueError, match=r"offsets must lie in \(0, 1\]"):
                baxter_envelope(2, [0.5, theta])


def sign_weighted_envelope(k: int, s: float, mu: float) -> float:
    """The envelope at s = t/eps after partial projections theta(x) +
    mu theta(-x) at s = 1 .. k <= 3: the Brownian bridge's orthant
    probabilities summed over sign patterns, each weighted mu^(negatives)."""
    times = np.arange(1.0, k + 1)
    return sum(mu ** signs.count(-1) * bridge_orthant(times, s, signs)
               for signs in product((1, -1), repeat=k))


def partial_peak_law(k, mu):
    """The peak before drop k + 1 under partial projections: the number of
    negative checkpoints there is uniform on 0..k (Sparre Andersen), so the
    peak is the mean of mu^j, (1 - mu^(k+1)) / ((k+1)(1 - mu))."""
    return (1 - mu ** (k + 1)) / ((k + 1) * (1 - mu))


class TestPartialProjections:
    """Each projection replaced by theta(x) + mu theta(-x): the
    Spitzer-Baxter envelope with mu^n on the negative half-line's part."""

    MUS = (0.0, 0.3, 0.5, 0.9)

    @pytest.mark.parametrize("mu", MUS)
    def test_peak_law(self, mu):
        # measured at most 1.1e-15
        peaks = baxter_envelope(40, 1.0, mu)[:, 0]
        assert_allclose(peaks, partial_peak_law(np.arange(41), mu), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("mu", MUS)
    def test_sign_weighted_orthants(self, mu):
        # measured at most 3.3e-16
        theta = np.array([0.25, 0.5, 1.0])
        got = baxter_envelope(3, theta, mu)
        for k in range(4):
            want = [sign_weighted_envelope(k, k + th, mu) for th in theta]
            assert_allclose(got[k], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("mu", MUS)
    def test_each_drop_keeps_one_plus_mu_over_two(self, mu):
        # at a coincident checkpoint the bridge's sign is fair: the sign
        # sums give the right limit exactly (measured within 1.1e-16), and
        # the Spitzer-Baxter envelope at offsets 1e-6 and 4e-6, extrapolated
        # in sqrt(offset), within 2.6e-7 through k = 40
        for k in (1, 2, 3):
            before = sign_weighted_envelope(k - 1, k, mu)
            assert sign_weighted_envelope(k, k, mu) == pytest.approx((1 + mu) / 2 * before,
                                                                     rel=0, abs=1e-15)
        for k in (5, 20, 40):
            envelope = baxter_envelope(k, [1e-6, 4e-6, 1.0], mu)
            (near, far), before = envelope[k, :2], envelope[k - 1, 2]
            assert (2 * near - far) / before == pytest.approx((1 + mu) / 2, rel=0, abs=1e-6)

    @pytest.mark.parametrize("mu", MUS)
    def test_two_projection_time_average(self, mu):
        # the average over two projection instants on the unit interval is
        # the mean of mu^j over j uniform on 0, 1, 2, (1 + mu + mu^2)/3
        # (measured within 2.2e-16), by the sign sums on the tanh-sinh
        # simplex rule of time_averaged_envelope, whose 1/3 is mu = 0
        x, w = _tanh_sinh_rule()
        t = x[:, None]
        values = sum(mu ** signs.count(-1) * bridge_orthant((x * t, t), 1.0, signs)
                     for signs in product((1, -1), repeat=2))
        average = 2.0 * ((w * x)[:, None] * values * w).sum()
        assert average == pytest.approx((1 + mu + mu * mu) / 3, rel=0, abs=1e-15)

    @pytest.mark.parametrize("mu", (0.9, 0.99, 0.999))
    def test_absorbing_envelope_is_the_limit_mu_to_one(self, mu):
        # at v0 eps = -ln mu the envelope over s <= 21 lies within about
        # (1 - mu)/2 of the absorbing one, relatively: measured 0.0536,
        # 0.00503 and 0.000500, rates 0.536, 0.5034 and 0.50033 of 1 - mu
        theta = np.arange(1, 65) / 64
        s = np.arange(21)[:, None] + theta
        ratio = baxter_envelope(20, theta, mu) / absorbing_envelope(-np.log(mu), s)
        rate = np.abs(ratio - 1).max() / (1 - mu)
        assert 0.5 <= rate <= 0.5 + 0.4 * (1 - mu)

    @pytest.mark.parametrize("mu", MUS[1:])
    def test_weight_mu_per_checkpoint_misses_the_law(self, mu):
        # the weight mu on every n-step transform, in place of mu^n, agrees
        # at k = 1, where the two coincide, and then misses the peak law by
        # 0.14, 0.25 and 0.56 at the worst k <= 40
        law = partial_peak_law(np.arange(41), mu)
        naive = weighted_baxter_envelope(40, 1.0, np.full(40, mu))[:, 0]
        assert naive[1] == pytest.approx(law[1], abs=1e-14)
        assert np.abs(naive - law).max() >= 0.05


class TestHalfValueDrop:
    def test_one_projection_exact(self):
        # constant: the single-projection envelope is one half at any gap
        for gap in (0.5, 0.1, 0.01):
            assert final_gap_ratio(1.0, 1, gap) == 0.5

    def test_two_projection_sweep_extrapolates_to_half(self):
        for n_proj in (2, 3):
            ratios, limit = half_value_ratio(1.0, n_proj)
            assert np.all(np.diff(ratios) < 0)  # monotone approach from above
            assert limit == pytest.approx(0.5, abs=1e-3)

    def test_three_projection_ratio_approaches_half(self):
        gap = 1.0 / 64
        got = final_gap_ratio(1.0, 3, gap)
        assert got == pytest.approx(0.5, abs=0.04)
        oracle = chain_integral("+++", (1.0, 1.0, 1.0, gap), refine=True) / chain_integral(
            "++", (1.0, 1.0, 1.0 + gap)
        )
        assert got == pytest.approx(oracle, abs=1e-5)

    def test_case_table_drops(self):
        # analytic drops across projections: 1 -> 1/2 and 1/3 -> 1/6
        assert projected_envelope_exact(1.0, 1) / projected_envelope_exact(1.0, 0) == 0.5
        peak = projected_envelope_exact(3.0, 2)
        assert peak == pytest.approx(1 / 3, rel=1e-12)
        # trough after the drop at 3 eps is half the peak: 1/6

    def test_validation(self):
        with pytest.raises(ValueError):
            final_gap_ratio(1.0, 4, 0.1)
        with pytest.raises(ValueError):
            final_gap_ratio(1.0, 2, 0.0)


class TestTimeAveraged:
    def test_single_projection_exact_half(self):
        assert time_averaged_envelope(1) == 0.5

    def test_two_projections_third(self):
        assert time_averaged_envelope(2) == pytest.approx(1 / 3, abs=1e-13)

    def test_rule_nodes_strictly_inside_the_simplex(self):
        x, w = _tanh_sinh_rule()
        t, t1 = x[:, None], x * x[:, None]
        assert np.all(x > 0) and np.all(x < 1)
        assert np.all(t1 > 0) and np.all(t1 < t)
        assert np.all(w > 0)
        # the rule integrates 1 and x on (0, 1) to rounding
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert w @ x == pytest.approx(0.5, abs=1e-15)

    def test_no_floating_point_exception(self):
        with np.errstate(all="raise"):
            _tanh_sinh_rule()
            time_averaged_envelope(2)

    def test_full_amplitude_form(self):
        m, tau = 1.0, 3.0
        got = free_propagator(m, tau, 0.0, 0.0) * time_averaged_envelope(2)
        want = np.sqrt(m / (2j * np.pi * tau)) / 3
        assert got == pytest.approx(want, abs=1e-13 * abs(want))

    def test_simplex_mean_times(self):
        # ordered uniform times average to k tau/(n+1); the linear term of an
        # expansion about those instants therefore integrates to zero
        tau, panels = 3.0, 2000
        h = tau / panels
        t2 = (np.arange(panels) + 0.5) * h
        mean_t1 = 0.0
        mean_t2 = 0.0
        for t in t2:
            h1 = t / panels
            t1 = (np.arange(panels) + 0.5) * h1
            mean_t1 += t1.sum() * h1          # inner integral of t1
            mean_t2 += t * t                  # t2 times the inner measure t
        mean_t1 *= 2 / tau**2 * h
        mean_t2 *= 2 / tau**2 * h
        assert mean_t1 == pytest.approx(tau / 3, rel=1e-4)
        assert mean_t2 == pytest.approx(2 * tau / 3, rel=1e-4)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            time_averaged_envelope(3)
