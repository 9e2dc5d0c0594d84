import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_walk_probability, catalan_number, unconstrained_return_probability
from zenoprop.core import heat_kernel
from zenoprop.lattice import LatticeConfig, constrained_walk_probability, continuum_peak_estimate

# walks of n_steps <= 16 (brute force enumerates 2**n_steps) and 1 <= r <= n_steps
small_walks = st.integers(1, 16).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))


class TestSmallCases:
    def test_two_steps_single_constraint(self):
        # of the four 2-step walks only up-down returns while positive at step 1
        assert constrained_walk_probability(LatticeConfig(2, 1)) == 0.25

    def test_four_steps_all_constraints(self):
        # only up,up,down,down stays strictly positive at steps 1..3
        got = constrained_walk_probability(LatticeConfig(4, 1))
        assert got == 1.0 / 16.0
        assert got == brute_force_walk_probability(LatticeConfig(4, 1))

    def test_unconstrained_central_binomial(self):
        for n in (1, 2, 3, 5):
            got = constrained_walk_probability(LatticeConfig(2 * n, 2 * n))  # no interior hits
            assert got == unconstrained_return_probability(2 * n)

    def test_odd_steps_cannot_return(self):
        assert constrained_walk_probability(LatticeConfig(5, 2)) == 0.0


# (n_steps, steps_per_projection) cases, labelled by the strict site > 0 convention
STRICT_CASES = [(6, 1), (8, 2), (10, 3), (12, 4), (14, 7), (16, 5)]


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "n_steps, r", STRICT_CASES, ids=[f"strict-{n}-{r}" for n, r in STRICT_CASES]
    )
    def test_exact_match(self, n_steps, r):
        # dyadic probabilities: DP and enumeration agree bit for bit
        c = LatticeConfig(n_steps, r)
        assert constrained_walk_probability(c) == brute_force_walk_probability(c)

    @settings(max_examples=60, deadline=None)
    @given(small_walks)
    def test_exact_match_random_walks(self, walk):
        c = LatticeConfig(*walk)
        assert constrained_walk_probability(c) == brute_force_walk_probability(c)

    def test_monotone_in_constraints(self):
        # adding constraint instants can only remove walks
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(4, 9)) * 2
            rs = sorted(rng.choice(np.arange(1, n), size=2, replace=False))
            dense, sparse = int(rs[0]), int(rs[1])
            if sparse % dense == 0:
                # constraint instants of `sparse` form a subset of `dense`'s
                assert constrained_walk_probability(LatticeConfig(n, dense)) <= (
                    constrained_walk_probability(LatticeConfig(n, sparse))
                )


class TestBallotStructure:
    def test_catalan_counts_every_step(self):
        # 2n steps constrained strictly positive at 1..2n-1: C_{n-1} walks
        for n in (2, 3, 4, 5, 6):
            got = constrained_walk_probability(LatticeConfig(2 * n, 1))
            assert got == catalan_number(n - 1) / 4.0**n

    def test_every_step_walk_scales_like_restricted_propagator(self):
        # the every-step constrained walk probes the absorbing-boundary
        # propagator through a half-site boundary layer: the image-method
        # Euclidean form near the wall scales as tau^(-3/2), so doubling the
        # duration divides the density by ~2^1.5
        vals = {n: constrained_walk_probability(LatticeConfig(n, 1)) for n in (64, 128, 256, 512)}
        for n in (64, 128, 256):
            ratio = vals[n] / vals[2 * n]
            assert ratio == pytest.approx(2.0**1.5, rel=0.08)

    def test_half_site_offset_matches_images(self):
        # quantitative version: (1/2 eta) u  ~=  g_restricted(eta/2, tau | eta/2)
        # in the continuum, with g_r built from heat kernels; on the unit
        # lattice eta = dtau = 1, so m = dtau / eta^2 = 1 and tau = n
        n = 1024
        lhs = constrained_walk_probability(LatticeConfig(n, 1)) / 2
        x = 0.5
        g_r = heat_kernel(1.0, n, x, x) - heat_kernel(1.0, n, x, -x)
        assert lhs == pytest.approx(g_r, rel=0.05)


class TestContinuumSweep:
    def test_ratio_extrapolates_to_one(self):
        sweep = continuum_peak_estimate(4.0, 1.0, m=1.0)
        assert np.all(np.diff(sweep.ratios) > 0)       # O(eta) from below
        assert sweep.extrapolated == pytest.approx(1.0, abs=0.02)

    def test_error_scales_linearly_in_eta(self):
        sweep = continuum_peak_estimate(4.0, 1.0, m=1.0, levels=(16, 64, 256, 1024))
        errs = 1.0 - sweep.ratios
        rates = errs[:-1] / errs[1:]
        assert np.all((rates > 1.7) & (rates < 2.3))   # halving eta halves the error

    def test_mass_invariance(self):
        a = continuum_peak_estimate(4.0, 1.0, m=1.0).extrapolated
        b = continuum_peak_estimate(8.0, 2.0, m=0.5).extrapolated
        assert a == pytest.approx(b, abs=5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            continuum_peak_estimate(4.3, 1.0)
        with pytest.raises(ValueError):
            continuum_peak_estimate(4.0, 1.0, levels=(4, 8, 16, 32))
        with pytest.raises(ValueError, match="three levels"):
            continuum_peak_estimate(4.0, 1.0, levels=(4, 16))
        with pytest.raises(ValueError, match=r"tau/eps = 40000 .* levels 4\.\.256"):
            continuum_peak_estimate(4.0, 1e-4)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            LatticeConfig(0, 1)
        with pytest.raises(ValueError):
            LatticeConfig(4, 0)

    def test_brute_force_cap(self):
        with pytest.raises(ValueError):
            brute_force_walk_probability(LatticeConfig(22, 1))
