import numpy as np
import pytest

from oracles import brute_force_walk_probability, catalan_number, unconstrained_return_probability
from zenoprop.core import heat_kernel
from zenoprop.lattice import LatticeConfig, constrained_walk_probability, continuum_peak_estimate


def cfg(n_steps, r, boundary="strict"):
    return LatticeConfig(n_steps=n_steps, steps_per_projection=r, eta=1.0, dtau=1.0,
                         boundary=boundary)


class TestSmallCases:
    def test_two_steps_single_constraint(self):
        # of the four 2-step walks only up-down returns while positive at step 1
        assert constrained_walk_probability(cfg(2, 1)) == 0.25

    def test_four_steps_all_constraints(self):
        # only up,up,down,down stays strictly positive at steps 1..3
        got = constrained_walk_probability(cfg(4, 1))
        assert got == 1.0 / 16.0
        assert got == brute_force_walk_probability(cfg(4, 1))

    def test_unconstrained_central_binomial(self):
        for n in (1, 2, 3, 5):
            got = constrained_walk_probability(cfg(2 * n, 2 * n))  # no interior hits
            assert got == unconstrained_return_probability(2 * n)

    def test_odd_steps_cannot_return(self):
        assert constrained_walk_probability(cfg(5, 2)) == 0.0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n_steps,r", [(6, 1), (8, 2), (10, 3), (12, 4), (14, 7), (16, 5)])
    @pytest.mark.parametrize("boundary", ["strict", "nonneg"])
    def test_exact_match(self, n_steps, r, boundary):
        # dyadic probabilities: DP and enumeration agree bit for bit
        a = constrained_walk_probability(cfg(n_steps, r, boundary))
        b = brute_force_walk_probability(cfg(n_steps, r, boundary))
        assert a == b

    def test_monotone_in_constraints(self):
        # adding constraint instants can only remove walks
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(4, 9)) * 2
            rs = sorted(rng.choice(np.arange(1, n), size=2, replace=False))
            dense, sparse = int(rs[0]), int(rs[1])
            if sparse % dense == 0:
                # constraint instants of `sparse` form a subset of `dense`'s
                assert constrained_walk_probability(cfg(n, dense)) <= (
                    constrained_walk_probability(cfg(n, sparse))
                )


class TestBallotStructure:
    def test_catalan_counts_every_step(self):
        # 2n steps constrained strictly positive at 1..2n-1: C_{n-1} walks
        for n in (2, 3, 4, 5, 6):
            got = constrained_walk_probability(cfg(2 * n, 1))
            assert got == catalan_number(n - 1) / 4.0**n

    def test_nonneg_gives_full_dyck_count(self):
        for n in (2, 3, 4, 5):
            got = constrained_walk_probability(cfg(2 * n, 1, boundary="nonneg"))
            assert got == catalan_number(n) / 4.0**n

    def test_every_step_walk_scales_like_restricted_propagator(self):
        # the every-step constrained walk probes the absorbing-boundary
        # propagator through a half-site boundary layer: the image-method
        # Euclidean form near the wall scales as tau^(-3/2), so doubling the
        # duration divides the density by ~2^1.5
        vals = {}
        for n in (64, 128, 256, 512):
            c = cfg(n, 1)
            vals[n] = constrained_walk_probability(c) / (2 * c.eta)
        for n in (64, 128, 256):
            ratio = vals[n] / vals[2 * n]
            assert ratio == pytest.approx(2.0**1.5, rel=0.08)

    def test_half_site_offset_matches_images(self):
        # quantitative version: (1/2 eta) u  ~=  g_restricted(eta/2, tau | eta/2)
        # in the continuum, with g_r built from heat kernels
        n = 1024
        c = cfg(n, 1)
        lhs = constrained_walk_probability(c) / (2 * c.eta)
        x = c.eta / 2
        tau = c.tau
        m = c.mass
        g_r = heat_kernel(m, tau, x, x) - heat_kernel(m, tau, x, -x)
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

    def test_nonneg_converges_from_above(self):
        sweep = continuum_peak_estimate(4.0, 1.0, boundary="nonneg")
        assert np.all(sweep.ratios > 1.0)
        assert sweep.extrapolated == pytest.approx(1.0, abs=0.02)

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
            LatticeConfig(0, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            LatticeConfig(4, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            LatticeConfig(4, 1, -1.0, 1.0)
        with pytest.raises(ValueError):
            LatticeConfig(4, 1, 1.0, 1.0, boundary="middle")

    def test_mass_map(self):
        c = LatticeConfig(4, 1, eta=0.5, dtau=0.25)
        assert c.mass == pytest.approx(1.0)
        assert c.tau == pytest.approx(1.0)
        assert c.eps == pytest.approx(0.25)

    def test_brute_force_cap(self):
        with pytest.raises(ValueError):
            brute_force_walk_probability(cfg(22, 1))
