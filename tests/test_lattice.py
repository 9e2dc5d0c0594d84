import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_walk_probability,
    catalan_number,
    exact_walk_probability,
    full_width_walk_probability,
    lattice_envelope,
    unconstrained_return_probability,
)
from zenoprop.core import heat_kernel
from zenoprop.exact import absorbing_envelope
from zenoprop import lattice
from zenoprop.lattice import LatticeConfig, constrained_walk_probability, continuum_peak_estimate
from zenoprop.sawtooth import calibrate_absorption, oscillation_ratio


def walks(max_steps: int, r_past_n: int = 0):
    """(n_steps, r) pairs with 1 <= n_steps <= max_steps, 1 <= r <= n_steps + r_past_n."""
    return st.integers(1, max_steps).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n + r_past_n))
    )


@contextmanager
def counts_dp_only():
    """Switch the spectral segments off, so every walk runs the counts DP
    step by step; yields the MonkeyPatch for further patches."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_SPECTRAL_STEPS", lattice.MAX_WALK_STEPS + 1)
        yield mp


# walks of n_steps <= 16 (brute force enumerates 2**n_steps) and 1 <= r <= n_steps
small_walks = walks(16)


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


class TestLiveWindow:
    """The live-window DP against the full-width DP it replaced: the same
    floating-point operations on every live site, so equal bit for bit.
    Here and in the two classes below the spectral segments are switched
    off, so that every walk runs the DP."""

    @pytest.mark.parametrize("r", (4, 16, 64, 256, 1024))
    def test_bit_identical_at_sweep_levels(self, r):
        # the benchmark's sweep: 8 intervals at r steps each
        c = LatticeConfig(8 * r, r)
        with counts_dp_only():
            assert constrained_walk_probability(c) == full_width_walk_probability(c)

    # brute force stops at 16 steps, before the window edges cut anything
    # that matters; these walks reach 300 steps and constraints past the end
    @settings(max_examples=150, deadline=None)
    @given(walks(300, r_past_n=5))
    @example((299, 1))
    @example((300, 1))
    @example((300, 305))
    @example((298, 149))
    def test_bit_identical_random_walks(self, walk):
        c = LatticeConfig(*walk)
        with counts_dp_only():
            assert constrained_walk_probability(c) == full_width_walk_probability(c)


class TestRescaledCounts:
    """The counts DP takes 2^-960 out of its counts every 960 steps; each
    rescale is exact, so the result stays bit-identical to the full-width
    DP over probabilities."""

    @pytest.mark.parametrize("r", (960, 480, 1280))
    def test_bit_identical_across_rescales(self, r):
        # 3,840 steps, four rescales: each on a projection step at r = 960,
        # with projections between them at r = 480, between projections at
        # r = 1280
        c = LatticeConfig(3840, r)
        with counts_dp_only():
            assert constrained_walk_probability(c) == full_width_walk_probability(c)

    @settings(max_examples=60, deadline=None)
    @given(walks(300, r_past_n=5), st.integers(1, 9))
    @example((300, 4), 1)
    @example((298, 149), 2)
    def test_bit_identical_with_frequent_rescales(self, walk, every):
        # a rescale every few steps puts one at every window position
        c = LatticeConfig(*walk)
        with counts_dp_only() as mp:
            mp.setattr(lattice, "_RESCALE_STEPS", every)
            got = constrained_walk_probability(c)
        assert got == full_width_walk_probability(c)

    def test_finest_benchmark_walk(self):
        # the full-width DP's value, recorded when the live window replaced it
        c = LatticeConfig(32768, 4096)
        with counts_dp_only():
            assert constrained_walk_probability(c) == float.fromhex("0x1.18919d74e9a40p-11")

    def test_walk_at_the_cap(self):
        # the probability DP's value at MAX_WALK_STEPS
        c = LatticeConfig(lattice.MAX_WALK_STEPS, 8192)
        with counts_dp_only():
            assert constrained_walk_probability(c) == float.fromhex("0x1.9030c2cc5e5cfp-12")


class TestTrimmedWindow:
    """Past about 1,100 steps a walk's tail probabilities fall below the
    smallest subnormal; the counts DP meets them at its 2^-960 rescales and
    trims its window to the counts that survive each one, still
    bit-identical to the full-width DP.  With rescales 960 steps apart the
    first trim comes at step 1,920, in walks of about 3,500 steps or more."""

    # even step counts (an odd walk returns 0.0 at once), constrained every
    # r <= n + 5 steps
    long_walks = st.integers(550, 2000).flatmap(
        lambda k: st.tuples(st.just(2 * k), st.integers(1, 2 * k + 5))
    )

    @settings(max_examples=25, deadline=None)
    @given(long_walks)
    @example((3840, 960))  # the trim at 1,920 falls on a projection
    @example((3602, 333))  # 333-step segments and a 39-step one, 960 to 999; trim at 1,920
    @example((4000, 4005))  # no projection, both tails trimmed
    @example((4000, 1))  # a projection at every step, the top trimmed
    def test_bit_identical_long_walks(self, walk):
        c = LatticeConfig(*walk)
        with counts_dp_only():
            assert constrained_walk_probability(c) == full_width_walk_probability(c)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1100, 2000).flatmap(
        lambda k: st.tuples(st.just(2 * k), st.integers(1, 2 * k + 5))), st.integers(1, 9))
    @example((4000, 4005), 1)
    @example((4000, 7), 3)
    def test_bit_identical_with_frequent_trims(self, walk, every):
        # with a rescale every few steps the tails fall below the subnormals
        # from about step 1,080 on, and walks of 2,200 steps or more trim
        # their window at hundreds of rescales
        c = LatticeConfig(*walk)
        with counts_dp_only() as mp:
            mp.setattr(lattice, "_RESCALE_STEPS", every)
            got = constrained_walk_probability(c)
        assert got == full_width_walk_probability(c)

    def test_unconstrained_walk_at_the_cap(self):
        # both tails trimmed at every rescale from 1,920 steps on; value
        # recorded from the untrimmed DP; no entry, dead or live, overflows
        with counts_dp_only(), np.errstate(over="raise", invalid="raise"):
            got = constrained_walk_probability(LatticeConfig(65536, 65536))
            cap = constrained_walk_probability(LatticeConfig(lattice.MAX_WALK_STEPS, 8192))
        assert got == float.fromhex("0x1.9883ed1c3b5b0p-9")
        assert cap == float.fromhex("0x1.9030c2cc5e5cfp-12")


class TestSpectralSegments:
    """Segments of _SPECTRAL_STEPS or more between checkpoints advance by one
    product with the binomial kernel's closed-form spectrum; shorter ones,
    and every walk when they are switched off, run the counts DP."""

    # even step counts, constrained every r >= 128 steps, r <= n + 5
    spectral_walks = st.integers(64, 600).flatmap(
        lambda k: st.tuples(st.just(2 * k), st.integers(128, 2 * k + 5))
    )

    @settings(max_examples=40, deadline=None)
    @given(spectral_walks)
    @example((1200, 128))  # nine spectral segments, then a 48-step DP tail
    @example((1200, 1205))  # one segment, no projection
    @example((1000, 300))  # the DP tail from step 900 crosses step 960
    @example((256, 128))
    @example((258, 129))  # odd segments
    def test_against_exact_counts(self, walk):
        c = LatticeConfig(*walk)
        exact = exact_walk_probability(c)
        got = Fraction(constrained_walk_probability(c))
        assert abs(got - exact) <= exact * Fraction(2e-15)  # measured at most 7e-16

    @pytest.mark.parametrize("walk", [
        (32768, 4096), (65536, 8192), (65536, 65536),
        # a 32-step DP tail after 31 spectral segments, and a 100-step one
        # after three, which crosses step 960 with no rescale due
        (4000, 128), (1000, 300),
    ], ids=lambda w: f"{w[0]}-{w[1]}")
    def test_against_the_dp(self, walk):
        c = LatticeConfig(*walk)
        with counts_dp_only():
            dp = constrained_walk_probability(c)
        assert constrained_walk_probability(c) == pytest.approx(dp, rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        "walk", [(4000, 127), (3602, 111), (65536, 127)], ids=lambda w: f"{w[0]}-{w[1]}"
    )
    def test_short_segments_stay_on_the_dp(self, walk):
        c = LatticeConfig(*walk)
        with counts_dp_only():
            dp = constrained_walk_probability(c)
        assert constrained_walk_probability(c) == dp

    def test_sweep_memory(self):
        # the benchmark's sweep, after a first call has imported numpy.fft
        sweep = lambda: continuum_peak_estimate(8.0, 1.0, levels=(4, 16, 64, 256, 1024, 4096))
        sweep()
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.4e6  # measured 0.34 MB; 0.27 MB on the DP alone


class TestExactness:
    """Against exact integer walk counts: exact through step 53, rounded
    by at most about one unit in the last place per step beyond."""

    @settings(max_examples=80, deadline=None)
    @given(walks(53, r_past_n=5))
    @example((52, 1))
    @example((52, 3))
    @example((52, 52))
    def test_exact_through_53_steps(self, walk):
        c = LatticeConfig(*walk)
        assert constrained_walk_probability(c) == exact_walk_probability(c)

    @pytest.mark.parametrize("r", (1, 7, 20, 400))
    def test_rounding_bounded_at_400_steps(self, r):
        c = LatticeConfig(400, r)
        exact = exact_walk_probability(c)
        got = Fraction(constrained_walk_probability(c))
        assert abs(got - exact) <= exact * 400 * Fraction(1, 2**53)

    def test_long_walk_is_not_exact(self):
        # numerators of k / 2^400 outgrow the 53-bit significand
        c = LatticeConfig(400, 20)
        assert constrained_walk_probability(c) != exact_walk_probability(c)


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
        for tau in (1e-300, 1e-12):
            with pytest.raises(ValueError, match="tau must be at least eps"):
                continuum_peak_estimate(tau, 1.0)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            LatticeConfig(0, 1)
        with pytest.raises(ValueError):
            LatticeConfig(4, 0)

    def test_brute_force_cap(self):
        with pytest.raises(ValueError):
            brute_force_walk_probability(LatticeConfig(22, 1))


def interior_values(curve) -> dict[float, float]:
    """The recursion's envelope at its interior samples, keyed by time."""
    inside = curve.sides == ""
    return dict(zip(curve.times[inside], curve.values[inside]))


class TestInteriorEnvelope:
    """The walk as an oracle for the recursion's envelope between the drops,
    where only the recursion computed it before."""

    @pytest.mark.slow
    @pytest.mark.parametrize("s", (5.25, 5.5, 10.25, 10.5, 10.75, 15.5))
    def test_matches_recursion_between_drops(self, default_run, s):
        cfg, curve, _, _ = default_run
        want = interior_values(curve)[s * cfg.eps]
        got = lattice_envelope(s * cfg.eps, cfg.eps, cfg.m)
        assert got == pytest.approx(want, rel=1e-4)  # measured at most 3.0e-5

    @pytest.mark.slow
    def test_positive_mean_of_s_is_not_a_recursion_artefact(self, default_run):
        # the criterion 4b finding from the walk: the 60-point midpoint mean
        # of S over [5 eps, 20 eps] is positive, as the recursion says
        cfg, curve, _, _ = default_run
        t = cfg.eps * (5 + (np.arange(60) + 0.5) * 0.25)
        fv = absorbing_envelope(calibrate_absorption(cfg.eps), t)
        interior = interior_values(curve)
        rec = np.array([interior[ti] for ti in t])
        lat = np.array([lattice_envelope(ti, cfg.eps, cfg.m, levels=(16, 64, 256)) for ti in t])
        rec_mean = float(np.mean(oscillation_ratio(rec, fv)))
        lat_mean = float(np.mean(oscillation_ratio(lat, fv)))
        assert lat_mean > 0.05
        assert abs(lat_mean - rec_mean) <= 0.005
