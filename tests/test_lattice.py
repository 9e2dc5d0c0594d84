import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    brute_force_walk_probability,
    catalan_number,
    exact_walk_probability,
    lattice_envelope,
    longdouble_walk_probability,
    unconstrained_return_probability,
)
from zenoprop.cli import main
from zenoprop.core import heat_kernel
from zenoprop.exact import absorbing_envelope
from zenoprop import lattice
from zenoprop.lattice import LatticeConfig, constrained_walk_probability, continuum_peak_estimate
from zenoprop.sawtooth import V0_EPS, oscillation_ratio


def walks(max_steps: int, r_past_n: int = 0):
    """(n_steps, r) pairs with 1 <= n_steps <= max_steps, 1 <= r <= n_steps + r_past_n."""
    return st.integers(1, max_steps).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n + r_past_n))
    )


# walks of n_steps <= 16 (brute force enumerates 2**n_steps) and 1 <= r <= n_steps
small_walks = walks(16)


class TestSmallCases:
    def test_two_steps_single_constraint(self):
        # of the four 2-step walks only up-down returns while positive at step 1
        assert constrained_walk_probability(LatticeConfig(2, 1)) == 0.25

    def test_four_steps_all_constraints(self):
        # up,up,down,down stays positive at steps 1..3 and counts whole;
        # up,down,up,down sits at the origin at step 2 and counts half
        got = constrained_walk_probability(LatticeConfig(4, 1))
        assert got == 1.5 / 16.0 == 3.0 / 32.0
        assert got == brute_force_walk_probability(LatticeConfig(4, 1))

    def test_unconstrained_central_binomial(self):
        for n in (1, 2, 3, 5):
            got = constrained_walk_probability(LatticeConfig(2 * n, 2 * n))  # no interior hits
            assert got == unconstrained_return_probability(2 * n)

    def test_odd_steps_cannot_return(self):
        assert constrained_walk_probability(LatticeConfig(5, 2)) == 0.0


# (n_steps, steps_per_projection) cases, each with a checkpoint strictly
# inside the walk, some of them at the origin
STRICT_CASES = [(6, 1), (8, 2), (10, 3), (12, 4), (14, 7), (16, 5)]


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "n_steps, r", STRICT_CASES, ids=[f"strict-{n}-{r}" for n, r in STRICT_CASES]
    )
    def test_exact_match(self, n_steps, r):
        # dyadic probabilities, the origin's halved at each checkpoint: DP
        # and enumeration agree bit for bit
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


long_double = pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                                 reason="np.longdouble has only a 53-bit significand here")

# walks at and near the 65,536-step cap and their return probabilities from
# ``longdouble_walk_probability``, a DP in 80-bit long doubles one step at a
# time, as the nearest double
RECORDED_WALKS = {
    (32768, 4096): "0x1.20cf5d2219e68p-11",
    (65536, 8192): "0x1.987a5be008aaap-12",
    (65536, 65536): "0x1.9883ed1c3b59fp-9",
    (65536, 127): "0x1.d02ca5addc29ap-19",
    (65536, 4): "0x1.3fd2941477204p-23",
    (65536, 64): "0x1.91b44336725dcp-19",
    (65536, 80): "0x1.636a770f4df98p-19",
}


class TestSpectralSegments:
    """Segments of _SPECTRAL_STEPS or more between checkpoints advance by one
    product with the binomial kernel's closed-form spectrum, shorter ones by
    the DP's direct convolution with the pmf."""

    @settings(max_examples=60, deadline=None)
    @given(walks(300, r_past_n=5))
    @example((1200, 128))  # nine spectral segments, then a 48-step direct one
    @example((1200, 1205))  # one segment, no projection
    @example((1000, 300))  # three spectral segments, then a 100-step direct one
    @example((256, 128))
    @example((258, 129))  # odd segments
    @example((3840, 960))  # four spectral segments
    @example((3602, 333))  # 333-step segments and a 272-step one
    @example((4000, 4005))  # no projection
    @example((4000, 1))  # a projection at every step; tails below 2^-128 trimmed
    @example((4000, 7))
    def test_against_exact_counts(self, walk):
        c = LatticeConfig(*walk)
        exact = exact_walk_probability(c)
        got = Fraction(constrained_walk_probability(c))
        assert abs(got - exact) <= exact * Fraction(2e-15)  # examples: at most 6.5e-16

    # long walks, even step counts from 1,100 to 3,000, constrained every
    # r <= n + 5 steps
    @settings(max_examples=8, deadline=None)
    @given(st.integers(550, 1500).flatmap(
        lambda k: st.tuples(st.just(2 * k), st.integers(1, 2 * k + 5))))
    def test_long_walks_against_exact_counts(self, walk):
        c = LatticeConfig(*walk)
        exact = exact_walk_probability(c)
        got = Fraction(constrained_walk_probability(c))
        assert abs(got - exact) <= exact * Fraction(2e-15)

    def test_one_segment_at_the_cap(self):
        # no projection: the central binomial term C(n, n/2) 2^-n, one
        # spectral product; measured within 3.3e-16
        n = lattice.MAX_WALK_STEPS
        exact = Fraction(comb(n, n // 2), 2**n)
        got = Fraction(constrained_walk_probability(LatticeConfig(n, n)))
        assert abs(got - exact) <= exact * Fraction(2e-15)

    @pytest.mark.parametrize("walk", RECORDED_WALKS, ids=lambda w: f"{w[0]}-{w[1]}")
    def test_recorded_long_walks(self, walk):
        # measured within 6.7e-15 (at 127 steps per interval).  A pmf of 64
        # or 80 steps rounded to doubles would miss by 1.8e-14 and 3.4e-14, as
        # each of the 1,024 or 820 segments took the same rounding of its mass.
        # No entry overflows or turns invalid on the way
        with np.errstate(over="raise", invalid="raise"):
            got = constrained_walk_probability(LatticeConfig(*walk))
        assert got == pytest.approx(float.fromhex(RECORDED_WALKS[walk]), rel=1e-14, abs=0)

    @pytest.mark.slow
    @long_double
    @pytest.mark.parametrize("walk", RECORDED_WALKS, ids=lambda w: f"{w[0]}-{w[1]}")
    def test_recorded_values_from_the_long_double_oracle(self, walk):
        # about 1 s a walk: the recorded values are the oracle's, rounded
        # to the nearest double
        assert longdouble_walk_probability(LatticeConfig(*walk)).hex() == RECORDED_WALKS[walk]

    @long_double
    @pytest.mark.parametrize("walk", [(2000, 1), (2000, 7), (1000, 300), (1200, 1205)],
                             ids=lambda w: f"{w[0]}-{w[1]}")
    def test_long_double_oracle_against_exact_counts(self, walk):
        # the oracle's own rounding, about n 2^-64, stays below half an ulp
        # of a double here, so it lands on the nearest double to the count
        c = LatticeConfig(*walk)
        assert longdouble_walk_probability(c) == float(exact_walk_probability(c))

    @pytest.mark.parametrize("walk", [
        # eight 4,096-step segments, each 78 direct parts when forced, and
        # eight 8,192-step ones at the cap, a 32-step direct segment after
        # 31 spectral ones, a 100-step one after three, and one 1,200-step
        # segment with no projection
        (32768, 4096), (65536, 8192), (4000, 128), (1000, 300), (1200, 1205),
    ], ids=lambda w: f"{w[0]}-{w[1]}")
    def test_against_the_dp(self, walk):
        # the DP with every segment a direct convolution; measured within
        # 2.0e-15 at 32,768 steps and 7.4e-15 at 65,536
        c = LatticeConfig(*walk)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "_SPECTRAL_STEPS", lattice.MAX_WALK_STEPS + 1)
            dp = constrained_walk_probability(c)
        assert constrained_walk_probability(c) == pytest.approx(dp, rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        "walk", [(4000, 127), (3602, 111), (65536, 127)], ids=lambda w: f"{w[0]}-{w[1]}"
    )
    def test_short_segments_stay_on_the_dp(self, walk, monkeypatch):
        def refuse(steps, length):
            raise AssertionError(f"a {steps}-step segment took the spectral product")

        monkeypatch.setattr(lattice, "_binomial_spectrum", refuse)
        assert constrained_walk_probability(LatticeConfig(*walk)) > 0

    @pytest.mark.parametrize("walk, segments", [
        pytest.param(walk, segments, id=f"{walk[0]}-{walk[1]}") for walk, segments in [
            ((258, 129), [129, 129]), ((1000, 300), [300, 300, 300]), ((1200, 1205), [1200]),
        ]
    ])
    def test_long_segments_take_the_spectral_product(self, walk, segments, monkeypatch):
        spectrum, seen = lattice._binomial_spectrum, []

        def record(steps, length):
            seen.append(steps)
            return spectrum(steps, length)

        monkeypatch.setattr(lattice, "_binomial_spectrum", record)
        constrained_walk_probability(LatticeConfig(*walk))
        assert seen == segments

    def test_long_walk_memory(self):
        # the window keeps the entries down to 2^-128 only, about 1,600 at
        # 65,536 steps, not the 32,769 that the walk can reach
        walk = LatticeConfig(65536, 16)
        tracemalloc.start()
        try:
            constrained_walk_probability(walk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1e6  # measured 0.027 MB

    def test_sweep_memory(self):
        # the benchmark's sweep, after a first call has imported numpy.fft
        sweep = lambda: continuum_peak_estimate(8, levels=(4, 16, 64, 256, 1024, 4096))
        sweep()
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.4e6  # measured 0.063 MB


class TestBinomialSpectrum:
    """``_binomial_spectrum`` against the transform of the pmf it stands for."""

    @pytest.mark.parametrize("steps", [1, 2, 3, 127, 128, 129, 1000, 1001])
    @pytest.mark.parametrize("length", [2, 7, 64, 255, 1024, 2025])
    def test_matches_rfft_of_the_periodised_pmf(self, steps, length):
        # C(steps, i) / 2^steps at (i - steps // 2) mod length, so lengths
        # below steps + 1 wrap; measured at most 4.0e-16, where the odd-step
        # phase scaled by 1 + 1e-9 misses by 1e-12 or more
        i = np.arange(steps + 1)
        pmf = np.zeros(length)
        np.add.at(pmf, (i - steps // 2) % length, [comb(steps, j) / 2**steps for j in i])
        got = lattice._binomial_spectrum(steps, length)
        assert np.abs(got - np.fft.rfft(pmf)).max() <= 1e-14


def halvings(walk) -> int:
    """The projections at an even step count, each of which halves the
    origin's probability."""
    n, r = walk
    return sum(1 for step in range(r, n, r) if step % 2 == 0)


class TestExactness:
    """Against exact integer walk counts: exact while the steps and the
    halvings at the origin number at most 53, rounded by at most about one
    unit in the last place per step beyond."""

    @settings(max_examples=80, deadline=None)
    @given(walks(53, r_past_n=5).filter(lambda w: w[0] + halvings(w) <= 53))
    @example((36, 1))  # 17 halvings
    @example((44, 5))  # 4 halvings
    @example((52, 26))  # 1 halving
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
        # 2n steps constrained at 1..2n-1 are the Dyck paths, each weighted
        # 2^-(k - 1) for its k returns to the origin.  The paths with k
        # returns are the ballot number k / (2n - k) C(2n - k, n); with one
        # return there are C_{n-1}
        for n in (2, 3, 4, 5, 6, 12):
            ballot = [Fraction(k, 2 * n - k) * comb(2 * n - k, n) for k in range(1, n + 1)]
            assert ballot[0] == catalan_number(n - 1)
            weighted = sum(b / 2 ** (k - 1) for k, b in enumerate(ballot, start=1))
            assert constrained_walk_probability(LatticeConfig(2 * n, 1)) == weighted / 4**n

    def test_every_step_walk_scales_like_restricted_propagator(self):
        # the every-step constrained walk probes the absorbing-boundary
        # propagator through a boundary layer of a site: the image-method
        # Euclidean form near the wall scales as tau^(-3/2), so doubling the
        # duration divides the density by ~2^1.5
        vals = {n: constrained_walk_probability(LatticeConfig(n, 1)) for n in (64, 128, 256, 512)}
        for n in (64, 128, 256):
            ratio = vals[n] / vals[2 * n]
            assert ratio == pytest.approx(2.0**1.5, rel=0.08)

    def test_two_thirds_site_offset_matches_images(self):
        # quantitative version: (1/2 eta) u = g_restricted(x, tau | x), the
        # image-method form x off an absorbing wall, with g_r built from heat
        # kernels; on the unit lattice eta = dtau = 1, so m = 1 and tau = n.
        # Solved for x it is 2/3 of a site, to 2.8e-4 at 1,024 steps and
        # 7.0e-5 at 4,096 (about 0.29 / n); a strict cut at the origin put
        # the wall half a site off
        n = 4096
        lhs = constrained_walk_probability(LatticeConfig(n, 1)) / 2
        x = np.sqrt(-n / 2 * np.log1p(-lhs / heat_kernel(1.0, n, 0.0, 0.0)))
        assert abs(x - 2 / 3) <= 0.5 / n
        assert heat_kernel(1.0, n, x, x) - heat_kernel(1.0, n, x, -x) == pytest.approx(lhs, rel=1e-12)


class TestContinuumSweep:
    def test_ratio_extrapolates_to_one(self):
        sweep = continuum_peak_estimate(4)
        assert np.all(np.diff(sweep.ratios) > 0)       # O(eta^2) from below
        assert sweep.extrapolated == pytest.approx(1.0, abs=3e-10)  # measured 2.83e-11

    def test_benchmark_sweep(self):
        # six levels over 8 intervals, every stage taken: measured 2.44e-15
        sweep = continuum_peak_estimate(8, levels=(4, 16, 64, 256, 1024, 4096))
        assert abs(sweep.extrapolated - 1) <= 2.5e-14

    @pytest.mark.parametrize("levels", [(4, 16, 64), (16, 64, 256)])
    def test_three_levels_take_two_stages(self, levels):
        # at three levels the two stages are (64 c - 20 b + a) / 45, to an ulp
        sweep = continuum_peak_estimate(4, levels=levels)
        a, b, c = sweep.ratios.tolist()
        want = (64 * c - 20 * b + a) / 45
        assert abs(sweep.extrapolated - want) <= np.spacing(want)

    @pytest.mark.parametrize("n, levels", [
        (4, (4, 16, 64)), (4, (4, 16, 64, 256)), (4, (4, 16, 64, 256, 1024)),
        (8, (4, 16, 64, 256, 1024, 4096)),
    ], ids=["3", "4", "default", "benchmark"])
    @pytest.mark.parametrize("c1, c2", [(-0.5, 0.0), (0.0, 3.0), (-1.3, 0.7), (2.0, -5.0)])
    def test_richardson_is_exact_on_its_error_model(self, monkeypatch, n, levels, c1, c2):
        # walks whose ratios are exactly 1 + sum_i c_i r^(-i), i = 1 .. L - 1,
        # the errors O(eta^2) to O(eta^(2L-2)) that the L - 1 stages remove,
        # so the extrapolation lands on 1 to rounding (measured at most 2.2e-16)
        target = np.sqrt(1 / (2 * np.pi * n)) / n  # the continuum peak law at eps = m = 1
        coeffs = (c1, c2, 2.1, -4.0, 5.5)[: len(levels) - 1]

        def model(r):
            return 1 + sum(c * r ** -i for i, c in enumerate(coeffs, start=1))

        def walk(cfg):
            r = cfg.steps_per_projection
            return model(r) * target * 2 / np.sqrt(r)

        monkeypatch.setattr(lattice, "constrained_walk_probability", walk)
        sweep = continuum_peak_estimate(n, levels=levels)
        assert_allclose(sweep.ratios, model(np.array(levels, float)), rtol=1e-14)
        assert abs(sweep.extrapolated - 1) <= 1e-14

    def test_error_scales_quadratically_in_eta(self):
        sweep = continuum_peak_estimate(4, levels=(16, 64, 256, 1024))
        errs = 1.0 - sweep.ratios
        rates = errs[:-1] / errs[1:]   # measured 3.90, 3.97 and 3.99
        assert np.all((rates > 3.6) & (rates < 4.4))   # halving eta quarters the error

    def test_mass_invariance(self, tmp_path):
        # the sweep takes no unit: the command line passes it tau/eps alone,
        # so every (tau, eps, m) with the same tau/eps writes the bits of
        # the unit sweep
        unit = continuum_peak_estimate(4)
        out = tmp_path / "lat.csv"
        for tau, eps, m in [(8.0, 2.0, 0.5), (0.4, 0.1, 3.0)]:
            args = ["lattice", "--tau", repr(tau), "--eps", repr(eps), "--m", repr(m)]
            assert CliRunner().invoke(main, [*args, "--out", str(out)]).exit_code == 0
            ratios = [float(row.split(",")[3]) for row in out.read_text().splitlines()[1:]]
            assert ratios == unit.ratios.tolist() + [unit.extrapolated]

    def test_finest_walk_at_the_cap_runs(self):
        # 16 intervals at 4,096 steps each are MAX_WALK_STEPS exactly; one
        # interval more is refused
        levels = (4, 16, 64, 256, 1024, 4096)
        assert 16 * levels[-1] == lattice.MAX_WALK_STEPS
        assert abs(continuum_peak_estimate(16, levels).extrapolated - 1) <= 1e-13  # 1.0e-14
        with pytest.raises(ValueError, match="finest walk too long: 17 intervals"):
            continuum_peak_estimate(17, levels)

    def test_validation(self):
        for n in (0, -4):
            with pytest.raises(ValueError, match="at least one interval"):
                continuum_peak_estimate(n)
        with pytest.raises(ValueError):
            continuum_peak_estimate(4, levels=(4, 8, 16, 32))
        with pytest.raises(ValueError, match="three levels"):
            continuum_peak_estimate(4, levels=(4, 16))
        with pytest.raises(ValueError, match=r"40000 intervals at levels 4\.\.1024"):
            continuum_peak_estimate(40_000)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            LatticeConfig(0, 1)
        with pytest.raises(ValueError):
            LatticeConfig(4, 0)

    def test_brute_force_cap(self):
        with pytest.raises(ValueError):
            brute_force_walk_probability(LatticeConfig(22, 1))


def interior_values(envelope) -> dict[float, float]:
    """The recursion's envelope at its interior samples, offsets 0 < u < 1,
    keyed by s = n + u."""
    spi = envelope.shape[1] - 1
    s = np.arange(len(envelope))[:, None] + np.arange(1, spi) / spi
    return dict(zip(s.ravel(), envelope[:, 1:-1].ravel()))


class TestInteriorEnvelope:
    """The walk as an oracle for the recursion's envelope between the drops,
    where only the recursion computed it before."""

    @pytest.mark.slow
    @pytest.mark.parametrize("s", (5.25, 5.5, 10.25, 10.5, 10.75, 15.5))
    def test_matches_recursion_between_drops(self, default_run, s):
        cfg, envelope, _, _ = default_run
        want = interior_values(envelope)[s]
        got = lattice_envelope(s * cfg.eps, cfg.eps, cfg.m)
        # measured at most 6.6e-12: against baxter_envelope the walk errs by
        # at most 6.9e-12 here (at a quarter interval, where the coarsest
        # level ends on a 4-step segment) and the recursion by 4.1e-13
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.slow
    def test_positive_mean_of_s_is_not_a_recursion_artefact(self, default_run):
        # the criterion 4b finding from the walk: the 60-point midpoint mean
        # of S over [5 eps, 20 eps] is positive, as the recursion says
        cfg, envelope, _, _ = default_run
        t = cfg.eps * (5 + (np.arange(60) + 0.5) * 0.25)
        fv = absorbing_envelope(V0_EPS, t / cfg.eps)
        interior = interior_values(envelope)
        rec = np.array([interior[ti / cfg.eps] for ti in t])
        lat = np.array([lattice_envelope(ti, cfg.eps, cfg.m, levels=(16, 64, 256)) for ti in t])
        rec_mean = float(np.mean(oscillation_ratio(rec, fv)))
        lat_mean = float(np.mean(oscillation_ratio(lat, fv)))
        assert lat_mean > 0.05
        assert abs(lat_mean - rec_mean) <= 5e-6  # measured 4.2e-7
