import functools
import sys
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import fine_config, fp_column, pre_projection_slices
from oracles import (
    baxter_envelope,
    bernoulli_numbers,
    direct_advance,
    direct_boundary_amplitude,
    gregory_end_weights,
    interval_by_interval_recursion,
    numeric_oscillation_curve,
    richardson_right_limit,
    truncated_kernel,
)
from perfbench.workloads import SEED_PAIRS
from zenoprop import recursion
from zenoprop.cli import main
from zenoprop.core import NumericalFailure, five_smooth_at_least, heat_kernel
from zenoprop.exact import projected_envelope_exact
from zenoprop.recursion import (
    EuclideanSlice,
    RecursionConfig,
    advance_slice,
    boundary_amplitude,
    initial_slice,
    run_recursion,
)
from zenoprop.sawtooth import V0_EPS


def assert_matches_direct(prev, cfg):
    # FFT roundoff against the direct convolution: 1e-14 of the slice maximum
    # everywhere, 1e-14 relative at the origin
    got = advance_slice(prev, cfg, prev.s + 1).values
    want = direct_advance(prev, cfg)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want), prev.s
    assert got[0] == pytest.approx(want[0], rel=1e-14), prev.s


def run_offsets(cfg):
    """The offsets u = j / samples_per_interval, 0 < j < samples_per_interval,
    at which ``boundary_amplitude`` samples each interval."""
    return np.arange(1, cfg.samples_per_interval) / cfg.samples_per_interval


def offset_modes(cfg):
    """The modes J_u that ``boundary_amplitude`` sums at each of the run's
    offsets u, out to kernel_span widths of the kernel's spectrum, on the
    transform of length L that the widest kernel's reach sets."""
    u = run_offsets(cfg)
    reach = recursion._taps(cfg, u[-1] * cfg.eps) + 1
    length = five_smooth_at_least(2 * reach - 1)
    dk = 2 * np.pi / (length * cfg.grid.spacing)
    return np.floor(cfg.kernel_span * np.sqrt(cfg.m / (u * cfg.eps)) / dk).astype(int)


def offset_blocks(cfg):
    """The [start, stop) index ranges of the blocks of consecutive offsets
    that ``boundary_amplitude`` sums at the run's offsets u: each block
    sums its first offset's J_u modes for _SUM_ENTRIES // J_u offsets."""
    u, modes = run_offsets(cfg), offset_modes(cfg)
    blocks, start = [], 0
    while start < len(u):
        stop = min(start + recursion._SUM_ENTRIES // modes[start], len(u))
        blocks.append((start, stop))
        start = stop
    return blocks


@pytest.fixture(scope="module")
def small_cfg():
    # fast configuration for unit checks (spacing 1/128); tolerances stay far
    # below targets
    return RecursionConfig(3, 256)


class TestEndWeights:
    """Gregory's end weights, derived in exact rationals from the
    Euler-Maclaurin conditions (``oracles.gregory_end_weights``)."""

    def test_five_nodes(self):
        assert gregory_end_weights(5) == (Fraction(95, 288), Fraction(317, 240),
                                          Fraction(23, 30), Fraction(793, 720),
                                          Fraction(157, 160))

    def test_recursion_uses_the_ten_node_solution(self):
        # every weight is its rational rounded once, to the bit
        want = [float(w) for w in gregory_end_weights(10)]
        assert recursion._END_WEIGHTS.tolist() == want
        assert -1.0 < min(want) and max(want) < 2.82

    @pytest.mark.parametrize("nodes", [5, 10])
    def test_solves_the_euler_maclaurin_conditions(self, nodes):
        # the corrections c_j = w_j - 1 sum to -1/2, and their k-th moments
        # are -zeta(-k) = B_(k+1) / (k+1) for k = 1 .. nodes - 1
        weights = gregory_end_weights(nodes)
        b = bernoulli_numbers(nodes)
        assert sum(weights) - nodes == Fraction(-1, 2)
        for k in range(1, nodes):
            corrections = sum((w - 1) * j**k for j, w in enumerate(weights))
            assert corrections == b[k + 1] / (k + 1)


class TestConfig:
    def test_default_grid_geometry(self):
        # the narrowest kernel, of width sqrt(eps / (16 m)), spans 8 spacings
        g = RecursionConfig(20, 16).grid
        assert g.x_max >= 10 * np.sqrt(21.0)
        assert g.spacing == 1 / 32
        assert g.n_points == 1468
        # at 4096 samples per interval the spacing follows the kernel down
        dense = RecursionConfig(3, 4096).grid
        assert dense.spacing == 1 / 512
        assert dense.n_points == 10241
        # below 16 samples per interval the spacing stays at 1/32
        assert RecursionConfig(20, 2).grid == g

    @pytest.mark.parametrize("n_max, spi, points", [
        (3, 16, 641), (8, 16, 961), (15, 16, 1281), (24, 16, 1601), (20, 16, 1468),
        (3, 4096, 10241), (3, 100, 1601), (1, 32, 641),
    ])
    def test_default_point_count_is_scale_free(self, n_max, spi, points):
        # the extent is a fixed number of spacings, 80 sqrt((n_max + 1) spi)
        # rounded up ((n_max + 1) spi a perfect square is the edge case)
        assert RecursionConfig(n_max, spi).grid.n_points == points

    @staticmethod
    def configs_run_by_fp(monkeypatch, tmp_path, m, eps, n_max, spi):
        # the exit code of the fp table at (m, eps) and the recursion
        # configs it ran.  v0 eps is held at 1 where 1/eps is finite, and v0
        # at 1 where it is not, so that only the --eps rule can refuse: the
        # default v0 = 4/(3 eps) overflows at the tiniest eps
        seen, run = [], recursion.run_recursion
        v0 = 1 / eps if np.isfinite(1 / eps) else 1.0

        def record(cfg):
            seen.append(cfg)
            return run(cfg)

        monkeypatch.setattr(recursion, "run_recursion", record)
        args = ["fp", "--m", repr(m), "--eps", repr(eps), "--v0", repr(v0), "--n-max", str(n_max),
                "--samples-per-interval", str(spi), "--out", str(tmp_path / "fp.csv")]
        return CliRunner().invoke(main, args).exit_code, seen

    @pytest.mark.parametrize("m, eps", SEED_PAIRS)
    def test_seed_pairs_are_in_range(self, monkeypatch, tmp_path, m, eps):
        # at both benchmark shapes every seed pair runs the unit config
        for n_max, spi in ((20, 16), (3, 4096)):
            code, seen = self.configs_run_by_fp(monkeypatch, tmp_path, m, eps, n_max, spi)
            assert (code, seen) == (0, [RecursionConfig(n_max, spi)])

    @pytest.mark.parametrize("m, eps", [(1.0, 1e-320), (1e300, 1e-300), (1e-300, 1e300),
                                        (1.0, 1e305), (1e-300, 1e8)])
    def test_out_of_range_scales(self, monkeypatch, tmp_path, m, eps):
        # scales at which sqrt(eps/m), m/eps or (n_max + 1) eps leave the
        # floats never reach the recursion: an eps whose times t = s eps
        # leave the normal floats is refused before it runs, and every other
        # pair runs the unit config
        code, seen = self.configs_run_by_fp(monkeypatch, tmp_path, m, eps, 20, 16)
        if eps / 16 >= sys.float_info.min and 21 * eps <= sys.float_info.max:
            assert (code, seen) == (0, [RecursionConfig(20, 16)])
        else:
            assert (code, seen) == (2, [])

    def test_units_are_class_constants(self):
        # the recursion works at m = eps = 1; the names stay readable on a
        # config but are not fields, and the grid is derived, not given
        cfg = RecursionConfig(3, 16)
        assert (cfg.m, cfg.eps, RecursionConfig.m, RecursionConfig.eps) == (1.0,) * 4
        assert [f.name for f in fields(cfg) if f.init] == ["n_max", "samples_per_interval"]
        with pytest.raises(TypeError):
            RecursionConfig(3, 16, 2.0)
        with pytest.raises(TypeError):
            RecursionConfig(3, 16, grid=cfg.grid)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            RecursionConfig(0, 16)
        with pytest.raises(ValueError, match="samples_per_interval"):
            RecursionConfig(3, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2000), st.integers(2, 50_000))
    @example(1, 2)        # the smallest grid, 454 points
    @example(1, 16)
    @example(1, 124_868)  # the largest accepted sizes
    @example(3028, 16)
    def test_derived_grids_need_no_refusal(self, n_max, spi):
        # every accepted config resolves its narrowest kernel by at least 8
        # spacings (exactly 8, to roundoff, from 16 samples per interval
        # on), and its widest kernel, a step of one interval, ends inside
        # the grid, so no kernel needs cutting there
        try:
            cfg = RecursionConfig(n_max, spi)
        except ValueError as err:
            assert "MAX_WORK" in str(err)
            assume(False)
        assert np.sqrt(1 / spi) / cfg.grid.spacing >= 8 * (1 - 1e-12)
        assert recursion._taps(cfg, 1.0) + 1 < cfg.grid.n_points
        # the boundary samples sum the spectrum of their narrowest kernel,
        # u = 1 / spi, out to J = kernel_span sqrt(spi) / dk modes,
        # dk = 2 pi / (L h), on the transform of length L that the widest
        # kernel's reach sets: a kernel of four spacings or more (8 here)
        # keeps J <= 10 L / (8 pi), inside the rfft's L / 2 + 1 modes
        reach = recursion._taps(cfg, (spi - 1) / spi) + 1
        length = five_smooth_at_least(2 * reach - 1)
        dk = 2 * np.pi / (length * cfg.grid.spacing)
        modes = int(np.floor(cfg.kernel_span * np.sqrt(spi) / dk))
        assert modes <= 10 * length / (8 * np.pi)
        assert modes <= length // 2 - 1

    def test_first_offset_modes_fit_one_block(self):
        # at the cap's largest samples per interval, 124,868 at one
        # projection, the first offset sums 11,459 modes (about 32
        # sqrt(spi)), fewer than _SUM_ENTRIES: every block of offsets holds
        # at least one, and every chunk of rows at least one row
        modes = offset_modes(RecursionConfig(1, 124_868))
        assert modes[0] == max(modes) == 11_459
        assert modes[0] < recursion._SUM_ENTRIES

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 20), st.integers(60, 3000), st.integers(2, 12),
           st.integers(0, 2**32 - 1))
    def test_rows_alone_and_in_a_batch(self, n_max, spi, rows, seed):
        # wherever the run's offsets span two or more blocks, every row of a
        # batch of positive rows gives the bits it gives alone: the blocks
        # and the order of each sample's sum depend on the config alone, not
        # on the number of rows
        cfg = RecursionConfig(n_max, spi)
        assume(len(offset_blocks(cfg)) >= 2)
        reach = recursion._taps(cfg, run_offsets(cfg)[-1] * cfg.eps) + 1
        values = np.random.default_rng(seed).random((rows, reach))
        batch = boundary_amplitude(values, cfg)
        for row, got in zip(values, batch):
            assert np.array_equal(got, boundary_amplitude([row], cfg)[0])


class TestWorkCap:
    """Sizes are refused from the config alone when their predicted work
    exceeds MAX_WORK."""

    # 3,028 and 3,029 projections at 16 samples per interval both advance
    # over FFTs of length 32,768, and the 3,029th tips the sum past the cap;
    # one projection takes 124,868 samples per interval but not 124,869
    @pytest.mark.parametrize("n_max, spi, grown", [
        (3028, 16, (3029, 16)),
        (1, 124_868, (1, 124_869)),
    ])
    def test_cap_between_neighbouring_sizes(self, n_max, spi, grown):
        assert recursion.predicted_work(RecursionConfig(n_max, spi)) <= recursion.MAX_WORK
        with pytest.raises(ValueError, match=r"exceeds the cap of 1e\+10 \(MAX_WORK\)"):
            RecursionConfig(*grown)

    @pytest.mark.parametrize("n_max, spi", [(10**400, 16), (1, 10**400), (10**400, 10**400)])
    def test_sizes_past_the_floats(self, n_max, spi):
        # refused by the cap, not by Python's own float conversion
        with pytest.raises(ValueError, match=r"predicted work inf exceeds the cap .*MAX_WORK"):
            RecursionConfig(n_max, spi)

    def test_benchmark_and_test_shapes_far_below(self):
        # fp20 and fp3_dense sit far below the cap; the finest test grid,
        # 20 projections at 4096 samples per interval (3.5e9), is accepted
        for cfg in (RecursionConfig(20, 16), RecursionConfig(3, 4096)):
            assert recursion.predicted_work(cfg) < recursion.MAX_WORK / 10
        fine_config(20)


class TestInitialSlice:
    def test_origin_value(self, small_cfg):
        sl = initial_slice(small_cfg)
        assert sl.s == 1.0
        want = np.sqrt(small_cfg.m / (2 * np.pi * small_cfg.eps))
        assert sl.values[0] == pytest.approx(want, rel=1e-14)

    def test_half_line_mass(self, small_cfg):
        sl = initial_slice(small_cfg)
        assert np.trapezoid(sl.values, small_cfg.grid.points()) == pytest.approx(0.5, abs=1e-8)

    def test_gaussian_tail(self, small_cfg):
        sl = initial_slice(small_cfg)
        x = small_cfg.grid.points()
        width = np.sqrt(small_cfg.eps / small_cfg.m)
        assert np.all(sl.values[x > 10 * width] < 1e-20)


class TestAdvance:
    def test_one_projection_constant_half(self, small_cfg):
        # at every run offset j / 256 of the interval after one projection
        prev = initial_slice(small_cfg)
        u = run_offsets(small_cfg)
        amp = boundary_amplitude([prev.values], small_cfg)[0]
        env = amp / heat_kernel(small_cfg.m, (1 + u) * small_cfg.eps, 0.0, 0.0)
        assert_allclose(env, 0.5, atol=1e-4)

    def test_two_projection_arctan_curve(self, small_cfg):
        # at every run offset j / 256 after two projections, and at the peak
        prev = initial_slice(small_cfg)
        prev = advance_slice(prev, small_cfg, 2.0)
        s = 2 + np.append(run_offsets(small_cfg), 1.0)
        amp = np.append(boundary_amplitude([prev.values], small_cfg)[0],
                        advance_slice(prev, small_cfg, 3.0).values[0])
        env = amp / heat_kernel(small_cfg.m, s * small_cfg.eps, 0.0, 0.0)
        want = [projected_envelope_exact(x, 2) for x in s]
        assert_allclose(env, want, rtol=0.0, atol=1e-4)

    def test_matches_direct_convolution_on_default_grid(self, default_run):
        # the 20-projection default grid over its first three advances
        cfg, _, slices, _ = default_run
        for prev in slices[:3]:
            assert_matches_direct(prev, cfg)

    def test_matches_direct_convolution_at_exact_fft_length(self):
        # n_points + taps is exactly 8192, a power of two: the FFT length
        # leaves no padding, the edge of wrap-around.  The slice grows
        # toward the far end, so a wrapped tail would show near x = 0
        cfg = RecursionConfig(22, 312)  # 6778 points and a kernel of 1414 taps
        prev = EuclideanSlice(1.0, 1.0 + cfg.grid.points())
        assert cfg.grid.n_points + len(truncated_kernel(cfg, cfg.eps)) - 1 == 8192
        assert 2 * (len(cfg.kernel_spectrum) - 1) == 8192
        assert_matches_direct(prev, cfg)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.integers(2, 100), st.integers(0, 2**32 - 1))
    def test_matches_direct_convolution_on_derived_grids(self, n_max, spi, seed):
        # the closed-form spectrum is the sampled kernel's, periodised on the
        # transform: on every derived grid one advance matches the direct
        # sum against the kernel cut at ten widths.  A random positive slice
        # that grows toward the far end shows any periodic image near x = 0
        cfg = RecursionConfig(n_max, spi)
        noise = np.random.default_rng(seed).random(cfg.grid.n_points)
        assert_matches_direct(EuclideanSlice(1.0, (1.0 + cfg.grid.points()) * noise), cfg)

    def test_positivity_preserved(self, small_cfg):
        prev = initial_slice(small_cfg)
        for n in (2.0, 3.0):
            prev = advance_slice(prev, small_cfg, n)
            assert np.all(prev.values >= 0)

    def test_slice_alignment_required(self, small_cfg):
        # an advance spans exactly one whole interval, from prev.s to prev.s + 1
        prev = initial_slice(small_cfg)
        for s_next in (1.0, 1.5, 2.0 - 1e-12, 2.0 + 1e-12, 2.5, 3.0, np.nan):
            with pytest.raises(ValueError, match="one whole interval"):
                advance_slice(prev, small_cfg, s_next)
        assert advance_slice(prev, small_cfg, 2.0).s == 2.0


class TestBoundaryAmplitude:
    """The batched boundary samples of several slices at the run's offsets
    against the per-sample ``np.dot`` oracle, every slice row to 1e-14
    relative."""

    @staticmethod
    def assert_matches_oracle(slices, cfg, picks=slice(None)):
        # the oracle at the offsets u[picks]
        u = run_offsets(cfg)
        got = boundary_amplitude([sl.values for sl in slices], cfg)
        assert got.shape == (len(slices), len(u))
        for sl, row in zip(slices, got):
            want = [direct_boundary_amplitude(sl, cfg, d) for d in u[picks]]
            assert_allclose(row[picks], want, rtol=1e-14, atol=0.0)

    def test_matches_per_sample_oracle(self, small_cfg):
        # the slices at s = 1..4, in a batch and one alone
        slices = pre_projection_slices(small_cfg)
        self.assert_matches_oracle(slices, small_cfg)
        self.assert_matches_oracle(slices[2:3], small_cfg)

    @pytest.mark.parametrize("n_max, spi, j", [
        (3, 256, None),                                    # small_cfg, every offset
        (20, 16, None),                                    # all of fp20's offsets
        (3, 4096, [1, 2, 3, 17, 64, 255, 1000, 2048, 3333, 4000, 4094, 4095]),
    ], ids=["small", "fp20", "fp3_dense"])
    def test_matches_per_sample_oracle_at_run_offsets(self, n_max, spi, j):
        # the slices run_recursion samples, summed over their spectrum,
        # against the kernel cut at ten widths in real space; on fp3_dense
        # its narrowest offset, 1/4096, its widest, 4095/4096, which sets the
        # transform length, and a spread between
        cfg = RecursionConfig(n_max, spi)
        picks = slice(None) if j is None else np.array(j) - 1
        self.assert_matches_oracle(pre_projection_slices(cfg)[:n_max], cfg, picks)

    def test_rows_need_only_the_widest_reach(self, small_cfg):
        # a prefix out to the widest kernel's reach gives the bits of the
        # whole slice; one point less is refused
        slices = pre_projection_slices(small_cfg)[:2]
        reach = recursion._taps(small_cfg, 255 / 256 * small_cfg.eps) + 1
        assert reach < small_cfg.grid.n_points
        whole = boundary_amplitude([sl.values for sl in slices], small_cfg)
        prefix = boundary_amplitude([sl.values[:reach] for sl in slices], small_cfg)
        assert np.array_equal(prefix, whole)
        with pytest.raises(ValueError, match="fall short"):
            boundary_amplitude([sl.values[: reach - 1] for sl in slices], small_cfg)

    @staticmethod
    def traced_peak(values, cfg):
        tracemalloc.start()
        try:
            boundary_amplitude(values, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_memory_on_fp3_dense(self):
        # the samples keep only the real parts of the modes they sum, and
        # transform one row and sum one block of offsets for one row at a
        # time: fp3_dense's 3 x 4,095 samples trace 0.63 MB of numpy
        # allocations at their peak.  Holding one row's complex spectrum
        # through the sums reads 0.79 MB, and one offset at a time against
        # all rows' complex spectra 0.94 MB
        cfg = RecursionConfig(3, 4096)
        reach = recursion._taps(cfg, 4095 / 4096) + 1
        prefixes = np.array([sl.values[:reach] for sl in pre_projection_slices(cfg)[:3]])
        assert self.traced_peak(prefixes, cfg) <= 0.8e6

    def test_peak_memory_of_many_rows(self):
        # the largest accepted projection count, 3,028 rows at 16 samples
        # per interval, is transformed 26 rows at a time: 4.2 MB traced,
        # where transforming every row at once (_SUM_ENTRIES at all rows'
        # transforms) holds 15 MB of complex spectra and reads 26 MB
        cfg = RecursionConfig(3028, 16)
        reach = recursion._taps(cfg, 15 / 16) + 1
        rows = np.random.default_rng(3028).random((3028, reach))
        assert self.traced_peak(rows, cfg) <= 5e6

    def test_matches_per_sample_oracle_at_fp3_dense_block_edges(self):
        # the whole 4,095-offset batch that run_recursion takes on
        # fp3_dense, against the kernel cut at ten widths at the first and
        # last offset of each of its blocks and at every 64th offset
        cfg = RecursionConfig(3, 4096)
        blocks = offset_blocks(cfg)
        assert len(blocks) >= 10
        picks = sorted({i for start, stop in blocks for i in (start, stop - 1)}
                       | set(range(0, 4095, 64)))
        self.assert_matches_oracle(pre_projection_slices(cfg)[:3], cfg, picks)


class TestRightLimit:
    def test_extrapolated_matches_direct(self):
        # the sqrt(offset)-Richardson limit agrees with the exact coincidence
        # value, half the left limit, inside 1e-4 (1.4e-5 measured) on a grid
        # that resolves its offsets' kernels (the least-resolved objects in
        # the module)
        cfg = fine_config(3)
        prev = advance_slice(initial_slice(cfg), cfg, 2.0)
        direct = 0.5 * prev.values[0] / heat_kernel(cfg.m, 2 * cfg.eps, 0.0, 0.0)
        assert richardson_right_limit(prev, cfg) == pytest.approx(direct, rel=1e-4)


class TestRunRecursion:
    # Advancing every slice first and sampling all intervals in one batch
    # keeps the interval-by-interval summation order, row by row: the bits
    # match wherever n + j / samples_per_interval - n is exactly
    # j / samples_per_interval, which holds at a power of two
    def test_matches_interval_by_interval_fp20(self, default_run):
        cfg, envelope, _, _ = default_run
        self.assert_identical(envelope, interval_by_interval_recursion(cfg))

    def test_matches_interval_by_interval_dense(self):
        cfg = RecursionConfig(3, 4096)
        self.assert_identical(run_recursion(cfg), interval_by_interval_recursion(cfg))

    def test_matches_interval_by_interval_coarse(self, coarse_run):
        cfg, envelope, _ = coarse_run
        self.assert_identical(envelope, interval_by_interval_recursion(cfg))

    @pytest.mark.parametrize("n_max, spi", [(7, 37), (4, 100)])
    def test_matches_interval_by_interval_elsewhere(self, n_max, spi):
        # other sample counts: the step is u instead of (s - n), which may
        # differ in the last bit and move the envelope by up to 2e-15
        cfg = RecursionConfig(n_max, spi)
        got, want = run_recursion(cfg), interval_by_interval_recursion(cfg)
        assert got.shape == want.shape == (n_max + 1, spi + 1)
        assert_allclose(got, want, rtol=2e-15, atol=0.0)

    @staticmethod
    def assert_matches_exact_envelope(envelope, spi, tol):
        # every entry against the grid-free envelope: the interior samples
        # and the peaks, u = j/spi > 0 of interval n, are f(n + u), an entry
        # at u = 0 half the peak of the interval before it
        exact = baxter_envelope(len(envelope) - 1, np.arange(1, spi + 1) / spi)
        assert envelope.shape == (len(exact), spi + 1)
        assert np.max(np.abs(envelope[:, 1:] - exact)) < tol
        assert np.max(np.abs(envelope[1:, 0] - 0.5 * exact[:-1, -1])) < tol

    def test_every_fp20_row_is_exact(self, default_run):
        # 4.70e-11 at k = 2, theta = 1/16, the narrowest kernel's sample
        _, envelope, _, _ = default_run
        self.assert_matches_exact_envelope(envelope, 16, 1e-10)

    def test_every_dense_row_is_exact(self):
        # three projections at 256 samples per interval: 2.07e-11
        self.assert_matches_exact_envelope(run_recursion(RecursionConfig(3, 256)), 256, 1e-10)

    def test_one_kernel_spectrum_per_run(self, monkeypatch):
        # a config builds its one-interval kernel spectrum once, whatever
        # the number of runs on it, and every run advances once per
        # interval, through the module attribute the benchmark traces
        built, advances = [], []
        build = RecursionConfig.kernel_spectrum.func
        spectrum = functools.cached_property(lambda cfg: built.append(cfg) or build(cfg))
        spectrum.__set_name__(RecursionConfig, "kernel_spectrum")
        monkeypatch.setattr(RecursionConfig, "kernel_spectrum", spectrum)
        advance = recursion.advance_slice
        monkeypatch.setattr(recursion, "advance_slice",
                            lambda *args: advances.append(args[2]) or advance(*args))
        cfg = RecursionConfig(20, 16)
        for runs in (1, 2):
            run_recursion(cfg)
            assert built == [cfg]
            assert advances == list(np.arange(2.0, cfg.n_max + 2)) * runs
        assert not cfg.kernel_spectrum.flags.writeable   # shared by every run
        other = RecursionConfig(3, 16)
        run_recursion(other)
        assert built == [cfg, other]

    @staticmethod
    def assert_identical(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_exact_agreement_first_intervals(self, small_cfg):
        # intervals 0, 1 and 2 against the closed forms with 0, 1 and 2
        # projections at every offset, the u = 0 entries included (the right
        # limits after the drops at s = 1 and 2, 1/2 and 1/4), and the peak
        # of interval 3
        envelope = run_recursion(small_cfg)
        u = np.arange(small_cfg.samples_per_interval + 1) / small_cfg.samples_per_interval
        for n in range(3):
            for x, v in zip(u, envelope[n]):
                want = 0.25 if (n, x) == (2, 0.0) else projected_envelope_exact(
                    max(n + x, 1e-9), n)
                assert v == pytest.approx(want, abs=1e-4), (n, x)
        assert envelope[3, -1] == pytest.approx(0.25, abs=1e-4)

    def test_three_projection_segment(self):
        # the n = 3 closed form over (3 eps, 4 eps] at the default spacing
        # (4.3e-11 measured)
        cfg = RecursionConfig(3, 16)
        envelope = run_recursion(cfg)
        u = np.arange(1, cfg.samples_per_interval + 1) / cfg.samples_per_interval
        assert len(envelope[3, 1:]) == cfg.samples_per_interval
        for x, v in zip(u, envelope[3, 1:]):
            assert v == pytest.approx(projected_envelope_exact(3 + x, 3), abs=1e-10), x

    def test_row_structure(self, small_cfg, tmp_path):
        # one row per interval and one column per offset, and the fp table
        # written from it: (n_max + 1) spi + n_max rows in time order, with
        # a minus and a plus row at every drop but the last, which has a
        # minus row alone
        spi, n_max = small_cfg.samples_per_interval, small_cfg.n_max
        assert run_recursion(small_cfg).shape == (n_max + 1, spi + 1)
        out = tmp_path / "fp.csv"
        args = ["fp", "--n-max", str(n_max), "--samples-per-interval", str(spi), "--out", str(out)]
        assert CliRunner().invoke(main, args).exit_code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        s = np.array([float(r[0]) for r in rows])
        sides = np.array([r[5] for r in rows])
        assert len(s) == (n_max + 1) * spi + n_max
        for k in range(1, n_max + 1):
            assert set(sides[s == k]) == {"minus", "plus"}
        assert set(sides[s == n_max + 1]) == {"minus"}
        assert np.all(np.diff(s) >= 0)

    def test_monotone_mass_loss(self, small_cfg):
        masses = [np.trapezoid(sl.values, small_cfg.grid.points())
                  for sl in pre_projection_slices(small_cfg)]
        assert np.all(np.diff(masses) < 0)

    def test_half_value_at_breakpoints(self, coarse_run):
        # the u = 0 entries are the coincidence limit, exactly half the u = 1
        # entries of the interval before;
        # the sqrt(offset)-extrapolated right limit, from slices on a grid
        # fine enough for its offsets, confirms the half drop
        cfg, envelope, _ = coarse_run
        fine = fine_config(cfg.n_max)
        slices = pre_projection_slices(fine)
        for k in range(1, cfg.n_max + 1):
            peak, trough = envelope[k - 1, -1], envelope[k, 0]
            assert trough == peak / 2
            # measured at most 2.1e-5
            assert richardson_right_limit(slices[k - 1], fine) == pytest.approx(peak / 2, rel=1e-4)

    def test_grid_convergence(self):
        # halving the spacing moves the n = 10 peak by far less than 1e-4
        peaks = []
        for spi in (256, 1024):  # spacings 1/128 and 1/256
            peaks.append(run_recursion(RecursionConfig(10, spi))[10, -1])
        assert abs(peaks[1] - peaks[0]) < 1e-4

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.2, 5.0), st.floats(0.2, 5.0))
    @example(3.0, 1.0)
    @example(1.0, 3.0)
    @example(0.3, 1.0)
    @example(1.0, 0.3)
    @example(0.7, 2.5)
    @example(4.0, 1.0)   # the benchmark's other seed pairs
    @example(1.0, 4.0)
    @example(4.0, 0.25)
    @example(0.25, 1.0)
    @example(16.0, 4.0)
    def test_mass_and_units_scale_out(self, tmp_path_factory, m, eps):
        # the envelope depends on t / eps only, and the recursion runs at
        # m = eps = 1 whatever the (m, eps) of the table: fp writes the unit
        # run's f_p_numeric column byte for byte
        out = tmp_path_factory.mktemp("fp") / "fp.csv"
        args = ["--n-max", "4"]
        assert fp_column(out, m, eps, *args) == fp_column(out, 1.0, 1.0, *args)


class TestOscillationCurve:
    def test_matches_definition(self, coarse_run):
        # row 12 of the fp table is interval 0 at offset 13/256
        _, envelope, _ = coarse_run
        s, ratio = numeric_oscillation_curve(envelope, V0_EPS)
        k = 12
        from zenoprop.exact import absorbing_envelope

        assert s[k] == 13 / 256
        want = envelope[0, 13] / absorbing_envelope(V0_EPS, s[k]) - 1
        assert ratio[k] == pytest.approx(want, rel=1e-12)

    def test_guard(self, coarse_run):
        _, envelope, _ = coarse_run
        with pytest.raises(NumericalFailure):
            numeric_oscillation_curve(envelope, 1e14)
