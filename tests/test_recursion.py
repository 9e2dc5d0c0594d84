import functools
import sys
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import fine_config, fp_column, pre_projection_slices
from oracles import (
    baxter_envelope,
    direct_advance,
    direct_boundary_amplitude,
    interval_by_interval_recursion,
    numeric_oscillation_curve,
    richardson_right_limit,
    spectral_boundary_amplitude,
    truncated_kernel,
)
from perfbench.workloads import SEED_PAIRS
from zenoprop import recursion
from zenoprop.cli import main
from zenoprop.core import NumericalFailure, heat_kernel
from zenoprop.exact import projected_envelope_exact
from zenoprop.recursion import (
    EuclideanSlice,
    RecursionConfig,
    _kernel_blocks,
    advance_slice,
    boundary_amplitude,
    initial_slice,
    run_recursion,
)
from zenoprop.sawtooth import calibrate_absorption


def assert_matches_direct(prev, cfg):
    # FFT roundoff against the direct convolution: 1e-14 of the slice maximum
    # everywhere, 1e-14 relative at the origin
    got = advance_slice(prev, cfg, prev.s + 1).values
    want = direct_advance(prev, cfg)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want), prev.s
    assert got[0] == pytest.approx(want[0], rel=1e-14), prev.s


@pytest.fixture(scope="module")
def small_cfg():
    # fast configuration for unit checks (spacing 1/256); tolerances stay far
    # below targets
    return RecursionConfig(3, 256)


class TestConfig:
    def test_default_grid_geometry(self):
        # the narrowest kernel, of width sqrt(eps / (16 m)), spans 16 spacings
        g = RecursionConfig(20, 16).grid
        assert g.x_max >= 10 * np.sqrt(21.0)
        assert g.spacing == 1 / 64
        assert g.n_points == 2934
        # at 4096 samples per interval the spacing follows the kernel down
        dense = RecursionConfig(3, 4096).grid
        assert dense.spacing == 1 / 1024
        assert dense.n_points == 20481
        # below 16 samples per interval the spacing stays at 1/64
        assert RecursionConfig(20, 2).grid == g

    @pytest.mark.parametrize("n_max, spi, points", [
        (3, 16, 1281), (8, 16, 1921), (15, 16, 2561), (24, 16, 3201), (20, 16, 2934),
        (3, 4096, 20481), (3, 100, 3201), (1, 32, 1281),
    ])
    def test_default_point_count_is_scale_free(self, n_max, spi, points):
        # the extent is a fixed number of spacings, 160 sqrt((n_max + 1) spi)
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
    @example(1, 2)        # the smallest grid, 907 points
    @example(1, 16)
    @example(1, 50101)    # the largest accepted sizes
    @example(2518, 16)
    def test_derived_grids_need_no_refusal(self, n_max, spi):
        # every accepted config resolves its narrowest kernel by at least
        # MIN_KERNEL_SPACINGS spacings, and its widest kernel, a step of one
        # interval, ends inside the grid, so no kernel needs cutting there
        try:
            cfg = RecursionConfig(n_max, spi)
        except ValueError as err:
            assert "MAX_WORK" in str(err)
            assume(False)
        assert np.sqrt(1 / spi) >= recursion.MIN_KERNEL_SPACINGS * cfg.grid.spacing
        assert recursion._taps(cfg, 1.0) + 1 < cfg.grid.n_points


class TestWorkCap:
    """Sizes are refused from the config alone when their predicted work
    exceeds MAX_WORK."""

    # 2,518 projections at 16 samples per interval advance over FFTs of
    # length 32,768 and 2,519 over 65,536; one projection takes 50,101
    # samples per interval but not 50,102
    @pytest.mark.parametrize("n_max, spi, grown", [
        (2518, 16, (2519, 16)),
        (1, 50101, (1, 50102)),
    ])
    def test_cap_between_neighbouring_sizes(self, n_max, spi, grown):
        assert recursion.predicted_work(RecursionConfig(n_max, spi)) <= recursion.MAX_WORK
        with pytest.raises(ValueError, match=r"exceeds the cap of 1e\+10 \(MAX_WORK\)"):
            RecursionConfig(*grown)

    def test_benchmark_and_test_shapes_far_below(self):
        # fp20 and fp3_dense sit far below the cap; the finest test grid,
        # 20 projections at 4096 samples per interval (4.2e9), is accepted
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
        prev = initial_slice(small_cfg)
        u = np.array([0.25, 0.5, 0.99])
        amp = boundary_amplitude([prev.values], small_cfg, u)[0]
        env = amp / heat_kernel(small_cfg.m, (1 + u) * small_cfg.eps, 0.0, 0.0)
        assert_allclose(env, 0.5, atol=1e-4)

    def test_two_projection_arctan_curve(self, small_cfg):
        prev = initial_slice(small_cfg)
        prev = advance_slice(prev, small_cfg, 2.0)
        for s in (2.2, 2.5, 2.8, 3.0):
            amp = boundary_amplitude([prev.values], small_cfg, [s - 2])[0, 0] if s < 3 else (
                advance_slice(prev, small_cfg, s).values[0]
            )
            env = amp / heat_kernel(small_cfg.m, s * small_cfg.eps, 0.0, 0.0)
            want = projected_envelope_exact(small_cfg.eps, s * small_cfg.eps, 2)
            assert env == pytest.approx(want, abs=1e-4)

    def test_matches_direct_convolution_on_default_grid(self, default_run):
        # the 20-projection default grid over its first three advances
        cfg, _, slices, _ = default_run
        for prev in slices[:3]:
            assert_matches_direct(prev, cfg)

    def test_matches_direct_convolution_at_exact_fft_length(self):
        # n_points + taps is exactly 8192, a power of two: the FFT length
        # leaves no padding, the edge of wrap-around.  The slice grows
        # toward the far end, so a wrapped tail would show near x = 0
        cfg = RecursionConfig(22, 78)   # 6778 points and a kernel of 1414 taps
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

    def test_boundary_amplitude_is_advanced_origin_value(self, small_cfg):
        # both share one truncated kernel; only the summation order differs
        prev = advance_slice(initial_slice(small_cfg), small_cfg, 2.0)
        want = advance_slice(prev, small_cfg, 3.0).values[0]
        got = boundary_amplitude([prev.values], small_cfg, [1.0])[0, 0]
        assert got == pytest.approx(want, rel=1e-13)

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
    """The one-pass boundary samples of several slices against the
    per-sample ``np.dot`` oracle, every slice row to 1e-14 relative."""

    @staticmethod
    def assert_matches_oracle(slices, cfg, u):
        got = boundary_amplitude([sl.values for sl in slices], cfg, u)
        assert got.shape == (len(slices), len(u))
        for sl, row in zip(slices, got):
            want = [direct_boundary_amplitude(sl, cfg, d) for d in u]
            assert_allclose(row, want, rtol=1e-14, atol=0.0)

    def test_matches_per_sample_oracle(self, small_cfg):
        # the slices at s = 1..4; ascending offsets, a repeated one and the
        # interval end
        slices = pre_projection_slices(small_cfg)
        u = np.array([0.002, 0.01, 0.3, 0.3, 0.55, 0.7, 1.0])
        self.assert_matches_oracle(slices, small_cfg, u)
        self.assert_matches_oracle(slices, small_cfg, u[3:4])

    @pytest.mark.parametrize("n_max, spi, u", [
        (3, 256, 2.0 ** np.arange(-12, 1)),                # small_cfg, 2^-12 .. 1
        (20, 16, np.arange(1, 16) / 16),                   # fp20's samples
        (3, 4096, np.arange(1, 4096) / 4096),              # fp3_dense's samples
    ], ids=["small", "fp20", "fp3_dense"])
    def test_matches_spectral_oracle(self, n_max, spi, u):
        # the samples summed over the weighted slices' spectrum instead of
        # kernel rows, on the prefixes run_recursion takes
        cfg = RecursionConfig(n_max, spi)
        values = [sl.values for sl in pre_projection_slices(cfg)[:n_max]]
        assert_allclose(spectral_boundary_amplitude(values, cfg, u),
                        boundary_amplitude(values, cfg, u), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("u", [
        [0.7, 0.01, 0.3],        # unsorted
        [[0.3], [0.7]],          # 2-D
        np.zeros(0),             # empty
        0.3,                     # scalar
    ], ids=["unsorted", "2d", "empty", "scalar"])
    def test_refuses_offsets_of_another_shape_or_order(self, small_cfg, u):
        values = [initial_slice(small_cfg).values]
        with pytest.raises(ValueError, match="non-empty ascending 1-D"):
            boundary_amplitude(values, small_cfg, u)

    def test_rows_need_only_the_widest_reach(self, small_cfg):
        # a prefix out to the widest kernel's reach gives the bits of the
        # whole slice; one point less is refused
        slices = pre_projection_slices(small_cfg)[:2]
        u = np.array([0.2, 0.9])
        reach = recursion._taps(small_cfg, 0.9 * small_cfg.eps) + 1
        assert reach < small_cfg.grid.n_points
        whole = boundary_amplitude([sl.values for sl in slices], small_cfg, u)
        prefix = boundary_amplitude([sl.values[:reach] for sl in slices], small_cfg, u)
        assert np.array_equal(prefix, whole)
        with pytest.raises(ValueError, match="fall short"):
            boundary_amplitude([sl.values[: reach - 1] for sl in slices], small_cfg, u)

    def test_refuses_rows_off_the_grid(self, small_cfg):
        values = initial_slice(small_cfg).values
        with pytest.raises(ValueError, match="rows on the first points"):
            boundary_amplitude(values, small_cfg, 0.5)
        with pytest.raises(ValueError, match="rows on the first points"):
            boundary_amplitude([np.append(values, 0.0)], small_cfg, 0.5)

    @pytest.mark.parametrize("u", [0.0, -0.25, 1.0 + 1e-12, 1.5, np.nan])
    def test_refuses_offsets_outside_the_interval(self, small_cfg, u):
        values = [initial_slice(small_cfg).values]
        with pytest.raises(ValueError, match=r"offsets must lie in \(0, 1\]"):
            boundary_amplitude(values, small_cfg, u)
        with pytest.raises(ValueError, match=r"offsets must lie in \(0, 1\]"):
            boundary_amplitude(values, small_cfg, np.array([0.5, u, 1.0]))

    def test_block_edges_and_one_row_blocks(self, small_cfg, monkeypatch):
        # a small budget puts the 255 samples into many blocks: several rows
        # at first, then one row per block, then rows wider than the budget;
        # every block is dotted with each of the four slices
        monkeypatch.setattr(recursion, "_BLOCK_ENTRIES", 600)
        slices = pre_projection_slices(small_cfg)
        u = np.arange(1, 256) / 256
        dt = u * small_cfg.eps
        shapes = [block.shape for _, block in
                  _kernel_blocks(small_cfg, dt, recursion._taps(small_cfg, dt))]
        assert any(rows > 1 for rows, _ in shapes)
        assert any(rows == 1 and width <= 600 for rows, width in shapes)
        assert any(width > 600 for _, width in shapes)
        assert all(rows == 1 for rows, width in shapes if rows * width > 600)
        self.assert_matches_oracle(slices, small_cfg, u)

    def test_blocks_stay_within_budget(self):
        # fp3_dense's samples: every block holds at most 2^16 entries, and
        # the blocks cover every row, in order, out to its taps (rows wider
        # than the budget: test_block_edges_and_one_row_blocks)
        cfg = RecursionConfig(3, 4096)
        dt = np.arange(1, 4096) / 4096 * cfg.eps
        taps = recursion._taps(cfg, dt)
        covered = 0
        for rows, block in _kernel_blocks(cfg, dt, taps):
            assert rows.start == covered
            covered = rows.stop
            assert block.shape[0] == rows.stop - rows.start
            assert np.all(block.shape[1] >= taps[rows] + 1)
            assert block.size <= 1 << 16
        assert covered == len(dt)

    def test_refuses_unresolved_kernels(self, small_cfg):
        # at spacing 1/256 a step of 1e-4 eps has a kernel of width 0.01,
        # fewer than MIN_KERNEL_SPACINGS = 4 spacings; one such sample in a
        # batch refuses the batch for every slice
        values = [sl.values for sl in pre_projection_slices(small_cfg)[:2]]
        with pytest.raises(ValueError, match="narrower than 4 grid spacings"):
            boundary_amplitude(values, small_cfg, [1e-4])
        with pytest.raises(ValueError, match="narrower than 4 grid spacings"):
            boundary_amplitude(values, small_cfg, np.array([1e-4, 0.5, 0.9]))
        # a step of 2^-12 eps, of width 1/64, spans exactly four spacings
        boundary_amplitude(values, small_cfg, [2.0**-12])


class TestRightLimit:
    def test_extrapolated_matches_direct(self):
        # the sqrt(offset)-Richardson limit agrees with the exact coincidence
        # value, half the left limit, inside 1e-3 on a grid that resolves its
        # offsets' kernels (the least-resolved objects in the module)
        cfg = fine_config(3)
        prev = advance_slice(initial_slice(cfg), cfg, 2.0)
        direct = 0.5 * prev.values[0] / heat_kernel(cfg.m, 2 * cfg.eps, 0.0, 0.0)
        assert richardson_right_limit(prev, cfg) == pytest.approx(direct, rel=1e-3)


class TestRunRecursion:
    # Advancing every slice first and sampling all intervals in one pass of
    # kernel rows keeps the interval-by-interval summation order: the bits
    # match wherever n + j / samples_per_interval - n is exactly
    # j / samples_per_interval, which holds at a power of two
    def test_matches_interval_by_interval_fp20(self, default_run):
        cfg, curve, _, _ = default_run
        self.assert_identical(curve, interval_by_interval_recursion(cfg))

    def test_matches_interval_by_interval_dense(self):
        cfg = RecursionConfig(3, 4096)
        self.assert_identical(run_recursion(cfg), interval_by_interval_recursion(cfg))

    def test_matches_interval_by_interval_coarse(self, coarse_run):
        cfg, curve, _ = coarse_run
        self.assert_identical(curve, interval_by_interval_recursion(cfg))

    @pytest.mark.parametrize("n_max, spi", [(7, 37), (4, 100)])
    def test_matches_interval_by_interval_elsewhere(self, n_max, spi):
        # other sample counts: the step is u instead of (s - n), which may
        # differ in the last bit and move the envelope by up to 2e-15
        cfg = RecursionConfig(n_max, spi)
        got, want = run_recursion(cfg), interval_by_interval_recursion(cfg)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.sides, want.sides)
        assert_allclose(got.values, want.values, rtol=2e-15, atol=0.0)

    @staticmethod
    def assert_matches_exact_envelope(curve, spi, tol):
        # every row against the grid-free envelope: the interior samples and
        # the '-' rows are f(k + j/spi), a '+' row half the '-' row before it
        s, plus = curve.times, curve.sides == "+"
        k = np.where(curve.sides == "-", s - 1, np.floor(s)).astype(int)
        j = np.rint((s - k) * spi).astype(int)
        exact = baxter_envelope(k.max(), np.arange(1, spi + 1) / spi)
        want = np.where(plus, 0.5 * exact[k - 1, -1], exact[k, j - 1])
        assert np.max(np.abs(curve.values - want)) < tol

    def test_every_fp20_row_is_exact(self, default_run):
        # 6.58e-10 at k = 1, theta = 1/16, the narrowest kernel's sample
        _, curve, _, _ = default_run
        self.assert_matches_exact_envelope(curve, 16, 1e-9)

    def test_every_dense_row_is_exact(self):
        # three projections at 256 samples per interval: 5.40e-10
        self.assert_matches_exact_envelope(run_recursion(RecursionConfig(3, 256)), 256, 1e-9)

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
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.sides, want.sides)
        assert np.array_equal(got.values, want.values)

    def test_exact_agreement_first_intervals(self, small_cfg):
        curve = run_recursion(small_cfg)
        for t, v, side in zip(curve.times, curve.values, curve.sides):
            s = t / small_cfg.eps
            if s < 1 or (s == 1.0 and side == "-"):
                want = projected_envelope_exact(small_cfg.eps, max(t, 1e-9), 0)
            elif s <= 2 - 1e-9 or (s == 2.0 and side == "-"):
                want = projected_envelope_exact(small_cfg.eps, t, 1)
            elif s <= 3 - 1e-9 or (s == 3.0 and side == "-"):
                want = projected_envelope_exact(small_cfg.eps, t, 2) if side != "+" else 0.25
            elif np.isclose(s, 4.0) and side == "-":
                want = 0.25
            else:
                continue
            assert v == pytest.approx(want, abs=1e-4), (t, side)

    def test_three_projection_segment(self):
        # the n = 3 closed form over (3 eps, 4 eps] at the default spacing
        # (1.4e-10 measured)
        cfg = RecursionConfig(3, 16)
        curve = run_recursion(cfg)
        sel = (curve.times > 3 * cfg.eps) & (curve.times <= 4 * cfg.eps) & (curve.sides != "+")
        assert sel.sum() == cfg.samples_per_interval
        for t, v in zip(curve.times[sel], curve.values[sel]):
            assert v == pytest.approx(projected_envelope_exact(cfg.eps, t, 3), abs=1e-8), t

    def test_row_structure(self, small_cfg):
        curve = run_recursion(small_cfg)
        spi, n_max = small_cfg.samples_per_interval, small_cfg.n_max
        assert len(curve.times) == (n_max + 1) * spi + n_max
        # every breakpoint carries a minus and a plus row except the last
        for k in range(1, n_max + 1):
            at_k = curve.sides[np.isclose(curve.times, k * small_cfg.eps)]
            assert set(at_k) == {"-", "+"}
        final = curve.sides[np.isclose(curve.times, (n_max + 1) * small_cfg.eps)]
        assert set(final) == {"-"}
        assert np.all(np.diff(curve.times) >= 0)

    def test_monotone_mass_loss(self, small_cfg):
        masses = [np.trapezoid(sl.values, small_cfg.grid.points())
                  for sl in pre_projection_slices(small_cfg)]
        assert np.all(np.diff(masses) < 0)

    def test_half_value_at_breakpoints(self, coarse_run):
        # the '+' rows are the coincidence limit, exactly half the '-' rows;
        # the sqrt(offset)-extrapolated right limit, from slices on a grid
        # fine enough for its offsets, confirms the half drop
        cfg, curve, _ = coarse_run
        fine = fine_config(cfg.n_max)
        slices = pre_projection_slices(fine)
        for k in range(1, cfg.n_max + 1):
            at_k = np.isclose(curve.times, k * cfg.eps)
            peak = curve.values[at_k & (curve.sides == "-")][0]
            trough = curve.values[at_k & (curve.sides == "+")][0]
            assert trough == peak / 2
            assert richardson_right_limit(slices[k - 1], fine) == pytest.approx(peak / 2, rel=1e-3)

    def test_grid_convergence(self):
        # halving the spacing moves the n = 10 peak by far less than 1e-4
        peaks = []
        for spi in (256, 1024):  # spacings 1/256 and 1/512
            cfg = RecursionConfig(10, spi)
            curve = run_recursion(cfg)
            sel = np.isclose(curve.times, 11 * cfg.eps) & (curve.sides == "-")
            peaks.append(curve.values[sel][0])
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
        cfg, curve, _ = coarse_run
        v0 = calibrate_absorption(cfg.eps)
        s_curve = numeric_oscillation_curve(curve, v0)
        k = 12
        from zenoprop.exact import absorbing_envelope

        want = curve.values[k] / absorbing_envelope(v0, curve.times[k]) - 1
        assert s_curve.values[k] == pytest.approx(want, rel=1e-12)

    def test_guard(self, coarse_run):
        _, curve, _ = coarse_run
        with pytest.raises(NumericalFailure):
            numeric_oscillation_curve(curve, 1e14)
