import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import extent_config, fine_config, fp_column, pre_projection_slices
from oracles import (
    baxter_envelope,
    direct_advance,
    direct_boundary_amplitude,
    interval_by_interval_recursion,
    numeric_oscillation_curve,
    richardson_right_limit,
)
from perfbench.workloads import SEED_PAIRS
from zenoprop import recursion
from zenoprop.cli import main
from zenoprop.core import Grid1D, NumericalFailure, heat_kernel
from zenoprop.exact import projected_envelope_exact
from zenoprop.recursion import (
    EuclideanSlice,
    RecursionConfig,
    _half_kernel,
    _kernel_blocks,
    _kernel_spectrum,
    advance_slice,
    boundary_amplitude,
    default_config,
    initial_slice,
    run_recursion,
)
from zenoprop.sawtooth import calibrate_absorption


def assert_matches_direct(prev, cfg, s_next):
    # FFT roundoff against the direct convolution: 1e-14 of the slice maximum
    # everywhere, 1e-14 relative at the origin
    got = advance_slice(prev, cfg, s_next).values
    want = direct_advance(prev, cfg, s_next).values
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want), s_next
    assert got[0] == pytest.approx(want[0], rel=1e-14), s_next


@pytest.fixture(scope="module")
def small_cfg():
    # fast configuration for unit checks (spacing 4e-3); tolerances stay far
    # below targets
    return extent_config(3, 5001)


class TestConfig:
    def test_default_grid_geometry(self):
        # the narrowest kernel, of width sqrt(eps / (16 m)), spans 16 spacings
        g = default_config(20, 16).grid
        assert g.x_max >= 10 * np.sqrt(21.0)
        assert g.spacing == 1 / 64
        assert g.n_points == 2934
        # at 4096 samples per interval the spacing follows the kernel down
        dense = default_config(3, 4096).grid
        assert dense.spacing == 1 / 1024
        assert dense.n_points == 20481
        # below 16 samples per interval the spacing stays at 1/64
        assert default_config(20, 2).grid == g

    @pytest.mark.parametrize("n_max, spi, points", [
        (3, 16, 1281), (8, 16, 1921), (15, 16, 2561), (24, 16, 3201), (20, 16, 2934),
        (3, 4096, 20481), (3, 100, 3201), (1, 32, 1281),
    ])
    def test_default_point_count_is_scale_free(self, n_max, spi, points):
        # the extent is a fixed number of spacings, 160 sqrt((n_max + 1) spi)
        # rounded up ((n_max + 1) spi a perfect square is the edge case)
        assert default_config(n_max, spi).grid.n_points == points

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
            assert (code, seen) == (0, [default_config(n_max, spi)])

    @pytest.mark.parametrize("m, eps", [(1.0, 1e-320), (1e300, 1e-300), (1e-300, 1e300),
                                        (1.0, 1e305), (1e-300, 1e8)])
    def test_out_of_range_scales(self, monkeypatch, tmp_path, m, eps):
        # scales at which sqrt(eps/m), m/eps or (n_max + 1) eps leave the
        # floats never reach the recursion: an eps whose times t = s eps
        # leave the normal floats is refused before it runs, and every other
        # pair runs the unit config
        code, seen = self.configs_run_by_fp(monkeypatch, tmp_path, m, eps, 20, 16)
        if eps / 16 >= sys.float_info.min and 21 * eps <= sys.float_info.max:
            assert (code, seen) == (0, [default_config(20, 16)])
        else:
            assert (code, seen) == (2, [])

    def test_units_are_class_constants(self):
        # the recursion works at m = eps = 1; the names stay readable on a
        # config but are not fields
        cfg = default_config(3, 16)
        assert (cfg.m, cfg.eps, RecursionConfig.m, RecursionConfig.eps) == (1.0,) * 4
        with pytest.raises(TypeError):
            RecursionConfig(3, cfg.grid, 16, 2.0)

    def test_validation(self):
        g = Grid1D(10.0, 1001)
        with pytest.raises(ValueError):
            RecursionConfig(0, g)
        with pytest.raises(ValueError):
            RecursionConfig(3, g, samples_per_interval=1)
        # the narrowest kernel, of width sqrt(eps / (16 m)) = 0.25, needs 4 spacings
        RecursionConfig(3, Grid1D(10.0, 161))
        with pytest.raises(ValueError, match="too coarse"):
            RecursionConfig(3, Grid1D(10.0, 160))
        # the end-corrected weights span five nodes, and the far end is one more
        RecursionConfig(3, Grid1D(0.1, 6))
        with pytest.raises(ValueError, match="more than 5 points"):
            RecursionConfig(3, Grid1D(0.1, 5))


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
        assert recursion.predicted_work(default_config(n_max, spi)) <= recursion.MAX_WORK
        with pytest.raises(ValueError, match=r"exceeds the cap of 1e\+10 \(MAX_WORK\)"):
            default_config(*grown)

    def test_benchmark_and_test_shapes_far_below(self):
        # fp20, fp3_dense, the finest test grid and the widest hand-built one
        configs = [default_config(20, 16), default_config(3, 4096),
                   fine_config(20), RecursionConfig(3, Grid1D(40.0, 400001))]
        for cfg in configs:
            assert recursion.predicted_work(cfg) < recursion.MAX_WORK / 10


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
    def test_delta_kernel_limit(self, small_cfg):
        # a tiny step leaves the slice nearly unchanged in the interior
        prev = initial_slice(small_cfg)
        nxt = advance_slice(prev, small_cfg, 1.0 + 1e-4)
        x = small_cfg.grid.points()
        sel = (x > 0.5) & (x < 3.0)
        assert np.max(np.abs(nxt.values[sel] / prev.values[sel] - 1)) < 0.01

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
            amp = boundary_amplitude([prev.values], small_cfg, s - 2)[0] if s < 3 else (
                advance_slice(prev, small_cfg, s).values[0]
            )
            env = amp / heat_kernel(small_cfg.m, s * small_cfg.eps, 0.0, 0.0)
            want = projected_envelope_exact(small_cfg.eps, s * small_cfg.eps, 2)
            assert env == pytest.approx(want, abs=1e-4)

    def test_matches_direct_convolution_on_default_grid(self, default_run):
        # the 20-projection default grid over its first three advances
        cfg, _, slices, _ = default_run
        for prev in slices[:3]:
            assert_matches_direct(prev, cfg, prev.s + 1.0)

    def test_matches_direct_convolution_at_fractional_steps(self):
        # an odd (prime) point count and partial steps, so shorter kernels
        cfg = extent_config(3, 1237)
        prev = initial_slice(cfg)
        for s in (1.0625, 1.37, 1.9):
            assert_matches_direct(prev, cfg, s)
        prev = direct_advance(prev, cfg, 2.0)
        for s in (2.25, 2.61, 3.0):
            assert_matches_direct(prev, cfg, s)

    def test_matches_direct_convolution_with_clamped_kernel(self):
        # the grid is shorter than kernel_span widths: the kernel is cut at
        # n_points - 1 taps and reaches across the whole grid
        cfg = RecursionConfig(2, Grid1D(3.0, 301))
        prev = initial_slice(cfg)
        for s in (1.5, 2.0):
            assert len(_half_kernel(prev, cfg, s)) == cfg.grid.n_points
            assert_matches_direct(prev, cfg, s)
        assert_matches_direct(direct_advance(prev, cfg, 2.0), cfg, 3.0)

    def test_matches_direct_convolution_at_exact_fft_length(self):
        # n_points + taps is exactly 4096, a power of two: the FFT length
        # leaves no padding, the edge of wrap-around.  The slice grows
        # toward the far end, so a wrapped tail would show near x = 0
        cfg = RecursionConfig(2, Grid1D(3095 / 256, 3096))
        prev = EuclideanSlice(1.0, cfg.grid, 1.0 + cfg.grid.points())
        s = 1.0 + 625 / 4096   # a kernel of exactly 1000 taps at spacing 1/256
        assert cfg.grid.n_points + len(_half_kernel(prev, cfg, s)) - 1 == 4096
        assert_matches_direct(prev, cfg, s)

    def test_boundary_amplitude_is_advanced_origin_value(self, small_cfg):
        # both share one truncated kernel; only the summation order differs
        prev = advance_slice(initial_slice(small_cfg), small_cfg, 2.0)
        for u in (0.001, 0.3, 1.0):
            want = advance_slice(prev, small_cfg, 2.0 + u).values[0]
            got = boundary_amplitude([prev.values], small_cfg, u)[0]
            assert got == pytest.approx(want, rel=1e-13)

    def test_positivity_preserved(self, small_cfg):
        prev = initial_slice(small_cfg)
        for n in (2.0, 3.0):
            prev = advance_slice(prev, small_cfg, n)
            assert np.all(prev.values >= 0)

    def test_shared_spectrum_matches_own(self, small_cfg):
        # a run builds its whole-interval spectrum once; any whole-interval
        # advance given it is bit for bit the advance that builds its own
        first = initial_slice(small_cfg)
        spectrum = _kernel_spectrum(first, small_cfg, 2.0)
        for prev in (first, advance_slice(first, small_cfg, 2.0)):
            s_next = prev.s + 1.0
            got = advance_slice(prev, small_cfg, s_next, kernel_spectrum=spectrum)
            assert np.array_equal(got.values, advance_slice(prev, small_cfg, s_next).values)
        with pytest.raises(ValueError):
            advance_slice(first, small_cfg, 2.5, kernel_spectrum=spectrum)

    def test_slice_alignment_required(self, small_cfg):
        prev = advance_slice(initial_slice(small_cfg), small_cfg, 1.5)
        with pytest.raises(ValueError):
            advance_slice(prev, small_cfg, 2.0)  # not at integer s
        prev = initial_slice(small_cfg)
        with pytest.raises(ValueError):
            advance_slice(prev, small_cfg, 2.5)  # beyond next projection

    def test_values_must_match_grid(self, small_cfg):
        with pytest.raises(ValueError):
            EuclideanSlice(1.0, small_cfg.grid, np.ones(7))


class TestBoundaryAmplitude:
    """The one-pass boundary samples of several slices against the
    per-sample ``np.dot`` oracle, every slice row to 1e-14 relative."""

    @staticmethod
    def assert_matches_oracle(slices, cfg, u):
        got = boundary_amplitude([sl.values for sl in slices], cfg, u)
        assert got.shape == (len(slices),) + np.shape(u)
        for sl, row in zip(slices, got):
            want = [direct_boundary_amplitude(sl, cfg, sl.s + d) for d in np.ravel(u)]
            assert_allclose(row.ravel(), want, rtol=1e-14, atol=0.0)

    def test_matches_per_sample_oracle(self, small_cfg):
        # the slices at s = 1..4; unsorted offsets, a repeated one and the
        # interval end
        slices = pre_projection_slices(small_cfg)
        u = np.array([0.7, 0.01, 0.3, 1.0, 0.3, 0.55, 0.002])
        self.assert_matches_oracle(slices, small_cfg, u)
        self.assert_matches_oracle(slices, small_cfg, u.reshape(7, 1))
        self.assert_matches_oracle(slices, small_cfg, u[:0])
        self.assert_matches_oracle(slices, small_cfg, 0.3)

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

    def test_clamped_kernel(self):
        # the grid is shorter than kernel_span widths: the wider kernels are
        # cut at n_points - 1 taps and reach across the whole grid, whose
        # far end is half-weighted
        cfg = RecursionConfig(2, Grid1D(3.0, 301))
        slices = pre_projection_slices(cfg)
        u = np.arange(1, 17) / 16
        taps = recursion._taps(cfg, u * cfg.eps)
        assert taps.min() < cfg.grid.n_points - 1 == taps.max()
        self.assert_matches_oracle(slices, cfg, u)

    def test_blocks_stay_within_budget(self):
        # fp3_dense's samples at the default grid, and rows wider than the
        # budget: a row wider than 2^16 entries is a block of its own, every
        # other block holds at most 2^16 entries, and the blocks cover every
        # row, in order, out to its taps
        dense = default_config(3, 4096)
        cases = [(dense, np.arange(1, 4096) / 4096 * dense.eps)]
        wide = RecursionConfig(3, Grid1D(40.0, 400001))
        assert recursion._taps(wide, 0.5) + 1 > 1 << 16
        cases.append((wide, np.array([0.01, 0.5, 0.9, 1.0])))
        for cfg, dt in cases:
            taps = recursion._taps(cfg, dt)
            covered = 0
            for rows, block in _kernel_blocks(cfg, dt, taps):
                assert rows.start == covered
                covered = rows.stop
                assert block.shape[0] == rows.stop - rows.start
                assert np.all(block.shape[1] >= taps[rows] + 1)
                if taps[rows.start] + 1 > 1 << 16:
                    assert block.shape == (1, taps[rows.start] + 1)
                else:
                    assert block.size <= 1 << 16
            assert covered == len(dt)

    def test_recursion_runs_at_the_resolution_limit(self):
        # the narrowest kernel, of width sqrt(1 / 3), spans exactly
        # MIN_KERNEL_SPACINGS spacings: the config and the samples of the
        # recursion's own narrowest step, 1/3, both pass their refusals,
        # and one point fewer is refused
        width = np.sqrt(1 / 3)
        cfg = RecursionConfig(5, Grid1D(width / 4 * 49, 50), samples_per_interval=3)
        assert 4 * cfg.grid.spacing == width
        with pytest.raises(ValueError, match="too coarse"):
            RecursionConfig(5, Grid1D(width / 4 * 49, 49), samples_per_interval=3)
        curve = run_recursion(cfg)
        assert np.all((curve.values > 0) & (curve.values <= 1))

    def test_refuses_unresolved_kernels(self, small_cfg):
        # at spacing 4e-3 a step of 1e-4 eps has a kernel of width 0.01,
        # fewer than MIN_KERNEL_SPACINGS = 4 spacings; one such sample in a
        # batch refuses the batch for every slice
        values = [sl.values for sl in pre_projection_slices(small_cfg)[:2]]
        with pytest.raises(ValueError, match="narrower than 4 grid spacings"):
            boundary_amplitude(values, small_cfg, 1e-4)
        with pytest.raises(ValueError, match="narrower than 4 grid spacings"):
            boundary_amplitude(values, small_cfg, np.array([0.5, 1e-4, 0.9]))
        # a step of 2.56e-4 eps spans exactly four spacings
        boundary_amplitude(values, small_cfg, 4 * 4 * 16e-6)


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
        cfg = default_config(3, 4096)
        self.assert_identical(run_recursion(cfg), interval_by_interval_recursion(cfg))

    def test_matches_interval_by_interval_coarse(self, coarse_run):
        cfg, curve, _ = coarse_run
        self.assert_identical(curve, interval_by_interval_recursion(cfg))

    @pytest.mark.parametrize("n_max, spi", [(7, 37), (4, 100)])
    def test_matches_interval_by_interval_elsewhere(self, n_max, spi):
        # other sample counts: the step is u instead of (s - n), which may
        # differ in the last bit and move the envelope by up to 2e-15
        cfg = default_config(n_max, spi)
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
        self.assert_matches_exact_envelope(run_recursion(default_config(3, 256)), 256, 1e-9)

    def test_one_kernel_spectrum_per_run(self, monkeypatch):
        # the fp20 run builds its step kernel once and advances once per
        # interval, through the module attribute the benchmark traces
        cfg = default_config(20, 16)
        calls = {"_half_kernel": 0, "advance_slice": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(recursion, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(recursion, name, counted)
        run_recursion(cfg)
        assert calls == {"_half_kernel": 1, "advance_slice": cfg.n_max}

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
        cfg = default_config(3, 16)
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
        masses = [np.trapezoid(sl.values, sl.grid.points())
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
        for n_points in (8293, 16585):  # spacings 4e-3 and 2e-3
            cfg = extent_config(10, n_points)
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
