import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import richardson_right_limit
from zenoprop.core import Grid1D, NumericalFailure, heat_kernel
from zenoprop.exact import projected_envelope_exact
from zenoprop.recursion import (
    EuclideanSlice,
    RecursionConfig,
    advance_slice,
    boundary_amplitude,
    default_config,
    initial_slice,
    numeric_oscillation_curve,
    run_recursion,
)
from zenoprop.sawtooth import calibrate_absorption


# grid points at spacing 4e-3 sqrt(eps/m) over the default extent, for n = 4
UNIT_RUN_POINTS = 5592


@pytest.fixture(scope="module")
def unit_run():
    return run_recursion(default_config(1.0, 1.0, 4, 16, UNIT_RUN_POINTS))


@pytest.fixture(scope="module")
def small_cfg():
    # fast configuration for unit checks (spacing 4e-3); tolerances stay far
    # below targets
    return default_config(1.0, 1.0, 3, 16, 5001)


class TestConfig:
    def test_default_grid_geometry(self):
        g = default_config(1.0, 1.0, 20, 16).grid
        assert g.x_max >= 10 * np.sqrt(21.0)
        assert g.spacing == pytest.approx(1e-3, rel=1e-6)
        # a point count keeps the default extent
        assert default_config(1.0, 1.0, 20, 16, 1001).grid == Grid1D(g.x_max, 1001)

    @pytest.mark.parametrize("n_max, points", [(3, 20001), (8, 30001), (15, 40001), (24, 50001)])
    def test_default_point_count_is_scale_free(self, n_max, points):
        # the extent is a fixed number of spacings, so no (m, eps) rounds
        # the count differently (n_max + 1 a perfect square is the edge case)
        scales = (0.1, 0.3, 0.7, 1.0, 2.0, 2.5, 3.0, 5.0)
        counts = {
            default_config(m, eps, n_max, 16).grid.n_points for m in scales for eps in scales
        }
        assert counts == {points}

    def test_validation(self):
        g = Grid1D(10.0, 1001)
        with pytest.raises(ValueError):
            RecursionConfig(1.0, 1.0, 0, g)
        with pytest.raises(ValueError):
            RecursionConfig(1.0, 1.0, 3, g, samples_per_interval=1)
        with pytest.raises(ValueError):
            RecursionConfig(-1.0, 1.0, 3, g)
        # the narrowest kernel, of width sqrt(eps / (16 m)) = 0.25, needs 4 spacings
        RecursionConfig(1.0, 1.0, 3, Grid1D(10.0, 161))
        with pytest.raises(ValueError, match="too coarse"):
            RecursionConfig(1.0, 1.0, 3, Grid1D(10.0, 160))


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
        for s in (1.25, 1.5, 1.99):
            amp = boundary_amplitude(prev, small_cfg, s)
            env = amp / heat_kernel(small_cfg.m, s * small_cfg.eps, 0.0, 0.0)
            assert env == pytest.approx(0.5, abs=1e-4)

    def test_two_projection_arctan_curve(self, small_cfg):
        prev = initial_slice(small_cfg)
        prev = advance_slice(prev, small_cfg, 2.0)
        for s in (2.2, 2.5, 2.8, 3.0):
            amp = boundary_amplitude(prev, small_cfg, s) if s < 3 else advance_slice(
                prev, small_cfg, s
            ).values[0]
            env = amp / heat_kernel(small_cfg.m, s * small_cfg.eps, 0.0, 0.0)
            want = projected_envelope_exact(small_cfg.eps, s * small_cfg.eps, 2)
            assert env == pytest.approx(want, abs=1e-4)

    def test_boundary_amplitude_is_advanced_origin_value(self, small_cfg):
        # both share one truncated kernel; only the summation order differs
        prev = advance_slice(initial_slice(small_cfg), small_cfg, 2.0)
        for s in (2.001, 2.3, 3.0):
            want = advance_slice(prev, small_cfg, s).values[0]
            assert boundary_amplitude(prev, small_cfg, s) == pytest.approx(want, rel=1e-13)

    def test_positivity_preserved(self, small_cfg):
        prev = initial_slice(small_cfg)
        for n in (2.0, 3.0):
            prev = advance_slice(prev, small_cfg, n)
            assert np.all(prev.values >= 0)

    def test_slice_alignment_required(self, small_cfg):
        prev = advance_slice(initial_slice(small_cfg), small_cfg, 1.5)
        with pytest.raises(ValueError):
            advance_slice(prev, small_cfg, 2.0)  # not at integer s
        prev = initial_slice(small_cfg)
        with pytest.raises(ValueError):
            advance_slice(prev, small_cfg, 2.5)  # beyond next projection
        with pytest.raises(ValueError):
            boundary_amplitude(prev, small_cfg, 1.0)

    def test_values_must_match_grid(self, small_cfg):
        with pytest.raises(ValueError):
            EuclideanSlice(1.0, small_cfg.grid, np.ones(7))


class TestRightLimit:
    def test_extrapolated_matches_direct(self, small_cfg):
        # the sqrt(offset)-Richardson limit agrees with the exact coincidence
        # value, half the left limit, inside 1e-3 even on this coarse grid
        # (the tiny-offset kernel is the least-resolved object in the module)
        prev = initial_slice(small_cfg)
        prev = advance_slice(prev, small_cfg, 2.0)
        direct = 0.5 * prev.values[0] / heat_kernel(small_cfg.m, 2 * small_cfg.eps, 0.0, 0.0)
        assert richardson_right_limit(prev, small_cfg) == pytest.approx(direct, rel=1e-3)


class TestRunRecursion:
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
        # (the error falls 4x per halving of the spacing; 7.5e-7 at small_cfg's)
        cfg = default_config(1.0, 1.0, 3, 16)
        curve = run_recursion(cfg)
        sel = (curve.times > 3 * cfg.eps) & (curve.times <= 4 * cfg.eps) & (curve.sides != "+")
        assert sel.sum() == cfg.samples_per_interval
        for t, v in zip(curve.times[sel], curve.values[sel]):
            assert v == pytest.approx(projected_envelope_exact(cfg.eps, t, 3), abs=1e-7), t

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
        _, slices = run_recursion(small_cfg, collect_slices=True)
        masses = [np.trapezoid(sl.values, sl.grid.points()) for sl in slices]
        assert np.all(np.diff(masses) < 0)

    def test_half_value_at_breakpoints(self, coarse_run):
        # the '+' rows are the coincidence limit, exactly half the '-' rows;
        # the sqrt(offset)-extrapolated right limit confirms the half drop
        cfg, curve, slices = coarse_run
        for k in range(1, cfg.n_max + 1):
            at_k = np.isclose(curve.times, k * cfg.eps)
            peak = curve.values[at_k & (curve.sides == "-")][0]
            trough = curve.values[at_k & (curve.sides == "+")][0]
            assert trough == peak / 2
            assert richardson_right_limit(slices[k - 1], cfg) == pytest.approx(peak / 2, rel=1e-3)

    def test_grid_convergence(self):
        # halving the spacing moves the n = 10 peak by far less than 1e-4
        peaks = []
        for grid_points in (8293, 16585):  # spacings 4e-3 and 2e-3
            cfg = default_config(1.0, 1.0, 10, 16, grid_points)
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
    def test_mass_and_units_scale_out(self, unit_run, m, eps):
        # the envelope depends on t / eps only: the default grid scales with
        # sqrt(eps / m), so every (m, eps) repeats the m = eps = 1 arithmetic
        curve = run_recursion(default_config(m, eps, 4, 16, UNIT_RUN_POINTS))
        assert np.array_equal(curve.sides, unit_run.sides)
        assert_allclose(curve.times / eps, unit_run.times, rtol=1e-15)
        assert np.max(np.abs(curve.values - unit_run.values)) <= 1e-13


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
