import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import QuadratureRule, integrate, quadrature_nodes
from zenoprop.core import NumericalFailure
from zenoprop.exact import absorbing_envelope
from zenoprop.recursion import RecursionConfig, run_recursion
from zenoprop.sawtooth import V0_EPS, oscillation_ratio, sawtooth_envelope

EPS = 1.0


def drop(k):
    """Instant s_k = k + 1 of the drop after peak k, in units of eps."""
    return (k + 1) * EPS


def model(s):
    """The saw-tooth at s = n + u, right-continuous at the drops."""
    n = np.floor(s)
    return sawtooth_envelope(n, s - n)


class TestSchedule:
    def test_projection_times(self):
        # drops at every whole s: the left limit, u = 1 of interval k - 1,
        # is 1/k and the right limit, u = 0 of interval k, half of it
        assert sawtooth_envelope(0, 1 - 1e-12) == 1.0
        for k in range(1, 6):
            above = sawtooth_envelope(k, 0.0)
            below = sawtooth_envelope(k - 1, 1.0)
            assert below == 1 / k
            assert above / below == 0.5

    def test_validation(self):
        for bad in (-1, -1e-300, -np.inf, [1, -1], 2.5, 1e-300, np.nan, np.inf):
            with pytest.raises(ValueError, match="interval index must be a whole number >= 0"):
                sawtooth_envelope(bad, 0.5)
        for bad in (-1e-300, 1 + 1e-15, np.nan, np.inf, [0.5, 1.5]):
            with pytest.raises(ValueError, match=r"offset must lie in \[0, 1\]"):
                sawtooth_envelope(2, bad)


class TestEnvelope:
    def test_unity_before_first_projection(self):
        assert_allclose(sawtooth_envelope(0, np.array([0.0, 0.3, 0.999, 1.0])), 1.0)

    def test_constant_half_on_first_interval(self):
        # the n = 1 branch collapses to the exact one-projection value
        u = np.linspace(0.0, 1.0, 50, endpoint=False)
        assert_allclose(sawtooth_envelope(1, u), 0.5, rtol=1e-14)

    def test_peaks_and_troughs(self):
        for k in range(1, 15):
            tk = drop(k)
            assert model(tk - 1e-12) == pytest.approx(1 / (k + 1), abs=1e-10)
            assert sawtooth_envelope(k, 1.0) == 1 / (k + 1)
            # right-continuity: the value at the drop is the trough
            assert model(tk) == pytest.approx(1 / (2 * (k + 1)), rel=1e-12)

    def test_jump_ratio_exactly_half(self):
        for k in range(1, 12):
            tk = drop(k)
            above = model(tk)
            below = model(tk - 1e-13)
            assert above / below == pytest.approx(0.5, abs=1e-9)

    def test_linear_between_drops(self):
        # second differences vanish inside every branch
        vals = sawtooth_envelope(3, np.linspace(0.05, 0.95, 41))
        assert np.max(np.abs(np.diff(vals, 2))) < 1e-13

    def test_peak_sequences_decreasing(self):
        # the peak ends interval k and the trough starts interval k + 1
        peaks = sawtooth_envelope(np.arange(25), 1.0)
        troughs = sawtooth_envelope(np.arange(1, 26), 0.0)
        assert np.all(np.diff(peaks) < 0)
        assert np.all(np.diff(troughs) < 0)
        assert_allclose(troughs, np.array(peaks) / 2)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            model(-0.1)


class TestOneDescription:
    """The saw-tooth's two facts on the (interval, offset) grid, for the
    model and for the recursion's table alike: each interval's u = 0 entry
    is half the u = 1 entry of the interval before, and the model's u = 1
    entry of interval n is the peak 1/(n+1)."""

    @staticmethod
    def assert_half_drops(table):
        assert np.array_equal(table[1:, 0], 0.5 * table[:-1, -1])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 300), st.integers(2, 500))
    def test_model_table(self, n_max, spi):
        n = np.arange(n_max + 1)
        table = sawtooth_envelope(n[:, None], np.arange(spi + 1) / spi)
        assert table.shape == (n_max + 1, spi + 1)
        self.assert_half_drops(table)
        assert np.array_equal(table[:, -1], 1 / (n + 1))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 12), st.integers(2, 64))
    def test_recursion_table(self, n_max, spi):
        table = run_recursion(RecursionConfig(n_max, spi))
        assert table.shape == (n_max + 1, spi + 1)
        self.assert_half_drops(table)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(max_value=-1), st.floats(0.0, 1.0))
    def test_negative_interval_raises(self, n, u):
        with pytest.raises(ValueError):
            sawtooth_envelope(n, u)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.floats(allow_nan=True).filter(lambda u: not 0 <= u <= 1))
    def test_offset_outside_the_interval_raises(self, n, u):
        with pytest.raises(ValueError):
            sawtooth_envelope(n, u)


class TestCalibration:
    def test_value(self):
        assert V0_EPS == 4 / 3

    def test_bracket_at_large_k(self):
        # 1/(2k) < 1/(v0 t) < 1/k at t = k eps
        eps = 1.0
        v0 = V0_EPS / eps
        k = 20
        assert 1 / (2 * k) < 1 / (v0 * k * eps) < 1 / k

    def test_absorbing_envelope_between_trough_and_peak(self):
        for k in range(1, 21):
            fv = absorbing_envelope(V0_EPS, drop(k))
            assert sawtooth_envelope(k + 1, 0.0) < fv < sawtooth_envelope(k, 1.0)


class TestOscillationRatio:
    def test_identity_case(self):
        assert oscillation_ratio(0.37, 0.37) == pytest.approx(0.0, abs=1e-15)

    def test_large_k_band(self):
        for k in range(8, 20):
            fv = absorbing_envelope(V0_EPS, drop(k))
            s_peak = oscillation_ratio(sawtooth_envelope(k, 1.0), fv)
            s_trough = oscillation_ratio(sawtooth_envelope(k + 1, 0.0), fv)
            assert s_peak == pytest.approx(1 / 3, abs=0.02)
            assert s_trough == pytest.approx(-1 / 3, abs=0.02)

    def test_small_time_limit(self):
        s = 1e-6
        ratio = oscillation_ratio(sawtooth_envelope(0, s), absorbing_envelope(V0_EPS, s))
        assert ratio == pytest.approx(0.0, abs=1e-5)

    def test_band_bound_from_three_eps(self):
        s = np.linspace(3.0, 30.0, 9000)
        ratio = oscillation_ratio(model(s), absorbing_envelope(V0_EPS, s))
        assert np.all(np.abs(ratio) <= 0.4)

    def test_division_guard(self):
        with pytest.raises(NumericalFailure):
            oscillation_ratio(0.5, 1e-13)


class TestModelCurves:
    def test_single_point_flat_region(self):
        s = 0.5
        fp = sawtooth_envelope(0, s)
        fv = absorbing_envelope(V0_EPS, s)
        assert fp == 1.0
        assert oscillation_ratio(fp, fv) == pytest.approx(1 / fv - 1)

    def test_one_period_has_one_extreme_pair(self):
        fp = sawtooth_envelope(5, np.linspace(0.0, 1.0 - 1e-9, 400))
        # strictly increasing within the branch: min at left end, max at right
        assert np.argmin(fp) == 0
        assert np.argmax(fp) == len(fp) - 1

    def test_time_average_of_s_small(self):
        # quadrature over the model curves on [5 eps, 20 eps]
        rule = QuadratureRule("midpoint", 6000)
        nodes = quadrature_nodes(rule, 5.0, 20.0)
        s = oscillation_ratio(model(nodes), absorbing_envelope(V0_EPS, nodes))
        avg = integrate(s, rule, 5.0, 20.0) / 15.0
        assert abs(avg) <= 0.05
