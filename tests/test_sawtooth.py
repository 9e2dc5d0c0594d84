import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import QuadratureRule, integrate, quadrature_nodes
from zenoprop.core import NumericalFailure
from zenoprop.exact import absorbing_envelope
from zenoprop.sawtooth import (
    calibrate_absorption,
    oscillation_ratio,
    peak_value,
    sawtooth_envelope,
    trough_value,
)

EPS = 1.0


def drop(k):
    """Instant t_k = (k + 1) eps of the drop after peak k."""
    return (k + 1) * EPS


class TestSchedule:
    def test_projection_times(self):
        # drops at every whole s = t/eps, whatever eps is: t = k eps over
        # eps is k exactly
        eps = 0.5
        assert sawtooth_envelope((eps - 1e-12) / eps) == 1.0
        for k in range(1, 6):
            above = sawtooth_envelope(k * eps / eps)
            below = sawtooth_envelope((k * eps - 1e-12) / eps)
            assert below == pytest.approx(1 / k, abs=1e-10)
            assert above / below == pytest.approx(0.5, abs=1e-9)

    def test_validation(self):
        for bad in (-1.0, -1e-300, -np.inf, [0.5, -0.5]):
            with pytest.raises(ValueError, match="s >= 0"):
                sawtooth_envelope(bad)


class TestEnvelope:
    def test_unity_before_first_projection(self):
        t = np.array([0.0, 0.3, 0.999])
        assert_allclose(sawtooth_envelope(t), 1.0)

    def test_constant_half_on_first_interval(self):
        # the k = 1 branch collapses to the exact one-projection value
        t = np.linspace(1.0, 2.0, 50, endpoint=False)
        assert_allclose(sawtooth_envelope(t), 0.5, rtol=1e-14)

    def test_peaks_and_troughs(self):
        for k in range(1, 15):
            tk = drop(k)
            assert sawtooth_envelope(tk - 1e-12) == pytest.approx(
                peak_value(k), abs=1e-10
            )
            # right-continuity: the value at the drop is the trough
            assert sawtooth_envelope(tk) == pytest.approx(
                trough_value(k), rel=1e-12
            )

    def test_jump_ratio_exactly_half(self):
        for k in range(1, 12):
            tk = drop(k)
            above = sawtooth_envelope(tk)
            below = sawtooth_envelope(tk - 1e-13)
            assert above / below == pytest.approx(0.5, abs=1e-9)

    def test_linear_between_drops(self):
        # second differences vanish inside every branch
        t = np.linspace(3.05, 3.95, 41)
        vals = sawtooth_envelope(t)
        assert np.max(np.abs(np.diff(vals, 2))) < 1e-13

    def test_peak_sequences_decreasing(self):
        peaks = [peak_value(k) for k in range(25)]
        troughs = [trough_value(k) for k in range(25)]
        assert np.all(np.diff(peaks) < 0)
        assert np.all(np.diff(troughs) < 0)
        assert_allclose(troughs, np.array(peaks) / 2)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            sawtooth_envelope(-0.1)


class TestCalibration:
    def test_value(self):
        assert calibrate_absorption(1.0) == pytest.approx(4 / 3)
        assert calibrate_absorption(0.5) == pytest.approx(8 / 3)

    def test_bracket_at_large_k(self):
        # 1/(2k) < 1/(v0 t) < 1/k at t = k eps
        eps = 1.0
        v0 = calibrate_absorption(eps)
        k = 20
        assert 1 / (2 * k) < 1 / (v0 * k * eps) < 1 / k

    def test_absorbing_envelope_between_trough_and_peak(self):
        v0 = calibrate_absorption(EPS)
        for k in range(1, 21):
            tk = drop(k)
            fv = absorbing_envelope(v0, tk)
            assert trough_value(k) < fv < peak_value(k)


class TestOscillationRatio:
    def test_identity_case(self):
        assert oscillation_ratio(0.37, 0.37) == pytest.approx(0.0, abs=1e-15)

    def test_large_k_band(self):
        v0 = calibrate_absorption(EPS)
        for k in range(8, 20):
            tk = drop(k)
            fv = absorbing_envelope(v0, tk)
            s_peak = oscillation_ratio(peak_value(k), fv)
            s_trough = oscillation_ratio(trough_value(k), fv)
            assert s_peak == pytest.approx(1 / 3, abs=0.02)
            assert s_trough == pytest.approx(-1 / 3, abs=0.02)

    def test_small_time_limit(self):
        v0 = calibrate_absorption(EPS)
        t = 1e-6
        s = oscillation_ratio(sawtooth_envelope(t), absorbing_envelope(v0, t))
        assert s == pytest.approx(0.0, abs=1e-5)

    def test_band_bound_from_three_eps(self):
        v0 = calibrate_absorption(EPS)
        t = np.linspace(3.0, 30.0, 9000)
        s = oscillation_ratio(
            sawtooth_envelope(t), absorbing_envelope(v0, t)
        )
        assert np.all(np.abs(s) <= 0.4)

    def test_division_guard(self):
        with pytest.raises(NumericalFailure):
            oscillation_ratio(0.5, 1e-13)


class TestModelCurves:
    def test_single_point_flat_region(self):
        v0 = calibrate_absorption(EPS)
        t = EPS / 2
        fp = sawtooth_envelope(t)
        fv = absorbing_envelope(v0, t)
        assert fp == 1.0
        assert oscillation_ratio(fp, fv) == pytest.approx(1 / fv - 1)

    def test_one_period_has_one_extreme_pair(self):
        t = np.linspace(5.0, 6.0 - 1e-9, 400)
        fp = sawtooth_envelope(t)
        # strictly increasing within the branch: min at left end, max at right
        assert np.argmin(fp) == 0
        assert np.argmax(fp) == len(t) - 1

    def test_time_average_of_s_small(self):
        # quadrature over the model curves on [5 eps, 20 eps]
        v0 = calibrate_absorption(EPS)
        rule = QuadratureRule("midpoint", 6000)
        nodes = quadrature_nodes(rule, 5.0, 20.0)
        s = oscillation_ratio(sawtooth_envelope(nodes), absorbing_envelope(v0, nodes))
        avg = integrate(s, rule, 5.0, 20.0) / 15.0
        assert abs(avg) <= 0.05
