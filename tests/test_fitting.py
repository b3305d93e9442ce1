import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplattice.fitting import (FitReport, InsufficientPoints, TooFewPeaks,
                               ZeroValue, envelope_fit, fit_power_law)


def power_points(c, p, zmin=0.1, zmax=1.0, n=30):
    z = np.geomspace(zmin, zmax, n)
    return np.stack([z, c * z ** p], axis=1)


def test_exact_power_law_recovered():
    rep = fit_power_law(power_points(7.0, -4.0), (0.1, 1.0))
    assert rep.slope == pytest.approx(-4.0, abs=1e-12)
    assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
    assert math.exp(rep.intercept) == pytest.approx(7.0, rel=1e-10)


def test_signed_data_uses_absolute_values():
    rep = fit_power_law(power_points(-3.0, -2.0), (0.1, 1.0))
    assert rep.slope == pytest.approx(-2.0, abs=1e-12)


def test_window_restricts_points():
    pts = power_points(1.0, -1.0, 0.01, 100.0, 200)
    rep = fit_power_law(pts, (0.1, 1.0))
    assert rep.window == (0.1, 1.0)
    assert rep.points_used < 200
    assert rep.slope == pytest.approx(-1.0, abs=1e-12)


def test_insufficient_points():
    with pytest.raises(InsufficientPoints):
        fit_power_law(power_points(1.0, -1.0, n=30), (0.5, 0.52))


def test_zero_value_rejected():
    pts = power_points(1.0, -1.0).tolist()
    pts[3][1] = 0.0
    with pytest.raises(ZeroValue):
        fit_power_law(pts, (0.1, 1.0))


def test_points_that_are_not_pairs_rejected():
    for points in ([1.0, 2.0, 3.0, 4.0, 5.0], [(z, 1.0, 0.0) for z in range(1, 7)]):
        for fit in (fit_power_law, envelope_fit):
            with pytest.raises(ValueError, match="sequence of \\(z, value\\) pairs"):
                fit(points, (0.0, 10.0))


def test_envelope_fit_insufficient_points():
    # four points in the window: too few before any peak is looked for
    with pytest.raises(InsufficientPoints, match="4 points in window"):
        envelope_fit([(z, 1.0 + z % 2) for z in range(1, 9)], (1.0, 4.0))


def test_envelope_fit_constructed_oscillation():
    z = np.linspace(5.0, 30.0, 1200)  # ~16 periods, 75 points per period
    v = np.abs(np.sin(2 * z)) / z ** 3
    rep = envelope_fit(np.stack([z, v], axis=1), (5.0, 30.0))
    assert rep.slope == pytest.approx(-3.0, abs=0.05)


def test_envelope_fit_takes_the_peaks_between_zeros():
    # zeros in the troughs are no peaks, and every peak is positive
    pts = [(z, 0.0 if z % 2 == 0 else z ** -2.0) for z in range(1, 22)]
    rep = envelope_fit(pts, (1.0, 21.0))
    assert rep.points_used == 9 and rep.slope == pytest.approx(-2.0, abs=1e-12)


def test_envelope_fit_too_few_peaks():
    z = np.linspace(5.0, 6.0, 50)
    v = np.sin(2 * z) / z ** 3
    with pytest.raises(TooFewPeaks):
        envelope_fit(np.stack([z, v], axis=1), (5.0, 6.0))


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-6, 1e6))
def test_scale_equivariance(c):
    base = power_points(2.0, -3.5)
    scaled = base.copy()
    scaled[:, 1] *= c
    r0 = fit_power_law(base, (0.1, 1.0))
    r1 = fit_power_law(scaled, (0.1, 1.0))
    # ln(c*v) differs from ln c + ln v by one rounding per point, so the
    # slope is invariant only to that noise floor, not bit-identical
    assert r1.slope == pytest.approx(r0.slope, abs=1e-13)
    assert r1.intercept == pytest.approx(r0.intercept + math.log(c), rel=1e-9, abs=1e-9)


def test_window_monotonicity_on_exact_data():
    pts = power_points(5.0, -2.5, 0.05, 5.0, 120)
    slopes = [fit_power_law(pts, w).slope
              for w in ((0.05, 5.0), (0.1, 2.0), (0.3, 1.0))]
    for s in slopes:
        assert s == pytest.approx(-2.5, abs=1e-11)


def test_report_fields():
    rep = fit_power_law(power_points(1.0, -1.0), (0.1, 1.0))
    assert isinstance(rep, FitReport)
    assert 0.0 <= rep.r_squared <= 1.0
    assert rep.points_used >= 5
