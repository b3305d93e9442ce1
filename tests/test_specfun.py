import math

import numpy as np
import pytest
from scipy.integrate import quad

from cplattice import specfun

# 25-digit reference values (mpmath power-series/continued-fraction oracles).
CI_VALUES = {
    0.003: -5.23192957541165075,
    0.5: -0.177784078806612901,
    1.0: 0.337403922900968135,
    5.0: -0.190029749656643879,
    19.999: 0.0443993934111536944,
    20.001: 0.0444402016120892484,
    100.0: -0.00514882514261049214,
    1000.0: 0.000826315511090682282,
}

E1_VALUES = {
    0.003: 5.23492507691165115,
    0.5: 0.559773594776160812,
    0.999: 0.219752182022944541,
    1.0: 0.219383934395520274,
    1.001: 0.219016422527468856,
    2.0: 0.0489005107080611196,
    30.0: 3.02155201068881254e-15,
    50.0: 3.78326402955045902e-24,
}


@pytest.mark.parametrize("x,want", sorted(CI_VALUES.items()))
def test_cosine_integral_reference_values(x, want):
    assert abs(specfun.cosine_integral(x) - want) <= 1e-13


@pytest.mark.parametrize("x,want", sorted(E1_VALUES.items()))
def test_chi_minus_shi_reference_values(x, want):
    got = specfun.chi_minus_shi(x)
    assert got == pytest.approx(-want, rel=1e-13)
    assert abs(got + want) <= 1e-13


def test_e1_large_argument_relative_accuracy():
    assert specfun.chi_minus_shi(50.0) == pytest.approx(-3.78326402955045902e-24, rel=1e-15)


def test_domain_errors():
    for fn in (specfun.cosine_integral, specfun.chi_minus_shi, specfun.exp_integral_e1):
        with pytest.raises(specfun.DomainError):
            fn(0.0)
        with pytest.raises(specfun.DomainError):
            fn(-1.0)


def test_small_x_logarithmic_behaviour():
    gamma = 0.5772156649015329
    for x in (1e-3, 1e-5):
        assert specfun.cosine_integral(x) == pytest.approx(gamma + math.log(x), abs=x)
        assert specfun.chi_minus_shi(x) == pytest.approx(gamma + math.log(x), abs=2 * x)


def test_matches_mpmath_on_dense_grid():
    # 40-digit oracle on a log grid over [1e-6, 1e3], plus points straddling
    # x = 20 and x = 1, where hand-written Ci and E1 used to switch branches.
    # E1 is measured against E1 + the smallest normal double, as it leaves
    # the normal range above x ~ 700.
    mpmath = pytest.importorskip("mpmath")
    tiny = np.finfo(float).tiny
    straddle = [c * (1.0 + d) for c in (1.0, 20.0) for d in (-1e-9, -1e-13, 0.0, 1e-13, 1e-9)]
    with mpmath.workdps(40):
        for x in map(float, np.concatenate((np.geomspace(1e-6, 1e3, 2001), straddle))):
            ci = mpmath.ci(x)
            e1 = mpmath.e1(x)
            assert abs(specfun.cosine_integral(x) - ci) <= 1e-13, x
            assert abs(specfun.exp_integral_e1(x) - e1) <= 1e-13 * (e1 + tiny), x
            assert abs(specfun.chi_minus_shi(x) + e1) <= 1e-13 * (e1 + tiny), x


def test_ci_defining_quadrature_consistency():
    # Ci(x) = gamma + ln x + int_0^x (cos t - 1)/t dt at 20 spread points
    gamma = 0.5772156649015329
    rng = np.random.default_rng(2)
    for x in rng.uniform(0.05, 40.0, 20):
        integral, _ = quad(lambda t: (math.cos(t) - 1.0) / t, 0.0, x, limit=300)
        want = gamma + math.log(x) + integral
        assert abs(specfun.cosine_integral(float(x)) - want) < 1e-10


def test_ci_asymptotic_series_agreement():
    # four-term asymptotic oracle at x = 100
    x = 100.0
    s, c = math.sin(x), math.cos(x)
    want = s * (1.0 / x - 2.0 / x ** 3) - c * (1.0 / x ** 2 - 6.0 / x ** 4)
    assert abs(specfun.cosine_integral(x) - want) < 1e-6


def test_chi_minus_shi_negative_and_monotone():
    xs = np.geomspace(0.6, 60.0, 40)
    vals = [specfun.chi_minus_shi(float(x)) for x in xs]
    assert all(v < 0.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
