from fractions import Fraction

import numpy as np
import pytest

from cplattice import diagrams
from cplattice.diagrams import (PROCESSES, PoleHit, combined_denominator_form, denominator,
                                grid_points, symmetrized_inverse_sum, verify_identity)
from cplattice.model import ModelParams


P5 = ModelParams(mu=0.5, rho=1e-6)


def test_twelve_distinct_processes():
    assert len(PROCESSES) == 12
    assert len(set(PROCESSES.values())) == 12


def test_denominator_tabulated_rows():
    # row II: (1-w)(1-mu)(1-w')
    assert denominator("II", 0.5, 0.3, P5) == pytest.approx(0.5 * 0.5 * 0.7, rel=1e-15)
    # row VIII: (mu+w)(1-mu)(mu+w')
    assert denominator("VIII", 0.2, 0.4, P5) == pytest.approx(0.7 * 0.5 * 0.9, rel=1e-15)


def test_on_shell_pole_gives_zero_factor():
    assert denominator("I", 1.0, 0.77, P5) == 0.0
    with pytest.raises(PoleHit):
        symmetrized_inverse_sum(1.0, 0.77, P5)


def test_sign_pattern():
    # D_I, D_V, D_VI, D_IX carry the overall minus sign
    w, wp = 0.11, 0.13  # small: every linear factor positive
    for p in PROCESSES:
        d = denominator(p, w, wp, P5)
        if p in ("I", "V", "VI", "IX"):
            assert d < 0.0, p
        else:
            assert d > 0.0, p


def test_each_denominator_is_product_of_three_linear_factors():
    # exact 2D polynomial fit: residual ~ 0 and nothing above total degree 3.
    # Processes I, II, VIII, IX carry the constant detuning factor (1 - mu),
    # so their (w, w') degree is 2; the remaining eight reach degree 3.
    rng = np.random.default_rng(0)
    w = rng.uniform(0.0, 2.0, 60)
    wp = rng.uniform(0.0, 2.0, 60)
    powers = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]
    basis = np.stack([w ** i * wp ** j for i, j in powers], axis=1)
    for p in PROCESSES:
        y = denominator(p, w, wp, P5)
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        resid = np.max(np.abs(basis @ coef - y))
        assert resid < 1e-10
        deg4 = max(abs(c) for (i, j), c in zip(powers, coef) if i + j == 4)
        deg3 = max(abs(c) for (i, j), c in zip(powers, coef) if i + j == 3)
        assert deg4 < 1e-9
        expected_degree = 2 if p in ("I", "II", "VIII", "IX") else 3
        if expected_degree == 3:
            assert deg3 > 1e-3
        else:
            assert deg3 < 1e-9


def test_symmetrized_sum_is_swap_symmetric():
    a = symmetrized_inverse_sum(0.37, 0.81, P5)
    b = symmetrized_inverse_sum(0.81, 0.37, P5)
    assert a == b


def test_combined_form_raises_at_equal_frequencies():
    # w = w' is regular for the twelve-term sum; the combined form has a
    # removable 0/0 there, which it refuses to evaluate
    params = ModelParams(mu=0.25, rho=1e-6)
    assert np.isfinite(symmetrized_inverse_sum(0.5, 0.5, params))
    with pytest.raises(PoleHit):
        combined_denominator_form(0.5, 0.5, params)


# The processes whose inverse denominators carry the 1/delta part of the
# collapse, and that part, per half of the symmetrization:
#   (2/delta) [1/(w+w') - 1/(w-w')] [1/(w-1) + 1/(w+mu)]
DELTA_BLOCK_PROCESSES = ("I", "XI", "II", "VIII", "IX", "XII")


def _delta_half(w, wp, mu):
    d = 1 - mu
    return 2 / d * (1 / (w + wp) - 1 / (w - wp)) * (1 / (w - 1) + 1 / (w + mu))


def test_collapse_is_proved_exactly_on_a_grid():
    # verify_identity's docstring proves that equality on its grid is the
    # identity; both sides are exact there
    assert verify_identity() is None
    w, wp, mu = next(grid_points())
    params = ModelParams(mu=mu, rho=1e-6)
    assert type(symmetrized_inverse_sum(w, wp, params)) is Fraction
    assert type(combined_denominator_form(w, wp, params)) is Fraction


def test_delta_block_is_proved_exactly_on_the_grid():
    """The 1/delta part of the collapse, the six processes of
    DELTA_BLOCK_PROCESSES == the symmetrized _delta_half, is an identity
    too, by verify_identity's argument on its grid: each half of the 1/delta
    part expands to four terms, +-2 over three distinct factors of D, so N
    keeps the degree bounds there."""
    for w, wp, mu in grid_points():
        params = ModelParams(mu=mu, rho=1e-6)
        block = sum(1 / denominator(p, w, wp, params) + 1 / denominator(p, wp, w, params)
                    for p in DELTA_BLOCK_PROCESSES) / 2
        assert type(block) is Fraction
        assert block == (_delta_half(w, wp, mu) + _delta_half(wp, w, mu)) / 2, (w, wp, mu)


@pytest.mark.parametrize("process", list(PROCESSES))
def test_corrupted_denominator_detected(monkeypatch, process):
    # one denominator off by the rational factor 1 + 1e-12: the exact check
    # reports a point where the sides differ
    exact = denominator

    def corrupted(p, w, wp, params):
        d = exact(p, w, wp, params)
        return d * (1 + Fraction(1, 10 ** 12)) if p == process else d

    monkeypatch.setattr(diagrams, "denominator", corrupted)
    point = verify_identity()
    assert point is not None and point in set(grid_points())


def test_a_vanishing_factor_is_a_pole_hit(monkeypatch):
    # a grid point on a factor's zero set would void the proof
    monkeypatch.setattr(diagrams, "grid_points",
                        lambda: iter([(Fraction(1, 7), Fraction(1, 11), Fraction(59, 77))]))
    with pytest.raises(PoleHit, match=r"factor 1-mu-w-w' vanishes at \(w, w', mu\) = "
                                      r"\(1/7, 1/11, 59/77\)"):
        verify_identity()


def test_unknown_process_rejected():
    with pytest.raises(ValueError, match="unknown process id 'XIII'"):
        denominator("XIII", 0.3, 0.7, P5)
