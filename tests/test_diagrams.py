import itertools
from fractions import Fraction

import numpy as np
import pytest

from cplattice import diagrams
from cplattice.diagrams import (FACTORS, PROCESS_IDS, PoleHit, combined_denominator_form,
                                denominator, symmetrized_inverse_sum, verify_identity)
from cplattice.model import ModelParams


P5 = ModelParams(mu=0.5, rho=1e-6)


def test_twelve_distinct_processes():
    assert len(PROCESS_IDS) == 12
    assert len(set(PROCESS_IDS)) == 12


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
    for p in PROCESS_IDS:
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
    for p in PROCESS_IDS:
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
    """The twelve-process collapse, symmetrized_inverse_sum ==
    combined_denominator_form, and its 1/delta part, the six processes of
    DELTA_BLOCK_PROCESSES == the symmetrized _delta_half, hold as identities
    of rational functions: checked in exact arithmetic on a product grid
    large enough that the check is a proof.

    Let D be the product of the eight factors of ``diagrams.FACTORS``:
    (1-w), (1-w'), (mu+w), (mu+w'), (1-mu), (w+w'), (1-mu-w-w') and
    (w-w'). w occurs in five of them and w' in five, mu in four
    ((mu+w), (mu+w'), (1-mu), (1-mu-w-w')), so D has degree 5 in w, 5 in
    w' and 4 in mu. For either identity LHS = RHS, N = D (LHS - RHS) is a
    polynomial of at most those degrees, since every term of either side,
    times D, is D divided by distinct factors of D, times a numerator no
    higher in any variable than the factors it replaces:
    - 1/D_p(w, w') and 1/D_p(w', w): D_p is +-1 times three distinct
      factors of D (the swap w <-> w' maps the factors onto themselves up
      to sign), so D/D_p is +-1 times the other five;
    - the combined form: each half is lead/(w+w') - lead/(w-w') with lead
      = 4 (w - delta)/(delta (w-1)(w+mu)), delta = 1 - mu. D times a term is
      4 (w - 1 + mu) times D over four distinct factors, among them (1-w)
      and (1-mu), so the linear numerator only takes their place;
    - the 1/delta part: each half expands to four terms, +-2 over three
      distinct factors of D.
    So deg_w N <= 5, deg_w' N <= 5 and deg_mu N <= 4. A polynomial of
    degree at most t_i in x_i that vanishes on a grid S_1 x S_2 x S_3 with
    |S_i| > t_i vanishes identically (Alon, Combin. Probab. Comput. 8
    (1999) 7, Lemma 2.1; Schwartz, J. ACM 27 (1980) 701). The grid below has
    6 x 6 x 5 points, and D != 0 on it: every factor is asserted nonzero at
    every point, which also keeps each evaluation off the poles. Equality
    there gives N = 0 there, so N = 0 everywhere and LHS = RHS wherever
    D != 0. Since the twelve-term sum is continuous across w = w', its
    value there is the limit of the combined form's removable 0/0, and the
    residues of the remaining poles agree.

    S_w = k/7, S_w' = m/11 and S_mu = j/5 with no k, m, j a multiple of its
    denominator: no element is an integer, and, the denominators being
    distinct primes, no sum or difference of elements of two or three
    different sets is one, so none of the eight factors can vanish.
    """
    s_w = [Fraction(k, 7) for k in (-3, 1, 2, 5, 9, 13)]
    s_wp = [Fraction(m, 11) for m in (-4, 1, 3, 7, 15, 20)]
    s_mu = [Fraction(j, 5) for j in (1, 2, 3, 4, 8)]
    assert not set(s_w) & set(s_wp)
    for w, wp, mu in itertools.product(s_w, s_wp, s_mu):
        assert all(factor(w, wp, mu) != 0 for factor in FACTORS.values()), (w, wp, mu)
        params = ModelParams(mu=mu, rho=1e-6)
        lhs = symmetrized_inverse_sum(w, wp, params)
        rhs = combined_denominator_form(w, wp, params)
        assert type(lhs) is type(rhs) is Fraction
        assert lhs == rhs, (w, wp, mu)
        delta = symmetrized_inverse_sum(w, wp, params, processes=DELTA_BLOCK_PROCESSES)
        assert delta == (_delta_half(w, wp, mu) + _delta_half(wp, w, mu)) / 2, (w, wp, mu)


def test_fuzzed_identity_10k():
    rep = verify_identity(10000, seed=42)
    assert rep.max_rel_error <= 1e-10
    assert rep.samples == 10000


def test_corrupted_denominator_detected(monkeypatch):
    def corrupted(process, w, wp, params):  # D_II off by 1e-6
        d = denominator(process, w, wp, params)
        return d * (1.0 + 1e-6) if process == "II" else d

    monkeypatch.setattr(diagrams, "denominator", corrupted)
    rep = verify_identity(2000, seed=42)
    assert rep.max_rel_error > 1e-10


def test_unknown_process_and_no_samples_rejected():
    with pytest.raises(ValueError, match="unknown process id 'XIII'"):
        denominator("XIII", 0.3, 0.7, P5)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        verify_identity(0, seed=42)


def test_single_sample_smoke():
    rep = verify_identity(1, seed=123)
    assert rep.samples == 1
    assert rep.max_rel_error <= 1e-10
