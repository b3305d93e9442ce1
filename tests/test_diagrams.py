import numpy as np
import pytest

from cplattice import diagrams
from cplattice.diagrams import (DELTA_BLOCK_PROCESSES, PROCESS_IDS, PoleHit,
                                combined_delta_part, combined_denominator_form,
                                delta_block_symmetrized, denominator,
                                symmetrized_inverse_sum, verify_identity)
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


def test_identity_at_sample_point():
    lhs = symmetrized_inverse_sum(0.37, 0.81, P5)
    rhs = combined_denominator_form(0.37, 0.81, P5)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_equal_frequency_point_via_two_sided_limit():
    # w = w' is regular for the twelve-term sum; the combined form has a
    # removable 0/0 there. Two-sided evaluation at +-1e-6 brackets the limit.
    params = ModelParams(mu=0.25, rho=1e-6)
    direct = symmetrized_inverse_sum(0.5, 0.5, params)
    eps = 1e-6
    lo = combined_denominator_form(0.5, 0.5 - eps, params)
    hi = combined_denominator_form(0.5, 0.5 + eps, params)
    assert direct == pytest.approx(0.5 * (lo + hi), rel=1e-9)
    with pytest.raises(PoleHit):
        combined_denominator_form(0.5, 0.5, params)


def test_pole_residue_agreement_at_w_equals_one():
    # Laurent fit: residue A of the (w-1) pole from two-point evaluation
    eps = 1e-4
    wp = 0.37

    def residue(fn):
        return eps * (fn(1.0 + eps, wp, P5) - fn(1.0 - eps, wp, P5)) / 2.0

    ra = residue(symmetrized_inverse_sum)
    rb = residue(combined_denominator_form)
    assert ra == pytest.approx(rb, rel=1e-8)


def test_delta_block_bookkeeping():
    # the six processes grouped into the 1/delta blocks reproduce the
    # 1/delta part of the combined form
    assert set(DELTA_BLOCK_PROCESSES) == {"I", "XI", "II", "VIII", "IX", "XII"}
    rng = np.random.default_rng(8)
    for mu in (0.25, 0.5, 0.9):
        params = ModelParams(mu=mu, rho=1e-6)
        for _ in range(200):
            w, wp = rng.uniform(0.02, 2.0, 2)
            if abs(w - wp) < 1e-3 or abs(w - 1) < 1e-3 or abs(wp - 1) < 1e-3:
                continue
            if abs(1 - mu - w - wp) < 1e-3:
                continue
            a = delta_block_symmetrized(w, wp, params)
            b = combined_delta_part(w, wp, params)
            assert a == pytest.approx(b, rel=1e-9)


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


def test_single_sample_smoke():
    rep = verify_identity(1, seed=123)
    assert rep.samples == 1
    assert rep.max_rel_error <= 1e-10
