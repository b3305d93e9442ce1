import math

import numpy as np
import pytest

from cplattice.asymptotics import (Regime, all_regimes, asymptotic_shift,
                                   expected_exponent, full_closed_form)
from cplattice.euler_maclaurin import bulk_term
from cplattice.lattice_sum import resonant_pair_term, sum_lattice
from cplattice.model import Geometry, LatticeSpec, ModelParams, validate
from test_euler_maclaurin import contour_bulk_resonant


def mk(mu=0.5, rho=1e-6, a=0.01, M=0, z=0.01, array=(0, 0, 1)):
    return validate(ModelParams(mu=mu, rho=rho, array_dipole=array),
                    LatticeSpec(a_tilde=a, half_extent=M), Geometry(z_tilde=z))


def reg(kind, orientation, retardation, density):
    return Regime(kind=kind, orientation=orientation, retardation=retardation,
                  density=density)


def test_sparse_nonretarded_resonant_value():
    b = mk(z=0.01)
    v = asymptotic_shift(reg("resonant", "zz", "non_retarded", "sparse"), b)
    assert v == pytest.approx(3.0e6, rel=1e-12)
    # cross-check against the direct M=0 pair term
    assert v == pytest.approx(resonant_pair_term(0, 0, b), rel=2e-4)


def test_zx_sparse_vanishes():
    b = mk(array=(1, 0, 0))
    for r in all_regimes("zx"):
        if r.density == "sparse":
            assert asymptotic_shift(r, b) == 0.0
            assert expected_exponent(r) is None


def test_offresonant_retarded_dense_value():
    b = mk(mu=0.5, a=0.01, z=20.0)
    v = asymptotic_shift(reg("off_resonant", "zz", "retarded", "dense"), b)
    assert v == pytest.approx(0.9 * (1e-6 / 0.5) / (1e-4 * 3.2e6), rel=1e-12)
    assert v == pytest.approx(5.625e-9, rel=1e-3)


def test_tabulated_exponents():
    assert expected_exponent(reg("resonant", "zz", "non_retarded", "sparse")) == -6
    assert expected_exponent(reg("resonant", "zz", "non_retarded", "dense")) == -4
    assert expected_exponent(reg("resonant", "zz", "retarded", "sparse")) == -4
    assert expected_exponent(reg("resonant", "zz", "retarded", "dense")) == -3
    assert expected_exponent(reg("off_resonant", "zz", "non_retarded", "sparse")) == -6
    assert expected_exponent(reg("off_resonant", "zz", "retarded", "sparse")) == -7
    assert expected_exponent(reg("off_resonant", "zz", "retarded", "dense")) == -5
    assert expected_exponent(reg("resonant", "zx", "retarded", "dense")) == -2
    assert expected_exponent(reg("off_resonant", "zx", "retarded", "dense")) == -5


def test_every_form_linear_in_rho_and_tabulated_spacing_power():
    for orientation in ("zz", "zx"):
        array = (0, 0, 1) if orientation == "zz" else (1, 0, 0)
        for r in all_regimes(orientation):
            b1 = mk(rho=1e-6, a=0.02, z=0.7, array=array)
            b2 = mk(rho=3e-6, a=0.02, z=0.7, array=array)
            v1, v2 = asymptotic_shift(r, b1), asymptotic_shift(r, b2)
            if v1 == 0.0:
                assert v2 == 0.0
                continue
            assert v2 / v1 == pytest.approx(3.0, rel=1e-14)
            b3 = mk(rho=1e-6, a=0.04, z=0.7, array=array)
            v3 = asymptotic_shift(r, b3)
            want = 4.0 if r.density == "dense" else 1.0
            assert v1 / v3 == pytest.approx(want, rel=1e-14)


def test_sparse_forms_match_single_atom_term_in_their_windows():
    # non-retarded window
    b = mk(z=0.005)
    assert asymptotic_shift(reg("resonant", "zz", "non_retarded", "sparse"), b) == \
        pytest.approx(resonant_pair_term(0, 0, b), rel=1e-4)
    bo = mk(mu=2.0, z=0.005)
    assert asymptotic_shift(reg("off_resonant", "zz", "non_retarded", "sparse"), bo) == \
        pytest.approx(sum_lattice(bo, "off_resonant").off_resonant, rel=1e-2)
    # retarded window: resonant oscillates, compare at a pendulation peak
    zpk = 40.0 * math.pi / 2.0  # cos(2z) = +1 -> |value| at envelope
    br = mk(z=zpk)
    assert abs(asymptotic_shift(reg("resonant", "zz", "retarded", "sparse"), br)) == \
        pytest.approx(abs(resonant_pair_term(0, 0, br)), rel=2e-3)
    bor = mk(mu=2.0, z=25.0)
    assert asymptotic_shift(reg("off_resonant", "zz", "retarded", "sparse"), bor) == \
        pytest.approx(sum_lattice(bor, "off_resonant").off_resonant, rel=1e-2)


def test_dense_forms_match_bulk_in_their_windows():
    b = mk(z=0.02, a=0.001)
    assert asymptotic_shift(reg("resonant", "zz", "non_retarded", "dense"), b) == \
        pytest.approx(bulk_term(b, "resonant"), rel=2e-3)
    bo = mk(mu=2.0, z=30.0, a=0.001)
    assert asymptotic_shift(reg("off_resonant", "zz", "retarded", "dense"), bo) == \
        pytest.approx(bulk_term(bo, "off_resonant"), rel=1e-2)
    bx = mk(z=0.02, a=0.001, array=(1, 0, 0))
    assert asymptotic_shift(reg("resonant", "zx", "non_retarded", "dense"), bx) == \
        pytest.approx(bulk_term(bx, "resonant"), rel=2e-3)
    box = mk(mu=2.0, z=30.0, a=0.001, array=(1, 0, 0))
    assert asymptotic_shift(reg("off_resonant", "zx", "retarded", "dense"), box) == \
        pytest.approx(bulk_term(box, "off_resonant"), rel=1e-2)


def test_full_closed_form_limits():
    # z -> 0: ratio against the non-retarded dense form -> 1 + O(z^2)
    for orientation, array in (("zz", (0, 0, 1)), ("zx", (1, 0, 0))):
        b = mk(z=0.02, array=array)
        ratio = full_closed_form(orientation, b) / asymptotic_shift(
            reg("resonant", orientation, "non_retarded", "dense"), b)
        assert ratio == pytest.approx(1.0, abs=3 * 0.02 ** 2)
    # large z: envelope of the zz closed form matches the retarded dense
    # amplitude at a sin(2z) extremum
    zpk = (4 * 30 + 1) * math.pi / 4.0  # sin(2z) = +1
    b = mk(z=zpk)
    want = asymptotic_shift(reg("resonant", "zz", "retarded", "dense"), b)
    assert full_closed_form("zz", b) == pytest.approx(want, rel=2e-2)
    # zx envelope at a cos(2z) extremum
    zpk = 30 * math.pi  # cos(2z) = +1
    bx = mk(z=zpk, array=(1, 0, 0))
    wantx = asymptotic_shift(reg("resonant", "zx", "retarded", "dense"), bx)
    assert full_closed_form("zx", bx) == pytest.approx(wantx, rel=2e-2)


def test_retarded_resonant_zero_crossing_spacing_is_half_pi():
    # pendulation period pi in z: signed zero crossings spaced pi/2
    b0 = mk()
    zs = np.linspace(6.0, 26.0, 4001)
    vals = np.array([full_closed_form("zz", mk(z=float(z))) for z in zs])
    sgn = np.sign(vals)
    idx = np.nonzero(sgn[1:] != sgn[:-1])[0]
    crossings = zs[idx]
    spacing = np.diff(crossings)
    assert np.allclose(spacing, math.pi / 2.0, rtol=0.02)


def test_regime_validation():
    with pytest.raises(ValueError):
        Regime(kind="bogus", orientation="zz", retardation="retarded", density="dense")
    with pytest.raises(ValueError):
        full_closed_form("xy", mk())


def test_full_closed_form_rejects_a_mismatched_orientation():
    with pytest.raises(ValueError):
        full_closed_form("zx", mk())
    with pytest.raises(ValueError):
        full_closed_form("zz", mk(array=(1, 0, 0)))
    with pytest.raises(ValueError):
        full_closed_form("zz", mk(array=(0, 1, 0)))


@pytest.mark.parametrize("z", [1e3, 3e3, 1e4])
def test_full_closed_form_is_the_bulk_term_at_large_z(z):
    # the Ci closed form cancels at these heights (1.4e-8 relative at 1e4)
    b = mk(z=z)
    assert full_closed_form("zz", b) == bulk_term(b, "resonant")
    assert full_closed_form("zz", b) == pytest.approx(contour_bulk_resonant(b), rel=1e-12)


def test_vanishing_forms_are_positive_zero():
    # K < 0 above resonance: a vanishing form must still print as 0, not -0
    b = mk(mu=2.0, array=(1, 0, 0))
    for r in all_regimes("zx"):
        if r.density == "sparse":
            assert math.copysign(1.0, asymptotic_shift(r, b)) == 1.0
