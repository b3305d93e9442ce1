import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import unit

from cplattice.greens import ZeroSeparation, green_dyadic, pair_coupling

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)


def test_on_axis_zz_resonant_value():
    # 2 e^{i} (1 - i), 25-digit oracle
    g = green_dyadic(Z, 1.0, 1.0)
    assert g[2, 2] == pytest.approx(2.76354658135207245 + 0.602337357879513579j, rel=1e-14)


def test_on_axis_cross_entry_vanishes():
    for r in (0.3, 1.0, 7.5):
        for k in (1.0, 0.25 + 0.0j, 1j):
            g = green_dyadic(Z, r, k)
            assert g[0, 2] == 0.0 and g[2, 0] == 0.0 and g[0, 1] == 0.0


def test_on_axis_zz_imaginary_frequency_value():
    # on-axis reduction at k = i: 2 e^{-1} (1 - i*i)/(i)^2 = -4/e, purely real
    g = green_dyadic(Z, 1.0, 1j)
    assert g[2, 2].imag == 0.0
    assert g[2, 2].real == pytest.approx(-1.47151776468576929, rel=1e-14)


def test_general_entries_against_oracle():
    # direction (0.6, 0, 0.8), r = 2.2, k = 0.35i; 25-digit quadrature-free oracle
    g = green_dyadic((0.6, 0.0, 0.8), 2.2, 0.35j)
    assert g[0, 0] == pytest.approx(0.0844312519175665562, rel=1e-13)
    assert g[0, 2] == pytest.approx(-1.00576329263595512, rel=1e-13)
    assert g[0, 2] == g[2, 0]


def test_zero_separation_raises():
    with pytest.raises(ZeroSeparation):
        green_dyadic(Z, 0.0)
    with pytest.raises(ZeroSeparation):
        pair_coupling(Z, Z, (0.0, 0.0, 0.0))


def test_pair_coupling_on_axis_closed_form():
    for z in (0.05, 0.4, 2.0, 9.0):
        got = pair_coupling(Z, Z, (0.0, 0.0, z), 1.0)
        want = 2.0 * np.exp(1j * z) * (1.0 - 1j * z) / z ** 3
        assert got == pytest.approx(want, rel=1e-13)


def test_pair_coupling_orthogonal_on_axis_zero():
    for z in (0.1, 1.0, 20.0):
        for k in (1.0, 1j, 0.5j):
            assert pair_coupling(Z, X, (0.0, 0.0, z), k) == 0.0


def test_pair_coupling_zx_offaxis_value():
    got = pair_coupling(Z, X, (0.7, 0.0, 0.4), 1.0)
    assert got == pytest.approx(2.77200266380676748 + 0.0178154949966285805j, rel=1e-13)


def test_pair_coupling_zz_offaxis_value():
    got = pair_coupling(Z, Z, (0.3, -0.2, 0.5), 0.7)
    assert got == pytest.approx(9.74041955418915963 + 0.455101584457455504j, rel=1e-13)


@st.composite
def unit_vectors(draw):
    v = np.array([draw(st.floats(-1, 1)) for _ in range(3)])
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1.0, 0.0, 0.0])
        n = 1.0
    return v / n


@settings(max_examples=60, deadline=None)
@given(unit_vectors(), unit_vectors(),
       st.floats(0.05, 10.0), st.floats(0.05, 10.0), st.floats(-3.0, 3.0))
def test_reciprocity_and_parity(e0, en, vx, r, kz):
    k = complex(0.4, kz) if kz > 0 else 1.0
    v = np.array([vx, 0.3, -0.7]) * r
    a = pair_coupling(e0, en, v, k)
    assert pair_coupling(en, e0, v, k) == pytest.approx(a, rel=1e-12, abs=1e-300)
    assert pair_coupling(e0, en, -v, k) == pytest.approx(a, rel=1e-12, abs=1e-300)


def test_tensor_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = unit(rng.normal(size=3))
        g = green_dyadic(n, float(rng.uniform(0.1, 5.0)), complex(rng.uniform(0.2, 2), rng.uniform(0, 2)))
        assert np.allclose(g, g.T, rtol=0, atol=1e-15 * np.abs(g).max())


def test_scale_invariance_of_dimensionless_form():
    # g(n, r, k) * r depends on k*r and direction only
    n = unit([0.48, -0.6, 0.64])
    target = 0.8  # fixed k*r product
    ref = None
    for r in (0.1, 0.37, 1.9, 8.0):
        k = target / r
        val = green_dyadic(n, r, k) * r
        if ref is None:
            ref = val
        else:
            assert np.allclose(val, ref, rtol=1e-12)


def test_imaginary_frequency_realness():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = unit(rng.normal(size=3))
        g = green_dyadic(n, float(rng.uniform(0.05, 30)), 1j * float(rng.uniform(0.01, 20)))
        assert np.abs(g.imag).max() < 1e-14 * max(1.0, np.abs(g.real).max())


def test_near_field_limit():
    # on-axis zz entry * r^3 -> 2 as r -> 0 at k=1
    val = green_dyadic(Z, 1e-4, 1.0)[2, 2] * (1e-4) ** 3
    assert val.real == pytest.approx(2.0, abs=1e-6)


def test_tiny_separation_relative_error_bounded():
    # cancellation in (1 + (ikr-1)/(kr)^2) at r = 1e-6: the 1/r^3 divergence
    # dominates and the relative error against the exact on-axis form stays small
    r = 1e-6
    got = green_dyadic(Z, r, 1.0)[2, 2]
    want = 2.0 * np.exp(1j * r) * (1.0 - 1j * r) / r ** 3
    assert abs(got - want) / abs(want) < 1e-10
