"""Off-resonant site kernel tests.

The site oracles share no code with the kernel:

* ``site_quad`` is adaptive QUADPACK over xi of the defining integrand, the
  per-site quadrature the package used before the closed-form kernel, with
  the xi axis split at min(mu, 1), max(mu, 1) and 1/r so that no scale of
  the integrand is missed (the unsplit version missed its epsrel by up to
  3.5e-8 near r = 0.015 without reporting it);
* mpmath at 30 digits for the regression point of that defect;
* for the edge panel rule, scipy ``quad`` along the axis of the kernel
  itself, so that only the outer rule is under test.
"""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cplattice.euler_maclaurin import edge_term, vertex_term
from cplattice.lattice_sum import (_PHI_SWITCH, _phi_closed, _phi_laguerre,
                                   offresonant_pair_term, offresonant_prefactor,
                                   offresonant_sites)
from cplattice.model import Geometry, LatticeSpec, ModelParams, validate


def mk(mu=0.5, rho=1e-6, a=0.01, M=0, z=0.1, test=(0, 0, 1), array=(0, 0, 1)):
    return validate(ModelParams(mu=mu, rho=rho, test_dipole=test, array_dipole=array),
                    LatticeSpec(a_tilde=a, half_extent=M), Geometry(z_tilde=z))


def _quad_checked(f, lo, hi, epsrel):
    out = quad(f, lo, hi, epsabs=0.0, epsrel=epsrel, full_output=True, limit=200)
    assert len(out) == 3, out[3]
    return out[0]


def site_quad(r, dot, pp, mu, epsrel=1e-12):
    """int_0^inf dxi xi^4 g(i xi)^2 / ((xi^2+1)(xi^2+mu^2)), with
    xi^2 g(i xi) = e^{-u}/r^3 [(u^2+u+1) e0.en - (u^2+3u+3)(e0.n)(n.en)]."""
    mu2 = mu * mu
    r6 = r ** 6

    def f(xi):
        u = xi * r
        h = (u * u + u + 1.0) * dot - (u * u + 3.0 * u + 3.0) * pp
        return math.exp(-2.0 * u) * h * h / ((xi * xi + 1.0) * (xi * xi + mu2) * r6)

    cuts = sorted({min(mu, 1.0), max(mu, 1.0), 1.0 / r})
    head = sum(_quad_checked(f, lo, hi, epsrel) for lo, hi in zip([0.0] + cuts[:-1], cuts))
    c = cuts[-1]
    return head + _quad_checked(lambda t: f(c / t) * c / (t * t), 0.0, 1.0, epsrel)


def site_mpmath(r, dot, pp, mu, digits=30):
    with mpmath.workdps(digits):
        r, dot, pp, mu = (mpmath.mpf(v) for v in (r, dot, pp, mu))

        def f(xi):
            u = xi * r
            h = (u * u + u + 1) * dot - (u * u + 3 * u + 3) * pp
            return mpmath.exp(-2 * u) * h * h / ((xi * xi + 1) * (xi * xi + mu * mu))

        cuts = sorted({min(mu, 1), max(mu, 1), 1 / r, 10 / r})
        return float(mpmath.quad(f, [0] + cuts + [mpmath.inf]) / r ** 6)


# ---------------------------------------------------------------------------
# the kernel against the quad oracle

def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)
_mus = st.one_of(
    st.floats(math.log(0.05), math.log(5.0)).map(math.exp).filter(lambda m: abs(1.0 - m) >= 1e-3),
    st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3]))


@settings(max_examples=150, deadline=None)
@given(log_r=st.floats(math.log(1e-3), math.log(3e3)), mu=_mus,
       e0=_vectors, en=_vectors, n=_vectors)
def test_kernel_matches_quad_oracle(log_r, mu, e0, en, n):
    r = math.exp(log_r)
    e0, en, n = _unit(e0), _unit(en), _unit(n)
    dot, pp = float(e0 @ en), float((e0 @ n) * (n @ en))
    want = site_quad(r, dot, pp, mu)
    got = float(offresonant_sites(r, dot, pp, mu)[0])
    assert got == pytest.approx(want, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("mu", [0.05, 0.6, 1.0 - 1e-3, 1.0 + 1e-3, 2.0, 5.0])
def test_kernel_principal_orientations_over_radii(mu):
    r = np.geomspace(1e-3, 3e3, 25)
    z = 0.7 * r
    zz = offresonant_sites(r, 1.0, z * z / (r * r), mu)
    zx = offresonant_sites(r, 0.0, -z * np.sqrt(r * r - z * z) / (r * r), mu)
    for i in range(r.size):
        pp_x = -z[i] * math.sqrt(r[i] ** 2 - z[i] ** 2) / r[i] ** 2
        assert zz[i] == pytest.approx(site_quad(r[i], 1.0, (z[i] / r[i]) ** 2, mu), rel=1e-10)
        assert zx[i] == pytest.approx(site_quad(r[i], 0.0, pp_x, mu), rel=1e-10)


def test_branch_switch_is_continuous():
    y = _PHI_SWITCH * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12])
    closed, laguerre = _phi_closed(y), _phi_laguerre(y)
    np.testing.assert_allclose(closed, laguerre, rtol=1e-13, atol=0.0)
    # either side of the switch, through the public kernel
    r = _PHI_SWITCH * np.array([1.0 - 1e-12, 1.0 + 1e-12])
    below, above = offresonant_sites(r, 1.0, 0.3, 0.5)
    assert above == pytest.approx(below, rel=1e-11)


def test_zz_site_terms_strictly_positive_at_large_r():
    for mu in (0.05, 0.5, 1.0 + 1e-3, 2.0, 5.0):
        for z in (0.01, 1.0, 30.0):
            r = np.geomspace(max(z, 10.0), 1e6, 200)
            assert np.all(offresonant_sites(r, 1.0, z * z / (r * r), mu) > 0.0)
    b = mk(mu=2.0, a=50.0, z=0.3)
    assert all(offresonant_pair_term(nx, ny, b) > 0.0 for nx in range(0, 60, 7)
               for ny in range(0, 60, 11))


def test_zx_on_axis_and_origin_terms_exactly_zero():
    b = mk(mu=0.7, a=0.3, z=0.4, array=(1, 0, 0))
    for ny in range(-3, 4):
        assert offresonant_pair_term(0, ny, b) == 0.0
    assert offresonant_sites(np.geomspace(0.1, 10.0, 5), 0.0, 0.0, 0.7).tolist() == [0.0] * 5


# ---------------------------------------------------------------------------
# the site integral that the unsplit per-site quad got wrong

def test_vertex_regression_near_z_0_015():
    b = mk(mu=1.5874, rho=1e-6, z=0.0146436)
    want = offresonant_prefactor(b) * site_mpmath(0.0146436, 1.0, 1.0, 1.5874)
    assert want == pytest.approx(88164.6923293205, rel=1e-12)
    assert vertex_term(b, "off_resonant") == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("mu", [0.6, 1.5874])
def test_vertex_dense_grid_near_z_0_015(mu):
    for z in np.linspace(0.01, 0.02, 81):
        b = mk(mu=mu, z=float(z))
        want = offresonant_prefactor(b) * site_quad(float(z), 1.0, 1.0, mu)
        assert vertex_term(b, "off_resonant") == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# the edge panel rule

def axis_quad(bundle, axis):
    """int_0^inf of the site kernel along one positive axis, by adaptive quad."""
    z, mu = bundle.z_tilde, bundle.mu
    e0 = np.asarray(bundle.params.test_dipole)
    en = np.asarray(bundle.params.array_dipole)

    def f(x):
        v = np.array([x, 0.0, -z] if axis == "x" else [0.0, x, -z])
        r = float(np.linalg.norm(v))
        n = v / r
        return float(offresonant_sites(r, e0 @ en, (e0 @ n) * (n @ en), mu)[0])

    cuts = sorted({z, 1.0, 1.0 / mu, 10.0 * z, 10.0 / min(mu, 1.0)})
    head = sum(_quad_checked(f, lo, hi, 1e-12) for lo, hi in zip([0.0] + cuts[:-1], cuts))
    c = cuts[-1]
    return head + _quad_checked(lambda t: f(c / t) * c / (t * t), 0.0, 1.0, 1e-12)


@pytest.mark.parametrize("z", [1e-3, 0.3, 4.0, 100.0])
@pytest.mark.parametrize("mu", [0.05, 2.0])
def test_edge_panel_rule_matches_axis_quadrature(z, mu):
    s = 1.0 / math.sqrt(3.0)
    for test, array in (((0, 0, 1), (0, 0, 1)), ((0, 0, 1), (1, 0, 0)),
                        ((s, s, s), (0.6, 0.0, 0.8))):
        b = mk(mu=mu, a=0.05, z=z, test=test, array=array)
        want = offresonant_prefactor(b) * (2.0 / b.a_tilde) * (
            axis_quad(b, "x") + axis_quad(b, "y"))
        assert edge_term(b, "off_resonant") == pytest.approx(want, rel=1e-11)

