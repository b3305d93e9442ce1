"""Off-resonant site kernel tests, against ``reference``'s site integrals
by QUADPACK and mpmath and, for the edge panel rule, its ``quad`` along
each axis of the kernel itself, so that only the outer rule is under test.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (MOMENT_RADII, VECTORS, axis_quad, phi_laguerre, site_mpmath,
                       site_quad, unit)
from reference import bundle as mk

from cplattice import kernels
from cplattice.euler_maclaurin import edge_term, vertex_term
from cplattice.kernels import _numpy_backend, offres_sites
from cplattice.lattice_sum import offresonant_pair_term, prefactor


# every test here reaches kernels.offres_sites: each runs on both backends
pytestmark = pytest.mark.usefixtures("backend")


# ---------------------------------------------------------------------------
# the kernel against the quad oracle

_mus = st.one_of(
    st.floats(math.log(0.05), math.log(5.0)).map(math.exp).filter(lambda m: abs(1.0 - m) >= 1e-3),
    st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3]))


@settings(max_examples=150, deadline=None)
@given(log_r=st.floats(math.log(1e-3), math.log(3e3)), mu=_mus,
       e0=VECTORS, en=VECTORS, n=VECTORS)
# inputs on which the quad oracle itself once failed at mu = 0.999: 1/r
# within 2e-14 of 1, and r = 360, where the piece [0.999, 1] is subnormal
@example(log_r=-2.170977917227826e-14, mu=1.0 - 1e-3, e0=(0, 1, 0), en=(0, 1, 0), n=(0, 1, 0))
@example(log_r=5.88671875, mu=1.0 - 1e-3, e0=(0, 1, 0), en=(1, 1, 0), n=(1, 1, 1))
# beta = dot - 3 pp ~ -2e-16 at small r near resonance, where the value rests
# on alpha^2 M_4 and the partial fractions once lost 5e-10 to the rounding of
# Phi_4's polynomial part
@example(log_r=-5.0, mu=1.0 - 1e-3, e0=(0, 1, 0), en=(0, 1, 0), n=(1, 1, 1))
# pp = 4.2e-161 and dot = 0: the value, 3.96e-316, is subnormal, and the
# oracle's QUADPACK once reported a roundoff error on it
@example(log_r=-2.0, mu=math.e, e0=(0, 0, 1), en=(1, 0, 0), n=(4.2e-161, 0, 1))
def test_kernel_matches_quad_oracle(log_r, mu, e0, en, n):
    r = math.exp(log_r)
    e0, en, n = unit(e0), unit(en), unit(n)
    dot, pp = float(e0 @ en), float((e0 @ n) * (n @ en))
    want = site_quad(r, dot, pp, mu)
    got = float(offres_sites(r, dot, pp, mu)[0])
    assert got == pytest.approx(want, rel=1e-10, abs=1e-300)


# (r, mu, dot, pp): at small r with beta = dot - 3 pp = 0 the value is
# alpha^2 M_4 alone, and the first three once lost 5e-10, 5e-8 and 4e-10 to
# the polynomial parts of Phi_4 cancelling in the partial fractions; the last
# three lie where the rearranged moments do not apply, or change no bit
SMALL_R_SITES = [(math.exp(-5.0), 1.0 - 1e-3, 1.0, 1.0 / 3.0), (1e-3, 1.0 - 1e-3, 1.0, 1.0 / 3.0),
                 (0.01, 1.0 - 1e-3, 1.0, 1.0 / 3.0), (0.01, 0.5, 1.0, 0.3),
                 (0.5, 1.0 - 1e-3, 1.0, 1.0 / 3.0), (1.5, 0.9, 0.3, 0.1)]


@pytest.mark.parametrize("r,mu,dot,pp", SMALL_R_SITES)
def test_small_r_sites_match_mpmath(r, mu, dot, pp):
    want = site_mpmath(r, dot, pp, mu, digits=40)
    assert float(offres_sites(r, dot, pp, mu)[0]) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("mu", [0.05, 0.6, 1.0 - 1e-3, 1.0 + 1e-3, 2.0, 5.0])
def test_kernel_principal_orientations_over_radii(mu):
    r = np.geomspace(1e-3, 3e3, 25)
    z = 0.7 * r
    zz = offres_sites(r, 1.0, z * z / (r * r), mu)
    zx = offres_sites(r, 0.0, -z * np.sqrt(r * r - z * z) / (r * r), mu)
    for i in range(r.size):
        pp_x = -z[i] * math.sqrt(r[i] ** 2 - z[i] ** 2) / r[i] ** 2
        assert zz[i] == pytest.approx(site_quad(r[i], 1.0, (z[i] / r[i]) ** 2, mu), rel=1e-10)
        assert zx[i] == pytest.approx(site_quad(r[i], 0.0, pp_x, mu), rel=1e-10)


def test_branch_switch_is_continuous():
    y = kernels.PHI_SWITCH * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12])
    closed = _numpy_backend.phi_closed(y, *kernels.sici(2.0 * y), np.sin(2.0 * y),
                                       np.cos(2.0 * y), np.ones(y.size, bool))
    laguerre = phi_laguerre(y, kernels._impl)
    np.testing.assert_allclose(closed, laguerre, rtol=1e-13, atol=0.0)
    # either side of the switch, through the public kernel
    r = kernels.PHI_SWITCH * np.array([1.0 - 1e-12, 1.0 + 1e-12])
    below, above = offres_sites(r, 1.0, 0.3, 0.5)
    assert above == pytest.approx(below, rel=1e-11)


@pytest.mark.parametrize("case", list(MOMENT_RADII))
def test_moments_call_only_branches_with_radii(monkeypatch, case):
    # through the front: the NumPy backend's sici runs only for y below the
    # switch and its Gauss-Laguerre branch only above it; the compiled
    # backend takes Si, Ci and the moments in C
    calls, moments = [], []

    def only_some(name, branch):
        def call(y, *args):
            assert y.size > 0, f"{name} called on no radii"
            calls.append(name)
            return branch(y, *args)
        return call

    def recorded(*args):
        moments.append(args)
        return numpy_moments(*args)

    numpy_moments = _numpy_backend.moments
    monkeypatch.setattr(_numpy_backend, "sici", only_some("closed", _numpy_backend.sici))
    monkeypatch.setattr(_numpy_backend, "phi_laguerre",
                        only_some("laguerre", _numpy_backend.phi_laguerre))
    monkeypatch.setattr(_numpy_backend, "moments", recorded)
    got = offres_sites(np.array(MOMENT_RADII[case], dtype=float), 1.0, 0.3, 0.6)
    on_numpy = kernels.backend_name() == "numpy"
    closed = ["closed"] if case == "small" and on_numpy else []
    laguerre = ["laguerre"] if case == "large" and on_numpy else []
    assert calls == closed + laguerre
    assert got.shape == (len(MOMENT_RADII[case]),)
    assert len(moments) == (on_numpy and case != "empty")


def test_zz_site_terms_strictly_positive_at_large_r():
    for mu in (0.05, 0.5, 1.0 + 1e-3, 2.0, 5.0):
        for z in (0.01, 1.0, 30.0):
            r = np.geomspace(max(z, 10.0), 1e6, 200)
            assert np.all(offres_sites(r, 1.0, z * z / (r * r), mu) > 0.0)
    b = mk(mu=2.0, a=50.0, z=0.3)
    assert all(offresonant_pair_term(nx, ny, b) > 0.0 for nx in range(0, 60, 7)
               for ny in range(0, 60, 11))


def test_zx_on_axis_and_origin_terms_exactly_zero():
    b = mk(mu=0.7, a=0.3, z=0.4, array=(1, 0, 0))
    for ny in range(-3, 4):
        assert offresonant_pair_term(0, ny, b) == 0.0
    assert offres_sites(np.geomspace(0.1, 10.0, 5), 0.0, 0.0, 0.7).tolist() == [0.0] * 5


# ---------------------------------------------------------------------------
# the site integral that the unsplit per-site quad got wrong

def test_vertex_regression_near_z_0_015():
    b = mk(mu=1.5874, rho=1e-6, z=0.0146436)
    want = prefactor(b, "off_resonant") * site_mpmath(0.0146436, 1.0, 1.0, 1.5874)
    assert want == pytest.approx(88164.6923293205, rel=1e-12)
    assert vertex_term(b, "off_resonant") == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("mu", [0.6, 1.5874])
def test_vertex_dense_grid_near_z_0_015(mu):
    for z in np.linspace(0.01, 0.02, 81):
        b = mk(mu=mu, z=float(z))
        want = prefactor(b, "off_resonant") * site_quad(float(z), 1.0, 1.0, mu)
        assert vertex_term(b, "off_resonant") == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# the edge panel rule

@pytest.mark.parametrize("z", [1e-3, 0.3, 4.0, 100.0])
@pytest.mark.parametrize("mu", [0.05, 2.0])
def test_edge_panel_rule_matches_axis_quadrature(z, mu):
    s = 1.0 / math.sqrt(3.0)
    for test, array in (((0, 0, 1), (0, 0, 1)), ((0, 0, 1), (1, 0, 0)),
                        ((s, s, s), (0.6, 0.0, 0.8))):
        b = mk(mu=mu, a=0.05, z=z, test=test, array=array)
        want = prefactor(b, "off_resonant") * (2.0 / b.a_tilde) * (
            axis_quad(b, "x") + axis_quad(b, "y"))
        assert edge_term(b, "off_resonant") == pytest.approx(want, rel=1e-11)

