"""Bulk/edge/vertex decomposition tests.

The independent resonant bulk oracle used throughout is contour rotation:
the radial integrand of the resonant bulk term is analytic above the real
axis and e^{2ir} decays there, so int_z^inf F(r) dr = Re[ i int_0^inf
F(z+is) ds ], which scipy handles as a smooth exponentially damped
integral. The off-resonant bulk oracle reduces the radial integral of each
imaginary-frequency integrand to exponential integrals E_n and integrates
over xi with scipy. Neither touches the package's panel rule or its closed
forms.
"""
import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expn

from cplattice import euler_maclaurin, lattice_sum
from cplattice.euler_maclaurin import (ShiftBreakdown, _bulk_resonant_generic, bulk_term,
                                       decompose, edge_term, vertex_term)
from cplattice.lattice_sum import (QuadratureFailure, offresonant_prefactor, offresonant_sites,
                                   resonant_pair_term, resonant_prefactor, site_projections)
from cplattice.model import Geometry, LatticeSpec, ModelParams, validate


def mk(mu=0.5, rho=1e-6, a=0.01, M=0, z=0.1, array=(0, 0, 1)):
    return validate(ModelParams(mu=mu, rho=rho, array_dipole=array),
                    LatticeSpec(a_tilde=a, half_extent=M), Geometry(z_tilde=z))


def contour_bulk_resonant(bundle):
    """Oracle: Re[i int_0^inf F(z+is) ds] * 2 pi pref / a^2."""
    z = bundle.z_tilde
    zz = bundle.orientation_label() == "zz"

    def fr(r):
        if zz:
            br = (r * r + 1j * r - 1.0) + (-r * r + 3.0 - 3j * r) * z * z / (r * r)
            return cmath.exp(2j * r) * br * br / r ** 5
        return (r * r - z * z) * cmath.exp(2j * r) * (3.0 - r * r - 3j * r) ** 2 \
            * z * z / r ** 9

    def g(s):
        return (1j * fr(z + 1j * s)).real

    val, _ = quad(g, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=400)
    geom = 2.0 * math.pi if zz else math.pi
    return resonant_prefactor(bundle) * geom * val / bundle.a_tilde ** 2


# off-resonant radial kernels: int_1^inf e^{-2ut} P(ut, 1/t^2) t^-k dt as
# E_n combinations, u = z*xi

_EN_ORDERS = np.arange(1, 10)


def _radial_kernel_zz(u: float) -> float:
    if u < 1e-12:
        return 0.375
    e = expn(_EN_ORDERS, 2.0 * u)
    u2 = u * u
    u3 = u2 * u
    u4 = u2 * u2
    return (u4 * e[0] + 2.0 * u3 * e[1] + (3.0 * u2 - 2.0 * u4) * e[2]
            + (2.0 * u - 8.0 * u3) * e[3] + (1.0 - 14.0 * u2 + u4) * e[4]
            + (-12.0 * u + 6.0 * u3) * e[5] + (-6.0 + 15.0 * u2) * e[6]
            + 18.0 * u * e[7] + 9.0 * e[8])


def _radial_kernel_zx(u: float) -> float:
    if u < 1e-12:
        return 0.375
    e = expn(_EN_ORDERS, 2.0 * u)
    u2 = u * u
    u3 = u2 * u
    u4 = u2 * u2
    return (u4 * e[2] + 6.0 * u3 * e[3] + (15.0 * u2 - u4) * e[4]
            + (18.0 * u - 6.0 * u3) * e[5] + (9.0 - 15.0 * u2) * e[6]
            - 18.0 * u * e[7] - 9.0 * e[8])


def offres_bulk_oracle(bundle):
    """Oracle: zz/zx off-resonant bulk, E_n radial kernels, quad over xi in [0, 1] + [1, inf)."""
    z = bundle.z_tilde
    mu2 = bundle.mu ** 2
    kern, geom = ((_radial_kernel_zz, 2.0) if bundle.orientation_label() == "zz"
                  else (_radial_kernel_zx, 1.0))

    def f(xi):
        return kern(z * xi) / ((xi * xi + 1.0) * (xi * xi + mu2))

    head, _ = quad(f, 0.0, 1.0, epsabs=1e-300, epsrel=1e-13, limit=200)
    tail, _ = quad(lambda t: f(1.0 / t) / (t * t), 0.0, 1.0, epsabs=1e-300, epsrel=1e-13,
                   limit=200)
    return offresonant_prefactor(bundle) * geom * math.pi / (bundle.a_tilde ** 2 * z ** 4) \
        * (head + tail)


ZGRID = [0.05, 0.11, 0.3, 0.7, 1.7, 4.0, 11.0, 23.0, 50.0]


@pytest.mark.parametrize("z", ZGRID)
def test_closed_form_bulk_zz_vs_radial_quadrature(z):
    b = mk(z=z)
    assert bulk_term(b, "resonant") == pytest.approx(contour_bulk_resonant(b), rel=1e-8)


@pytest.mark.parametrize("z", [0.05, 0.3, 1.7, 11.0, 50.0])
def test_closed_form_bulk_zx_vs_radial_quadrature(z):
    b = mk(z=z, array=(1, 0, 0))
    assert bulk_term(b, "resonant") == pytest.approx(contour_bulk_resonant(b), rel=1e-8)


def test_generic_resonant_bulk_path_agrees_with_closed_forms():
    # the numeric generic-orientation integrator, fed the principal dipole
    # pairs directly, must land on the closed forms
    for z in (0.2, 1.3, 6.0):
        b = mk(z=z)
        assert _bulk_resonant_generic(b) == pytest.approx(bulk_term(b, "resonant"), rel=1e-9)
        bx = mk(z=z, array=(1, 0, 0))
        assert _bulk_resonant_generic(bx) == pytest.approx(bulk_term(bx, "resonant"), rel=1e-9)


@pytest.mark.parametrize("z", [1e3, 3e3, 1e4])
def test_zz_bulk_above_switch_height_takes_rotated_path(z):
    # bracket_zz cancels at these heights (1.4e-8 relative at z = 1e4)
    b = mk(z=z)
    assert bulk_term(b, "resonant") == _bulk_resonant_generic(b)
    assert bulk_term(b, "resonant") == pytest.approx(contour_bulk_resonant(b), rel=1e-12)


def test_zz_bulk_keeps_closed_form_up_to_switch_height():
    for z in (0.01, 1.0, 10.0, euler_maclaurin._ZZ_CLOSED_FORM_MAX_Z):
        b = mk(z=z)
        want = resonant_prefactor(b) * 2.0 * math.pi * euler_maclaurin.bracket_zz(z) \
            / (8.0 * b.a_tilde ** 2 * z ** 4)
        assert bulk_term(b, "resonant") == want
        assert _bulk_resonant_generic(b) == pytest.approx(want, rel=1e-13)


def test_offres_radial_kernels_vs_brute_quadrature():
    # E_n combinations vs direct integration of the defining t-integral
    for u in (1e-3, 0.07, 0.9, 3.0, 11.0):
        def fzz(t):
            g = (u * u * t * t + u * t + 1.0) - (u * u * t * t + 3 * u * t + 3.0) / (t * t)
            return math.exp(-2.0 * u * t) * g * g / t ** 5

        def fzx(t):
            bb = u * u * t * t + 3 * u * t + 3.0
            return (t * t - 1.0) * math.exp(-2.0 * u * t) * bb * bb / t ** 9

        wzz, _ = quad(fzz, 1.0, np.inf, epsrel=1e-12, limit=300)
        wzx, _ = quad(fzx, 1.0, np.inf, epsrel=1e-12, limit=300)
        assert _radial_kernel_zz(u) == pytest.approx(wzz, rel=1e-9)
        assert _radial_kernel_zx(u) == pytest.approx(wzx, rel=1e-9)


def test_offres_bulk_reference_values():
    # 25-digit oracle values, mu=0.7, rho=1e-6, a=0.02
    b = mk(mu=0.7, a=0.02, z=0.3)
    assert bulk_term(b, "off_resonant") == pytest.approx(0.22927321796455054, rel=1e-10)
    bx = mk(mu=0.7, a=0.02, z=0.3, array=(1, 0, 0))
    assert bulk_term(bx, "off_resonant") == pytest.approx(0.11682860351583971, rel=1e-10)
    b3 = mk(mu=0.7, a=0.02, z=3.0)
    assert bulk_term(b3, "off_resonant") == pytest.approx(1.0616161402414052e-5, rel=1e-10)
    b3x = mk(mu=0.7, a=0.02, z=3.0, array=(1, 0, 0))
    assert bulk_term(b3x, "off_resonant") == pytest.approx(6.2277732567900031e-6, rel=1e-10)


@pytest.mark.parametrize("mu", [0.05, 0.5, 0.998, 1.002, 2.0, 5.0, 50.0])
def test_offres_bulk_matches_exponential_integral_oracle(mu):
    for z in np.geomspace(1e-3, 1e4, 15):
        for array in ((0, 0, 1), (1, 0, 0)):
            b = mk(mu=mu, a=0.02, z=z, array=array)
            assert bulk_term(b, "off_resonant") == pytest.approx(offres_bulk_oracle(b),
                                                                 rel=1e-12)


def test_generic_offres_bulk_path_agrees():
    # the bulk is invariant under rotation about z: probe z over any in-plane
    # array dipole (a custom pair, 5 azimuths) must land on the zx oracle
    for psi in (math.pi / 2.0, math.pi / 6.0, 2.3):
        array = (math.cos(psi), math.sin(psi), 0.0)
        for z in np.geomspace(1e-3, 1e4, 15):
            b = mk(mu=0.7, a=0.02, z=z, array=array)
            assert b.orientation_label() == "custom"
            bx = mk(mu=0.7, a=0.02, z=z, array=(1, 0, 0))
            assert bulk_term(b, "off_resonant") == pytest.approx(offres_bulk_oracle(bx),
                                                                 rel=1e-12)


def test_generic_offres_bulk_general_pair_vs_adaptive_quadrature():
    # a pair whose site term has azimuthal degree 4: adaptive quadrature over
    # R of the mean over 64 azimuths
    e0, en = (np.array(v) / math.sqrt(6.0) for v in ((1.0, 1.0, 2.0), (2.0, -1.0, 1.0)))
    phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for z in (0.01, 0.3, 3.0):
        b = validate(ModelParams(mu=0.7, rho=1e-6, test_dipole=tuple(e0), array_dipole=tuple(en)),
                     LatticeSpec(a_tilde=0.02, half_extent=0), Geometry(z_tilde=z))

        def ring(big_r):
            r, dot, pp = site_projections(e0, en, big_r * np.cos(phi), big_r * np.sin(phi), z)
            return big_r * float(np.mean(offresonant_sites(r, dot, pp, b.mu)))

        cuts = [0.0, z, 16.0 * z]
        head = sum(quad(ring, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                   for lo, hi in zip(cuts, cuts[1:]))
        tail, _ = quad(lambda t: ring(16.0 * z / t) * 16.0 * z / (t * t), 0.0, 1.0,
                       epsabs=0.0, epsrel=1e-12, limit=200)
        want = offresonant_prefactor(b) * (2.0 * math.pi / b.a_tilde ** 2) * (head + tail)
        assert bulk_term(b, "off_resonant") == pytest.approx(want, rel=1e-10)


def test_offres_edge_against_reordered_quadrature():
    # oracle: swap the integration order (xi outermost, axis innermost)
    b = mk(mu=0.7, a=0.05, z=0.4)
    z = b.z_tilde
    mu2 = b.mu ** 2

    def inner(xi):
        def g(x):
            r2 = x * x + z * z
            r = math.sqrt(r2)
            u = xi * r
            gg = (u * u + u + 1.0) - (u * u + 3.0 * u + 3.0) * z * z / r2
            return math.exp(-2.0 * u) * gg * gg / r2 ** 3
        val, _ = quad(g, 0.0, np.inf, epsrel=1e-10, limit=300)
        return val / ((xi * xi + 1.0) * (xi * xi + mu2))

    head, _ = quad(inner, 0.0, 1.0, epsrel=1e-9, limit=200)
    tail, _ = quad(lambda t: inner(1.0 / t) / (t * t), 1e-13, 1.0, epsrel=1e-9, limit=200)
    want = offresonant_prefactor(b) * (4.0 / b.a_tilde) * (head + tail)
    assert edge_term(b, "off_resonant") == pytest.approx(want, rel=1e-7)


def test_custom_orientation_decompose_matches_principal_pair():
    # probe z / array y must reproduce probe z / array x term by term,
    # down to heights where the former adaptive bulk quadrature failed
    for z in (0.7, 1e-3, 2e-3):
        by = mk(mu=0.6, a=0.4, z=z, array=(0, 1, 0))
        bx = mk(mu=0.6, a=0.4, z=z, array=(1, 0, 0))
        assert by.orientation_label() == "custom"
        for kind, tol in (("resonant", 1e-8), ("off_resonant", 1e-5)):
            dy = decompose(by, kind)
            dx = decompose(bx, kind)
            assert dy.bulk == pytest.approx(dx.bulk, rel=tol)
            assert dy.edge == pytest.approx(dx.edge, rel=tol)
            assert dy.vertex == pytest.approx(dx.vertex, rel=tol, abs=1e-300)


def test_decompose_makes_no_adaptive_quadrature(monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("lattice_sum.quad called")

    monkeypatch.setattr(lattice_sum, "quad", no_quad)
    s = 1.0 / math.sqrt(3.0)
    for array, test in (((0, 0, 1), (0, 0, 1)), ((1, 0, 0), (0, 0, 1)),
                        ((0.6, 0.0, 0.8), (s, s, s))):
        for z in (1e-3, 0.3, 30.0):
            b = validate(ModelParams(mu=0.6, rho=1e-6, test_dipole=test, array_dipole=array),
                         LatticeSpec(a_tilde=0.05, half_extent=0), Geometry(z_tilde=z))
            for kind in ("resonant", "off_resonant"):
                d = decompose(b, kind)
                assert math.isfinite(d.total)


def test_resonant_edge_reference_values():
    # contour-rotated axis-integral oracles (unit prefactor), a=0.01, zz
    for z, want in ((0.2, 4951.645901739858), (0.7, 13.920982229213716),
                    (2.0, -0.12920566527592452)):
        b = mk(z=z)
        unit = edge_term(b, "resonant") / (resonant_prefactor(b) * 4.0 / b.a_tilde)
        assert unit == pytest.approx(want, rel=1e-9)
    for z, want in ((0.2, 1763.5232952994731), (0.7, 4.3978895347405558)):
        bx = mk(z=z, array=(1, 0, 0))
        unit = edge_term(bx, "resonant") / (resonant_prefactor(bx) * 2.0 / bx.a_tilde)
        assert unit == pytest.approx(want, rel=1e-9)


def test_edge_axis_symmetry_zz_and_zx():
    from cplattice.euler_maclaurin import _edge_axis_offres, _edge_axis_resonant
    b = mk(z=0.4)
    assert _edge_axis_resonant(b, "x") == pytest.approx(_edge_axis_resonant(b, "y"), rel=1e-12)
    bx = mk(z=0.4, array=(1, 0, 0))
    assert _edge_axis_resonant(bx, "y") == 0.0
    assert _edge_axis_offres(bx, "y") == 0.0


def test_vertex_is_exactly_the_origin_pair_term():
    b = mk(a=3.0, z=0.7)
    assert vertex_term(b, "resonant") == resonant_pair_term(0, 0, b)


def test_vertex_closed_form_both_paths():
    # pair-term route vs the explicit bracket (9/2) K [(1-z^2)cos2z + 2z sin2z]/z^6
    for z in (0.05, 0.6, 2.5, 9.0):
        b = mk(z=z)
        k = b.rho * b.mu / ((1 - b.mu) * (1 + b.mu))
        want = 4.5 * k * ((1 - z * z) * math.cos(2 * z) + 2 * z * math.sin(2 * z)) / z ** 6
        assert vertex_term(b, "resonant") == pytest.approx(want, rel=1e-12)


def test_vertex_zx_zero_and_offres_nonretarded():
    bx = mk(z=0.4, array=(1, 0, 0))
    assert vertex_term(bx, "resonant") == 0.0
    b = mk(z=0.01)
    want = 2.25 * b.rho / (1 + b.mu) / 0.01 ** 6
    assert vertex_term(b, "off_resonant") == pytest.approx(want, rel=1e-2)


def test_additivity_bit_exact():
    b = mk(a=0.05, z=0.4)
    for kind in ("resonant", "off_resonant"):
        d = decompose(b, kind)
        assert d.total == d.bulk + d.edge + d.vertex


def test_parity_of_pair_terms():
    # f(nx, ny) = f(-nx, ny) = f(nx, -ny) for both principal orientations
    for array in ((0, 0, 1), (1, 0, 0)):
        b = mk(a=0.4, M=3, z=0.6, array=array)
        for nx, ny in ((1, 2), (3, 0), (2, 2)):
            v = resonant_pair_term(nx, ny, b)
            assert resonant_pair_term(-nx, ny, b) == v
            assert resonant_pair_term(nx, -ny, b) == v
            assert resonant_pair_term(-nx, -ny, b) == v


def test_exact_lattice_constant_prefactors():
    # bulk ~ 1/a^2, edge ~ 1/a, vertex ~ a^0 as exact prefactors
    zs = dict(z=0.35, mu=0.6)
    b1 = mk(a=0.02, **zs)
    b2 = mk(a=0.04, **zs)
    for kind in ("resonant", "off_resonant"):
        lb = math.log2(bulk_term(b1, kind) / bulk_term(b2, kind))
        le = math.log2(edge_term(b1, kind) / edge_term(b2, kind))
        assert lb == pytest.approx(2.0, abs=1e-10)
        assert le == pytest.approx(1.0, abs=1e-10)
        assert vertex_term(b1, kind) == vertex_term(b2, kind)


def test_sparse_limit_is_vertex_dominated():
    b = mk(a=100.0, z=0.01)
    for kind in ("resonant", "off_resonant"):
        d = decompose(b, kind)
        assert d.total == pytest.approx(d.vertex, rel=1e-2)
        assert abs(d.edge) < abs(d.vertex)


def test_dense_breakdown_ordering_and_edge_scaling():
    # |edge|/|bulk| scales as ~2.6 a/z, so the ordering needs a/z < 0.4
    totals = {}
    for a in (0.01, 0.02, 0.04):
        d = decompose(mk(a=a, z=0.25), "resonant")
        assert abs(d.bulk) > abs(d.edge) > 0.0
        totals[a] = d
    # bulk/edge ratio scales like 1/a
    r1 = totals[0.01].bulk / totals[0.01].edge
    r2 = totals[0.02].bulk / totals[0.02].edge
    r4 = totals[0.04].bulk / totals[0.04].edge
    assert r1 / r2 == pytest.approx(2.0, rel=1e-6)
    assert r2 / r4 == pytest.approx(2.0, rel=1e-6)


def test_edge_subleading_by_one_power_of_spacing():
    d = decompose(mk(a=0.01, z=0.1), "resonant")
    assert 0.05 < abs(d.edge / d.bulk) < 0.4


def test_decompose_returns_breakdown():
    d = decompose(mk(), "resonant")
    assert isinstance(d, ShiftBreakdown)


_CUSTOM = dict(test=(0.0, 0.6, 0.8), array=(0.48, 0.6, 0.64))


@pytest.mark.parametrize("term,kind,pair", [
    ("bulk", "resonant", "custom"), ("bulk", "off_resonant", "zz"),
    ("bulk", "off_resonant", "custom"), ("edge", "resonant", "zz"),
    ("edge", "resonant", "custom"), ("edge", "off_resonant", "zz"),
    ("edge", "off_resonant", "custom")])
def test_rule_failure_names_stage_kind_and_height(monkeypatch, term, kind, pair):
    # the zz resonant bulk is a closed form and cannot fail
    monkeypatch.setattr(euler_maclaurin, "_RTOL", 1e-30)
    dipoles = _CUSTOM if pair == "custom" else dict(test=(0, 0, 1), array=(0, 0, 1))
    b = validate(ModelParams(mu=0.6, rho=1e-6, test_dipole=dipoles["test"],
                             array_dipole=dipoles["array"]),
                 LatticeSpec(a_tilde=0.05, half_extent=0), Geometry(z_tilde=0.3))
    assert b.orientation_label() == pair
    with pytest.raises(QuadratureFailure, match=f"^{term} {kind} at z=0.3, mu=0.6 \\({pair}"):
        getattr(euler_maclaurin, f"{term}_term")(b, kind)
