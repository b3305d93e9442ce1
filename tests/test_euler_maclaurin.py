"""Bulk/edge/vertex decomposition tests, against ``reference``'s oracles,
which touch neither the package's panel rule nor its closed forms."""
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import sici

import reference
from reference import (EVEN, EVEN_PAIRS, HEIGHT_ROUTES, ODD, PAIRS, RAY_PAIRS, UNIT_VECTORS,
                       ZY, axis_integral, contour_bulk_resonant, offres_bulk_by_ring,
                       offres_bulk_oracle, offres_edge_reordered, plane_wave_bulk,
                       radial_kernel_zx, radial_kernel_zz, radial_kernels_by_quad, rays,
                       whole_axis_edge)
from reference import bundle as mk

from cplattice import euler_maclaurin, kernels, lattice_sum
from cplattice.euler_maclaurin import (_AXES, ShiftBreakdown, _ray_integral, bulk_term,
                                       decompose, edge_term, plane_wave_bracket,
                                       plane_wave_coefficients, vertex_term)
from cplattice.kernels import _numpy_backend
from cplattice.lattice_sum import QuadratureFailure, prefactor, resonant_pair_term
from cplattice.model import NonPositiveLength

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
    # the generic pair route, plane_wave_coefficients and above the switch
    # height the far-field form, fed the principal dipole pairs directly,
    # must land on their closed forms: the brackets (1, -2, 1) of zz and
    # (0, -1/2, 1/2) of zx with SciPy's Ci(2z)
    for z in (0.2, 1.3, 6.0, 30.0, 300.0):
        for array, coefficients in (((0, 0, 1), (1.0, -2.0, 1.0)), ((1, 0, 0), (0.0, -0.5, 0.5))):
            b = mk(z=z, array=array)
            want = prefactor(b, "resonant") * 2.0 * math.pi * plane_wave_bracket(
                z, float(sici(2.0 * z)[1]), *coefficients) / (8.0 * b.a_tilde ** 2 * z ** 4)
            assert bulk_term(b, "resonant") == pytest.approx(want, rel=1e-9, abs=0.0), (array, z)


@pytest.mark.parametrize("z", [1e3, 3e3, 1e4])
def test_zz_bulk_above_switch_height_is_the_contour_integral(z):
    # the far-field form, where the bracket cancels (1.4e-8 relative at
    # z = 1e4); the zz bulk is 2.7e-14 at 1e4, so no absolute tolerance
    b = mk(z=z)
    assert bulk_term(b, "resonant") == pytest.approx(contour_bulk_resonant(b), rel=1e-12, abs=0.0)


def test_zz_bulk_keeps_closed_form_up_to_switch_height(monkeypatch):
    heights, values = (0.01, 1.0, 10.0, euler_maclaurin._CI_CLOSED_FORM_MAX_Z), []
    for z in heights:
        b = mk(z=z)
        ci = float(kernels.sici(2.0 * z)[1])
        want = prefactor(b, "resonant") * 2.0 * math.pi * plane_wave_bracket(
            z, ci, 1.0, -2.0, 1.0) / (8.0 * b.a_tilde ** 2 * z ** 4)
        values.append(bulk_term(b, "resonant"))
        assert values[-1] == want
        assert contour_bulk_resonant(b) == pytest.approx(want, rel=1e-13, abs=0.0)
    # a block takes Ci(2z) of all its bracketed heights from one
    # kernels.sici call, elementwise, so each keeps its bits; the far-field
    # form above the switch height takes none
    calls, sici = [], kernels.sici
    monkeypatch.setattr(kernels, "sici", lambda x: calls.append(np.shape(x)) or sici(x))
    block = bulk_term(mk(), "resonant", heights=[*heights, 30.0])
    assert calls == [(4,)] and block[:4].tolist() == values


# ---------------------------------------------------------------------------
# the plane-wave closed form of the resonant bulk

# the square's point group D4 on the in-plane components of a dipole
_D4 = [lambda x, y: (x, y), lambda x, y: (-y, x), lambda x, y: (-x, -y), lambda x, y: (y, -x),
       lambda x, y: (x, -y), lambda x, y: (-x, y), lambda x, y: (y, x), lambda x, y: (-y, -x)]


def test_principal_pairs_have_exact_plane_wave_coefficients():
    assert plane_wave_coefficients((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)) == (1.0, -2.0, 1.0)
    assert plane_wave_coefficients((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)) == (0.0, -0.5, 0.5)
    # a z probe over any in-plane dipole, and the -z probes, are zx and zz
    assert plane_wave_coefficients(*ZY) == (0.0, -0.5, 0.5)
    assert plane_wave_coefficients((0.0, 0.0, -1.0), (0.6, -0.8, 0.0)) == (0.0, -0.5, 0.5)
    assert plane_wave_coefficients((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)) == (1.0, -2.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(e0=UNIT_VECTORS, en=UNIT_VECTORS)
def test_plane_wave_coefficients_are_the_derived_mean_and_keep_the_symmetries(e0, en):
    c = plane_wave_coefficients(e0, en)
    # |c2| reaches 2, whose ulp is 4.4e-16
    assert c == pytest.approx([float(v) for v in reference.plane_wave_coefficients(e0, en)],
                              rel=0.0, abs=2e-15)
    # at k = 1 every wave lies in the plane: the overlap of the in-plane parts
    assert math.fsum(c) == pytest.approx((e0[0] * en[0] + e0[1] * en[1]) ** 2, rel=0.0,
                                         abs=4e-15)
    assert c[0] >= 0.0  # the mean of a square
    for g in _D4:
        assert plane_wave_coefficients((*g(*e0[:2]), e0[2]), (*g(*en[:2]), en[2])) == c, g
    assert plane_wave_coefficients(en, e0) == c
    flipped = [tuple(-x for x in v) for v in (e0, en)]
    assert plane_wave_coefficients(flipped[0], en) == plane_wave_coefficients(
        e0, flipped[1]) == c


_SWITCH = euler_maclaurin._CI_CLOSED_FORM_MAX_Z


def _bracket_scale(b):
    """pref 2 pi/(8 a^2 z^4) times the sum of the magnitudes of the three terms
    of B: the Ci term, the cos term and the sin term."""
    c0, c2, c4 = (float(c) for c in reference.plane_wave_coefficients(
        b.params.test_dipole, b.params.array_dipole))
    z = b.z_tilde
    terms = (8.0 * c0 * float(sici(2.0 * z)[1]) * z ** 4,
             (3.0 * c4 - 2.0 * (c2 + 3.0 * c4) * z * z) * math.cos(2.0 * z),
             2.0 * z * (3.0 * c4 - 2.0 * (c2 + c4) * z * z) * math.sin(2.0 * z))
    return abs(prefactor(b, "resonant")) * 2.0 * math.pi * math.fsum(map(abs, terms)) / (
        8.0 * b.a_tilde ** 2 * z ** 4)


@pytest.mark.usefixtures("backend")
@settings(max_examples=12, deadline=None)
@given(e0=UNIT_VECTORS, en=UNIT_VECTORS,
       z=st.floats(math.log(1e-3), math.log(_SWITCH)).map(math.exp))
@example(e0=PAIRS["custom_a"][0], en=PAIRS["custom_a"][1], z=1.58)
@example(e0=ZY[0], en=ZY[1], z=0.7)
@example(e0=EVEN[0], en=EVEN[1], z=_SWITCH)
def test_resonant_bulk_of_every_pair_is_the_plane_wave_integral(e0, en, z):
    # the bracket against the mpmath k-integral, within 4e-15 of the sum of
    # its term magnitudes (it cancels where the bulk nears a zero)
    b = mk(mu=0.6, a=0.05, z=z, test=e0, array=en)
    want, scale = plane_wave_bulk(b), _bracket_scale(b)
    assert abs(bulk_term(b, "resonant") - want) <= 4e-15 * scale


@pytest.mark.parametrize("pair,z", [("zz", 37.7), ("odd", 513.3), ("custom_b", 1e4)])
def test_far_bulk_oracle_is_the_plane_wave_integral(pair, z):
    # the float64 far-field form against the 30-digit k-integral: over nine
    # pairs and ten heights from 20.000001 to 3.3e5 it was within 1.1e-15 of
    # the sum of its term magnitudes, but zz and xy, whose u^2 = w = 0, keep
    # its series tails' truncation, up to 3.4e-12 in [20, 20.5)
    e0, en = ODD if pair == "odd" else PAIRS[pair]
    b = mk(mu=0.6, a=0.05, z=z, test=e0, array=en)
    value, scale = reference.far_bulk(b)
    assert abs(value - float(plane_wave_bulk(b))) <= 2e-15 * scale


# heights log-uniform above the switch height, where a pair with c0 != 0
# takes the far-field form
_FAR_HEIGHTS = st.floats(math.log(_SWITCH), math.log(1e4)).map(math.exp).filter(
    lambda z: z > _SWITCH)


@pytest.mark.usefixtures("backend")
@settings(max_examples=40, deadline=None)
@given(e0=UNIT_VECTORS, en=UNIT_VECTORS, z=_FAR_HEIGHTS)
def test_resonant_bulk_above_the_switch_height_is_the_far_field_form(e0, en, z):
    # the far-field form against its algebra in reference.far_bulk, within
    # 1e-15 of the sum of its term magnitudes: over 40,000 draws the worst
    # was 8.1e-16
    b = mk(mu=0.6, a=0.05, z=z, test=e0, array=en)
    value, scale = reference.far_bulk(b)
    assert abs(bulk_term(b, "resonant") - value) <= 1e-15 * scale


@pytest.mark.usefixtures("backend")
@settings(max_examples=20, deadline=None)
@given(e0=UNIT_VECTORS, en=UNIT_VECTORS, z=_FAR_HEIGHTS)
@example(e0=PAIRS["zz"][0], en=PAIRS["zz"][1], z=37.7)
@example(e0=PAIRS["zx"][0], en=PAIRS["zx"][1], z=513.3)
@example(e0=(1.0, 0.0, 0.0), en=(0.0, 1.0, 0.0), z=1e4)
@example(e0=ODD[0], en=ODD[1], z=_SWITCH * 1.0001)
@example(e0=EVEN[0], en=EVEN[1], z=3949.0)
@example(e0=PAIRS["zz"][0], en=PAIRS["zz"][1], z=21.0)
@example(e0=ODD[0], en=ODD[1], z=21.0)
def test_resonant_bulk_above_20_is_the_plane_wave_integral(e0, en, z):
    # every pair's resonant bulk against the 30-digit k-integral, relative
    # to the sum of the far form's term magnitudes: above the switch height
    # within 4e-15 (zz, zx, xy, the odd and even pairs on 80 heights each
    # and 1,500 random draws: 7.3e-16 at worst), in (20, 22.5], where the
    # bracket serves, within 2e-13 (1.3e-13 at worst from 20.5 on)
    b = mk(mu=0.6, a=0.05, z=z, test=e0, array=en)
    _, scale = reference.far_bulk(b)
    bound = 4e-15 if z > _SWITCH else 2e-13
    assert abs(bulk_term(b, "resonant") - plane_wave_bulk(b)) <= bound * scale


# zz and xy, whose u^2 = w = 0 leave the far form its smallest terms, zx,
# whose c0 = 0 keeps the bracket at every height, and the odd and even pairs
_NAMED_PAIRS = {"zz": PAIRS["zz"], "zx": PAIRS["zx"], "xy": ((1, 0, 0), (0, 1, 0)),
                "odd": ODD, "even": EVEN}


@pytest.mark.parametrize("pair", list(_NAMED_PAIRS))
def test_named_resonant_bulks_above_20_are_the_plane_wave_integral(backend, pair):
    # the bounds of the Hypothesis battery above, pair by pair, on heights
    # from 20.25 to 1e4 that straddle the switch height (the worst, zz and
    # xy, are 5.2e-14 at 20.25 and 4.4e-16 from just above 22.5 on). At the
    # zeros of sin 2z near the switch height the zz and xy bulks fall to
    # their z^-6 terms, and both forms lose digits against those: the far
    # form 5.9e-14 at 7.5 pi ~ 23.56, the bracket 1.5e-11 there
    e0, en = _NAMED_PAIRS[pair]
    for z in (20.25, 21.0, 22.0, _SWITCH, _SWITCH * (1.0 + 1e-4), 30.0, 100.0, 1e3, 1e4):
        b = mk(mu=0.6, a=0.05, z=z, test=e0, array=en)
        _, scale = reference.far_bulk(b)
        bound = 4e-15 if z > _SWITCH else 2e-13
        assert abs(bulk_term(b, "resonant") - plane_wave_bulk(b)) <= bound * scale, z


def test_resonant_bulk_takes_no_ray_integral_at_any_height(backend, monkeypatch):
    calls, ray_rotated = [], kernels.ray_rotated
    monkeypatch.setattr(kernels, "ray_rotated", lambda *args: calls.append(args[2].tolist())
                        or ray_rotated(*args))
    heights = [1e-3, 0.3, 5.0, 20.0, _SWITCH, 25.0, 1e3, 1e100]
    for pair in ("zz", "custom_a", "custom_b"):
        test, array = PAIRS[pair]
        b = mk(mu=0.6, a=0.05, test=test, array=array)
        assert plane_wave_coefficients(test, array)[0] != 0.0
        block = bulk_term(b, "resonant", heights)
        one = [bulk_term(mk(mu=0.6, a=0.05, z=z, test=test, array=array), "resonant")
               for z in heights]
        assert [v.hex() for v in block.tolist()] == [v.hex() for v in one]
    # without a Ci term the bracket serves every height
    assert bulk_term(mk(test=ZY[0], array=ZY[1]), "resonant", heights[:-1]).tolist() == \
        bulk_term(mk(array=(1, 0, 0)), "resonant", heights[:-1]).tolist()
    assert calls == []


@pytest.mark.parametrize("z", [1e-307, 1e-320])
def test_custom_closed_form_bulk_fails_where_it_is_not_finite(backend, z):
    # z^4 underflows to 0; before, the rotated rule failed at these heights
    test, array = PAIRS["custom_a"]
    b = mk(mu=0.6, z=0.3, test=test, array=array)
    with pytest.raises(QuadratureFailure, match="^" + re.escape(
            f"bulk resonant at z={z!r}, mu=0.6 (custom): closed form is not finite") + "$"):
        bulk_term(b, "resonant", [0.3, z])


def test_offres_radial_kernels_vs_brute_quadrature():
    # E_n combinations vs direct integration of the defining t-integral
    for u in (1e-3, 0.07, 0.9, 3.0, 11.0):
        wzz, wzx = radial_kernels_by_quad(u)
        assert radial_kernel_zz(u) == pytest.approx(wzz, rel=1e-9)
        assert radial_kernel_zx(u) == pytest.approx(wzx, rel=1e-9)


def test_offres_bulk_reference_values(backend):
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
def test_offres_bulk_matches_exponential_integral_oracle(backend, mu):
    for z in np.geomspace(1e-3, 1e4, 15):
        for array in ((0, 0, 1), (1, 0, 0)):
            b = mk(mu=mu, a=0.02, z=z, array=array)
            assert bulk_term(b, "off_resonant") == pytest.approx(offres_bulk_oracle(b),
                                                                 rel=1e-12)


def test_generic_offres_bulk_path_agrees(backend):
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


def test_generic_offres_bulk_general_pair_vs_adaptive_quadrature(backend):
    # a pair whose site term has azimuthal degree 4: adaptive quadrature over
    # R of the mean over 64 azimuths
    e0, en = (np.array(v) / math.sqrt(6.0) for v in ((1.0, 1.0, 2.0), (2.0, -1.0, 1.0)))
    for z in (0.01, 0.3, 3.0):
        b = mk(mu=0.7, a=0.02, z=z, test=tuple(e0), array=tuple(en))
        assert bulk_term(b, "off_resonant") == pytest.approx(offres_bulk_by_ring(b), rel=1e-10)


def test_offres_edge_against_reordered_quadrature(backend):
    # oracle: swap the integration order (xi outermost, axis innermost)
    b = mk(mu=0.7, a=0.05, z=0.4)
    assert edge_term(b, "off_resonant") == pytest.approx(offres_edge_reordered(b), rel=1e-7)


@functools.lru_cache(maxsize=None)
def _whole_axis_edge(pair, z):
    """reference.whole_axis_edge at a 0.6, M 8 and mu 0.6, once for both
    backends: each of its quad calls evaluates the site kernel one node at a
    time."""
    return whole_axis_edge(mk(mu=0.6, a=0.6, M=8, z=z, test=pair[0], array=pair[1]))


@pytest.mark.parametrize("pair", list(EVEN_PAIRS))
def test_offres_edge_of_an_even_pair_is_the_whole_axis_integral(backend, pair):
    test, array = EVEN_PAIRS[pair]
    for z in (0.05, 0.5, 5.0):
        b = mk(mu=0.6, a=0.6, M=8, z=z, test=test, array=array)
        assert edge_term(b, "off_resonant") == pytest.approx(
            _whole_axis_edge((test, array), z), rel=1e-10), z


@pytest.mark.usefixtures("backend")
@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 2: the edge doubles "
                   "half-axes, wrong for a pair whose site term is odd along an axis")
def test_offres_edge_of_an_odd_pair_is_the_whole_axis_integral():
    # the package's 9.4713e-6 is 0.37 of the whole-axis 2.5832e-5
    b = mk(mu=0.6, a=0.6, M=8, z=0.5, test=ODD[0], array=ODD[1])
    assert edge_term(b, "off_resonant") == pytest.approx(_whole_axis_edge(ODD, 0.5), rel=1e-10)


def test_custom_orientation_decompose_matches_principal_pair(backend):
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
            b = mk(mu=0.6, a=0.05, z=z, test=test, array=array)
            for kind in ("resonant", "off_resonant"):
                d = decompose(b, kind)
                assert math.isfinite(d.total)


def test_resonant_edge_reference_values():
    # contour-rotated axis-integral oracles (unit prefactor), a=0.01, zz
    for z, want in ((0.2, 4951.645901739858), (0.7, 13.920982229213716),
                    (2.0, -0.12920566527592452)):
        b = mk(z=z)
        unit = edge_term(b, "resonant") / (prefactor(b, "resonant") * 4.0 / b.a_tilde)
        assert unit == pytest.approx(want, rel=1e-9)
    for z, want in ((0.2, 1763.5232952994731), (0.7, 4.3978895347405558)):
        bx = mk(z=z, array=(1, 0, 0))
        unit = edge_term(bx, "resonant") / (prefactor(bx, "resonant") * 2.0 / bx.a_tilde)
        assert unit == pytest.approx(want, rel=1e-9)


def test_edge_axis_symmetry_zz_and_zx():
    b = mk(z=0.4)
    assert axis_integral(b, "resonant", "x") == pytest.approx(
        axis_integral(b, "resonant", "y"), rel=1e-12)
    bx = mk(z=0.4, array=(1, 0, 0))
    assert axis_integral(bx, "resonant", "y") == 0.0
    assert axis_integral(bx, "off_resonant", "y") == 0.0


@pytest.mark.usefixtures("backend")
@settings(max_examples=12, deadline=None)
@given(e0=UNIT_VECTORS, en=UNIT_VECTORS, z=st.floats(math.log(1e-3), math.log(1e3)).map(math.exp))
@example(e0=ODD[0], en=ODD[1], z=1e-3)
@example(e0=ODD[0], en=ODD[1], z=0.5)
@example(e0=ODD[0], en=ODD[1], z=1e3)
def test_y_axis_is_the_x_axis_of_the_pair_turned_by_minus_90_degrees(e0, en, z):
    # the turn (x, y, z) -> (y, -x, z) takes the site (0, t) to (t, 0), and
    # keeps e0.n, en.n and e0.en: so the y column of a two-axis edge is the
    # x axis of the turned pair, also for pairs odd along an axis, whose edge
    # the D4 battery skips (16 pairs at 13 heights from 1e-3 to 1e3 came
    # within 1.3e-14 resonant and 7.3e-16 off-resonant, on both backends)
    b = mk(mu=0.6, a=0.05, z=z, test=e0, array=en)
    turned = mk(mu=0.6, a=0.05, z=z, test=(e0[1], -e0[0], e0[2]), array=(en[1], -en[0], en[2]))
    for kind in ("resonant", "off_resonant"):
        assert axis_integral(b, kind, "y") == pytest.approx(
            axis_integral(turned, kind, "x"), rel=1e-12, abs=0.0), kind


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


def test_additivity_bit_exact(backend):
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


def test_criterion_8_edge_over_bulk_tends_to_41_16_of_a_over_z():
    """The analysis of acceptance criterion 8: for zz, resonant, edge/bulk
    is c(z) a/z with c(z) -> 41/16 as z -> 0, whatever the spacing a.

    In the non-retarded limit the zz resonant site term at in-plane distance
    rho is proportional to (1 - 3 z^2/r^2)^2 / r^6 = (t^2 - 2)^2 / (z^6 (1 +
    t^2)^5), t = rho/z. The bulk, (2 pi/a^2) int_0^inf rho (.) drho, is then
    (2 pi/(a^2 z^4)) int_0^inf t (t^2 - 2)^2/(1 + t^2)^5 dt = (2 pi/(a^2
    z^4)) 3/8, and the edge, (2/a) times the two half-axis integrals int_0^inf
    (.) dx, is (4/(a z^5)) int_0^inf (t^2 - 2)^2/(1 + t^2)^5 dt = (4/(a z^5))
    123 pi/256. So edge/bulk = (2a/(pi z)) (123 pi/256)/(3/8) = (41/16) a/z:
    at criterion 8's a = 0.05, z = 0.3 the edge alone adds 0.42 of the bulk,
    while the direct sum equals the bulk to ~3e-6.
    """
    def moment(k):
        return quad(lambda t: t ** k * (t * t - 2.0) ** 2 / (1.0 + t * t) ** 5, 0.0, math.inf,
                    epsabs=0.0, epsrel=1e-13)[0]

    assert moment(0) == pytest.approx(123.0 * math.pi / 256.0, rel=1e-12)
    assert moment(1) == pytest.approx(3.0 / 8.0, rel=1e-12)
    for z, want, tol in ((1e-3, 41.0 / 16.0, 1e-6), (0.3, 2.5098, 1e-4)):
        c = [edge_term(b, "resonant") / bulk_term(b, "resonant") * z / a
             for a, b in ((a, mk(a=a, z=z)) for a in (0.005, 0.01, 0.05))]
        assert c == pytest.approx([want] * 3, abs=tol), z
        assert max(c) - min(c) <= 1e-14 * c[0], z


def test_criterion_8_excess_is_the_edge_and_vertex_over_the_bulk():
    """The rest of the analysis of acceptance criterion 8, at its own
    parameters (zz, a 0.05, M 2000, z 0.3, mu 0.5): the direct sum equals
    the bulk to |direct/bulk - 1| < 1e-5, so the decomposition's excess
    over it is its edge and vertex. With x = (edge + vertex)/bulk and
    d = direct/bulk - 1, total/direct = (1 + x)/(1 + d), so total/direct -
    1 - x = -d (1 + x)/(1 + d), at most 2|d| for 0 <= x < 1 (measured:
    total/direct - 1 = 0.463568, x = 0.463565, d = -2.6e-6, the gap 1.46
    times |d|).
    """
    b = mk(a=0.05, M=2000, z=0.3)
    direct = lattice_sum.sum_lattice(b, "resonant").resonant
    d = decompose(b, "resonant")
    off = direct / d.bulk - 1.0
    assert abs(off) < 1e-5
    assert abs((d.total / direct - 1.0) - (d.edge + d.vertex) / d.bulk) <= 2.0 * abs(off)


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
    # the resonant bulk is a closed form at every height and takes no rule:
    # it fails, by the same message, only where that form is not finite, as
    # at z = 1e-100, where its bracket's z^4 underflows
    monkeypatch.setattr(euler_maclaurin, "_RTOL", 1e-30)
    dipoles = _CUSTOM if pair == "custom" else dict(test=(0, 0, 1), array=(0, 0, 1))
    z = 1e-100 if (term, kind) == ("bulk", "resonant") else 0.3
    b = mk(mu=0.6, a=0.05, z=z, **dipoles)
    assert b.orientation_label() == pair
    with pytest.raises(QuadratureFailure, match=f"^{term} {kind} at z={z!r}, mu=0.6 \\({pair}"):
        getattr(euler_maclaurin, f"{term}_term")(b, kind)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 65])
@pytest.mark.parametrize("kind", ["resonant", "off_resonant"])
@pytest.mark.parametrize("pair", list(PAIRS))
def test_height_blocks_equal_one_height_calls_bitwise(backend, pair, kind, n):
    # heights up to 60: the resonant bulk of a pair with c0 != 0 takes its
    # far-field form above 22.5, and the resonant edge takes a different
    # panel count per height. At 65 heights the resonant edge's integrand
    # passes 256 KiB, where NumPy would evaluate J * <f> with swapped
    # operands
    heights = np.geomspace(3e-3, 60.0, n) if n > 1 else np.array([25.0])
    test, array = PAIRS[pair]
    one = [mk(mu=0.6, a=0.05, z=float(z), test=test, array=array) for z in heights]
    for term in (bulk_term, edge_term, vertex_term):
        block = term(one[0], kind, heights)
        assert block.shape == (n,)
        assert [v.hex() for v in block.tolist()] == [term(b, kind).hex() for b in one]
    assert decompose(one[0], kind, heights) == [decompose(b, kind) for b in one]


def _counting_sites(monkeypatch):
    """Record the kind and directions of every site-kernel call of the ray
    integrals: the off-resonant site kernel's, and the compiled resonant ray
    integrals' (kernels.ray_rotated), which evaluate their site term inside."""
    calls, sites, ray_rotated = [], euler_maclaurin._sites, kernels.ray_rotated
    monkeypatch.setattr(euler_maclaurin, "_sites", lambda bundle, heights, directions: (
        calls.append(("off_resonant", directions.tolist())) or sites(bundle, heights,
                                                                      directions)))
    monkeypatch.setattr(kernels, "ray_rotated", lambda pair, axes, heights: (
        calls.append(("resonant", _AXES[:axes].tolist())) or ray_rotated(pair, axes, heights)))
    return calls


@pytest.mark.parametrize("kind", ["resonant", "off_resonant"])
@pytest.mark.parametrize("pair", list(PAIRS))
def test_decompose_equals_separate_term_calls_bitwise(backend, monkeypatch, pair, kind):
    # off-resonant, decompose evaluates the bulk's sites once and the edge
    # takes its x axis from them; each term must still equal its own call
    test, array = PAIRS[pair]
    b = mk(mu=0.6, a=0.05, z=0.3, test=test, array=array)
    calls = _counting_sites(monkeypatch)
    for heights in (None, np.geomspace(3e-3, 60.0, 9)):
        calls.clear()
        alone = [term(b, kind, heights) for term in (bulk_term, edge_term, vertex_term)]
        separate = len(calls)
        calls.clear()
        got = decompose(b, kind, heights)
        rows = [got] if heights is None else got
        assert [[d.bulk.hex(), d.edge.hex(), d.vertex.hex()] for d in rows] == [
            [v.hex() for v in values] for values in zip(*np.atleast_1d(*alone))]
        if kind == "resonant":
            assert len(calls) == separate
        else:  # zz and zx need no edge evaluation, the others only the y axis
            edge = [] if pair in ("zz", "zx") else [("off_resonant", _AXES[1:].tolist())]
            assert calls[1:] == edge
        assert euler_maclaurin._SHARED_SITES.get() is None


@pytest.mark.parametrize("kind", ["resonant", "off_resonant"])
@pytest.mark.parametrize("pair", ["custom_a", "custom_b"])
def test_custom_edge_is_both_axes_of_one_site_call(backend, monkeypatch, pair, kind):
    test, array = PAIRS[pair]
    b = mk(mu=0.6, a=0.05, z=0.3, test=test, array=array)
    heights = np.geomspace(3e-3, 60.0, 9)
    # the x axis alone and the y column of a call on both
    ax, ay = (_ray_integral(b, kind, "edge", _AXES[:k + 1], heights, "xy"[:k + 1])[:, k]
              for k in range(2))
    want = prefactor(b, kind) * (2.0 / b.a_tilde) * (ax + ay)
    calls = _counting_sites(monkeypatch)
    assert edge_term(b, kind, heights).tobytes() == want.tobytes()
    assert calls == [(kind, _AXES.tolist())]


def test_subnormal_integral_passes_the_underflow_floor(backend):
    # a y-dipole probe over array dipoles (0, c, 1): on the x axis the
    # off-resonant term is c^2 times that of (0, 1, 0) over (0, 1, 0), and at
    # c = 6.5e-156 its integral is subnormal. Every product of the rule then
    # rounds to a multiple of 2^-1074, and the estimate (a few such steps)
    # once missed 1e-9 of the scale: "edge off_resonant at
    # z=2.770988636195382, mu=4.599488667187421 (custom, x axis): error
    # estimate 5.93e-323 exceeds 1e-09 of 5.8241236485158343e-315"
    c, z, mu = 6.5e-156, 2.770988636195382, 4.599488667187421
    tiny = mk(mu=mu, a=1.0, z=z, test=(0, 1, 0), array=(0, c, 1))
    unit = mk(mu=mu, a=1.0, z=z, test=(0, 1, 0), array=(0, 1, 0))
    ax = axis_integral(tiny, "off_resonant", "x")
    assert 0.0 < ax < np.finfo(float).tiny
    assert ax == pytest.approx(c * c * axis_integral(unit, "off_resonant", "x"), rel=1e-6)
    d = decompose(tiny, "off_resonant")
    assert d.edge > 0.0 and math.isfinite(d.total)


def _one_rotated_rule(z):
    """The rotated path's rule at one height, edge by edge: [0, h], then
    panels in ratio 1.4 out to t_max (the reference for _numpy_backend.rotated_rules)."""
    h = 0.1 * min(z, 1.0)
    t_max = max(30.0, 7.0 * math.sqrt(z))
    n = math.ceil(math.log(t_max / h) / math.log(1.4))
    edges = np.concatenate(([0.0], h * 1.4 ** np.arange(n + 1)))
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    turn = np.exp(0.25j * math.pi)
    x, w, w_low = kernels.LEGENDRE
    return turn * (lo + half * (1.0 + x)), turn * (half * w), turn * (half * w_low)


@pytest.mark.parametrize("heights", [
    np.geomspace(1e-3, 1e4, 65), np.geomspace(0.01, 100.0, 257), np.array([0.3]),
    np.array([50.0, 1e-4, 2.0, 2.0, 1e6])], ids=["65", "readme", "one", "unordered"])
def test_rotated_rules_equal_one_rule_per_height(heights):
    t, w, w_low, counts = _numpy_backend.rotated_rules(heights, kernels.ROTATED_RULE)
    rules = [_one_rotated_rule(z) for z in heights.tolist()]
    assert counts.tolist() == [len(rule[0]) for rule in rules]
    for got, want in zip((t, w, w_low), zip(*rules)):
        assert got.tobytes() == np.concatenate(want).tobytes()


def test_block_failure_names_its_first_failing_height(backend, monkeypatch):
    # the estimates of two heights of the block become their scales
    heights = np.geomspace(0.1, 1.0, 8)
    ray_rotated = kernels.ray_rotated

    def failing(pair, axes, zs):
        sums, counts = ray_rotated(pair, axes, zs)
        bad = np.isin(zs, heights[[3, 5]])
        sums[bad, :, 1] = sums[bad, :, 2]
        return sums, counts

    monkeypatch.setattr(kernels, "ray_rotated", failing)
    with pytest.raises(QuadratureFailure,
                       match=f"^edge resonant at z={float(heights[3])!r}, mu=0.5 \\(zz, x axis\\)"):
        edge_term(mk(), "resonant", heights)


@pytest.mark.parametrize("pair", list(RAY_PAIRS), ids=lambda pair: f"{pair}-edge")
def test_rotated_ray_blocks_equal_one_height_calls(backend, pair):
    # the edge's rays: every block row equals its one-height call, and the
    # panel counts are those of the reference rule
    outputs = 1 if pair in ("zz", "zx") else 2
    sums, counts = rays(pair, np.empty(0))
    assert sums.shape == (0, outputs, 3) and counts.shape == (0,)
    for n in (1, 16, 31):
        heights = np.geomspace(1e-3, 1e4, n)
        sums, counts = rays(pair, heights)
        assert sums.shape == (n, outputs, 3)
        want_counts = _numpy_backend.rotated_rules(heights, kernels.ROTATED_RULE)[3]
        assert counts.tolist() == want_counts.tolist()
        for i, z in enumerate(heights.tolist()):
            alone = rays(pair, np.array([z]))[0]
            assert alone.tobytes() == sums[i:i + 1].tobytes()


def test_height_without_a_rotated_rule_fails_by_name(backend):
    # below z ~ 1.7e-306 a height's panels would need more powers of 1.4
    # than ROTATED_RULE holds: it takes the count -1 and NaN sums, the other
    # heights of the call keep their own values, and the resonant edge of a
    # custom pair raises as a missed tolerance does
    heights = np.array([0.3, 1e-307])
    sums, counts = rays("custom_a", heights)
    assert counts[1] == -1 and np.isnan(sums[1]).all()
    assert sums[0].tobytes() == rays("custom_a", heights[:1])[0].tobytes()
    b = mk(mu=0.6, z=0.3, test=PAIRS["custom_a"][0], array=PAIRS["custom_a"][1])
    where = "edge resonant at z=1e-307, mu=0.6 (custom, x axis)"
    with pytest.raises(QuadratureFailure,
                       match=f"^{re.escape(where)}: error estimate nan exceeds 1e-09 of nan$"):
        edge_term(b, "resonant", heights=heights)


@pytest.mark.parametrize("nz", [0, 1, 16, 31])
def test_real_panel_sums_equal_numpy_sums_per_height(backend, nz):
    # the oracle: the mean over the directions and the Jacobian as NumPy
    # takes them, the rule tiled over the heights, NumPy's row sums, and each
    # height summed over its own panels; the cases the library makes: the
    # bulk's mean of one direction (zz) or of the five of the ring, and the
    # edge's one axis or two, each on its own
    S, S_W, S_W_LOW = kernels.REAL_PATH
    rows = len(S)
    rng = np.random.default_rng(nz)
    heights = np.exp(rng.uniform(-5.0, 5.0, nz))
    z = np.repeat(heights, rows)[:, None]
    w, w_low = (np.tile(rule, (nz, 1)) for rule in (S_W, S_W_LOW))
    for nd, bulk in ((1, True), (5, True), (1, False), (2, False)):
        f = rng.normal(size=(nz * rows, 25, nd)) * np.exp(
            rng.uniform(-30.0, 30.0, size=(nz * rows, 1, 1)))
        means = [f.mean(axis=-1)] if bulk else [f[..., k:k + 1].mean(axis=-1) for k in range(nd)]
        jac = z * z * np.tile(S, (nz, 1)) if bulk else z
        want = []
        for k in range(0, nz * rows, rows):
            for mean in means:
                g = np.multiply(jac, mean)
                full = np.sum(g * w, axis=1)[k:k + rows]
                err = np.abs(full - np.sum(g * w_low, axis=1)[k:k + rows])
                want.append([full.sum(), err.sum(), np.abs(full).sum()])
        got, counts = kernels.panel_sums(f, heights, bulk)
        assert got.shape == (nz, len(means), 3) and counts.tolist() == [rows] * nz
        assert got.tobytes() == np.array(want).reshape(got.shape).tobytes(), (nd, bulk)


def test_ray_exports_reject_what_the_compiled_calls_cannot_take(backend, monkeypatch):
    # the compiled calls get raw addresses: the axis count and the shapes are
    # checked before them, so no backend call is made
    pair, h = np.zeros(7), np.ones(2)
    monkeypatch.setattr(kernels._impl, "ray_rotated", None)
    for args, message in [((pair[:6], 2, h), "need pair"),
                          ((pair, 2, np.ones((2, 1))), "need pair"),
                          ((pair, 0, h), "need 1 or 2 axes, got 0"),
                          ((pair, 3, h), "need 1 or 2 axes, got 3"),
                          ((pair, 1.5, h), "need 1 or 2 axes, got 1.5"),
                          ((pair, 1.0, h), "need 1 or 2 axes, got 1.0"),
                          ((pair, True, h), "need 1 or 2 axes, got True"),
                          ((pair, _AXES, h), "need 1 or 2 axes")]:
        with pytest.raises(ValueError, match=message):
            kernels.ray_rotated(*args)
    with pytest.raises(ValueError, match="need f of 2 x 7 rows x 25"):
        kernels.panel_sums(np.ones((7, 25, 1)), np.ones(2), True)


def _term_or_failure(term, b):
    try:
        with np.errstate(all="ignore"):
            return term(b, "resonant").hex()
    except QuadratureFailure as exc:
        return f"QuadratureFailure: {exc}"


@pytest.mark.parametrize("z", [1e-60, 1e150])
def test_ray_failures_are_the_same_on_both_backends(z):
    # where the rotated path's site term underflows or overflows, every
    # pair's resonant edge fails with the same message on both backends.
    # bulk_term is a finite closed form at 1e-60 for every pair, the value of
    # the plane-wave integral; at 1e150 (lengths stay below 2**512) the zz
    # and custom_a bulks are finite far-field forms, and the zx and zy
    # brackets, whose z^4 overflows, fail
    got = {}
    for name in ("c", "numpy"):
        try:
            with kernels.backend(name):
                got[name] = [_term_or_failure(term, mk(z=z, test=RAY_PAIRS[pair][0],
                                                       array=RAY_PAIRS[pair][1]))
                             for pair in RAY_PAIRS for term in (bulk_term, edge_term)]
        except RuntimeError as exc:
            pytest.skip(str(exc))
    assert got["c"] == got["numpy"]
    failures = [v for v in got["c"] if v.startswith("QuadratureFailure")]
    assert len(failures) == (4 if z == 1e-60 else 6)
    assert all(f" at z={z!r}, mu=0.5 (" in v for v in failures)
    if z == 1e-60:
        for pair, value in zip(RAY_PAIRS, got["c"][::2]):
            b = mk(z=z, test=RAY_PAIRS[pair][0], array=RAY_PAIRS[pair][1])
            assert float.fromhex(value) == pytest.approx(float(plane_wave_bulk(b)),
                                                         rel=1e-14), pair


@pytest.mark.parametrize("array,z", [((0, 0, 1), 1e-300), ((0, 0, 1), 1e-79), ((0, 0, 1), 1e-81),
                                     ((1, 0, 0), 1e-300), ((1, 0, 0), 1e100)])
def test_closed_form_bulk_fails_where_it_is_not_finite(backend, array, z):
    # z^4 underflows (an infinite value near 1e-79 at a = 0.01, a division
    # by zero below) or overflows; heights before the failing one are kept
    # out of the message
    b = mk(z=0.3, array=array)
    label = b.orientation_label()
    with pytest.raises(QuadratureFailure, match="^" + re.escape(
            f"bulk resonant at z={z!r}, mu=0.5 ({label}): closed form is not finite") + "$"):
        bulk_term(b, "resonant", [0.3, z, 1e-300])


@pytest.mark.parametrize("route,pair", [(route, pair) for route in HEIGHT_ROUTES
                                         for pair in ("zz", "zx", "custom_a")
                                         if (route, pair) != ("asymptotic_shift", "custom_a")])
def test_every_route_keeps_the_heights_contract(backend, route, pair):
    # no heights give an empty array (decompose an empty list), a bad height
    # is rejected as the bundle's height is, and so is a kind other than
    # the two; a custom pair has no asymptote
    call = HEIGHT_ROUTES[route]
    test, array = PAIRS[pair]
    b = mk(mu=0.6, a=0.05, M=3, z=0.3, test=test, array=array)
    for kind in ("resonant", "off_resonant"):
        got = call(b, kind, [])
        if route == "decompose":
            assert got == []
        else:
            assert got.dtype == np.float64 and got.shape == (0,), kind
        # 2**512 and above: the square of a height overflows
        for bad in (0.0, -1.0, math.inf, math.nan, 2.0 ** 512, 1e200):
            with pytest.raises(NonPositiveLength, match="z_tilde must be > 0 and finite"):
                call(b, kind, [0.1, bad])
    if route != "asymptotic_shift":  # whose kind is its Regime's, checked there
        with pytest.raises(ValueError) as exc:
            call(b, "both", None)
        assert str(exc.value) == "kind must be 'resonant' or 'off_resonant', got 'both'"
