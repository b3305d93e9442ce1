"""Resonant site kernel tests.

``greens.resonant_sites`` is the one definition of the resonant site term.
Its oracles share no arithmetic with it:

* the complex Green tensor, ``Re[pair_coupling^2]``, for any dipole pair;
* the radial brackets the package used for the two principal orientations
  before the kernel existed (``_bracket_zz``/``_bracket_zx`` below), as
  references for the NumPy rows and for ``resonant_pair_term``;
* the per-node loops the generic-orientation bulk and custom edge terms
  used before they became array calls, fed the same nodes of the rotated
  path, so that only the integrand is under test;
* for the decomposition integrals themselves, the real-axis integrator the
  package used before the rotated path (half-period panels of the e^{2ir}
  phase with tail averaging, ``_oscillatory_integral`` below) for the
  edge, and adaptive quadrature along r = z + is for the bulk.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from cplattice import kernels
from cplattice.euler_maclaurin import _rotated_rule
from cplattice.greens import (pair_coupling, resonant_sites, resonant_sites_complex,
                              scalar_coefficients)
from cplattice.lattice_sum import QuadratureFailure
from cplattice.kernels import _numpy_backend
from cplattice.lattice_sum import resonant_pair_term, resonant_prefactor
from cplattice.model import Geometry, LatticeSpec, ModelParams, validate
from test_euler_maclaurin import _axis_integral, _bulk_integral


def mk(mu=0.5, rho=1e-6, a=0.01, M=0, z=0.1, test=(0, 0, 1), array=(0, 0, 1)):
    return validate(ModelParams(mu=mu, rho=rho, test_dipole=test, array_dipole=array),
                    LatticeSpec(a_tilde=a, half_extent=M), Geometry(z_tilde=z))


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# the kernel against the complex Green tensor

_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


@settings(max_examples=300, deadline=None)
@given(log_r=st.floats(math.log(1e-3), math.log(1e3)), e0=_vectors, en=_vectors, n=_vectors)
def test_kernel_matches_squared_pair_coupling(log_r, e0, en, n):
    e0, en = _unit(e0), _unit(en)
    v = math.exp(log_r) * _unit(n)
    # r and n exactly as pair_coupling derives them from the displacement
    r = float(np.linalg.norm(v))
    n = v / r
    dot, pp = float(e0 @ en), float((e0 @ n) * (n @ en))
    pc = pair_coupling(e0, en, v, 1.0)
    t1, t2 = scalar_coefficients(r, 1.0)
    # floor: 1e-12 of the squared magnitudes the coupling is summed from, and
    # 1e-300 for projections so small that the term underflows
    floor = 1e-12 * (abs(t1 * dot) + abs(t2 * pp)) ** 2 + 1e-300
    assert float(resonant_sites(r, dot, pp)) == pytest.approx((pc * pc).real, rel=1e-12,
                                                               abs=floor)


@settings(max_examples=300, deadline=None)
@given(log_r=st.floats(math.log(1e-3), math.log(1e3)), dot=st.floats(-1.0, 1.0),
       pp=st.floats(-1.0, 1.0))
def test_complex_kernel_real_part_on_real_axis(log_r, dot, pp):
    r = math.exp(log_r)
    beta = dot - 3.0 * pp
    # floor: 1e-13 of |B_re|^2 + |B_im|^2 over r^6, the squared magnitude
    floor = 1e-13 * (((dot - pp) * r * r - beta) ** 2 + (beta * r) ** 2) / r ** 6 + 1e-300
    assert float(resonant_sites_complex(r, dot, pp).real) == pytest.approx(
        float(resonant_sites(r, dot, pp)), rel=1e-13, abs=floor)


def test_kernel_broadcasts_and_vanishes_without_projections():
    r = np.geomspace(0.01, 100.0, 7)
    np.testing.assert_array_equal(resonant_sites(r, 1.0, 0.25),
                                  [float(resonant_sites(x, 1.0, 0.25)) for x in r])
    assert np.all(resonant_sites(r, 0.0, 0.0) == 0.0)


# ---------------------------------------------------------------------------
# the principal orientations against their former radial brackets

def _bracket_zz(r2, z2):
    """Re[e^{2ir} Bzz^2]/r^6 with Bzz = (r^2-1) + (3-r^2) z^2/r^2 + i r (1 - 3 z^2/r^2)."""
    r = np.sqrt(r2)
    c = z2 / r2
    bre = (r2 - 1.0) + (3.0 - r2) * c
    bim = r * (1.0 - 3.0 * c)
    h = np.cos(2.0 * r) * (bre * bre - bim * bim) - np.sin(2.0 * r) * (2.0 * bre * bim)
    return h / (r2 * r2 * r2)


def _bracket_zx(r2, z2):
    """zx site term at unit x: [cos 2r (q^2 - 9 r^2) + 6 r q sin 2r] z^2 / r^10, q = 3 - r^2."""
    r = np.sqrt(r2)
    q = 3.0 - r2
    h = np.cos(2.0 * r) * (q * q - 9.0 * r2) + np.sin(2.0 * r) * (6.0 * r * q)
    return h * z2 / r2 ** 5


def _row_zz(a2, z2, nx):
    j = np.arange(nx + 1, dtype=np.float64)
    t = _bracket_zz((nx * nx + j * j) * a2 + z2, z2)
    w = np.where(nx == 0, 1.0, np.where((j == 0) | (j == nx), 4.0, 8.0))
    return t, w


def _row_zx(a2, z2, nx):
    j = np.arange(nx + 1, dtype=np.float64)
    s = nx * nx + j * j
    g = _bracket_zx(s * a2 + z2, z2)
    w = np.where(j == 0, 2.0 * nx * nx, np.where(j == nx, 4.0 * nx * nx, 4.0 * s)) * a2
    return g, w


@pytest.mark.parametrize("backend", [_numpy_backend, kernels], ids=["numpy", "selected"])
@pytest.mark.parametrize("nx", [0, 1, 2, 3, 17, 173, 2048, 20001])
@pytest.mark.parametrize("a2,z2", [(1e-4, 0.04), (0.25, 1.0), (4.0, 1e-4), (1e-2, 9.0)])
def test_rows_match_former_brackets(backend, nx, a2, z2):
    # rows of oscillating terms cancel: compare against the sum of magnitudes
    for row, ref in ((backend.res_row_zz, _row_zz), (backend.res_row_zx, _row_zx)):
        t, w = ref(a2, z2, nx)
        assert row(a2, z2, nx) == pytest.approx(float(w @ t), rel=1e-12,
                                                abs=1e-13 * float(w @ np.abs(t)))


def test_pair_term_matches_former_brackets():
    # near zeros of the bracket both forms lose digits: the floor is 1e-13 of
    # the term's magnitude scale, |pref| |e0.g.en|^2
    rng = np.random.default_rng(11)
    for _ in range(40):
        a, z = rng.uniform(0.01, 3.0), rng.uniform(0.01, 5.0)
        nx, ny = (int(v) for v in rng.integers(-6, 7, 2))
        r2 = (nx * nx + ny * ny) * a * a + z * z
        mu = float(rng.uniform(0.2, 2.5))
        for array, bracket in (((0, 0, 1), _bracket_zz(r2, z * z)),
                               ((1, 0, 0), _bracket_zx(r2, z * z) * (nx * a) ** 2)):
            b = mk(mu=mu, a=a, z=z, array=array)
            pref = resonant_prefactor(b)
            scale = abs(pref) * abs(pair_coupling((0, 0, 1), array, (nx * a, ny * a, -z))) ** 2
            assert resonant_pair_term(nx, ny, b) == pytest.approx(
                pref * float(bracket), rel=1e-12, abs=1e-13 * scale)


# ---------------------------------------------------------------------------
# generic-orientation bulk and edge against their former per-node loops

_PHI = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)

# the two custom_orientation strata of the benchmark plan, and one random pair
_PAIRS = [(_unit((1, 1, 2)), _unit((2, -1, 1))),
          (_unit((-1, 2, 1)), _unit((1, 1, -2))),
          tuple(_unit(v) for v in np.random.default_rng(5).normal(size=(2, 3)))]


def _bulk_loop(bundle):
    """Per-node loop over r = z + t e^{i pi/4}, on the package's own nodes."""
    z = bundle.z_tilde
    e0 = np.asarray(bundle.params.test_dipole)
    en = np.asarray(bundle.params.array_dipole)
    t, w, _ = _rotated_rule(z)
    rs = z + t
    out = np.empty_like(rs)
    for idx, r in np.ndenumerate(rs):
        big_r = np.sqrt(r * r - z * z)
        x, y = big_r * np.cos(_PHI), big_r * np.sin(_PHI)
        t1, t2 = scalar_coefficients(r, 1.0)
        p0 = (e0[0] * x + e0[1] * y - e0[2] * z) / r
        pn = (en[0] * x + en[1] * y - en[2] * z) / r
        pc = t1 * float(e0 @ en) + t2 * p0 * pn
        out[idx] = r * np.mean(pc * pc)
    integral = float(np.sum(out * w).real)
    return resonant_prefactor(bundle) * (2.0 * math.pi / bundle.a_tilde ** 2) * integral


def _edge_axis_loop(bundle, axis):
    """Per-node loop over x = t e^{i pi/4}, on the package's own nodes."""
    z = bundle.z_tilde
    e0 = np.asarray(bundle.params.test_dipole)
    en = np.asarray(bundle.params.array_dipole)
    xs, w, _ = _rotated_rule(z)
    out = np.empty_like(xs)
    for idx, x in np.ndenumerate(xs):
        v = np.array((x, 0.0, -z) if axis == "x" else (0.0, x, -z))
        r = np.sqrt(x * x + z * z)
        n = v / r
        t1, t2 = scalar_coefficients(r, 1.0)
        pc = t1 * float(e0 @ en) + t2 * (e0 @ n) * (n @ en)
        out[idx] = pc * pc
    return float(np.sum(out * w).real)


@pytest.mark.parametrize("z", [0.6, 2.5])
@pytest.mark.parametrize("pair", range(len(_PAIRS)))
def test_generic_paths_match_former_loops(pair, z):
    e0, en = _PAIRS[pair]
    b = mk(mu=0.6, a=0.6, M=8, z=z, test=tuple(e0), array=tuple(en))
    assert _bulk_integral(b) == pytest.approx(_bulk_loop(b), rel=1e-12)
    for axis in ("x", "y"):
        assert _axis_integral(b, "resonant", axis) == pytest.approx(
            _edge_axis_loop(b, axis), rel=1e-12)


# ---------------------------------------------------------------------------
# the rotated path against real-axis and vertical-contour integration

_GL_NODES, _GL_WEIGHTS = leggauss(16)


def _gl_panels(f, edges) -> list[float]:
    """GL-16 values of the panels between consecutive edges, from one call of f."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = f((mid[:, None] + half[:, None] * _GL_NODES).ravel()).reshape(half.size, -1)
    return (half * np.sum(_GL_WEIGHTS * vals, axis=1)).tolist()


def _bisected(f, lo, hi, whole, abs_floor, depth=0) -> float:
    """Bisect a panel until GL-16 self-agreement."""
    mid = 0.5 * (lo + hi)
    left, right = _gl_panels(f, (lo, mid, hi))
    parts = left + right
    if abs(whole - parts) <= 1e-13 * abs(parts) + abs_floor or depth >= 24:
        return parts
    return (_bisected(f, lo, mid, left, 0.5 * abs_floor, depth + 1)
            + _bisected(f, mid, hi, right, 0.5 * abs_floor, depth + 1))


def _repeated_average(tail):
    a = list(tail)
    while len(a) > 1:
        a = [0.5 * (a[i] + a[i + 1]) for i in range(len(a) - 1)]
    return a[0]


def _oscillatory_integral(f, z, to_x, rel_tol=1e-11, max_panels=6000):
    """Integrate f over [to_x(z), inf) on the real axis in half-period panels
    of the e^{2ir} phase, r_k = z + k pi/2; to_x maps r to the integration
    variable. The first four panels are bisected adaptively; the tail is
    summed by repeated averaging of the partial sums."""
    def edges(k0, k1):
        return [to_x(z + k * math.pi / 2.0) for k in range(k0, k1 + 1)]

    partials = []
    total = 0.0
    est_prev = None
    floor = 0.0
    abs_floor = 0.0
    near = edges(0, 4)
    wholes = _gl_panels(f, near)
    for k in range(max_panels):
        if k < 4:
            seg = _bisected(f, near[k], near[k + 1], wholes[k], abs_floor)
            abs_floor = max(abs_floor, 1e-14 * abs(seg))
        else:
            seg = _gl_panels(f, edges(k, k + 1))[0]
        total += seg
        partials.append(total)
        floor = max(floor, abs(total))
        if k >= 16 and (k & 1):
            est = _repeated_average(partials[-16:])
            if est_prev is not None and abs(est - est_prev) <= rel_tol * max(abs(est), 1e-14 * floor):
                return est
            est_prev = est
    raise QuadratureFailure("oscillatory tail averaging did not converge")


def _edge_axis_real(bundle, axis):
    z = bundle.z_tilde
    e0, en = bundle.params.test_dipole, bundle.params.array_dipole

    def f(xs):
        r = np.sqrt(xs * xs + z * z)
        p0 = ((e0[0] * xs if axis == "x" else e0[1] * xs) - e0[2] * z) / r
        pn = ((en[0] * xs if axis == "x" else en[1] * xs) - en[2] * z) / r
        t1, t2 = scalar_coefficients(r, 1.0)
        pc = t1 * float(np.dot(e0, en)) + t2 * p0 * pn
        return (pc * pc).real

    return _oscillatory_integral(f, z, to_x=lambda r: math.sqrt(max(r * r - z * z, 0.0)))


def _bulk_vertical(bundle):
    """Re[i int_0^inf G(z + is) ds], G(r) = r <(e0.g.en)^2>_phi, by quad."""
    z = bundle.z_tilde
    e0 = np.asarray(bundle.params.test_dipole)
    en = np.asarray(bundle.params.array_dipole)

    def g(s):
        r = z + 1j * s
        big_r = np.sqrt(r * r - z * z)
        x, y = big_r * np.cos(_PHI), big_r * np.sin(_PHI)
        t1, t2 = scalar_coefficients(r, 1.0)
        p0 = (e0[0] * x + e0[1] * y - e0[2] * z) / r
        pn = (en[0] * x + en[1] * y - en[2] * z) / r
        pc = t1 * float(e0 @ en) + t2 * p0 * pn
        return (1j * r * np.mean(pc * pc)).real

    val, _ = quad(g, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return resonant_prefactor(bundle) * (2.0 * math.pi / bundle.a_tilde ** 2) * val


_ORACLE_Z = [1e-3, 1e-2, 0.1, 0.6, 3.0, 30.0, 1e3]
_ORACLE_PAIRS = [((0, 0, 1), (0, 0, 1)), ((0, 0, 1), (1, 0, 0)), _PAIRS[0],
                 (_unit((1, 1, 1)), (0.6, 0.0, 0.8))]


@pytest.mark.parametrize("pair", range(len(_ORACLE_PAIRS)))
def test_rotated_edge_matches_real_axis_integral(pair):
    e0, en = _ORACLE_PAIRS[pair]
    for z in _ORACLE_Z:
        b = mk(z=z, test=tuple(e0), array=tuple(en))
        for axis in ("x", "y"):
            want = _edge_axis_real(b, axis)
            assert _axis_integral(b, "resonant", axis) == pytest.approx(want, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("pair", range(len(_ORACLE_PAIRS)))
def test_rotated_bulk_matches_vertical_contour(pair):
    e0, en = _ORACLE_PAIRS[pair]
    for z in _ORACLE_Z:
        b = mk(z=z, test=tuple(e0), array=tuple(en))
        assert _bulk_integral(b) == pytest.approx(_bulk_vertical(b), rel=1e-10)
