"""Resonant site kernel tests.

``greens.resonant_sites`` is the one definition of the resonant site term.
Its oracles share no arithmetic with it:

* the complex Green tensor, ``Re[pair_coupling^2]``, for any dipole pair;
* the radial brackets the package used for the two principal orientations
  before the kernel existed (``_bracket_zz``/``_bracket_zx`` below), as
  references for the NumPy rows and for ``resonant_pair_term``;
* the per-node loops the generic-orientation bulk and custom edge terms
  used before they became array calls, fed to the same integrator, so that
  only the integrand is under test.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplattice import kernels
from cplattice.euler_maclaurin import (_bulk_resonant_generic, _edge_axis_resonant,
                                       _oscillatory_integral)
from cplattice.greens import pair_coupling, resonant_sites, scalar_coefficients
from cplattice.kernels import _numpy_backend
from cplattice.lattice_sum import resonant_pair_term, resonant_prefactor
from cplattice.model import Geometry, LatticeSpec, ModelParams, validate


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
    z = bundle.z_tilde
    e0 = np.asarray(bundle.params.test_dipole)
    en = np.asarray(bundle.params.array_dipole)

    def radial(rs):
        out = np.empty_like(rs)
        for i, r in enumerate(rs):
            rr = float(r)
            big_r = math.sqrt(max(rr * rr - z * z, 0.0))
            x, y = big_r * np.cos(_PHI), big_r * np.sin(_PHI)
            t1, t2 = scalar_coefficients(rr, 1.0)
            p0 = (e0[0] * x + e0[1] * y - e0[2] * z) / rr
            pn = (en[0] * x + en[1] * y - en[2] * z) / rr
            pc = t1 * float(e0 @ en) + t2 * p0 * pn
            out[i] = rr * float(np.mean((pc * pc).real))
        return out

    integral = _oscillatory_integral(radial, z, to_x=lambda r: r)
    return resonant_prefactor(bundle) * (2.0 * math.pi / bundle.a_tilde ** 2) * integral


def _edge_axis_loop(bundle, axis):
    z = bundle.z_tilde
    e0, en = bundle.params.test_dipole, bundle.params.array_dipole

    def f(xs):
        out = np.empty_like(xs)
        for i, x in enumerate(xs):
            v = (x, 0.0, -z) if axis == "x" else (0.0, x, -z)
            pc = pair_coupling(e0, en, np.array(v), 1.0)
            out[i] = (pc * pc).real
        return out

    return _oscillatory_integral(f, z, to_x=lambda r: math.sqrt(max(r * r - z * z, 0.0)))


@pytest.mark.parametrize("z", [0.6, 2.5])
@pytest.mark.parametrize("pair", range(len(_PAIRS)))
def test_generic_paths_match_former_loops(pair, z):
    e0, en = _PAIRS[pair]
    b = mk(mu=0.6, a=0.6, M=8, z=z, test=tuple(e0), array=tuple(en))
    assert _bulk_resonant_generic(b) == pytest.approx(_bulk_loop(b), rel=1e-12)
    for axis in ("x", "y"):
        assert _edge_axis_resonant(b, axis) == pytest.approx(_edge_axis_loop(b, axis), rel=1e-12)
