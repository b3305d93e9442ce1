"""Resonant site kernel tests: ``greens.resonant_sites``, the one resonant
site term, against the complex Green tensor, ``Re[pair_coupling^2]``, and
against ``reference``'s former radial brackets, per-node loops on the
rotated path's own nodes, and real-axis and vertical-contour integrals:
the resonant edge on the rotated path, and the closed-form resonant bulk.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (STRATA_PAIRS, VECTORS, axis_integral, bracket_zx, bracket_zz,
                       bulk_vertical, edge_axis_loop, edge_axis_real, row_zx, row_zz, unit)
from reference import bundle as mk

from cplattice import kernels
from cplattice.euler_maclaurin import bulk_term
from cplattice.greens import (pair_coupling, resonant_sites, resonant_sites_complex,
                              scalar_coefficients)
from cplattice.lattice_sum import prefactor, resonant_pair_term


# ---------------------------------------------------------------------------
# the kernel against the complex Green tensor

@settings(max_examples=300, deadline=None)
@given(log_r=st.floats(math.log(1e-3), math.log(1e3)), e0=VECTORS, en=VECTORS, n=VECTORS)
def test_kernel_matches_squared_pair_coupling(log_r, e0, en, n):
    e0, en = unit(e0), unit(en)
    v = math.exp(log_r) * unit(n)
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

# the NumPy backend, and the one selected at import
@pytest.mark.parametrize("backend", ["numpy", kernels.backend_name()], ids=["numpy", "selected"],
                         indirect=True)
@pytest.mark.parametrize("nx", [0, 1, 2, 3, 17, 173, 2048, 20001])
@pytest.mark.parametrize("a2,z2", [(1e-4, 0.04), (0.25, 1.0), (4.0, 1e-4), (1e-2, 9.0)])
def test_rows_match_former_brackets(backend, nx, a2, z2):
    # row nx through the range entry point; rows of oscillating terms
    # cancel: compare against the sum of magnitudes
    for zx, ref in ((False, row_zz), (True, row_zx)):
        t, w = ref(a2, z2, nx)
        row = float(kernels.res_rows(zx, a2, z2, nx, nx + 1)[0])
        assert row == pytest.approx(float(w @ t), rel=1e-12, abs=1e-13 * float(w @ np.abs(t)))


def test_pair_term_matches_former_brackets():
    # near zeros of the bracket both forms lose digits: the floor is 1e-13 of
    # the term's magnitude scale, |pref| |e0.g.en|^2
    rng = np.random.default_rng(11)
    for _ in range(40):
        a, z = rng.uniform(0.01, 3.0), rng.uniform(0.01, 5.0)
        nx, ny = (int(v) for v in rng.integers(-6, 7, 2))
        r2 = (nx * nx + ny * ny) * a * a + z * z
        mu = float(rng.uniform(0.2, 2.5))
        for array, bracket in (((0, 0, 1), bracket_zz(r2, z * z)),
                               ((1, 0, 0), bracket_zx(r2, z * z) * (nx * a) ** 2)):
            b = mk(mu=mu, a=a, z=z, array=array)
            pref = prefactor(b, "resonant")
            scale = abs(pref) * abs(pair_coupling((0, 0, 1), array, (nx * a, ny * a, -z))) ** 2
            assert resonant_pair_term(nx, ny, b) == pytest.approx(
                pref * float(bracket), rel=1e-12, abs=1e-13 * scale)


# ---------------------------------------------------------------------------
# the generic-orientation edge against its former per-node loops

# the two custom_orientation strata of the benchmark plan, and one random pair
_PAIRS = [*STRATA_PAIRS, tuple(unit(v) for v in np.random.default_rng(5).normal(size=(2, 3)))]


@pytest.mark.parametrize("z", [0.6, 2.5])
@pytest.mark.parametrize("pair", range(len(_PAIRS)))
def test_generic_paths_match_former_loops(pair, z):
    e0, en = _PAIRS[pair]
    b = mk(mu=0.6, a=0.6, M=8, z=z, test=tuple(e0), array=tuple(en))
    for axis in ("x", "y"):
        assert axis_integral(b, "resonant", axis) == pytest.approx(
            edge_axis_loop(b, axis), rel=1e-12)


# ---------------------------------------------------------------------------
# the rotated edge against real-axis integration, and the resonant bulk
# against vertical-contour integration

_ORACLE_Z = [1e-3, 1e-2, 0.1, 0.6, 3.0, 30.0, 1e3]
_ORACLE_PAIRS = [((0, 0, 1), (0, 0, 1)), ((0, 0, 1), (1, 0, 0)), _PAIRS[0],
                 (unit((1, 1, 1)), (0.6, 0.0, 0.8))]


@pytest.mark.parametrize("pair", range(len(_ORACLE_PAIRS)))
def test_rotated_edge_matches_real_axis_integral(pair):
    e0, en = _ORACLE_PAIRS[pair]
    for z in _ORACLE_Z:
        b = mk(z=z, test=tuple(e0), array=tuple(en))
        for axis in ("x", "y"):
            want = edge_axis_real(b, axis)
            assert axis_integral(b, "resonant", axis) == pytest.approx(want, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("pair", range(len(_ORACLE_PAIRS)))
def test_resonant_bulk_matches_vertical_contour(pair):
    e0, en = _ORACLE_PAIRS[pair]
    for z in _ORACLE_Z:
        b = mk(z=z, test=tuple(e0), array=tuple(en))
        assert bulk_term(b, "resonant") == pytest.approx(bulk_vertical(b), rel=1e-10, abs=0.0)
