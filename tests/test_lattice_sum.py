"""Direct-sum module tests. The reference ("naive") summation used here is
built from the public 3x3 tensor API, site by site over the full grid, with
no octant folding and no shared code with the accelerated paths."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplattice.euler_maclaurin import decompose
from cplattice.greens import green_dyadic
from cplattice.lattice_sum import (ShiftResult, SiteBudgetExceeded, _map_ranges, _split_rows,
                                   offresonant_pair_term, resonant_pair_term,
                                   sum_lattice)
from cplattice.model import Geometry, LatticeSpec, ModelParams, validate
from scipy.integrate import quad


def mk(mu=0.5, rho=1e-6, a=0.5, M=3, z=0.5, test=(0, 0, 1), array=(0, 0, 1)):
    return validate(ModelParams(mu=mu, rho=rho, test_dipole=test, array_dipole=array),
                    LatticeSpec(a_tilde=a, half_extent=M), Geometry(z_tilde=z))


def naive_resonant(bundle):
    """Full-grid oracle through green_dyadic matrices."""
    e0 = np.asarray(bundle.params.test_dipole)
    en = np.asarray(bundle.params.array_dipole)
    M, a, z = bundle.half_extent, bundle.a_tilde, bundle.z_tilde
    pref = 1.125 * bundle.rho * bundle.mu / ((1 - bundle.mu) * (1 + bundle.mu))
    total = 0.0
    for nx, ny in itertools.product(range(-M, M + 1), repeat=2):
        v = np.array([nx * a, ny * a, -z])
        r = np.linalg.norm(v)
        g = green_dyadic(v / r, r, 1.0)
        pc = complex(e0 @ g @ en)
        total += (pc * pc).real
    return pref * total


def naive_offresonant(bundle):
    e0 = np.asarray(bundle.params.test_dipole)
    en = np.asarray(bundle.params.array_dipole)
    M, a, z = bundle.half_extent, bundle.a_tilde, bundle.z_tilde
    mu2 = bundle.mu ** 2
    pref = 9 * bundle.rho * bundle.mu / (8 * math.pi)
    total = 0.0
    for nx, ny in itertools.product(range(-M, M + 1), repeat=2):
        v = np.array([nx * a, ny * a, -z])
        r = np.linalg.norm(v)
        n = v / r

        def f(xi):
            g = green_dyadic(n, r, complex(0, xi))
            pc = complex(e0 @ g @ en)
            return xi ** 4 * pc.real ** 2 / ((xi * xi + 1) * (xi * xi + mu2))

        val, _ = quad(f, 0, 1, epsrel=1e-11, limit=200)
        tail, _ = quad(lambda t: f(1 / t) / t ** 2, 1e-14, 1, epsrel=1e-11, limit=200)
        total += val + tail
    return pref * total


def test_single_site_resonant_reference_value():
    # site (1,0), a=0.5, z=0.5, mu=0.5, rho=1e-6; 25-digit oracle
    b = mk()
    assert resonant_pair_term(1, 0, b) == pytest.approx(3.55240419262384561e-6, rel=1e-13)


def test_single_site_offresonant_reference_value():
    b = mk(a=0.4, M=2, z=0.35)
    assert offresonant_pair_term(2, 1, b) == pytest.approx(2.041655446120816e-7, rel=1e-9)


def test_origin_site_nonretarded_scaling():
    b = mk(a=0.01, M=50, z=0.01)
    want = 4.5 * 1e-6 * 0.5 / (0.5 * 1.5) / 0.01 ** 6
    assert resonant_pair_term(0, 0, b) == pytest.approx(want, rel=1e-3)
    want_or = 2.25 * 1e-6 / 1.5 / 0.01 ** 6
    assert offresonant_pair_term(0, 0, b) == pytest.approx(want_or, rel=1e-2)


def test_origin_site_zx_exactly_zero():
    b = mk(array=(1, 0, 0))
    assert resonant_pair_term(0, 0, b) == 0.0
    assert offresonant_pair_term(0, 0, b) == 0.0


def test_offresonant_retarded_origin_site():
    b = mk(mu=2.0, a=100.0, M=0, z=10.0)
    want = 45.0 / (8 * math.pi) * (1e-6 / 2.0) / 10.0 ** 7
    assert offresonant_pair_term(0, 0, b) == pytest.approx(want, rel=2e-2)


def test_m_zero_reduces_to_single_pair_term():
    b = mk(M=0)
    s = sum_lattice(b, "resonant")
    assert s.resonant == pytest.approx(resonant_pair_term(0, 0, b), rel=1e-15)
    assert s.terms_summed == 1
    so = sum_lattice(b, "off_resonant")
    assert so.off_resonant == pytest.approx(offresonant_pair_term(0, 0, b), rel=1e-10)


def test_terms_summed_counts_all_sites():
    b = mk(M=4)
    assert sum_lattice(b, "resonant").terms_summed == 81


@pytest.mark.parametrize("orientation", ["zz", "zx"])
def test_octant_acceleration_matches_naive(orientation):
    array = (0, 0, 1) if orientation == "zz" else (1, 0, 0)
    rng = np.random.default_rng(12)
    for _ in range(6):
        b = mk(mu=float(rng.uniform(0.2, 0.9)), a=float(rng.uniform(0.1, 2.0)),
               M=int(rng.integers(1, 6)), z=float(rng.uniform(0.1, 2.0)), array=array)
        fast = sum_lattice(b, "resonant").resonant
        slow = naive_resonant(b)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-300)


def test_offresonant_octant_matches_naive():
    b = mk(a=0.8, M=2, z=0.6, mu=0.7)
    fast = sum_lattice(b, "off_resonant").off_resonant
    slow = naive_offresonant(b)
    assert fast == pytest.approx(slow, rel=1e-8)
    bx = mk(a=0.8, M=2, z=0.6, mu=0.7, array=(1, 0, 0))
    assert sum_lattice(bx, "off_resonant").off_resonant == pytest.approx(
        naive_offresonant(bx), rel=1e-8)


def test_custom_orientation_routes_and_matches():
    # probe z / array y equals probe z / array x by the lattice x<->y symmetry
    by = mk(a=0.3, M=2, z=0.45, mu=0.6, array=(0, 1, 0))
    bx = mk(a=0.3, M=2, z=0.45, mu=0.6, array=(1, 0, 0))
    assert by.orientation_label() == "custom"
    ry = sum_lattice(by, "resonant").resonant
    rx = sum_lattice(bx, "resonant").resonant
    assert ry == pytest.approx(rx, rel=1e-12)
    # 25-digit oracle for the same custom sum
    assert ry == pytest.approx(0.000348402243175625487, rel=1e-13)
    # off-resonant single-site custom value
    assert offresonant_pair_term(1, 2, by) == pytest.approx(1.80674516512009229e-6, rel=1e-9)
    # and the custom full-grid off-resonant sum equals the zx fast path
    oy = sum_lattice(by, "off_resonant").off_resonant
    ox = sum_lattice(bx, "off_resonant").off_resonant
    assert oy == pytest.approx(ox, rel=1e-9)


def test_custom_orientation_against_naive_oracle():
    s = 1.0 / math.sqrt(2.0)
    b = mk(a=0.7, M=2, z=0.8, mu=0.4, test=(0, s, s), array=(s, 0, s))
    got = sum_lattice(b, "resonant").resonant
    assert got == pytest.approx(naive_resonant(b), rel=1e-12)


def test_linear_in_rho():
    b1 = mk(rho=1e-6, M=2)
    b2 = mk(rho=2e-6, M=2)
    assert sum_lattice(b2, "resonant").resonant == pytest.approx(
        2.0 * sum_lattice(b1, "resonant").resonant, rel=1e-14)
    assert sum_lattice(b2, "off_resonant").off_resonant == pytest.approx(
        2.0 * sum_lattice(b1, "off_resonant").off_resonant, rel=1e-12)


@st.composite
def _dipole_pairs(draw):
    pair = draw(st.sampled_from(["zz", "zx", "custom"]))
    if pair != "custom":
        return (0, 0, 1), (0, 0, 1) if pair == "zz" else (1, 0, 0)
    vecs = []
    for _ in range(2):
        v = np.array([draw(st.floats(-1, 1)) for _ in range(3)])
        n = np.linalg.norm(v)
        vecs.append(tuple(v / n) if n > 1e-3 else (0.0, 1.0, 0.0))
    return tuple(vecs)


@settings(max_examples=40, deadline=None)
@given(rho=st.floats(1e-9, 0.0499), mu=st.floats(0.05, 5.0).filter(lambda m: abs(1 - m) > 1e-2),
       log_a=st.floats(math.log(0.01), math.log(3.0)), M=st.integers(0, 5),
       log_z=st.floats(math.log(0.01), math.log(50.0)), dipoles=_dipole_pairs())
def test_exactly_linear_in_rho(rho, mu, log_a, M, log_z, dipoles):
    # rho enters only through the prefactors, and doubling is exact in
    # floating point: every sum and every decomposition field doubles bitwise
    test, array = dipoles
    b1, b2 = (mk(rho=r, mu=mu, a=math.exp(log_a), M=M, z=math.exp(log_z),
                 test=test, array=array) for r in (rho, 2.0 * rho))
    assert sum_lattice(b2, "resonant").resonant == 2.0 * sum_lattice(b1, "resonant").resonant
    assert sum_lattice(b2, "off_resonant").off_resonant \
        == 2.0 * sum_lattice(b1, "off_resonant").off_resonant
    for kind in ("resonant", "off_resonant"):
        d1, d2 = decompose(b1, kind), decompose(b2, kind)
        assert (d2.bulk, d2.edge, d2.vertex, d2.total) \
            == (2.0 * d1.bulk, 2.0 * d1.edge, 2.0 * d1.vertex, 2.0 * d1.total)


def test_offresonant_partial_sums_monotone_in_m():
    vals = [sum_lattice(mk(a=0.4, M=m, z=0.3), "off_resonant").off_resonant
            for m in range(6)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_offresonant_terms_strictly_positive():
    rng = np.random.default_rng(7)
    for _ in range(15):
        b = mk(a=float(rng.uniform(0.1, 3)), z=float(rng.uniform(0.1, 3)),
               mu=float(rng.uniform(0.2, 2.5)))
        nx, ny = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        assert offresonant_pair_term(nx, ny, b) > 0.0
    bx = mk(test=(1, 0, 0), array=(1, 0, 0), a=0.5, z=0.7)
    assert offresonant_pair_term(2, 1, bx) > 0.0


def test_offresonant_shell_tail_decays_faster_than_m4():
    # contribution of max-norm shell m falls off faster than m^-4
    b = mk(a=0.6, M=0, z=0.4)
    shells = []
    for m in (4, 6, 8, 12, 16):
        total = 0.0
        for nx in range(-m, m + 1):
            for ny in range(-m, m + 1):
                if max(abs(nx), abs(ny)) == m:
                    total += offresonant_pair_term(nx, ny, b)
        shells.append((m, total))
    x = np.log([m for m, _ in shells])
    y = np.log([v for _, v in shells])
    slope = np.polyfit(x, y, 1)[0]
    assert slope < -4.0


def test_site_budget_guard():
    b = mk(M=10)
    with pytest.raises(SiteBudgetExceeded):
        sum_lattice(b, "resonant", site_budget=100)
    assert isinstance(sum_lattice(b, "resonant", site_budget=441), ShiftResult)


def test_thread_count_does_not_change_bits():
    # each worker takes one contiguous row range: 61 octant rows and 121
    # full-grid rows do not split evenly over 2, 3 or 4 workers
    for test, array in [((0, 0, 1), (0, 0, 1)), ((0, 0, 1), (1, 0, 0)),
                        ((0.6, 0, 0.8), (0, 0.6, 0.8))]:
        b = mk(a=0.05, M=60, z=0.3, test=test, array=array)
        vals = {sum_lattice(b, "resonant", threads=t).resonant for t in (None, 1, 2, 3, 4, 16)}
        assert len(vals) == 1
        valo = {sum_lattice(b, "off_resonant", threads=t).off_resonant for t in (1, 4)}
        assert len(valo) == 1
    # the splitter: contiguous non-empty ranges in row order, at most one per
    # thread, each within one row of an equal share of the work
    for work in (np.ones(15), np.arange(1, 9), np.arange(1, 62), np.arange(1, 502)):
        for t in (None, 1, 2, 3, 4, 16, 600):
            ranges = _split_rows(work, t)
            assert ranges[0][0] == 0 and ranges[-1][1] == len(work)
            assert all(lo < hi for lo, hi in ranges)
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            assert len(ranges) <= max(t or 1, 1)
            share = work.sum() / (t or 1)
            assert all(work[lo:hi].sum() <= share + work.max() for lo, hi in ranges)
            assert _map_ranges(lambda lo, hi: list(range(lo, hi)), ranges) == [
                list(range(lo, hi)) for lo, hi in ranges]


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        sum_lattice(mk(), "both")


def test_sweep_regime_structure():
    """Qualitative crossover of the finite-lattice resonant shift:
    1/z^6 below the lattice spacing, 1/z^4 in the dense window, and a
    departure from the unbounded-lattice value beyond the array extent."""
    from cplattice.euler_maclaurin import bulk_term

    a, M = 0.01, 500  # extent (2M+1) a ~ 10

    def direct(z):
        return sum_lattice(mk(a=a, M=M, z=z), "resonant").resonant

    near = [(z, direct(z)) for z in np.geomspace(1e-3, 3e-3, 6)]
    s_near = np.polyfit(np.log([p[0] for p in near]), np.log([p[1] for p in near]), 1)[0]
    assert abs(s_near + 6.0) < 0.1

    mid = [(z, direct(z)) for z in np.geomspace(0.1, 0.3, 6)]
    s_mid = np.polyfit(np.log([p[0] for p in mid]), np.log([p[1] for p in mid]), 1)[0]
    assert abs(s_mid + 4.0) < 0.3

    far = direct(30.0)  # z beyond the array extent
    bulk = bulk_term(mk(a=a, M=M, z=30.0), "resonant")
    assert abs(far / bulk - 1.0) > 0.5
