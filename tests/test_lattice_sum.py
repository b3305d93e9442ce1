"""Direct-sum module tests, against ``reference``'s naive full-grid sums,
which share no code with the accelerated paths."""
import contextlib
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import (EVEN_PAIRS, EXTREME_HEIGHTS, ODD, PAIRS, STRATA_PAIRS, UNIT_VECTORS, ZY,
                       naive_offresonant, naive_resonant, per_row_custom, public_calls)

from cplattice import euler_maclaurin, greens, kernels, lattice_sum
from cplattice.euler_maclaurin import bulk_term, decompose, edge_term, vertex_term
from cplattice.kernels import _numpy_backend
from cplattice.lattice_sum import (QuadratureFailure, _map_ranges, _split_rows,
                                   offresonant_pair_term, resonant_pair_term, sum_lattice)
from cplattice.model import ValidationError

mk = functools.partial(reference.bundle, a=0.5, M=3, z=0.5)
_CUSTOM_PAIRS = {name: PAIRS[name] for name in ("custom_a", "custom_b")}


def test_single_site_resonant_reference_value():
    # site (1,0), a=0.5, z=0.5, mu=0.5, rho=1e-6; 25-digit oracle
    b = mk()
    assert resonant_pair_term(1, 0, b) == pytest.approx(3.55240419262384561e-6, rel=1e-13)


def test_single_site_offresonant_reference_value(backend):
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


@pytest.mark.parametrize("kind,M,want", [("resonant", 0, 0.0),
                                         ("resonant", 1, 2.0171610377929678e-109),
                                         ("off_resonant", 0, 0.0),
                                         ("off_resonant", 1, 6.723491683748857e-110)])
def test_zx_sums_at_a_tiny_height_are_finite(backend, kind, M, want):
    # at z = 1e-60 the zx origin's term overflows while its orbit weight
    # 2 nx^2 a^2 is exactly 0: both backends take its row as 0.0, and the
    # off-resonant fold starts past it, where the NumPy rows and the fold
    # once formed 0 * inf = NaN and the sum raised QuadratureFailure. Both
    # kinds are the same bits on both backends
    got = getattr(sum_lattice(mk(mu=0.6, a=0.01, M=M, z=1e-60, array=(1, 0, 0)), kind), kind)
    assert got.hex() == want.hex()
    assert reference.stream_rows(_numpy_backend, True, 1e-4, 1e-120, 0, 1).tolist() == [0.0]


def test_offresonant_retarded_origin_site():
    b = mk(mu=2.0, a=100.0, M=0, z=10.0)
    want = 45.0 / (8 * math.pi) * (1e-6 / 2.0) / 10.0 ** 7
    assert offresonant_pair_term(0, 0, b) == pytest.approx(want, rel=2e-2)


def test_m_zero_reduces_to_single_pair_term(backend):
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
def test_octant_acceleration_matches_naive(backend, orientation):
    array = (0, 0, 1) if orientation == "zz" else (1, 0, 0)
    rng = np.random.default_rng(12)
    for _ in range(6):
        b = mk(mu=float(rng.uniform(0.2, 0.9)), a=float(rng.uniform(0.1, 2.0)),
               M=int(rng.integers(1, 6)), z=float(rng.uniform(0.1, 2.0)), array=array)
        fast = sum_lattice(b, "resonant").resonant
        slow = naive_resonant(b)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-300)


def test_offresonant_octant_matches_naive(backend):
    b = mk(a=0.8, M=2, z=0.6, mu=0.7)
    fast = sum_lattice(b, "off_resonant").off_resonant
    slow = naive_offresonant(b)
    assert fast == pytest.approx(slow, rel=1e-8)
    bx = mk(a=0.8, M=2, z=0.6, mu=0.7, array=(1, 0, 0))
    assert sum_lattice(bx, "off_resonant").off_resonant == pytest.approx(
        naive_offresonant(bx), rel=1e-8)


def test_custom_orientation_routes_and_matches(backend):
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


def test_linear_in_rho(backend):
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
        u = v / n if n > 1e-3 else np.array([0.0, 1.0, 0.0])
        # components are 0 or at least 1e-100 in size: exact doubling holds
        # while every value stays normal, and a component of ~1e-150 makes
        # some of them subnormal (the rule's underflow floor is tested in
        # test_euler_maclaurin.py)
        u[np.abs(u) < 1e-100] = 0.0
        vecs.append(tuple(u))
    return tuple(vecs)


@pytest.mark.usefixtures("backend")
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


@pytest.mark.parametrize("array", [(0, 0, 1), (1, 0, 0)], ids=["zz", "zx"])
def test_offresonant_octant_past_the_table_cap_streams_the_same_bits(backend, monkeypatch,
                                                                     array):
    # an octant of more sites than kernels.TABLE_SITE_CAP has no distance
    # table: it evaluates every site's term, a block of rows at a time, and
    # keeps the table path's bits. At z = 1e-60 the zx origin's term is not
    # finite (r^6 underflows): both paths skip it
    zx = array == (1, 0, 0)
    heights = (1e-60, 0.05, 0.3, 2.0) if zx else (0.05, 0.3, 2.0)
    with lattice_sum.quiet_nonfinite():
        origin = kernels.offres_sites(*lattice_sum.radial_sites(np.zeros(1), 0.0025, 1e-120, True),
                                      0.6)
    assert not math.isfinite(origin[0])
    for M in (0, 1, 7, 300):
        b = mk(mu=0.6, a=0.05, M=M, array=array)
        kernels._tables.clear()
        table = sum_lattice(b, "off_resonant", heights=heights).off_resonant
        assert list(kernels._tables) == [(0, M + 1)]
        with monkeypatch.context() as m:
            m.setattr(kernels, "TABLE_SITE_CAP", 0)
            kernels._tables.clear()
            streamed = sum_lattice(b, "off_resonant", heights=heights).off_resonant
            assert kernels._tables == {}
        assert np.isfinite(table).all() and streamed.tobytes() == table.tobytes(), M


def test_streamed_offresonant_octant_memory_is_bounded(backend, monkeypatch):
    # past the cap an off-resonant octant holds one block of rows at a time
    # (1.1 MB on C, 2.4 MB on NumPy): at M = 1,000 (501,501 octant sites)
    # its whole-octant distance table and orbit weights took a tracemalloc
    # peak of 13.5 MB on C and 42 MB on NumPy
    monkeypatch.setattr(kernels, "TABLE_SITE_CAP", 1000)
    sum_lattice(mk(mu=0.6, M=2), "off_resonant")  # first calls outside the measurement
    b = mk(mu=0.6, a=0.05, M=1000, z=0.5)
    tracemalloc.start()
    try:
        value = sum_lattice(b, "off_resonant").off_resonant
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(value) and list(kernels._tables) == [(0, 3)]  # M = 2's table alone
    assert peak < 4e6, f"peak {peak / 1e6:.2f} MB"


def test_default_threads_follow_the_site_count(monkeypatch):
    # threads=None: one worker per usable CPU from AUTO_THREADS_SITES summed
    # sites (the octant for zz and zx, the grid otherwise), else one
    seen = []
    for name in ("_resonant_octant", "_resonant_custom"):
        monkeypatch.setattr(lattice_sum, name,
                            lambda bundle, z, threads: seen.append(threads) or [0.0])
    monkeypatch.setattr(lattice_sum, "usable_cpus", lambda: 3)
    monkeypatch.setattr(lattice_sum, "AUTO_THREADS_SITES", 66)  # the octant at M = 10
    for M, array, want in ((9, (0, 0, 1), 1), (10, (0, 0, 1), 3), (10, (1, 0, 0), 3),
                           (3, (0.6, 0, 0.8), 1), (4, (0.6, 0, 0.8), 3)):
        seen.clear()
        sum_lattice(mk(M=M, array=array), "resonant")
        sum_lattice(mk(M=M, array=array), "resonant", threads=2)
        assert seen == [want, 2], (M, array)


def test_thread_counts_are_checked_and_capped(monkeypatch):
    # a count below 1 is rejected and one above usable_cpus() is cut to it
    # before any range is split: no worker starts, no array is sized by it
    seen = []
    for name in ("_resonant_octant", "_resonant_custom"):
        monkeypatch.setattr(lattice_sum, name,
                            lambda bundle, z, threads: seen.append(threads) or [0.0])
    monkeypatch.setattr(lattice_sum, "usable_cpus", lambda: 3)
    for array in ((0, 0, 1), (1, 0, 0), (0.6, 0, 0.8)):
        b = mk(M=4, array=array)
        seen.clear()
        for threads in (1, 2, 3, 4, 10 ** 9):
            sum_lattice(b, "resonant", threads=threads)
        assert seen == [1, 2, 3, 3, 3], array
        for kind in ("resonant", "off_resonant"):
            for threads in (0, -1):
                with pytest.raises(ValueError, match="threads must be at least 1"):
                    sum_lattice(b, kind, threads=threads)
        assert seen == [1, 2, 3, 3, 3]


def test_thread_counts_that_are_not_integers_are_rejected_before_any_work(monkeypatch):
    # NaN failed inside np.arange and 2.5 ran; neither reaches the bundle now
    b = mk(M=4)
    monkeypatch.setattr(lattice_sum, "validate", None)
    for threads in (float("nan"), 2.5, 2.0, "2"):
        for kind in ("resonant", "off_resonant"):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                sum_lattice(b, kind, threads=threads)


def test_thread_count_does_not_change_bits(backend, monkeypatch):
    # each worker takes one contiguous row range: 61 octant rows and 121
    # full-grid rows do not split evenly over 2, 3 or 4 workers
    monkeypatch.setattr(lattice_sum, "usable_cpus", lambda: 16)  # keep every split
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


@pytest.mark.parametrize("cap", [1, 50, 1 << 14])
def test_custom_row_ranges_equal_per_row_oracle_bitwise(backend, monkeypatch, cap):
    # the same bits on 1 and 3 threads, as sum_lattice splits the rows once
    # usable_cpus allows 3. The NumPy backend's site sets: a cap below a
    # row's 2M+1 sites gives one row per call; 50 sites split every worker's
    # range into blocks of 2 rows (M = 12) or 1 row (M = 40). The compiled
    # pass calls no NumPy kernel
    monkeypatch.setattr(_numpy_backend, "SITE_SET_BLOCK", cap)
    calls, kernel = [], _numpy_backend.resonant_sites
    monkeypatch.setattr(_numpy_backend, "resonant_sites",
                        lambda r, dot, pp: calls.append(r.shape) or kernel(r, dot, pp))
    for pair, (test, array) in _CUSTOM_PAIRS.items():
        for M, a, z in ((0, 0.5, 0.3), (12, 0.3, 0.7), (40, 0.05, 0.2)):
            b = mk(mu=0.6, a=a, M=M, z=z, test=test, array=array)
            want = per_row_custom(b)
            for threads in (1, 3):
                calls.clear()
                got, = lattice_sum._resonant_custom(b, np.array([b.z_tilde]), threads)
                assert got.hex() == want.hex(), (pair, M, threads)
                if backend is not _numpy_backend:
                    assert calls == []
                    continue
                step = max(1, cap // (2 * M + 1))
                assert all(rows <= step and sites == 2 * M + 1 for rows, sites in calls)
                assert sum(rows for rows, _ in calls) == 2 * M + 1


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


@pytest.mark.parametrize("backend", ["c", "numpy"], indirect=True)
@pytest.mark.parametrize("kind", ["resonant", "off_resonant"])
def test_heights_equal_one_call_per_height_bitwise(monkeypatch, backend, kind):
    # one call over an array of heights gives each height's one-height sum
    # bit for bit, in a ShiftResult whose field is the array and whose site
    # count covers every height
    monkeypatch.setattr(lattice_sum, "usable_cpus", lambda: 3)
    heights = np.geomspace(0.02, 30.0, 5)
    for pair, (test, array) in PAIRS.items():
        for M in (0, 1, 8, 200):
            b = mk(mu=0.6, a=0.05, M=M, z=0.3, test=test, array=array)
            for threads in (1, 3):
                got = sum_lattice(b, kind, heights=heights, threads=threads)
                values = getattr(got, kind)
                assert getattr(got, "off_resonant" if kind == "resonant" else "resonant") is None
                assert values.dtype == np.float64 and values.shape == heights.shape
                assert got.terms_summed == heights.size * (2 * M + 1) ** 2
                want = [getattr(sum_lattice(mk(mu=0.6, a=0.05, M=M, z=z, test=test,
                                               array=array), kind, threads=threads), kind)
                        for z in heights.tolist()]
                assert [v.hex() for v in values.tolist()] == [v.hex() for v in want], (
                    pair, M, threads)
                if kind == "off_resonant":
                    break  # threads do not reach the off-resonant sums


@pytest.mark.parametrize("threads", [1, 3])
def test_octant_heights_take_one_row_call_per_range(monkeypatch, threads):
    # the resonant octant of every height comes from one kernels.res_rows
    # call per worker's row range
    monkeypatch.setattr(lattice_sum, "usable_cpus", lambda: 3)
    calls, rows = [], kernels.res_rows
    monkeypatch.setattr(kernels, "res_rows", lambda zx, a2, z2, lo, hi: calls.append(
        (np.shape(z2), lo, hi)) or rows(zx, a2, z2, lo, hi))
    sum_lattice(mk(a=0.05, M=40), "resonant", heights=np.geomspace(0.1, 3.0, 7),
                threads=threads)
    ranges = _split_rows(np.arange(1, 42), threads)
    assert sorted(calls) == sorted(((7,), lo, hi) for lo, hi in ranges)


@pytest.mark.parametrize("values,error", [([1e308, 1e308], OverflowError),
                                          ([math.inf, -math.inf], ValueError)],
                         ids=["intermediate_overflow", "inf_minus_inf"])
def test_exact_sum_that_raises_is_a_sum_that_is_not_finite(backend, values, error):
    # where math.fsum raises, kernels.exact_sum is NaN, and finite() names
    # the stage, height and mu
    with pytest.raises(error):
        math.fsum(values)
    total = kernels.exact_sum((np.array(values),))
    assert math.isnan(total)
    with pytest.raises(QuadratureFailure,
                       match=r"^direct resonant at z=0\.3, mu=0\.5 \(zz\): value is not finite$"):
        lattice_sum.finite(np.array([0.1, total]), np.array([0.2, 0.3]), mk(), "direct resonant")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the failure alone, no NumPy warning
@pytest.mark.parametrize("kind", ["resonant", "off_resonant"])
def test_sums_that_are_not_finite_raise_naming_stage_and_height(backend, kind):
    # the origin site's r^6 underflows: zz at a 0.01, M 2 summed to inf at
    # z = 1e-60 and NaN at 1e-300, and a custom pair at M 2, a 0.5 to NaN at
    # 1e-200, as the vertex did
    zz = dict(mu=0.6, a=0.01, M=2)
    custom = dict(mu=0.6, a=0.5, M=2, test=PAIRS["custom_a"][0],
                  array=PAIRS["custom_a"][1])
    for where, label, z in ((zz, "zz", 1e-60), (zz, "zz", 1e-300), (custom, "custom", 1e-200)):
        for stage, call in ((f"direct {kind}", lambda b, **kw: sum_lattice(b, kind, **kw)),
                            (f"vertex {kind}", lambda b, **kw: vertex_term(b, kind, **kw))):
            want = rf"{stage} at z={z!r}, mu=0\.6 \({label}\): value is not finite"
            with pytest.raises(QuadratureFailure, match=want):
                call(mk(z=z, **where))
            # among other heights, which pass, the one that fails is named
            call(mk(z=0.5, **where), heights=[0.5, 0.3])
            with pytest.raises(QuadratureFailure, match=want):
                call(mk(z=0.5, **where), heights=[0.5, z, 0.3])
        # the worker threads of a split sum warn no more than the caller
        with pytest.raises(QuadratureFailure, match=f"direct {kind} at z={z!r}"):
            sum_lattice(mk(z=z, **where), kind, threads=2)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the failure alone, no NumPy warning
@pytest.mark.parametrize("kind", ["resonant", "off_resonant"])
def test_pair_terms_that_are_not_finite_raise_as_the_vertex(backend, kind):
    # the pair terms are the vertex's one-site path: at z = 1e-60 they
    # returned inf, where the vertex raised
    term = resonant_pair_term if kind == "resonant" else offresonant_pair_term
    for nx, ny in ((0, 0), (1, -2)):
        b = mk(mu=0.6, a=1e-62, z=1e-60)
        with pytest.raises(QuadratureFailure, match=rf"^site \({nx}, {ny}\) {kind} at "
                                                    rf"z=1e-60, mu=0\.6 \(zz\): value is not finite$"):
            term(nx, ny, b)
    b = mk(mu=0.6, z=0.4)
    assert term(0, 0, b) == vertex_term(b, kind)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the failure alone, no NumPy warning
@pytest.mark.parametrize("pair", ["zz", "zx", "zy", "custom_a"])
def test_every_public_function_is_finite_or_fails_cleanly_at_extreme_heights(backend, pair):
    # at tiny and huge heights, up to just below the 2**512 bound, each call
    # returns a finite value or raises QuadratureFailure or ValidationError:
    # never an OverflowError, ZeroDivisionError, a NumPy warning or a value
    # of inf or NaN
    test, array = ZY if pair == "zy" else PAIRS[pair]
    for z in EXTREME_HEIGHTS:
        b = mk(mu=0.6, a=0.05, M=2, z=z, test=test, array=array)
        for name, call in public_calls(b):
            try:
                value = call()
            except (QuadratureFailure, ValidationError):
                continue
            assert np.isfinite(value).all(), (name, z)  # every field of decompose


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("pair", ["zx", "zy"])
def test_a_coupling_that_vanishes_at_the_origin_adds_exactly_zero(backend, pair):
    # e0.en = 0 and e0_z en_z = 0, so the origin's term is identically 0,
    # though its kernel value is 0/0 once r^6 underflows (z = 1e-60) and its
    # projections NaN once z^2 does (1e-320): the vertex and the (0, 0) pair
    # terms are 0 at every height, and the z/y grid sums, which hold the
    # origin, equal the zx octant sums, which skip it: the same lattice
    # turned by 90 degrees
    test, array = ZY if pair == "zy" else PAIRS[pair]
    terms = {"resonant": resonant_pair_term, "off_resonant": offresonant_pair_term}
    for z in EXTREME_HEIGHTS:
        b = mk(mu=0.6, a=0.05, M=2, z=z, test=test, array=array)
        for kind, term in terms.items():
            assert vertex_term(b, kind) == 0.0 == term(0, 0, b), (kind, z)
            if pair == "zy" and z < 1.0:
                turned = mk(mu=0.6, a=0.05, M=2, z=z, test=test, array=PAIRS["zx"][1])
                assert getattr(sum_lattice(b, kind), kind) == pytest.approx(
                    getattr(sum_lattice(turned, kind), kind), rel=1e-13, abs=0.0), (kind, z)


_R2 = math.sqrt(0.5)
# zz, zx, xx, xy, ((x+y)/sqrt2, same) and ((x+z)/sqrt2, (x-z)/sqrt2)
_BASIS_PAIRS = [((0, 0, 1), (0, 0, 1)), ((0, 0, 1), (1, 0, 0)), ((1, 0, 0), (1, 0, 0)),
                ((1, 0, 0), (0, 1, 0)), ((_R2, _R2, 0), (_R2, _R2, 0)),
                ((_R2, 0, _R2), (_R2, 0, -_R2))]


def _invariants(e0, en):
    """The six quadratic D4 invariants of S = (e0 en^T + en e0^T)/2, T = S_xx + S_yy."""
    e0, en = np.asarray(e0, dtype=float), np.asarray(en, dtype=float)
    s = (np.outer(e0, en) + np.outer(en, e0)) / 2.0
    t = s[0, 0] + s[1, 1]
    return np.array([t * t, s[2, 2] ** 2, t * s[2, 2], (s[0, 0] - s[1, 1]) ** 2, s[0, 1] ** 2,
                     s[0, 2] ** 2 + s[1, 2] ** 2])


_ROUTES = {"sum_lattice": lambda b, kind: getattr(sum_lattice(b, kind, threads=1), kind),
           "bulk_term": bulk_term, "vertex_term": vertex_term, "edge_term": edge_term}


def _combination_misses(route, e0, en, a, M, z):
    """A route's value I of a unit dipole pair is linear in the six D4
    invariants v = (T^2, S_zz^2, T S_zz, (S_xx - S_yy)^2, S_xy^2,
    S_xz^2 + S_yz^2), so it is the combination sum_k c_k I_k of the six basis
    pairs' values I_k, with c solving V_basis^T c = v (V_basis has condition
    number 7.1), for both kinds, to

        |sum_k c_k I_k - I| <= 32 eps ||c||_1 max_k |I_k|.

    The scale is the largest basis value, not sum_k |c_k I_k|: near a zero of
    a resonant site term or sum, a value cancels inside its route, and its
    rounding, and its response to the rounding of e0.en and of c, are ulps
    of the terms that cancel. Drawn pairs reached 72 eps of sum_k |c_k I_k|
    (a resonant sum near z = pi) and at most 10 eps of this scale, over
    2,000 draws. Every pair's resonant bulk is one closed form, linear in
    the plane-wave coefficients, which are linear in the invariants.
    Within the bound each route is also invariant under the square's point
    group D4 (ROADMAP items 15 and 16a). Yields each kind outside the bound."""
    c = np.linalg.solve(np.array([_invariants(*p) for p in _BASIS_PAIRS]).T,
                        _invariants(e0, en))
    for kind in ("resonant", "off_resonant"):
        value = _ROUTES[route](mk(mu=0.6, a=a, M=M, z=z, test=e0, array=en), kind)
        basis = np.array([_ROUTES[route](mk(mu=0.6, a=a, M=M, z=z, test=p[0], array=p[1]), kind)
                          for p in _BASIS_PAIRS])
        bound = 32 * np.finfo(float).eps * np.abs(c).sum() * np.abs(basis).max()
        if not abs(math.fsum(c * basis) - value) <= bound:
            yield kind, value, basis.tolist(), bound


@pytest.mark.usefixtures("backend")
@pytest.mark.parametrize("route", ["sum_lattice", "bulk_term", "vertex_term"])
@settings(max_examples=8, deadline=None)
@given(e0=UNIT_VECTORS, en=UNIT_VECTORS, a=st.floats(0.2, 1.0), M=st.integers(0, 8),
       z=st.floats(0.1, 5.0))
def test_every_pair_is_the_combination_of_six_basis_pairs(route, e0, en, a, M, z):
    assert list(_combination_misses(route, e0, en, a, M, z)) == []


# ROADMAP item 2's pair and the two custom_orientation strata pairs, whose
# site terms are odd along an axis
_ODD_PAIRS = [ODD, *STRATA_PAIRS]


@pytest.mark.usefixtures("backend")
@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 2: the edge doubles "
                   "half-axes, wrong for a pair whose site term is odd along an axis")
def test_the_edge_of_fixed_pairs_is_the_combination_of_six_basis_pairs():
    # fixed pairs: a Hypothesis test failing every draw writes a patch each
    # run. Each pair and kind is evaluated, so the message lists every miss
    misses = [(e0, en, list(_combination_misses("edge_term", e0, en, a=0.6, M=8, z=0.5)))
              for e0, en in _ODD_PAIRS]
    assert all(m == [] for *_, m in misses), misses


# The square's point group D4 on the in-plane axes: the eight signed
# permutations (x, y) -> (sx v[p0], sy v[p1]), the identity first
_D4 = [(p, sx, sy) for p in ((0, 1), (1, 0)) for sx in (1.0, -1.0) for sy in (1.0, -1.0)]
_EVEN_PAIRS = list(EVEN_PAIRS.values())


def _turned(v, g):
    """The dipole v under the D4 element g."""
    p, sx, sy = g
    return (sx * v[p[0]], sy * v[p[1]], v[2])


def _d4_routes(e0, en, kind, edge, **inputs):
    """Each route of the D4 battery for the pair under every element of D4:
    {element: {route: value}}, with edge_term where ``edge``."""
    values = {}
    for g in _D4:
        b = mk(test=_turned(e0, g), array=_turned(en, g), **inputs)
        parts = decompose(b, kind)
        values[g] = {"sum_lattice": getattr(sum_lattice(b, kind), kind),
                     "bulk_term": bulk_term(b, kind), "vertex_term": vertex_term(b, kind),
                     "decompose bulk": parts.bulk, "decompose vertex": parts.vertex}
        if edge:
            values[g]["edge_term"] = edge_term(b, kind)
    return values


@pytest.mark.usefixtures("backend")
@settings(max_examples=12, deadline=None)
@given(pair=st.one_of(st.sampled_from(_EVEN_PAIRS), st.tuples(UNIT_VECTORS, UNIT_VECTORS)),
       mu=st.floats(0.1, 0.9), a=st.floats(0.2, 1.0), M=st.integers(0, 3),
       z=st.floats(0.05, 5.0))
def test_every_route_is_invariant_under_the_square_point_group(pair, mu, a, M, z):
    # the lattice is D4-invariant, so every route of a pair turned by an
    # element of D4, both dipoles alike, gives the same shift up to
    # rounding: over 2,500 scratch draws the worst was 1.4e-13 relative, a
    # resonant direct sum near a zero; the edge only for even site terms
    for kind in ("resonant", "off_resonant"):
        values = _d4_routes(*pair, kind, pair in _EVEN_PAIRS, mu=mu, a=a, M=M, z=z)
        for g, got in values.items():
            assert got == pytest.approx(values[_D4[0]], rel=1e-12, abs=0.0), (kind, g)


@pytest.mark.usefixtures("backend")
@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 2: the edge doubles "
                   "half-axes, wrong for a pair whose site term is odd along an axis")
def test_the_edge_of_fixed_pairs_is_invariant_under_the_square_point_group():
    # mirroring x changes the first pair's resonant edge about 6.1-fold; each
    # pair and kind is evaluated, so the message lists every miss
    misses = []
    for e0, en in _ODD_PAIRS:
        for kind in ("resonant", "off_resonant"):
            values = {g: edge_term(mk(mu=0.6, a=0.6, M=8, z=0.5, test=_turned(e0, g),
                                      array=_turned(en, g)), kind) for g in _D4}
            misses += [(e0, en, kind, g, v) for g, v in values.items()
                       if v != pytest.approx(values[_D4[0]], rel=1e-12, abs=0.0)]
    assert misses == []


def test_custom_offresonant_sum_memory_is_bounded(backend):
    # the grid is evaluated and summed a block of sites at a time: at
    # M = 300 (361,201 sites) the whole grid and its temporaries took a
    # tracemalloc peak of 17.3 MB, ~48 bytes a site
    b = mk(mu=0.6, a=0.05, M=300, z=0.5, test=PAIRS["custom_b"][0],
           array=PAIRS["custom_b"][1])
    sum_lattice(mk(mu=0.6, M=2, test=b.params.test_dipole, array=b.params.array_dipole),
                "off_resonant")  # first calls outside the measurement
    tracemalloc.start()
    try:
        value = sum_lattice(b, "off_resonant").off_resonant
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 4e6, f"peak {peak / 1e6:.2f} MB"


def test_custom_call_group_calls_no_numpy_site_kernel(monkeypatch):
    # on the compiled backend a custom pair's sums, terms and single-site
    # pair terms, both kinds, take their site terms in C: the NumPy site
    # kernels raise at every caller's name
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    for module in (greens, lattice_sum, euler_maclaurin, kernels._numpy_backend):
        for name in ("site_projections", "resonant_sites"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
    with contextlib.ExitStack() as stack:
        try:
            stack.enter_context(kernels.backend("c"))
        except RuntimeError as exc:
            pytest.skip(str(exc))
        for pair in _CUSTOM_PAIRS.values():
            b = mk(mu=0.6, a=0.6, M=8, z=1.3, test=pair[0], array=pair[1])
            for kind in ("resonant", "off_resonant"):
                for heights in (None, [0.3, 1.3, 4.0]):
                    sum_lattice(b, kind, heights=heights, threads=1)
                    bulk_term(b, kind, heights)
                    edge_term(b, kind, heights)
                    vertex_term(b, kind, heights)
                    decompose(b, kind, heights)
            for nx, ny in ((0, 0), (3, -2)):
                resonant_pair_term(nx, ny, b)
                offresonant_pair_term(nx, ny, b)


def test_custom_call_group_passes_the_bundle_pair(monkeypatch):
    # every site set and ray integral of a custom pair's call group takes
    # the bundle's one pair array, whichever sum, term or thread calls it
    monkeypatch.setattr(lattice_sum, "usable_cpus", lambda: 3)
    seen = []

    def spy(name, at):
        kernel = getattr(kernels, name)

        def call(*args, **kwargs):
            seen.append((name, args[at]))
            return kernel(*args, **kwargs)
        return call

    for name, at in (("res_points", 0), ("offres_points", 0), ("ray_rotated", 0)):
        monkeypatch.setattr(kernels, name, spy(name, at))
    for pair in _CUSTOM_PAIRS.values():
        b = mk(mu=0.6, a=0.6, M=8, z=1.3, test=pair[0], array=pair[1])
        seen.clear()
        for kind in ("resonant", "off_resonant"):
            for heights in (None, [0.3, 1.3, 4.0]):
                for threads in (1, 3):
                    sum_lattice(b, kind, heights=heights, threads=threads)
                bulk_term(b, kind, heights)
                edge_term(b, kind, heights)
                vertex_term(b, kind, heights)
                decompose(b, kind, heights)
        resonant_pair_term(3, -2, b)
        offresonant_pair_term(3, -2, b)
        assert {name for name, _ in seen} == {"res_points", "offres_points", "ray_rotated"}
        assert all(p is b.pair for _, p in seen)
