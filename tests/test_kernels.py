"""Backend contract: the compiled row library and the NumPy fallback are
interchangeable, the library's reduced sincos matches the C library, and
the loader falls back to NumPy whenever the library cannot be built."""
import ctypes
import hashlib
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss, legvander
from scipy.special import roots_laguerre, sici

from reference import (LAGUERRE, S3, bundle, former_offresonant_sites, phi_laguerre,
                       stream_rows)

from cplattice import greens, kernels, lattice_sum
from cplattice.greens import resonant_sites
from cplattice.kernels import _numpy_backend, backend_name
from cplattice.lattice_sum import octant_weights, radial_sites, sum_lattice
from cplattice.model import X_HAT, Z_HAT


@pytest.fixture(scope="module")
def lib():
    """The compiled row library; tests that need it skip only without ``cc``."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    lib = kernels.load_library()
    assert lib is not None, "cc is on PATH but the row library did not build"
    return lib


def _sincos(lib, x):
    s, c = np.empty(x.size), np.empty(x.size)
    lib.sincos_probe(x, x.size, s, c)
    return s.tolist(), c.tolist()


def test_backend_selected():
    assert backend_name() in ("c", "numpy")


def test_backend_is_compiled_when_cc_exists():
    if shutil.which("cc") is None or os.environ.get("CPLATTICE_FORCE_NUMPY_KERNELS"):
        pytest.skip("no cc on PATH, or the NumPy fallback is forced")
    assert backend_name() == "c"


def test_forced_numpy_backend_in_subprocess():
    env = dict(os.environ, CPLATTICE_FORCE_NUMPY_KERNELS="1")
    proc = subprocess.run(
        [sys.executable, "-c", "from cplattice import kernels; print(kernels.backend_name())"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "numpy"


def test_backend_switch_swaps_and_restores(lib, monkeypatch):
    # the backend and a fresh table cache swap together and return on exit,
    # also when the block raises; "c" loads the library where NumPy is in place
    before = kernels.backend_name(), kernels._tables
    with pytest.raises(KeyError), kernels.backend("numpy") as numpy_impl:
        assert numpy_impl is _numpy_backend and kernels.backend_name() == "numpy"
        assert kernels._tables == {} and kernels._tables is not before[1]
        with kernels.backend("c") as c_impl:
            row = 0, 1e-4, 0.04, 9, 10
            assert stream_rows(c_impl, *row) == stream_rows(lib, *row)
        assert kernels.backend_name() == "numpy"
        monkeypatch.setattr(kernels, "load_library", lambda: None)
        with pytest.raises(RuntimeError, match="cannot be built or loaded"), kernels.backend("c"):
            pass
        with pytest.raises(ValueError, match="'c' or 'numpy'"), kernels.backend("fortran"):
            pass
        raise KeyError
    assert (kernels.backend_name(), kernels._tables) == before


def test_failed_builds_fall_back_without_raising(tmp_path):
    # no such compiler, a compiler that fails, a directory that does not exist
    assert kernels.load_library(cc=str(tmp_path / "no-such-cc"), directory=tmp_path) is None
    if shutil.which("false"):
        assert kernels.load_library(cc="false", directory=tmp_path) is None
    assert kernels.load_library(directory=tmp_path / "missing") is None
    assert list(tmp_path.iterdir()) == []  # no temporary file is left behind


def test_build_removes_stale_libraries(lib, tmp_path):
    # a build removes the libraries of other keys, not a concurrent build's
    # temporary or other files; a cache hit removes nothing
    stale, other, partial = (tmp_path / name for name in (
        "_rows-0000000000000000.so", "other.so", "._rows-x1y2z3.so"))
    for path in (stale, other, partial):
        path.write_bytes(b"")
    assert kernels.load_library(directory=tmp_path) is not None
    built = [p.name for p in tmp_path.glob("_rows-*.so")]
    assert len(built) == 1 and built[0] != stale.name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*built, other.name,
                                                                 partial.name])
    stale.write_bytes(b"")
    assert kernels.load_library(directory=tmp_path) is not None
    assert stale.exists()


def test_library_key_is_hashlib_s_sha256(lib):
    # the key is CPython's own SHA-256, so the library built while the key
    # came from hashlib keeps its name and is not rebuilt
    key = hashlib.sha256(b"\0".join([
        kernels._SOURCE.read_bytes(), " ".join(("cc",) + kernels._CFLAGS).encode(),
        platform.machine().encode(), kernels._cpu_model().encode()])).hexdigest()[:16]
    assert Path(lib._name) == kernels._HERE / f"_rows-{key}.so"


def test_cached_library_loads_without_a_process(lib, tmp_path, monkeypatch):
    assert kernels.load_library(directory=tmp_path) is not None
    built = sorted(p.name for p in tmp_path.iterdir())
    assert len(built) == 1 and built[0].startswith("_rows-") and built[0].endswith(".so")

    def no_process(*args, **kwargs):
        raise AssertionError("a cache hit started a process")

    monkeypatch.setattr(subprocess, "run", no_process)
    cached = kernels.load_library(directory=tmp_path)
    row = 0, 1e-4, 0.04, 100, 101
    assert stream_rows(cached, *row) == stream_rows(lib, *row)
    assert sorted(p.name for p in tmp_path.iterdir()) == built


def test_fast_sincos_one_ulp(lib):
    x = np.random.default_rng(4).uniform(0.0, 5000.0, 20000)
    for x, s, c in zip(x.tolist(), *_sincos(lib, x)):
        assert abs(s - math.sin(x)) <= 2.3e-16
        assert abs(c - math.cos(x)) <= 2.3e-16


def _dot_row(zx, a2, z2, nx):
    """Octant row nx as the dot product of its orbit weights with its site
    terms from ``greens.resonant_sites``: an oracle of the rows independent of
    their site terms, sin/cos and compensated sum (it sums by BLAS)."""
    j = np.arange(nx + 1, dtype=np.float64)
    return float(octant_weights(nx, j, a2, zx) @ resonant_sites(
        *radial_sites(nx * nx + j * j, a2, z2, zx)))


# The constants of sin_branchless in _rows.c, which the NumPy port states again
_SINCOS_CONSTANTS = ("TWO_OVER_PI", "PHASE_LIMIT", "PIO2_1", "PIO2_1T", *(
    f"{k}{i}" for k in "SC" for i in range(1, 7)))


def test_numpy_sincos_literals_are_the_c_ones():
    source = kernels._SOURCE.read_text()
    for name in _SINCOS_CONSTANTS:
        literal, = re.findall(rf"\b{name} = ([-+0-9.e]+)[,;]", source)
        assert getattr(_numpy_backend, name).hex() == float(literal).hex(), name


def test_numpy_sincos_is_the_compiled_one_bitwise(lib):
    # random phases, and each side of every rounding boundary (k + 1/2) pi/2
    # of the truncating quadrant below PHASE_LIMIT
    limit = _numpy_backend.PHASE_LIMIT
    edges = (np.arange(int(limit / (math.pi / 2)) - 1) + 0.5) * (math.pi / 2)
    x = np.concatenate((np.random.default_rng(7).uniform(0.0, limit, 200_000), [0.0],
                        *(np.nextafter(edges, side) for side in (0.0, math.inf)), edges))
    assert x.max() < limit
    s, c = np.empty_like(x), np.empty_like(x)
    lib.sincos_probe(x, x.size, s, c)
    got = _numpy_backend.sin_cos(x)
    assert got[0].tobytes() == s.tobytes() and got[1].tobytes() == c.tobytes()


@pytest.mark.parametrize("nx", [0, 1, 2, 3, 17, 173, 2048, 20001])
@pytest.mark.parametrize("a2,z2", [(1e-4, 0.04), (0.25, 1.0), (4.0, 1e-4), (1e-2, 9.0)])
def test_rows_match_the_weighted_site_sum(lib, nx, a2, z2):
    for zx in (False, True):
        assert stream_rows(lib, zx, a2, z2, nx, nx + 1)[0] == pytest.approx(
            _dot_row(zx, a2, z2, nx), rel=5e-12, abs=1e-300)


def _weighted_magnitude(a2, z2, nx):
    """Sum of |weighted site term| over the zz and zx rows: the scale rows cancel from."""
    j = np.arange(nx + 1, dtype=np.float64)
    s = nx * nx + j * j
    r2 = s * a2 + z2
    tzz = np.abs(resonant_sites(np.sqrt(r2), 1.0, z2 / r2))
    tzx = np.abs(resonant_sites(np.sqrt(r2), 0.0, math.sqrt(z2) / r2)) * (4.0 * a2) * s
    return 8.0 * float(np.sum(tzz)), float(np.sum(tzx))


@settings(max_examples=200, deadline=None)
@given(log_a2=st.floats(math.log(1e-6), math.log(10.0)),
       log_z2=st.floats(math.log(1e-4), math.log(100.0)),
       nx=st.integers(0, 5000))
def test_compiled_rows_match_the_weighted_site_sums(lib, log_a2, log_z2, nx):
    # rows of oscillating terms cancel: a floor of 1e-13 of the magnitude sum
    a2, z2 = math.exp(log_a2), math.exp(log_z2)
    mzz, mzx = _weighted_magnitude(a2, z2, nx)
    for zx, magnitude in ((False, mzz), (True, mzx)):
        assert stream_rows(lib, zx, a2, z2, nx, nx + 1)[0] == pytest.approx(
            _dot_row(zx, a2, z2, nx), rel=5e-12, abs=1e-13 * magnitude)


def _row_paths():
    """Yields the single streamed row of the backend in place, row(zx, a2,
    z2, nx), once for each of its row paths: the backend reads its distance
    tables, then streams every range (a table cap of 0)."""
    impl = kernels._impl

    def row(zx, a2, z2, nx):
        return stream_rows(impl, zx, a2, z2, nx, nx + 1)[0]

    yield row
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernels, "TABLE_SITE_CAP", 0)
        yield row


@pytest.mark.usefixtures("backend")
@settings(max_examples=60, deadline=None)
@given(log_a2=st.floats(math.log(1e-6), math.log(1e7)),
       log_z2=st.floats(math.log(1e-4), math.log(100.0)),
       lo=st.integers(0, 300), length=st.integers(0, 40))
@example(log_a2=0.0, log_z2=0.0, lo=7, length=0)
def test_row_ranges_equal_single_rows_bitwise(log_a2, log_z2, lo, length):
    a2, z2, hi = math.exp(log_a2), math.exp(log_z2), lo + length
    for row in _row_paths():
        for zx in (False, True):
            out = kernels.res_rows(zx, a2, z2, lo, hi)
            assert out.dtype == np.float64 and out.shape == (length,)
            assert [v.hex() for v in out.tolist()] == [row(zx, a2, z2, nx).hex()
                                                       for nx in range(lo, hi)]


@settings(max_examples=60, deadline=None)
@given(zx=st.booleans(), log_a=st.floats(math.log(1e-3), math.log(2e3)),
       heights=st.lists(st.floats(math.log(1e-3), math.log(30.0)), min_size=1, max_size=4),
       lo=st.integers(0, 400), length=st.integers(0, 60), cap=st.sampled_from([None, 0, 500]))
@example(zx=False, log_a=math.log(1e3), heights=[0.0], lo=340, length=30, cap=None)
@example(zx=True, log_a=math.log(0.05), heights=[math.log(0.3)], lo=0, length=501, cap=None)
@example(zx=True, log_a=0.0, heights=[math.log(0.02), 0.0], lo=300, length=10, cap=500)
def test_rows_are_the_same_bits_on_both_backends(lib, zx, log_a, heights, lo, length, cap):
    # the NumPy rows port the compiled ones: the table or the stream, as
    # TABLE_SITE_CAP chooses (a cap of 0 or 500 sites streams larger ranges),
    # and rows past PHASE_LIMIT (large a) in either
    a2, z2, hi = math.exp(2.0 * log_a), np.exp(2.0 * np.array(heights)), lo + length
    with pytest.MonkeyPatch.context() as m:
        if cap is not None:
            m.setattr(kernels, "TABLE_SITE_CAP", cap)
        rows = []
        for name in ("c", "numpy"):
            with kernels.backend(name):
                rows.append(kernels.res_rows(zx, a2, z2, lo, hi))
    assert rows[0].tobytes() == rows[1].tobytes()


def test_row_range_across_the_libm_switch(backend):
    # the fast sin/cos serves rows whose largest phase 2 r is below 1e6: at
    # a2 = 1e7, z2 = 1 that is rows up to 111, and libm serves the rest
    a2, z2, lo, hi = 1e7, 1.0, 100, 130
    fast = [2.0 * math.sqrt(2.0 * nx * nx * a2 + z2) < 1e6 for nx in range(lo, hi)]
    assert any(fast) and not all(fast)
    for row in _row_paths():
        for zx in (False, True):
            assert [v.hex() for v in kernels.res_rows(zx, a2, z2, lo, hi).tolist()] == [
                row(zx, a2, z2, nx).hex() for nx in range(lo, hi)]


@pytest.mark.parametrize("a2, lo, hi", [(2.5e-3, 0, 41), (2.5e-3, 17, 30), (1e-4, 5, 5),
                                         (1e10, 0, 4), (1e10, 3, 6)])
def test_row_ranges_at_many_heights_equal_single_rows(backend, a2, lo, hi):
    # one call over an array of heights: row [h, nx - lo] is the single row
    # at height h. At a = 1e5 the rows 0..3 take the table at the small
    # heights and stream at z2 = 1e11, where their largest phase reaches the
    # fast sin/cos bound, so one call mixes both
    z2 = np.array([1e-6, 0.09, 2.0, 1e3, 1e11, 0.09])
    for row in _row_paths():
        for zx in (False, True):
            out = kernels.res_rows(zx, a2, z2, lo, hi)
            assert out.dtype == np.float64 and out.shape == (z2.size, hi - lo)
            for h, z2h in enumerate(z2.tolist()):
                assert [v.hex() for v in out[h].tolist()] == [
                    row(zx, a2, z2h, nx).hex() for nx in range(lo, hi)], (
                        kernels.TABLE_SITE_CAP, zx, z2h)


def test_row_ranges_reject_bad_bounds(backend):
    for _ in _row_paths():
        for zx in (False, True):
            for lo, hi in ((-1, 3), (5, 4)):
                with pytest.raises(ValueError, match="0 <= lo <= hi"):
                    kernels.res_rows(zx, 1e-4, 0.04, lo, hi)


def test_loader_declares_every_exported_symbol(lib, tmp_path):
    # an undeclared ctypes function takes ints and returns an int: doubles
    # would pass wrongly without an error. Each parameter and the return
    # take the ctypes type of their C type in the prototype, in place
    loaded = kernels.load_library(directory=tmp_path)
    c_type = {"double": ctypes.c_double, "int": ctypes.c_int, "long": ctypes.c_long, "void": None,
              "double *": kernels.F64, "int32_t *": kernels.I32, "long *": kernels.I64,
              "uint16_t *": kernels.U16}
    exported = re.findall(r"^(\w+) (\w+)\(([^)]*)\)$", kernels._SOURCE.read_text(), re.M)
    assert {name for _, name, _ in exported} == {
        "res_rows", "distance_table", "phi_laguerre", "offres_sites", "sincos_probe",
        "ray_rotated", "panel_sums", "res_points", "offres_points", "libm_sincos", "sici"}
    for ret, name, params in exported:
        fn = getattr(loaded, name)
        want = [c_type[re.fullmatch(r"(?:const )?(\w+(?: \*)?) ?\w+", p.strip()).group(1)]
                for p in params.split(",")]
        assert fn.argtypes is not None and list(fn.argtypes) == want, name
        assert fn.restype is c_type[ret], name


def test_loader_rejects_a_c_type_without_a_ctypes_type(lib, tmp_path, monkeypatch):
    # an export the loader cannot declare stops the load, naming it
    source = tmp_path / "_rows.c"
    source.write_text(kernels._SOURCE.read_text() + (
        "\nvoid halves(const float *x, long n, float *out)\n"
        "{\n    for (long i = 0; i < n; i++)\n        out[i] = 0.5f * x[i];\n}\n"))
    monkeypatch.setattr(kernels, "_SOURCE", source)
    with pytest.raises(TypeError, match="^halves in _rows.c takes or returns 'float \\*'"):
        kernels.load_library(directory=tmp_path)


def test_array_parameters_take_only_contiguous_arrays_of_their_dtype(lib):
    # one export of each array type: sincos_probe's phases (float64),
    # distance_table's distances (int32) and rank steps (uint16) and
    # ray_rotated's counts (int64). Each wrong argument raises before the C
    # code runs, so the outputs keep their fill
    pair, rule = np.array([*Z_HAT, *Z_HAT, 1.0]), kernels.ROTATED_RULE
    powers = rule.size - kernels.RULE_HEAD

    def rays(z, counts, out):
        return lib.ray_rotated(pair, 1, z, z.size, rule, powers, counts, out)

    sc, sums = np.full(2, -1.0), np.full(3, -1.0)
    d2, step = np.full(3, -1, dtype=np.int32), np.full(3, 7, dtype=np.uint16)
    for dtype, call in ((np.float64, lambda a: lib.sincos_probe(a, 2, sc, sc)),
                        (np.int32, lambda a: lib.distance_table(1, 2, a, step)),
                        (np.uint16, lambda a: lib.distance_table(1, 2, d2, a)),
                        (np.int64, lambda a: rays(np.array([0.5]), a, sums))):
        for bad in (np.zeros(4, dtype=np.float32 if dtype is np.float64 else np.float64),
                    np.zeros(8, dtype=dtype)[::2], [0, 0], 12345):
            with pytest.raises(ctypes.ArgumentError, match=f"C-contiguous {np.dtype(dtype)}"):
                call(bad)
    assert (sc == -1.0).all() and (sums == -1.0).all() and (d2 == -1).all() and (step == 7).all()
    # empty arrays and read-only ones (a rule, a cached distance table) pass
    assert lib.sincos_probe(np.empty(0), 0, np.empty(0), np.empty(0)) is None
    assert lib.distance_table(0, 0, np.empty(0, dtype=np.int32), np.empty(0, dtype=np.uint16)) == 0
    assert rays(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)) == 0
    t = kernels.LEGENDRE[1]  # the weights: phases in [0, 1)
    assert not t.flags.writeable
    assert _sincos(lib, t) == _sincos(lib, t.copy())
    d2, step = kernels.distance_table(0, 3)
    assert not (d2.flags.writeable or step.flags.writeable)
    rows = np.empty(3)
    lib.res_rows(0, 1e-4, np.array([0.04]), 1, d2, d2.size, step, 0, 3, np.empty(d2.size), rows)
    assert rows.tolist() == stream_rows(lib, 0, 1e-4, 0.04, 0, 3).tolist()


def _unique_table(lo, hi):
    """The distance table of rows lo..hi-1 by np.unique and np.searchsorted,
    the reference: the distances, each site's rank among them and its rank
    step, from the site before it in its row, or at j = 0 from the row
    before's first site, nx sites back (none for row lo: its rank, 0)."""
    nx, j = np.tril_indices(hi)
    start = lo * (lo + 1) // 2
    nx, j = nx[start:], j[start:]
    d2 = np.unique(nx ** 2 + j ** 2)
    ranks = np.searchsorted(d2, nx ** 2 + j ** 2)
    before = np.where(j > 0, -1, -nx) + np.arange(ranks.size)
    return d2, ranks, ranks - np.where(before >= 0, ranks[np.maximum(before, 0)], 0)


def _decoded(table, lo, hi, rows=7):
    """The distances and each site's rank of a distance table (d2, step),
    the ranks through kernels.table_ranks in blocks of ``rows`` rows."""
    d2, step = table
    blocks = list(kernels.table_ranks(step, lo, hi, rows))
    assert [b for b, _, _ in blocks] == list(range(lo, hi, rows))
    assert all(ranks.size == kernels.range_sites(b, e) for b, e, ranks in blocks)
    return d2, np.concatenate([np.empty(0, dtype=np.int64)] + [r for _, _, r in blocks])


@pytest.mark.parametrize("builder", ["c", "numpy"])
def test_distance_table_equals_np_unique(lib, builder):
    # the distances as int32 and each site's rank step as uint16, whose
    # ranks kernels.table_ranks decodes in blocks of any number of rows:
    # ranges from 0, from lo > 0, and the far single row 64, the thinnest
    # that res_rows still tables (row 65 has fewer sites than bitmap words)
    fill = lib.distance_table if builder == "c" else _numpy_backend.distance_table
    ranges = [(0, M + 1) for M in [*range(41), 500]] + [(3, 4), (7, 7), (17, 40), (250, 501),
                                                        (64, 65)]
    for lo, hi in ranges:
        table = kernels.build_table(fill, lo, hi)
        want_d2, want_ranks, want_steps = _unique_table(lo, hi)
        assert table[0].dtype == np.int32 and table[1].dtype == np.uint16
        assert np.array_equal(table[0], want_d2) and np.array_equal(table[1], want_steps)
        for rows in (1, 7, max(hi, 1)):
            _, ranks = _decoded(table, lo, hi, rows)
            assert np.array_equal(ranks, want_ranks), (lo, hi, rows)
    d2, step = kernels.build_table(fill, 0, 501)
    assert (d2.size, step.size) == (79134, 125751)
    assert d2.nbytes + step.nbytes == 4 * 79134 + 2 * 125751


def test_distance_table_rejects_bad_ranges(lib):
    for fill in (lib.distance_table, _numpy_backend.distance_table):
        for lo, hi in ((-1, 3), (5, 4)):
            with pytest.raises(ValueError, match="0 <= lo <= hi"):
                kernels.build_table(fill, lo, hi)


def test_distance_table_rows_stop_below_the_int32_and_uint16_bounds():
    # from row 2^15 on a distance 2 nx^2 would pass int32 and a rank step
    # 2 nx - 1 uint16: such a range is rejected before the builder runs or
    # anything is allocated (rows 0..32768 would take 3.2 GB)
    def fill(lo, hi, d2, step):
        called.append((lo, hi, d2.dtype, step.dtype, d2.size))
        return 0

    called = []
    tracemalloc.start()
    try:
        for lo in (0, 32768):
            with pytest.raises(ValueError, match="^a distance table holds rows nx < 32768, "
                                                 "got hi=32769$"):
                kernels.build_table(fill, lo, 32769)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert called == [] and peak < 1 << 20
    kernels.build_table(fill, 32767, 32768)
    assert called == [(32767, 32768, np.int32, np.uint16, 32768)]


def test_allocation_failures_raise_memory_error(backend, monkeypatch):
    # a builder or export that cannot allocate returns -1; stand-ins that do
    # so reach each wrapper's MemoryError
    with pytest.raises(MemoryError, match=r"^no memory for the distance table of rows 2\.\.4$"):
        kernels.build_table(lambda lo, hi, d2, step: -1, 2, 5)
    pair = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    monkeypatch.setattr(backend, "res_points", lambda *args: -1)
    for sums in (True, False):
        with pytest.raises(MemoryError, match="^no memory for a resonant row of the site set$"):
            kernels.res_points(pair, [0.1, 0.2], [0.3], [0.5], sums=sums)
    monkeypatch.setattr(backend, "ray_rotated", lambda *args: -1)
    for axes in (2, 1):
        with pytest.raises(MemoryError, match="^no memory for the ray integrals' panel sums$"):
            kernels.ray_rotated(pair, axes, np.array([0.3, 0.5]))


def _table_rows(impl, zx, a2, z2, lo, hi):
    """A backend's rows lo <= nx < hi at the height z2 from their table: its
    one row export with the table, without the entry point's cap."""
    d2, step = kernels.build_table(impl.distance_table, lo, hi)
    out = np.empty(hi - lo)
    impl.res_rows(zx, a2, np.array([z2]), 1, d2, d2.size, step, lo, hi, np.empty(d2.size), out)
    return out


@pytest.mark.parametrize("M", [0, 1, 2, 7, 8, 9, 63, 64, 65, 500])
def test_table_rows_equal_streaming_rows_bitwise(backend, M):
    # every row from the table equals the row that the empty table streams:
    # the same site terms, summed in the same order with the same
    # compensation and endpoints
    ranges = {(0, M + 1), (M // 3, M + 1), (0, (M + 1) // 2), (M // 4, 3 * M // 4 + 1),
              (M, M + 1), (M // 2, M // 2)}
    for a in (0.01, 0.05, 0.5, 3.0):
        for z in np.geomspace(1e-3, 1e3, 7):
            a2, z2 = a * a, float(z) ** 2
            for lo, hi in sorted(ranges):
                for zx in (False, True):
                    want = stream_rows(backend, zx, a2, z2, lo, hi)
                    got = _table_rows(backend, zx, a2, z2, lo, hi)
                    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()], (
                        M, a, float(z), lo, hi, zx)


def test_an_empty_row_range_writes_nothing(backend):
    # hi == lo, with the empty table or the range's own (also empty), at
    # three heights: out and values are empty views of sentinel buffers,
    # which the compiled call would reach through their first address
    for lo in (0, 7):
        d2, step = kernels.build_table(backend.distance_table, lo, lo)
        assert d2.size == step.size == 0
        for zx in (False, True):
            out, values = np.full(4, -1.0), np.full(4, -2.0)
            backend.res_rows(zx, 1e-4, np.array([0.04, 1.0, 1e11]), 3, d2, 0, step, lo, lo,
                             values[:0], out[:0])
            assert (out == -1.0).all() and (values == -2.0).all()


@pytest.mark.parametrize("array_dipole", [Z_HAT, X_HAT], ids=["zz", "zx"])
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_sums_from_tables_equal_streaming_sums(backend, monkeypatch, array_dipole, threads):
    # each worker's row range takes its own table; capping the tables at
    # zero sites streams every range instead
    monkeypatch.setattr(lattice_sum, "usable_cpus", lambda: 4)  # keep every split
    for M, a, z in ((9, 0.5, 0.3), (65, 0.05, 2.0), (500, 0.01, 0.3)):
        b = bundle(a=a, M=M, z=z, array=array_dipole)
        table = sum_lattice(b, "resonant", threads=threads).resonant
        ranges = lattice_sum._split_rows(np.arange(1, M + 2), threads)
        assert set(ranges) <= set(kernels._tables)  # the tables served the sum
        with monkeypatch.context() as m:
            m.setattr(kernels, "TABLE_SITE_CAP", 0)
            stream = sum_lattice(b, "resonant", threads=threads).resonant
        assert table.hex() == stream.hex()


def test_table_rows_past_the_phase_limit_stream(backend):
    # a = 1e5, M = 5: rows 0..3 have their largest phase below 1e6 and rows
    # 4 and 5 reach it, so those take libm, where one distance can carry a
    # different value than the table's fast one
    a2, z2, M = 1e10, 0.09, 5
    fast = [2.0 * math.sqrt(2.0 * nx * nx * a2 + z2) < 1e6 for nx in range(M + 1)]
    assert fast == [True] * 4 + [False] * 2
    for zx in (False, True):
        for lo, hi in ((0, M + 1), (3, M + 1), (0, 4), (5, 6)):
            want = stream_rows(backend, zx, a2, z2, lo, hi)
            got = _table_rows(backend, zx, a2, z2, lo, hi)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    assert re.search(r"PHASE_LIMIT = 1\.0e6;", kernels._SOURCE.read_text())


def test_a_height_past_the_phase_limit_streams_inside_a_tabled_call(backend):
    # rows 0..40 at a = 100 from their table at three heights: at z2 = 1e14
    # every phase passes 1e6 and the rows stream with libm, between two
    # heights that read the table. The reduced sin/cos is off there, so a
    # table read at that height would change the bits
    a2, z2 = 1e4, np.array([0.09, 1e14, 0.09])
    assert [2.0 * math.sqrt(3200.0 * a2 + h) < 1e6 for h in z2.tolist()] == [True, False, True]
    assert 2.0 * math.sqrt(z2[1]) > 1e6
    d2, step = kernels.build_table(backend.distance_table, 0, 41)
    for zx in (False, True):
        out = np.empty((3, 41))
        backend.res_rows(zx, a2, z2, 3, d2, d2.size, step, 0, 41, np.empty(d2.size), out)
        for h, z2h in enumerate(z2.tolist()):
            assert out[h].tobytes() == stream_rows(backend, zx, a2, z2h, 0, 41).tobytes()


def test_rows_above_the_table_cap_stream(lib, monkeypatch):
    # a range of more sites than TABLE_SITE_CAP builds no table and streams;
    # a smaller one is kept, and the kept tables never exceed the cap together
    monkeypatch.setattr(kernels, "TABLE_SITE_CAP", 100)
    a2, z2 = 2.5e-3, 0.09
    with kernels.backend("c"):
        for lo, hi in ((0, 501), (0, 14), (0, 13), (10, 14), (5, 13)):
            for zx in (False, True):
                want = stream_rows(lib, zx, a2, z2, lo, hi)
                assert kernels.res_rows(zx, a2, z2, lo, hi).tobytes() == want.tobytes()
            kept = {key: step.size for key, (_, step) in kernels._tables.items()}
            assert ((lo, hi) in kept) == (kernels.range_sites(lo, hi) <= 100)
            assert sum(kept.values()) <= 100
        assert list(kernels._tables) == [(5, 13)]  # the older tables made room for it


def test_a_far_row_streams_without_a_table(backend):
    # the compiled table builder's bitmap spans lo^2..2(hi-1)^2: row 20001
    # alone would take 6.25 M words (~94 MB) for its 20,002 sites, so it
    # streams, while a range with more sites than words takes its table
    for zx in (False, True):
        row = kernels.res_rows(zx, 1e-4, [0.09], 20001, 20002)
        assert row.shape == (1, 1)
        assert row.tobytes() == stream_rows(backend, zx, 1e-4, 0.09, 20001, 20002).tobytes()
    assert kernels._tables == {}
    # the far single rows: 64 has as many sites as words and takes its
    # table, 65 has fewer and streams
    for lo in (65, 64):
        kernels.res_rows(False, 1e-4, 0.09, lo, lo + 1)
    kernels.res_rows(False, 1e-4, 0.09, 0, 501)
    assert list(kernels._tables) == [(64, 65), (0, 501)]


def test_a_far_row_pages_in_no_table():
    script = ("import resource\n"
              "from cplattice import kernels\n"
              "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "kernels.res_rows(False, 1e-4, [0.09], 20001, 20002)\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5 * 1024  # kB: the table took ~94 MB


def test_table_cache_under_concurrent_callers(backend, monkeypatch):
    # more threads than CPUs and a short switch interval: every caller gets
    # its range's table from the backend's builder, and the kept tables stay
    # within the cap together
    monkeypatch.setattr(kernels, "TABLE_SITE_CAP", 400)
    ranges = [(lo, lo + width) for lo in range(0, 40, 3) for width in (1, 5, 9)] * 20
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            futures = [ex.submit(kernels.distance_table, lo, hi) for lo, hi in ranges]
            tables = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (lo, hi), table in zip(ranges, tables):
        want_d2, want_ranks, _ = _unique_table(lo, hi)
        d2, ranks = _decoded(table, lo, hi)
        assert np.array_equal(d2, want_d2) and np.array_equal(ranks, want_ranks)
        assert not (table[0].flags.writeable or table[1].flags.writeable)
    assert sum(step.size for _, step in kernels._tables.values()) <= 400


def test_distance_table_above_the_cap_is_the_empty_table(backend, monkeypatch):
    # a range of more sites than the cap has the empty table, with which its
    # caller streams: none is built, and the kept tables stay
    def forbidden(*args):
        raise AssertionError("a table was built")

    small = kernels.distance_table(0, 2)
    monkeypatch.setattr(kernels, "TABLE_SITE_CAP", 54)
    with monkeypatch.context() as m:
        m.setattr(kernels, "build_table", forbidden)
        d2, step = kernels.distance_table(0, 10)  # 55 sites
    assert (d2.dtype, step.dtype, d2.size, step.size) == (np.int32, np.uint16, 0, 0)
    assert not (d2.flags.writeable or step.flags.writeable)
    assert list(kernels._tables) == [(0, 2)] and kernels._tables[(0, 2)] is small
    # a range at the cap has its table, for which the older ones make room
    assert kernels.distance_table(1, 10)[1].size == 54
    assert list(kernels._tables) == [(1, 10)]


def test_site_sets_reject_a_pair_that_is_not_float64_7(backend):
    for pair in (np.zeros(6), np.zeros(8), np.zeros(7, dtype=np.float32), np.zeros((7, 1))):
        for call in (lambda: kernels.res_points(pair, [0.0], [0.0], [0.3], sums=False),
                     lambda: kernels.offres_points(pair, [0.0], [0.0], [0.3], 0.6)):
            with pytest.raises(ValueError, match="need the dipole pair as float64 \\(7,\\)"):
                call()


def test_offres_octant_equals_np_unique_reference(backend):
    # the direct off-resonant octant sum takes its distinct distances from
    # the shared table; the reference finds them with np.unique, as before
    for array_dipole in (Z_HAT, X_HAT):
        for M, a, z, mu in ((0, 0.5, 0.3, 0.6), (9, 0.5, 0.3, 0.6), (64, 0.05, 2.0, 1.7),
                            (200, 0.01, 0.05, 0.6)):
            b = bundle(mu=mu, a=a, M=M, z=z, array=array_dipole)
            nx, j = np.tril_indices(M + 1)
            zx = array_dipole == X_HAT
            r, dot, pp = radial_sites(nx * nx + j * j, a * a, z * z, zx)
            w = octant_weights(nx, j, a * a, zx)
            _, first, site = np.unique(nx * nx + j * j, return_index=True,
                                       return_inverse=True)
            radial = kernels.offres_sites(r[first], dot, pp[first], mu)
            want = math.fsum(w * radial[site])
            assert lattice_sum._offres_octant(b, np.array([z]))[0].hex() == want.hex()


@pytest.mark.usefixtures("backend")
@settings(max_examples=80, deadline=None)
@given(size=st.integers(0, 3000), seed=st.integers(0, 2 ** 32 - 1))
@example(size=0, seed=0)
@example(size=1, seed=1)
def test_phi_laguerre_backends_equal_numpy_branch_bitwise(size, seed):
    # y log-uniform on [2, 1e12], the branch's range, with both ends included
    rng = np.random.default_rng(seed)
    y = np.exp(rng.uniform(math.log(2.0), math.log(1e12), size))
    y[:2] = [2.0, 1e12][:size]
    want = phi_laguerre(y)
    assert want.shape == (size, 5)
    got = phi_laguerre(y, kernels._impl)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# the compiled branch fills 8 radii side by side: every tail length, twice
for _size in range(1, 18):
    test_phi_laguerre_backends_equal_numpy_branch_bitwise = example(size=_size, seed=_size)(
        test_phi_laguerre_backends_equal_numpy_branch_bitwise)


def test_laguerre_table_is_one_read_only_table():
    # the compiled offres_sites takes t, w and pw from one address: nodes,
    # weights and powers (t/2)^k, one after the other, with their own bits
    nodes, weights = roots_laguerre(56)
    powers = (0.5 * nodes)[:, None] ** np.arange(5)
    table = kernels._LAGUERRE_TABLE
    assert table.tobytes() == np.concatenate((nodes, weights, powers.ravel())).tobytes()
    assert table.flags.c_contiguous and not table.flags.writeable


def test_legendre_rule_is_numpy_s_bits():
    # the literals are leggauss(25)'s nodes and weights and the nested
    # weights that the Vandermonde solve on every other node gives
    x, w = leggauss(25)
    w_low = np.zeros(x.size)
    w_low[::2] = np.linalg.solve(legvander(x[::2], 12).T, np.eye(13)[0] * 2.0)
    for got, want in zip(kernels.LEGENDRE, (x, w, w_low)):
        assert got.tobytes() == want.tobytes()


def test_laguerre_rule_integrates_t_k_exactly():
    # the frozen rule without SciPy: the 56-node Gauss-Laguerre rule is exact
    # for polynomials of degree up to 111, so sum(w t^k) = int t^k e^-t dt = k!
    t, w, _ = LAGUERRE
    assert t.size == 56 and np.all(np.diff(t) > 0) and t[0] > 0 and np.all(w > 0)
    for k in range(33):
        got = math.fsum(wi * ti ** k for ti, wi in zip(t.tolist(), w.tolist()))
        assert abs(got - math.factorial(k)) <= 1e-14 * math.factorial(k), k


def _offres_radii(rng, size, where, mu):
    """size radii whose y = r mu and y = r lie all below PHI_SWITCH, all at or
    above it, or on both sides; on both sides with y = r at the switch and at
    its 1e-12 neighbours, and y = r mu next to them."""
    sw = kernels.PHI_SWITCH
    lo, hi = {"below": (1e-3, sw / max(mu, 1.0)), "above": (sw / min(mu, 1.0), 1e3),
              "straddle": (1e-3, 1e3)}[where]
    r = np.exp(rng.uniform(math.log(lo), math.log(hi), size))
    if where == "straddle":
        edge = sw * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12])
        special = np.concatenate((edge, edge / mu))  # y = r and y = r mu at the switch
        r[:min(size, 6)] = special[:size]
        rng.shuffle(r)
    return r


_OFFRES_MUS = st.one_of(st.sampled_from([0.05, 0.6, 1.0 - 1e-3, 1.0 + 1e-3, 1.7, 5.0]),
                        st.floats(0.05, 5.0).filter(lambda m: abs(1.0 - m) >= 1e-3))


@pytest.mark.usefixtures("backend")
@settings(max_examples=120, deadline=None)
@given(size=st.integers(0, 3000), seed=st.integers(0, 2 ** 32 - 1),
       where=st.sampled_from(["below", "above", "straddle"]), mu=_OFFRES_MUS,
       scalar_pp=st.booleans())
@example(size=0, seed=0, where="straddle", mu=0.6, scalar_pp=False)
@example(size=kernels.SITE_CHUNK + 1, seed=3, where="straddle", mu=1.7, scalar_pp=False)
@example(size=2 * kernels.SITE_CHUNK, seed=4, where="above", mu=0.05, scalar_pp=True)
def test_offres_sites_backends_equal_numpy_bitwise(size, seed, where, mu, scalar_pp):
    rng = np.random.default_rng(seed)
    r = _offres_radii(rng, size, where, mu)
    dot = float(rng.uniform(-1.0, 1.0))
    pp = float(rng.uniform(-1.0, 1.0)) if scalar_pp else rng.uniform(-1.0, 1.0, size)
    want = former_offresonant_sites(r, dot, pp, mu)
    got = kernels.offres_sites(r, dot, pp, mu)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# the compiled call takes SITE_BLOCK (64) sites and phi_laguerre 8 radii at a
# time: sizes about both, on both sides of the switch
for _size in (1, 7, 8, 9, 17, 63, 64, 65):
    for _where in ("below", "above", "straddle"):
        test_offres_sites_backends_equal_numpy_bitwise = example(
            size=_size, seed=_size, where=_where, mu=0.6, scalar_pp=_size % 2 == 0)(
            test_offres_sites_backends_equal_numpy_bitwise)


@pytest.mark.parametrize("shape,pp_shape", [((3, 17, 5), (3, 17, 5)), ((4, 9, 1), (4, 9, 1)),
                                            ((2, 33, 2), (1, 33, 2)), ((1,), (7,)), ((), ())])
def test_offres_sites_on_ray_shapes_bitwise(backend, shape, pp_shape):
    # the (heights, nodes, directions) arrays of euler_maclaurin._ray_integral,
    # a projection broadcast against r, r broadcast against a projection, and
    # a single site
    rng = np.random.default_rng(len(shape))
    r = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), shape))
    pp = rng.uniform(-1.0, 1.0, pp_shape)
    for mu in (0.05, 0.6, 1.7, 5.0):
        want = former_offresonant_sites(r, 0.3, pp, mu)
        assert kernels.offres_sites(r, 0.3, pp, mu).tobytes() == want.tobytes()


@pytest.mark.parametrize("where", ["closed", "laguerre", "recast", "mixed"])
@pytest.mark.parametrize("n", [1, 7, 64, 65, 1024])
def test_offres_sites_backends_write_the_same_buffer(lib, n, where):
    # both backends' offres_sites take one (3, 2n) buffer: each writes the
    # same site values into the second half of row 2 and nothing else. The
    # radii put every y in the closed form (outside the recast region), every
    # y in the Gauss-Laguerre branch, every site in the recast region
    # (r^2 (1 + mu) < RECAST), or sites in all three and at the switch
    mu, sw = 0.6, kernels.PHI_SWITCH
    lo, hi = {"closed": (0.1, 1.9), "laguerre": (3.4, 1e3), "recast": (1e-4, 0.08),
              "mixed": (1e-4, 1e3)}[where]
    rng = np.random.default_rng(n)
    r = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    if where == "mixed" and n >= 7:
        r[:5] = 0.01, 1.0, 10.0, sw, sw / mu
        rng.shuffle(r)
    buf = np.full((3, 2 * n), -1.5)
    kernels.offres_fill(buf, n, r, rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n), mu)
    np.power(buf[0, n:], 6, out=buf[2, :n])
    closed = np.count_nonzero(buf[0] < sw)
    recast = r * r * (1.0 + mu) < kernels.RECAST
    assert {"closed": closed == 2 * n and not recast.any(), "laguerre": closed == 0,
            "recast": recast.all(), "mixed": n < 7 or 0 < recast.sum() < closed < 2 * n}[where]
    args = (n, mu, sw, kernels.RECAST, kernels._LAGUERRE_TABLE, kernels._LAGUERRE_NODES.size)
    compiled, numpy = buf.copy(), buf.copy()
    lib.offres_sites(*args, compiled)
    _numpy_backend.offres_sites(*args, numpy)
    assert np.isfinite(numpy[2, n:]).all()
    assert compiled.tobytes() == numpy.tobytes()
    numpy[2, n:] = buf[2, n:]
    assert numpy.tobytes() == buf.tobytes()


@pytest.mark.parametrize("array_dipole", [Z_HAT, X_HAT], ids=["zz", "zx"])
@pytest.mark.parametrize("a,M,z", [(0.05, 200, 0.3), (0.5, 60, 2.0), (0.01, 300, 0.05)])
def test_sum_lattice_same_on_numpy_rows(lib, monkeypatch, array_dipole, a, M, z):
    b = bundle(a=a, M=M, z=z, array=array_dipole)
    numpy_ranges, numpy_rows = [], _numpy_backend.res_rows
    monkeypatch.setattr(_numpy_backend, "res_rows",
                        lambda *args: numpy_ranges.append(args[7:9]) or numpy_rows(*args))
    values = []
    for name in ("c", "numpy"):
        with kernels.backend(name):
            values.append(sum_lattice(b, "resonant").resonant)
    assert numpy_ranges == [(0, M + 1)]  # the second sum ran the NumPy rows
    assert values[1].hex() == values[0].hex()


def test_row_source_compiles_without_warnings(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    proc = subprocess.run(["cc", *kernels._CFLAGS, "-Wall", "-Wextra", "-Wpedantic", "-Werror",
                           "-o", str(tmp_path / "rows.so"), str(kernels._SOURCE), "-lm"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_build_flags_keep_ieee_arithmetic():
    # the compiled ray integrals are bitwise equal to NumPy's only with
    # strict IEEE arithmetic: -std=c99 keeps GCC from contracting a * b + c
    # into fma (NumPy's own fmas are written out in _rows.c), no fast-math
    # flag may reassociate or fuse, and the ray integrals' section is
    # compiled unvectorized, since GCC's vectorizer fuses complex products
    # written out in real arithmetic even under -std=c99
    assert "-std=c99" in kernels._CFLAGS
    for flag in kernels._CFLAGS:
        assert not flag.startswith(("-ffast-math", "-Ofast", "-ffp-contract=fast",
                                    "-funsafe-math", "-fassociative-math")), flag
    source = kernels._SOURCE.read_text()
    assert (source.index('#pragma GCC optimize("no-tree-vectorize")')
            < source.index("\nstatic inline cplx cmul(") < source.index("\nlong ray_rotated("))


def test_large_phase_fallback_row(lib):
    # rows whose phase exceeds the Cody-Waite range route through libm
    a2, z2 = 9e4, 1.0  # r up to ~sqrt(2)*3e5, phase ~ 8.5e5 < 1e6 stays fast
    v1 = stream_rows(lib, 0, a2, z2, 2000, 2001)[0]
    w1 = _dot_row(False, a2, z2, 2000)
    assert v1 == pytest.approx(w1, rel=1e-11)
    a2 = 4e6  # phase ~ 5.6e6 > 1e6 forces the libm fill
    v2 = stream_rows(lib, 0, a2, z2, 2000, 2001)[0]
    w2 = _dot_row(False, a2, z2, 2000)
    assert v2 == pytest.approx(w2, rel=1e-11)


# The median time of _reference_piece on the 2-vCPU Xeon host where the bar
# was set; perfbench/calibration.py holds the same piece and constant.
REFERENCE_PIECE_S = 0.0009


def _reference_piece() -> float:
    """A copy of perfbench/calibration.py's piece: a short loop of interpreted
    float arithmetic whose time tracks the host's speed. Returns its seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(4000):
        x = i * 1e-3
        s += math.exp(-x) * (x * x + 1.0) / (1.0 + x)
    return time.perf_counter() - t0


def test_row_throughput_contract(lib):
    # >= 1e8 site terms per reference second per core through the compiled
    # fast path. Other tenants slow the whole host by up to 2x in phases, so
    # each batch of rows is timed next to one reference piece, its rate is
    # rescaled by how much slower than REFERENCE_PIECE_S the piece ran, and
    # the median over the rounds is gated. A piece faster than the reference
    # earns no penalty: on the 2-vCPU Xeon host the piece's median swung
    # between 0.62 and 1.08 ms within seconds while the row held 1.24-1.45e8
    # terms/s, so a full rescale failed 4 of 22 runs of unchanged code.
    nx, reps = 30000, 10
    stream_rows(lib, 0, 1e-4, 0.04, nx, nx + 1)  # warm up
    rates = []
    for _ in range(21):
        piece_s = _reference_piece()
        t0 = time.perf_counter()
        for _ in range(reps):
            stream_rows(lib, 0, 1e-4, 0.04, nx, nx + 1)
        rate = reps * (nx + 1) / (time.perf_counter() - t0)
        rates.append(rate * max(piece_s / REFERENCE_PIECE_S, 1.0))
    rate = statistics.median(rates)
    assert rate > 1e8, f"{rate:.3g} site terms per reference second"


# ---------------------------------------------------------------------------
# exact sums: math.fsum over every value of a sequence of arrays, in order

_WIDE = st.builds(lambda m, e: m * 2.0 ** e, st.floats(-1.0, 1.0), st.integers(-1000, 1000))
_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-16, 1.0,
                            1e16, 1.7976931348623157e308, -1.7976931348623157e308, math.inf,
                            -math.inf, math.nan])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # subnormals included


@pytest.mark.usefixtures("backend")
@settings(max_examples=400, deadline=None)
@given(values=st.lists(st.one_of(_WIDE, _FINITE, _SPECIAL), max_size=60),
       cancel=st.booleans(), cuts=st.lists(st.integers(0, 130), max_size=4))
@example(values=[], cancel=False, cuts=[])
@example(values=[-0.0], cancel=False, cuts=[])
@example(values=[5e-324], cancel=True, cuts=[1])
@example(values=[1e-16, 1.0, 1e16], cancel=False, cuts=[])   # the half-even fix-up
@example(values=[1.7976931348623157e308, 1.7976931348623157e308, -1e308], cancel=False,
         cuts=[1])                                               # intermediate overflow
@example(values=[math.inf, -math.inf, 1.0], cancel=False, cuts=[2])
@example(values=[math.inf, -math.inf, 1.7976931348623157e308, 1.7976931348623157e308],
         cancel=False, cuts=[])
@example(values=[math.nan, math.inf], cancel=False, cuts=[1])
def test_exact_sum_equals_math_fsum_bitwise(values, cancel, cuts):
    # cancel plants the values' negatives, shuffled, after a small residue;
    # cuts split the values into arrays, empty ones included. Where math.fsum
    # raises, the exact sum is NaN
    if cancel:
        values = values + [2.0 ** -60] + [-v for v in values[::-1]]
    bounds = sorted(min(c, len(values)) for c in cuts)
    parts = [np.array(values[lo:hi], dtype=np.float64)
             for lo, hi in zip([0, *bounds], [*bounds, len(values)])]
    try:
        want = math.fsum(values).hex()
    except (OverflowError, ValueError):  # intermediate overflow, or -inf + inf
        want = None
    got = kernels.exact_sum(iter(parts))
    assert math.isnan(got) if want is None else got.hex() == want


def _defined(*names):
    source = kernels._SOURCE.read_text()
    return (int(re.search(rf"^#define {name} (\d+)$", source, re.M).group(1)) for name in names)


def test_ray_sizes_are_the_library_s():
    # ray_rotated keeps AXES axes' panel sums and ray_panel NODES nodes on
    # their stacks: more axes than kernels lets through would overrun them,
    # and the rules kernels builds must have the nodes the compiled rows read
    axes, nodes = _defined("AXES", "NODES")
    pair, h = np.array([*Z_HAT, *Z_HAT, 1.0]), np.array([0.3])
    assert kernels.ray_rotated(pair, axes, h)[0].shape == (1, axes, 3)
    for more in (axes + 1, axes + 100):
        with pytest.raises(ValueError, match="axes"):
            kernels.ray_rotated(pair, more, h)
    assert kernels.NODES == nodes == kernels.LEGENDRE[0].size
    assert kernels.REAL_PATH[0].shape[1] == nodes


def test_rules_are_read_only():
    # a stray write would change every later ray integral or site term:
    # doubling one real-path weight made the next zz off-resonant bulk_term
    # fail its error estimate. The real path's nodes, weights and nested
    # weights follow one another in one table, which panel_sums takes whole
    rules = (*kernels.LEGENDRE, *kernels.REAL_PATH, kernels.ROTATED_RULE, kernels._LAGUERRE_TABLE)
    for rule in rules:
        with pytest.raises(ValueError, match="read-only"):
            rule[(0,) * rule.ndim] *= 2.0
    s, w, w_low = kernels.REAL_PATH
    assert w.ctypes.data == s.ctypes.data + s.nbytes
    assert w_low.ctypes.data == w.ctypes.data + w.nbytes
    assert all(rule.flags.c_contiguous and rule.shape == s.shape for rule in (w, w_low))


def test_numpy_sin_cos_are_the_c_library_s(lib):
    # the compiled site sets take sin and cos of 2r and 2y from the C library,
    # the NumPy backend np.sin and np.cos: they agree only while NumPy calls
    # the same functions on float64. A NumPy that vectorizes them fails here
    rng = np.random.default_rng(12)
    phases = np.concatenate((np.linspace(0.0, 8.0, 200_000, endpoint=False),
                             rng.uniform(0.0, 8.0, 100_000), rng.uniform(0.0, 1e6, 200_000),
                             np.arange(120_000) * (math.pi / 4)))
    s, c = np.empty_like(phases), np.empty_like(phases)
    lib.libm_sincos(phases, phases.size, s, c)
    assert np.sin(phases).tobytes() == s.tobytes()
    assert np.cos(phases).tobytes() == c.tobytes()
    for step in (slice(None, None, 3), slice(1, None, 7)):
        assert np.sin(phases[step]).tobytes() == s[step].tobytes()
        assert np.cos(phases[step]).tobytes() == c[step].tobytes()


def _sici_inputs():
    """The inputs on which the compiled sici must give SciPy's bits: 2 M
    log-uniform magnitudes in [1e-300, 1e300] of either sign, 1 M uniform
    values in [0, 4), the closed form's own range (2y below 2 PHI_SWITCH),
    every double within 1,000 ulps of +-4, +-8 and +-1e9, where the branches
    and cephes' large-x test switch, and the special values: subnormals,
    the extremes, +-0, NaN of either sign and +-inf."""
    rng = np.random.default_rng(33)
    magnitudes = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 2_000_000))
    ulps = np.concatenate([(np.array(edge).view(np.int64) + np.arange(-1000, 1001)).view(
        np.float64) for edge in (4.0, 8.0, 1e9)])
    tiny, huge = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max
    special = np.array([0.0, tiny, 3.0 * tiny, 1e-310, np.finfo(np.float64).tiny, 1e-30, 1e-8,
                        1e9, 1e20, 1e154, 1.5e154, 1e300, huge, math.inf, math.nan])
    return np.concatenate((magnitudes * rng.choice([-1.0, 1.0], magnitudes.size),
                           rng.uniform(0.0, 4.0, 1_000_000), ulps, -ulps, special, -special))


def test_compiled_sici_is_scipy_s_bitwise(lib):
    # the port of cephes sici gives scipy.special.sici's bits everywhere,
    # +-inf (cephes' own case) and NaNs of either sign included
    x = _sici_inputs()
    si, ci = np.empty_like(x), np.empty_like(x)
    lib.sici(x, x.size, si, ci)
    want_si, want_ci = sici(x)
    for got, want in ((si, want_si), (ci, want_ci)):
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert differ.size == 0, [(x[i].hex(), got[i].hex(), want[i].hex())
                                  for i in differ[:5].tolist()]
    edges = np.array([math.inf, -math.inf, 0.0, -0.0])
    lib.sici(edges, edges.size, si[:4], ci[:4])
    assert [v.hex() for v in si[:4].tolist()] == [
        (0.5 * math.pi).hex(), (-0.5 * math.pi).hex(), "0x0.0p+0", "0x0.0p+0"]
    assert ci[0] == 0.0 and math.isnan(ci[1]) and ci[2] == ci[3] == -math.inf


def test_sici_on_either_backend_is_scipy_s(backend):
    # kernels.sici keeps the shape of its input, a scalar included, on both
    # backends; the NumPy one calls SciPy
    x = np.array([[0.5, -3.0, 4.0], [7.5, 1e10, 0.0]])
    for v in (x, x[:, ::2], 2.5, []):
        got = kernels.sici(v)
        want = sici(np.asarray(v, dtype=float))
        assert [g.shape for g in got] == [np.shape(v)] * 2
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# real-axis site sets: the compiled passes against NumPy's sequences

def _site_set_positions(u, v, z, rays):
    """x and y of every site of a site set at the height z, (u, sites)."""
    if not rays:
        return u[:, None], v[None, :]
    big_r = z * u[:, None]
    return big_r * v[0::2], big_r * v[1::2]


@pytest.mark.parametrize("rays", [False, True])
def test_site_sets_equal_numpy_sequences_bitwise(backend, rays):
    # greens.site_projections and resonant_sites with np.sum over each row,
    # and the off-resonant site integrals from the same projections; rows
    # of more sites than NumPy's pairwise blocks and reduction buffers
    rng = np.random.default_rng(13 + rays)
    for e0, en in (((0.0, 0.0, 1.0), (0.6, 0.0, 0.8)), ((S3, S3, S3), (0.0, 0.8, 0.6))):
        pair = np.array([*e0, *en, np.dot(e0, en)])
        for nu, nv, nz in ((1, 1, 1), (3, 17, 2), (5, 129, 3), (2, 9000, 1), (1, 20001, 1)):
            u = rng.uniform(0.0, 3.0, nu) if rays else rng.uniform(-3.0, 3.0, nu)
            phi = rng.uniform(0.0, 2.0 * math.pi, nv)
            v = np.stack([np.cos(phi), np.sin(phi)], axis=-1).ravel() if rays else \
                rng.uniform(-3.0, 3.0, nv)
            z = np.geomspace(1e-2, 30.0, nz)
            values, sites = [], []
            for h in z.tolist():
                x, y = _site_set_positions(u, v, h, rays)
                r, dot, pp = greens.site_projections(e0, en, x, y, h)
                values.append(greens.resonant_sites(r, dot, pp))
                sites.append((r, pp))
            values = np.array(values)
            if not rays:  # the resonant site sets are grids
                got = kernels.res_points(pair, u, v, z, sums=False)
                assert got.tobytes() == values.tobytes()
                sums = kernels.res_points(pair, u, v, z, sums=True)
                assert sums.tobytes() == np.sum(values, axis=-1).tobytes()
            if nu * nv * nz > 3000:
                continue
            r = np.concatenate([r.ravel() for r, _ in sites])
            pp = np.concatenate([pp.ravel() for _, pp in sites])
            for mu in (0.05, 0.6, 1.7):
                want = former_offresonant_sites(r, pair[6], pp, mu)
                assert kernels.offres_points(pair, u, v, z, mu, rays=rays).tobytes() == \
                    want.tobytes()


def test_strided_pair_gives_the_contiguous_pair_s_bits(backend):
    # a dipole pair viewed with a stride runs as the contiguous one does: the
    # site sets and the ray integrals make it contiguous, as they do their
    # tables
    e0, en = (S3, S3, S3), (0.6, 0.0, 0.8)
    pair = np.array([*e0, *en, np.dot(e0, en)])
    strided = np.zeros(14)[::2]
    strided[:] = pair
    assert not strided.flags.c_contiguous
    u, v, z = np.linspace(-2.0, 2.0, 5), np.linspace(-1.5, 1.5, 4), np.array([0.3, 1.1])
    for sums in (False, True):
        assert kernels.res_points(strided, u, v, z, sums).tobytes() == \
            kernels.res_points(pair, u, v, z, sums).tobytes()
    rays = np.array([[1.0, 0.0], [0.6, 0.8]])
    for s, d, along in ((u, v, False), (np.array([0.5, 2.0]), rays.ravel(), True)):
        assert kernels.offres_points(strided, s, d, z, 0.6, rays=along).tobytes() == \
            kernels.offres_points(pair, s, d, z, 0.6, rays=along).tobytes()
    got, want = (kernels.ray_rotated(p, 2, z) for p in (strided, pair))
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
