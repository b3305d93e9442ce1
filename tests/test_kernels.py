"""Backend contract: the compiled row library and the NumPy fallback are
interchangeable, the library's reduced sincos matches the C library, and
the loader falls back to NumPy whenever the library cannot be built."""
import ctypes
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cplattice import kernels
from cplattice.greens import resonant_sites
from cplattice.kernels import _numpy_backend, backend_name
from cplattice.lattice_sum import sum_lattice
from cplattice.model import X_HAT, Z_HAT, Geometry, LatticeSpec, ModelParams, validate


@pytest.fixture(scope="module")
def lib():
    """The compiled row library; tests that need it skip only without ``cc``."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    lib = kernels.load_library()
    assert lib is not None, "cc is on PATH but the row library did not build"
    return lib


def _sincos(lib, x):
    s, c = ctypes.c_double(), ctypes.c_double()
    lib.sincos_probe(x, ctypes.byref(s), ctypes.byref(c))
    return s.value, c.value


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


def test_failed_builds_fall_back_without_raising(tmp_path):
    # no such compiler, a compiler that fails, a directory that does not exist
    assert kernels.load_library(cc=str(tmp_path / "no-such-cc"), directory=tmp_path) is None
    if shutil.which("false"):
        assert kernels.load_library(cc="false", directory=tmp_path) is None
    assert kernels.load_library(directory=tmp_path / "missing") is None
    assert list(tmp_path.iterdir()) == []  # no temporary file is left behind


def test_cached_library_loads_without_a_process(lib, tmp_path, monkeypatch):
    assert kernels.load_library(directory=tmp_path) is not None
    built = sorted(p.name for p in tmp_path.iterdir())
    assert len(built) == 1 and built[0].startswith("_rows-") and built[0].endswith(".so")

    def no_process(*args, **kwargs):
        raise AssertionError("a cache hit started a process")

    monkeypatch.setattr(subprocess, "run", no_process)
    cached = kernels.load_library(directory=tmp_path)
    assert cached.res_row_zz(1e-4, 0.04, 100) == lib.res_row_zz(1e-4, 0.04, 100)
    assert sorted(p.name for p in tmp_path.iterdir()) == built


def test_fast_sincos_one_ulp(lib):
    rng = np.random.default_rng(4)
    for x in rng.uniform(0.0, 5000.0, 20000):
        s, c = _sincos(lib, float(x))
        assert abs(s - math.sin(x)) <= 2.3e-16
        assert abs(c - math.cos(x)) <= 2.3e-16


@pytest.mark.parametrize("nx", [0, 1, 2, 3, 17, 173, 2048, 20001])
@pytest.mark.parametrize("a2,z2", [(1e-4, 0.04), (0.25, 1.0), (4.0, 1e-4), (1e-2, 9.0)])
def test_rows_match_numpy_backend(lib, nx, a2, z2):
    a = lib.res_row_zz(a2, z2, nx)
    b = _numpy_backend.res_row_zz(a2, z2, nx)
    assert a == pytest.approx(b, rel=5e-12, abs=1e-300)
    c = lib.res_row_zx(a2, z2, nx)
    d = _numpy_backend.res_row_zx(a2, z2, nx)
    assert c == pytest.approx(d, rel=5e-12, abs=1e-300)


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
def test_compiled_rows_match_numpy_rows(lib, log_a2, log_z2, nx):
    # rows of oscillating terms cancel: a floor of 1e-13 of the magnitude sum
    a2, z2 = math.exp(log_a2), math.exp(log_z2)
    mzz, mzx = _weighted_magnitude(a2, z2, nx)
    assert lib.res_row_zz(a2, z2, nx) == pytest.approx(
        _numpy_backend.res_row_zz(a2, z2, nx), rel=5e-12, abs=1e-13 * mzz)
    assert lib.res_row_zx(a2, z2, nx) == pytest.approx(
        _numpy_backend.res_row_zx(a2, z2, nx), rel=5e-12, abs=1e-13 * mzx)


# (a2, z2, nx, res_row_zz, res_row_zx), the rows as float.hex. The row pass is
# strict IEEE arithmetic (no FMA contraction, correctly rounded sqrt, the
# reduced sin/cos: every largest phase here is below 1e6), so any change to a
# site formula or to the summation order shows; only the two endpoint terms
# call libm. nx = 511..513 straddle the 512-site chunk.
PINNED_ROWS = [
    (0.0001, 0.04, 1, '0x1.f0ae98e0c2cc2p+18', '0x1.05c18bb3a7e91p+11'),
    (0.0001, 0.04, 2, '0x1.d46a8f73e34ccp+19', '0x1.c77d9fb2e1bcbp+13'),
    (0.0001, 0.04, 511, '0x1.e50ed15984575p+4', '0x1.89f8b83602199p-5'),
    (0.0001, 0.04, 512, '0x1.f2c6d394de64fp+4', '0x1.8a854caf34dfap-5'),
    (0.0001, 0.04, 513, '0x1.00169484cef58p+5', '0x1.8ae93f59ec3d1p-5'),
    (0.25, 1.0, 17, '0x1.5aa8d79ed11b3p-2', '0x1.d6f202fc9c3aap-9'),
    (4.0, 0.0001, 173, '-0x1.551ef1a518751p-15', '-0x1.51da68978918ep-46'),
    (0.01, 9.0, 2048, '-0x1.4aa1be591c5cap-7', '-0x1.366259ffe3b9ep-20'),
    (90000.0, 1.0, 1000, '0x1.114ee1b8f3e38p-33', '0x1.c145b25254022p-69'),
    (0.0025, 0.09, 1024, '-0x1.5d95b63008ab0p-2', '-0x1.999faf015c951p-18'),
]


@pytest.mark.parametrize("a2,z2,nx,zz,zx", PINNED_ROWS)
def test_compiled_rows_bit_exact(lib, a2, z2, nx, zz, zx):
    assert lib.res_row_zz(a2, z2, nx).hex() == zz
    assert lib.res_row_zx(a2, z2, nx).hex() == zx


def _range_backends(lib):
    """(range entry point, single-row kernel) for each backend and orientation."""
    return [(kernels.range_entry(lib.res_rows_zz), lib.res_row_zz),
            (kernels.range_entry(lib.res_rows_zx), lib.res_row_zx),
            (kernels.range_entry(_numpy_backend.res_rows_zz), _numpy_backend.res_row_zz),
            (kernels.range_entry(_numpy_backend.res_rows_zx), _numpy_backend.res_row_zx)]


@settings(max_examples=60, deadline=None)
@given(log_a2=st.floats(math.log(1e-6), math.log(1e7)),
       log_z2=st.floats(math.log(1e-4), math.log(100.0)),
       lo=st.integers(0, 300), length=st.integers(0, 40))
@example(log_a2=0.0, log_z2=0.0, lo=7, length=0)
def test_row_ranges_equal_single_rows_bitwise(lib, log_a2, log_z2, lo, length):
    a2, z2, hi = math.exp(log_a2), math.exp(log_z2), lo + length
    for rows, row in _range_backends(lib):
        out = rows(a2, z2, lo, hi)
        assert out.dtype == np.float64 and out.shape == (length,)
        assert [v.hex() for v in out.tolist()] == [row(a2, z2, nx).hex()
                                                   for nx in range(lo, hi)]


def test_row_range_across_the_libm_switch(lib):
    # the fast sin/cos serves rows whose largest phase 2 r is below 1e6: at
    # a2 = 1e7, z2 = 1 that is rows up to 111, and libm serves the rest
    a2, z2, lo, hi = 1e7, 1.0, 100, 130
    fast = [2.0 * math.sqrt(2.0 * nx * nx * a2 + z2) < 1e6 for nx in range(lo, hi)]
    assert any(fast) and not all(fast)
    for rows, row in _range_backends(lib):
        assert [v.hex() for v in rows(a2, z2, lo, hi).tolist()] == [
            row(a2, z2, nx).hex() for nx in range(lo, hi)]


def test_row_ranges_reject_bad_bounds(lib):
    for rows, _ in _range_backends(lib):
        for lo, hi in ((-1, 3), (5, 4)):
            with pytest.raises(ValueError, match="0 <= lo <= hi"):
                rows(1e-4, 0.04, lo, hi)


def test_loader_declares_every_exported_symbol(lib, tmp_path):
    # an undeclared ctypes function takes ints and returns an int: doubles
    # would pass wrongly without an error
    loaded = kernels.load_library(directory=tmp_path)
    c_type = {"double": ctypes.c_double, "void": None}
    exported = re.findall(r"^(double|void) (\w+)\(([^)]*)\)$", kernels._SOURCE.read_text(), re.M)
    assert {name for _, name, _ in exported} >= {
        "res_row_zz", "res_row_zx", "res_rows_zz", "res_rows_zx", "sincos_probe"}
    for ret, name, params in exported:
        fn = getattr(loaded, name)
        assert fn.argtypes is not None and len(fn.argtypes) == len(params.split(",")), name
        assert fn.restype is c_type[ret], name


@pytest.mark.parametrize("array_dipole", [Z_HAT, X_HAT], ids=["zz", "zx"])
@pytest.mark.parametrize("a,M,z", [(0.05, 200, 0.3), (0.5, 60, 2.0), (0.01, 300, 0.05)])
def test_sum_lattice_same_on_numpy_rows(lib, monkeypatch, array_dipole, a, M, z):
    b = validate(ModelParams(mu=0.5, rho=1e-6, array_dipole=array_dipole),
                 LatticeSpec(a_tilde=a, half_extent=M), Geometry(z_tilde=z))
    compiled, numpy_backend = ({"res_row_zz": impl.res_row_zz, "res_row_zx": impl.res_row_zx,
                                "res_rows_zz": kernels.range_entry(impl.res_rows_zz),
                                "res_rows_zx": kernels.range_entry(impl.res_rows_zx)}
                               for impl in (lib, _numpy_backend))
    numpy_rows, numpy_row = [], _numpy_backend._row
    monkeypatch.setattr(_numpy_backend, "_row",
                        lambda *args: numpy_rows.append(args[2]) or numpy_row(*args))
    values = []
    for impl in (compiled, numpy_backend):
        for name in ("res_row_zz", "res_row_zx", "res_rows_zz", "res_rows_zx"):
            monkeypatch.setattr(kernels, name, impl[name])
        values.append(sum_lattice(b, "resonant").resonant)
    assert sorted(numpy_rows) == list(range(M + 1))  # the second sum ran the NumPy rows
    assert values[1] == pytest.approx(values[0], rel=1e-12)


def test_row_source_compiles_without_warnings(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    proc = subprocess.run(["cc", *kernels._CFLAGS, "-Wall", "-Wextra", "-Wpedantic", "-Werror",
                           "-o", str(tmp_path / "rows.so"), str(kernels._SOURCE), "-lm"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_large_phase_fallback_row(lib):
    # rows whose phase exceeds the Cody-Waite range route through libm
    a2, z2 = 9e4, 1.0  # r up to ~sqrt(2)*3e5, phase ~ 8.5e5 < 1e6 stays fast
    v1 = lib.res_row_zz(a2, z2, 2000)
    w1 = _numpy_backend.res_row_zz(a2, z2, 2000)
    assert v1 == pytest.approx(w1, rel=1e-11)
    a2 = 4e6  # phase ~ 5.6e6 > 1e6 forces the libm fill
    v2 = lib.res_row_zz(a2, z2, 2000)
    w2 = _numpy_backend.res_row_zz(a2, z2, 2000)
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
    lib.res_row_zz(1e-4, 0.04, nx)  # warm up
    rates = []
    for _ in range(21):
        piece_s = _reference_piece()
        t0 = time.perf_counter()
        for _ in range(reps):
            lib.res_row_zz(1e-4, 0.04, nx)
        rate = reps * (nx + 1) / (time.perf_counter() - t0)
        rates.append(rate * max(piece_s / REFERENCE_PIECE_S, 1.0))
    rate = statistics.median(rates)
    assert rate > 1e8, f"{rate:.3g} site terms per reference second"
