"""Backend contract: the compiled kernels and the NumPy fallback are
interchangeable, and the compiled fast-math substitutions (polished
reciprocal sqrt, reduced sincos) match the C library."""
import math

import numpy as np
import pytest

from cplattice.kernels import _numpy_backend, backend_name


@pytest.fixture
def _fast():
    """The compiled module; tests that need it skip when it is not built."""
    return pytest.importorskip("cplattice.kernels._fast")


def test_backend_selected():
    assert backend_name() in ("cython", "numpy")


def test_fast_sqrt_bit_exact(_fast):
    rng = np.random.default_rng(3)
    xs = np.exp(rng.uniform(-30, 30, 20000))
    for x in xs:
        assert _fast.sqrt_probe(float(x)) == math.sqrt(x)


def test_fast_sincos_one_ulp(_fast):
    rng = np.random.default_rng(4)
    for x in rng.uniform(0.0, 5000.0, 20000):
        s, c = _fast.sincos_probe(float(x))
        assert abs(s - math.sin(x)) <= 2.3e-16
        assert abs(c - math.cos(x)) <= 2.3e-16


@pytest.mark.parametrize("nx", [0, 1, 2, 3, 17, 173, 2048, 20001])
@pytest.mark.parametrize("a2,z2", [(1e-4, 0.04), (0.25, 1.0), (4.0, 1e-4), (1e-2, 9.0)])
def test_rows_match_numpy_backend(_fast, nx, a2, z2):
    a = _fast.res_row_zz(a2, z2, nx)
    b = _numpy_backend.res_row_zz(a2, z2, nx)
    assert a == pytest.approx(b, rel=5e-12, abs=1e-300)
    c = _fast.res_row_zx(a2, z2, nx)
    d = _numpy_backend.res_row_zx(a2, z2, nx)
    assert c == pytest.approx(d, rel=5e-12, abs=1e-300)


def test_large_phase_fallback_row(_fast):
    # rows whose phase exceeds the Cody-Waite range route through libm
    a2, z2 = 9e4, 1.0  # r up to ~sqrt(2)*3e5, phase ~ 8.5e5 < 1e6 stays fast
    v1 = _fast.res_row_zz(a2, z2, 2000)
    w1 = _numpy_backend.res_row_zz(a2, z2, 2000)
    assert v1 == pytest.approx(w1, rel=1e-11)
    a2 = 4e6  # phase ~ 5.6e6 > 1e6 forces the libm fill
    v2 = _fast.res_row_zz(a2, z2, 2000)
    w2 = _numpy_backend.res_row_zz(a2, z2, 2000)
    assert v2 == pytest.approx(w2, rel=1e-11)


def test_row_throughput_contract(_fast):
    # >= 1e8 site terms / second / core through the compiled fast path
    import time
    nx = 30000
    _fast.res_row_zz(1e-4, 0.04, nx)  # warm up
    t0 = time.perf_counter()
    reps = 10
    for _ in range(reps):
        _fast.res_row_zz(1e-4, 0.04, nx)
    rate = reps * (nx + 1) / (time.perf_counter() - t0)
    assert rate > 1e8, f"{rate:.3g} site terms/s"
