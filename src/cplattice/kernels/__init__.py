"""Hot-loop row kernels: compiled C through ctypes when a C compiler is present,
NumPy otherwise.

On first import ``_rows.c`` is compiled with the system ``cc`` into
``_rows-<key>.so`` next to it, where the key hashes the source, the compiler
command line, the machine type and the CPU model (the build uses
``-march=native``). Later imports load the cached library without starting a
process. Any failure to build or load it (no compiler, a compile error, a
read-only directory) selects the NumPy fallback. Set
CPLATTICE_FORCE_NUMPY_KERNELS=1 to skip the compiled library.

Both backends export the same four functions:

* ``res_row_zz(a2, z2, nx)`` and ``res_row_zx``: one octant row's total;
* ``res_rows_zz(a2, z2, lo, hi)`` and ``res_rows_zx``: the rows
  lo <= nx < hi (0 <= lo <= hi) as a new float64 array, element nx - lo
  bitwise equal to ``res_row_*(a2, z2, nx)``. One call fills a whole range,
  and the compiled call runs without the interpreter lock. Both are built
  by :func:`range_entry`, which checks the range, allocates the output and
  passes it to the backend's ``res_rows_*(a2, z2, lo, hi, out)``.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from . import _numpy_backend

_HERE = Path(__file__).resolve().parent
_SOURCE = _HERE / "_rows.c"
# -std=c99 turns off FMA contraction; no -ffast-math (see _rows.c)
_CFLAGS = ("-O3", "-std=c99", "-fno-math-errno", "-march=native", "-shared", "-fPIC")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return ""


def load_library(cc: str = "cc", directory: Path = _HERE):
    """The compiled row library, built into ``directory`` on first use.

    Returns a ``ctypes.CDLL`` with ``res_row_zz``, ``res_row_zx``,
    ``res_rows_zz``, ``res_rows_zx`` and ``sincos_probe`` declared, or None
    when the library cannot be built or loaded. The build writes a temporary
    file and moves it into place, so concurrent first imports are safe.
    """
    try:
        key = hashlib.sha256(b"\0".join([
            _SOURCE.read_bytes(), " ".join((cc,) + _CFLAGS).encode(),
            platform.machine().encode(), _cpu_model().encode()])).hexdigest()[:16]
        path = Path(directory) / f"_rows-{key}.so"
        if not path.exists():
            fd, tmp = tempfile.mkstemp(prefix="._rows-", suffix=".so", dir=directory)
            os.close(fd)
            try:
                subprocess.run([cc, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                               check=True, capture_output=True, timeout=120)
                os.chmod(tmp, 0o755)  # mkstemp's 0600 would hide it from other users
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError):
        return None
    for name in ("res_row_zz", "res_row_zx"):
        fn = getattr(lib, name)
        fn.argtypes = (ctypes.c_double, ctypes.c_double, ctypes.c_long)
        fn.restype = ctypes.c_double
    out = np.ctypeslib.ndpointer(np.float64, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
    for name in ("res_rows_zz", "res_rows_zx"):
        fn = getattr(lib, name)
        fn.argtypes = (ctypes.c_double, ctypes.c_double, ctypes.c_long, ctypes.c_long, out)
        fn.restype = None
    lib.sincos_probe.argtypes = (ctypes.c_double, ctypes.POINTER(ctypes.c_double),
                                 ctypes.POINTER(ctypes.c_double))
    lib.sincos_probe.restype = None
    return lib


def range_entry(fill):
    """The range entry point over a backend's ``res_rows_*``.

    ``fill(a2, z2, lo, hi, out)`` writes the rows lo <= nx < hi into
    ``out``; the entry point checks 0 <= lo <= hi (``ValueError``
    otherwise), allocates ``out`` and returns it.
    """
    def rows(a2: float, z2: float, lo: int, hi: int) -> np.ndarray:
        if not 0 <= lo <= hi:
            raise ValueError(f"row range needs 0 <= lo <= hi, got lo={lo}, hi={hi}")
        out = np.empty(hi - lo)
        fill(a2, z2, lo, hi, out)
        return out
    return rows


_lib = None if os.environ.get("CPLATTICE_FORCE_NUMPY_KERNELS") else load_library()
_impl = _numpy_backend if _lib is None else _lib

res_row_zz = _impl.res_row_zz
res_row_zx = _impl.res_row_zx
res_rows_zz = range_entry(_impl.res_rows_zz)
res_rows_zx = range_entry(_impl.res_rows_zx)


def backend_name() -> str:
    return "numpy" if _lib is None else "c"
