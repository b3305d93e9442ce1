"""Hot-loop row kernels: compiled C through ctypes when a C compiler is present,
NumPy otherwise.

On first import ``_rows.c`` is compiled with the system ``cc`` into
``_rows-<key>.so`` next to it, where the key is the first 16 hex digits of
the SHA-256 of the source, the compiler command line, the machine type and
the CPU model (the build uses ``-march=native``). The digest is CPython's
own (``_sha256``, or ``_sha2`` from 3.12; ``hashlib`` only where neither is
built), so no run loads OpenSSL for it. Later imports load the cached
library without starting a process, or importing ``subprocess``: only a
build does. Any failure to build or load it (no compiler, a compile error, a
read-only directory) selects the NumPy fallback. Set
CPLATTICE_FORCE_NUMPY_KERNELS=1 to skip the compiled library at import.

The backend is one module variable, the library or the NumPy module
(``backend_name()`` reports which). ``with backend(name):`` is the one place
that swaps it, together with the distance-table cache; it loads the library
on demand, so one process can run both backends. Only selecting the NumPy
module (at import or by ``backend("numpy")``) imports it: no compiled run does.

Arrays cross into C one way. Each export is declared from its prototype in
``_rows.c`` (:func:`load_library`), and every array parameter as one of
four checked ctypes types, ``F64``, ``I32``, ``I64`` and ``U16``, which take
a C-contiguous ndarray of their dtype and pass the address of its first
element, and reject anything else with ``ctypes.ArgumentError`` before the
C code runs. The NumPy backend takes each export's arguments, with the
arrays where C takes pointers, and runs its algorithm, so each wrapper
below makes one call that runs on either backend; only ``backend`` and
``backend_name`` test which backend is in place, by its type (``ctypes.CDLL``).

The module exports these functions over the selected backend, and the
distance table that the compiled rows gather from:

* ``res_rows(zx, a2, z2, lo, hi)``: the octant rows lo <= nx < hi
  (0 <= lo <= hi) of the z-probe resonant sum, for z-oriented (zx false)
  or x-oriented (zx true) array dipoles, at one height z2 or at each of an
  array of heights, as a new float64 array of shape z2.shape + (hi - lo,),
  from one call of the backend's one row export, ``res_rows(zx, a2, z2,
  nz, d2, n, step, lo, hi, values, out)``, which the compiled library runs
  without the interpreter lock. It takes the range's :func:`distance_table`
  (n distances d2 and the rank steps) or the empty one (n = 0; see
  :func:`res_rows`). At each height it reads the table when there is one
  and the last row's largest phase is below the fast sin/cos bound: it
  evaluates the site term once per distinct distance into values and
  gathers each row from them (in C eight rows side by side). Otherwise it
  streams, evaluating every site. A row is summed in one order either way,
  so it is the same bits, on either backend;
* ``distance_table(lo, hi)``: the distinct nx^2 + j^2 of the octant sites
  of those rows and each site's rank step, from which :func:`table_ranks`
  gives its index into them, shared by the resonant rows above and the
  direct off-resonant octant sum. The compiled builder marks the distances
  in a bitmap and ranks them by word counts; the NumPy one calls
  ``np.unique``. Tables of up to ``TABLE_SITE_CAP`` sites in all are kept
  for the process (2 bytes a site and 4 a distance: 0.57 MB at M = 500),
  and a larger range has the empty one: both octant sums then stream;
* ``sici(x)``: Si(x) and Ci(x), the bits of ``scipy.special.sici`` on
  either backend: the compiled one ports SciPy's algorithm (cephes sici),
  and the NumPy one calls SciPy, importing ``scipy.special`` on its first
  call, so that no run on the compiled backend loads it;
* ``offres_sites(r, dot, pp, mu)``: the off-resonant site integrals, one
  backend call per buffer of ``SITE_CHUNK`` sites (:func:`_offres_chunks`).
  NumPy computes r^6 (``np.power``, whose bits the C library's pow does not
  share). The backend does everything else, with the same bits: Si and Ci
  of 2y below ``PHI_SWITCH`` (its ``sici``), sin and cos of 2y (the C
  library's, which np.sin and np.cos call on float64) and, with IEEE +, -,
  * and /, the closed-form Phi_k, the Gauss-Laguerre branch
  (``phi_laguerre``, eight radii side by side in C), the partial-fraction
  moments, the h(u)^2 coefficients, the 5-term contraction and the
  division by r^6, each in the NumPy backend's order of operations;
* ``res_points(pair, u, v, heights, sums)`` and ``offres_points(pair, u, v,
  heights, mu)``: the resonant and off-resonant site terms of a dipole pair
  (``bundle.pair``: e0, en and e0.en) over a real-axis site set, the sites
  (u_i, v_j) at each height z, or for the off-resonant one also on rays
  R (v_2j, v_2j+1) with R = z u_i: the direct sums of generic pairs (row
  sums, or blocks of sites), the pair terms and the vertex (one site each),
  and the off-resonant real path of the decomposition (rays). The compiled
  passes take each site from its position on in ``greens.site_projections``'
  and the site kernels' order of operations, with the C library's sin and
  cos of 2r; the NumPy backend calls those functions. The off-resonant pass
  fills the buffers of ``offres_sites``;
* ``exact_sum(parts)``: math.fsum of every value of a sequence of arrays,
  in order, on either backend, and NaN where math.fsum raises: the exact
  reduction that makes each direct sum the same bits for any worker count;
* ``ray_rotated(pair, axes, heights)``: the resonant edge's axis
  integrals (``euler_maclaurin``) on their rotated paths, whole, for every
  height in one call: the positive x axis, and with ``axes`` 2 the
  positive y axis, each height's rule from ``ROTATED_RULE``, the site term
  at (t, 0) and (0, t), which share r and e^{2ir}, and each height's value,
  error estimate and scale.
  The NumPy backend takes these steps as NumPy array operations, and the
  compiled one each of them in C with the same bits (glibc's csqrt and
  cexp, NumPy's complex product, powering, division, modulus and pairwise
  sums, and the powers of 1.4 as a NumPy table; see that section of
  ``_rows.c``, compiled unvectorized);
* ``panel_sums(f, heights, bulk)``: the off-resonant ray integrals
  on the real path (``REAL_PATH``) from their site values, the same values,
  estimates and scales: for the bulk the mean over the directions
  (np.mean's sum and division), the Jacobian and the pairwise panel sums.

Both return the sums and each height's panel count. This module builds every
rule once, read-only, the Gauss-Laguerre table, ``LEGENDRE``, ``REAL_PATH``
(views of one table, which ``panel_sums`` passes whole) and ``ROTATED_RULE``
(:func:`_rules`), and passes them to each backend call itself, so no caller
takes or checks one; the NumPy backend imports its constants and helpers
from here. Their Gauss-Legendre nodes and weights are literals, the bits of
``numpy.polynomial.legendre``, as the Gauss-Laguerre ones are SciPy's: no
run imports either to build a rule.
"""
from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
import os
import platform
import re
import threading
from pathlib import Path

import numpy as np

try:  # CPython's own SHA-256, not OpenSSL's, as random.py takes its sha512
    from _sha256 import sha256  # CPython 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12 on
    except ImportError:
        from hashlib import sha256

_HERE = Path(__file__).resolve().parent
_SOURCE = _HERE / "_rows.c"
# -std=c99 turns off FMA contraction; no -ffast-math (see _rows.c). The
# compiled ray integrals' bits rest on both.
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


def _array(dtype):
    """The ctypes parameter type of a C-contiguous ndarray of ``dtype``, of
    any shape and size: ``from_param`` passes the address of its first
    element, through ctypes.c_char.from_buffer, in a third of
    a.ctypes.data's time, where the array is writeable and not empty, and
    raises ``TypeError`` (ctypes' ``ArgumentError`` at the call) for any
    other argument, before the C code runs."""
    dtype = np.dtype(dtype)

    def from_param(cls, a):
        if not isinstance(a, np.ndarray) or a.dtype != dtype or not a.flags.c_contiguous:
            raise TypeError(f"need a C-contiguous {dtype} ndarray")
        if a.flags.writeable and a.size:
            return ctypes.byref(ctypes.c_char.from_buffer(a))
        return ctypes.c_void_p(a.ctypes.data)

    return type(f"{dtype}_array", (), {"from_param": classmethod(from_param)})


# The array parameters of the compiled exports
F64, I32, I64, U16 = _array(np.float64), _array(np.int32), _array(np.int64), _array(np.uint16)

# An export's prototype in _rows.c, on its own lines: the return type, the
# name and the parameters; and the ctypes type of each C type in one
_PROTOTYPE = re.compile(r"^(\w+) (\w+)\(([^)]*)\)$", re.M)
_CTYPES = {"double": ctypes.c_double, "int": ctypes.c_int, "long": ctypes.c_long, "void": None,
           "double *": F64, "int32_t *": I32, "long *": I64, "uint16_t *": U16}


def _ctype(export: str, c_type: str):
    """The ctypes type of ``c_type``, const or not, in the prototype of
    ``export``; raises ``TypeError`` for a C type without one."""
    c_type = c_type.removeprefix("const ")
    if c_type not in _CTYPES:
        raise TypeError(f"{export} in {_SOURCE.name} takes or returns {c_type!r}, which has no "
                        f"ctypes type")
    return _CTYPES[c_type]


def load_library(cc: str = "cc", directory: Path = _HERE):
    """The compiled row library, built into ``directory`` on first use, as
    a ``ctypes.CDLL``, or None when it cannot be built or loaded.

    Each export is declared from its prototype in ``_rows.c``, the one
    statement of its signature: a line ``type name(parameters)`` at the start
    of a line, the parameters possibly running over several. Each C type,
    const or not, takes its ctypes type in ``_CTYPES`` (a ``void`` return
    None, each array its checked type); any other raises ``TypeError``,
    naming the export. The build writes a temporary file and moves it into
    place, so concurrent first imports are safe; a successful build then
    removes the libraries of other keys (``_rows-*.so``) from ``directory``.
    """
    try:
        source = _SOURCE.read_bytes()
        key = sha256(b"\0".join([
            source, " ".join((cc,) + _CFLAGS).encode(),
            platform.machine().encode(), _cpu_model().encode()])).hexdigest()[:16]
        path = Path(directory) / f"_rows-{key}.so"
        if not path.exists():
            # only a build starts a process: loading a cached library needs neither
            import subprocess
            import tempfile
            fd, tmp = tempfile.mkstemp(prefix="._rows-", suffix=".so", dir=directory)
            os.close(fd)
            try:
                subprocess.run([cc, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                               check=True, capture_output=True, timeout=120)
                os.chmod(tmp, 0o755)  # mkstemp's 0600 would hide it from other users
                os.replace(tmp, path)
            except subprocess.SubprocessError:  # the compiler failed or timed out
                return None
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            # each edit of _rows.c would otherwise leave its library behind;
            # a concurrent build's ._rows-* temporary does not match
            for stale in path.parent.glob("_rows-*.so"):
                if stale != path:
                    with contextlib.suppress(OSError):
                        stale.unlink()
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    for ret, name, params in _PROTOTYPE.findall(source.decode()):
        fn = getattr(lib, name)
        fn.restype = _ctype(name, ret)
        fn.argtypes = [_ctype(name, re.sub(r"\s*\w+$", "", p.strip())) for p in params.split(",")]
    return lib


# The most octant sites of a distance table, and of all tables a process
# keeps together (a range of more streams), and the rows nx < TABLE_ROWS a
# table holds: its distances, to 2 nx^2, fit int32, its steps uint16.
TABLE_SITE_CAP, TABLE_ROWS = 1 << 21, 1 << 15


def range_sites(lo: int, hi: int) -> int:
    """The octant sites of the rows lo <= nx < hi: row nx holds nx + 1."""
    return (hi * (hi + 1) - lo * (lo + 1)) // 2


def build_table(fill, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`distance_table` of the rows lo <= nx < hi, read-only, through a
    backend's ``distance_table(lo, hi, d2, step)``, which fills both and
    returns the count of distances. ``ValueError`` for a bad range or hi >
    ``TABLE_ROWS``, before allocating; ``MemoryError`` if the builder fails."""
    if not 0 <= lo <= hi:
        raise ValueError(f"row range needs 0 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi > TABLE_ROWS:
        raise ValueError(f"a distance table holds rows nx < {TABLE_ROWS}, got hi={hi}")
    sites = range_sites(lo, hi)
    d2, step = np.empty(sites, dtype=np.int32), np.empty(sites, dtype=np.uint16)
    count = fill(lo, hi, d2, step)
    if count < 0:
        raise MemoryError(f"no memory for the distance table of rows {lo}..{hi - 1}")
    d2.resize(count, refcheck=False)  # shrinks in place: no copy to page in
    d2.flags.writeable = step.flags.writeable = False  # cached tables are shared
    return d2, step


def table_ranks(step, lo: int, hi: int, rows: int):
    """Yields (b, e, ranks) for each block b <= nx < e of ``rows`` rows, in
    order, of the distance table of rows lo <= nx < hi with the rank steps
    ``step``: ranks (int64) the index into its d2 of each of their sites,
    the running sum of the steps from the row before's first (0 at row lo)."""
    head = 0
    for b in range(lo, hi, rows):
        e = min(b + rows, hi)
        mask = np.arange(e) <= np.arange(b, e)[:, None]
        grid = np.zeros(mask.shape, dtype=np.int64)
        grid[mask] = step[range_sites(lo, b):range_sites(lo, e)]
        grid[:, 0] = head + np.cumsum(grid[:, 0])
        head = grid[-1, 0]
        yield b, e, np.cumsum(grid, axis=1)[mask]


_tables: dict = {}  # (lo, hi) -> (d2, step), least recently used first
# The empty table (read-only, as frombuffer of bytes), with which a caller streams
_NO_TABLE = tuple(np.frombuffer(b"", dtype=dtype) for dtype in (np.int32, np.uint16))
_tables_lock = threading.Lock()


def distance_table(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(d2, step): the distinct d2 = nx^2 + j^2 over the octant sites
    0 <= j <= nx of the rows lo <= nx < hi in ascending order (int32), and
    for each of those sites in ``np.tril_indices`` order its rank step
    (uint16): its rank less that of the site before it in its row, or at
    j = 0 less that of the row before's first site (:func:`table_ranks`
    decodes them). ``hi <= TABLE_ROWS``. A range of more than
    ``TABLE_SITE_CAP`` sites has the empty table, and its caller streams;
    others are kept, least recently used dropped first, while all kept
    tables hold at most that many sites together."""
    if range_sites(lo, hi) > TABLE_SITE_CAP:
        return _NO_TABLE
    with _tables_lock:
        table = _tables.pop((lo, hi), None) or build_table(_impl.distance_table, lo, hi)
        _tables[(lo, hi)] = table
        while sum(step.size for _, step in _tables.values()) > TABLE_SITE_CAP:
            del _tables[next(iter(_tables))]
    return table


def res_rows(zx: bool, a2: float, z2, lo: int, hi: int) -> np.ndarray:
    """The octant rows lo <= nx < hi of the zz (zx false) or zx (zx true)
    resonant sum at the height z2, a float or an array of them, as an array
    of shape z2.shape + (hi - lo,), from one backend call; raises
    ``ValueError`` unless 0 <= lo <= hi. The call takes the range's
    :func:`distance_table`, which is empty past ``TABLE_SITE_CAP`` sites, or
    the empty one, with which its rows stream, for a range of fewer sites
    than the compiled builder's bitmap has 64-bit words: that bitmap spans
    lo^2..2(hi-1)^2, so a thin range far out would page in O(hi^2) scratch."""
    if not 0 <= lo <= hi:
        raise ValueError(f"row range needs 0 <= lo <= hi, got lo={lo}, hi={hi}")
    z2 = np.asarray(z2, dtype=np.float64)
    out = np.empty(z2.shape + (hi - lo,))
    heights = np.ascontiguousarray(z2.reshape(-1))
    thin = (2 * (hi - 1) ** 2 - lo * lo) // 64 + 1 > range_sites(lo, hi)
    d2, step = _NO_TABLE if thin else distance_table(lo, hi)
    _impl.res_rows(zx, a2, heights, heights.size, d2, d2.size, step, lo, hi, np.empty(d2.size),
                   out)
    return out


# The off-resonant site kernel (offres_sites): Phi_k(y) takes the closed
# form below PHI_SWITCH and Gauss-Laguerre quadrature in tau = 2yt with the
# 56 nodes t, weights w and powers (t/2)^k of _LAGUERRE_TABLE at and above it
# (one read-only table, which a backend call takes whole); one backend
# call takes at most SITE_CHUNK sites. Sites with both y in the
# closed form and r^2 (1 + mu) below RECAST take the moments without the
# polynomial parts (_numpy_backend.moments): there the rounding those parts
# leave, ~eps/(r^2 |1 - mu^2|) relative, would exceed the 2e-14/|1 - mu|
# that the partial fractions cost elsewhere.
# The nodes and weights are scipy.special.roots_laguerre(56)'s bits as exact
# literals, so no run loads scipy.linalg; test_kernels.py pins them to SciPy.
PHI_SWITCH = 2.0
RECAST = 2.0 ** -52 / 2e-14
_LAGUERRE_NODES = np.array((
    0.02558995024699013, 0.13485365676188618, 0.331516219204913, 0.6157738010977049,
    0.9878529099198406, 1.4480455819475517, 1.9967138611873816, 2.6342919819784982,
    3.3612884504001763, 4.178288379389873, 5.085956176857315, 6.085038637781431,
    7.176368482959885, 8.360868389121553, 9.639555560887683, 11.013546902925992,
    12.484064860250953, 14.052444006085297, 15.720138470312696, 17.48873031775833,
    19.359939004906686, 21.335632066939603, 23.417837215087584, 25.608756058430515,
    27.91077970599693, 30.32650655628362, 32.858762644742264, 35.510624998763596,
    38.28544854874538, 41.18689726899075, 44.21898038158905, 47.3860946611795,
    50.693074143881304, 54.14524889101371, 57.74851491762464, 61.50941801036679,
    65.43525499144076, 69.53419712741778, 73.81544197222009, 78.28940218416267,
    82.96794309850267, 87.86468559796211, 92.99539797070624, 98.37851143996076,
    104.03581143805874, 109.99338508049419, 116.28295333877813, 122.9438012509464,
    130.02567701374784, 137.5933413188264, 145.73410731496938, 154.57124645977552,
    164.29017239726784, 175.19687082004242, 187.8782955838899, 203.85006192921233))
_LAGUERRE_WEIGHTS = np.array((
    0.06401526736888252, 0.13363444607731612, 0.17258701783752248, 0.17726077695653733,
    0.15493848404101968, 0.11854030343956513, 0.08052405283320553, 0.048961064527939566,
    0.02677742018932556, 0.013213220385879467, 0.005893878901757031, 0.0023792634228538764,
    0.0008697429206121111, 0.00028795574288019963, 8.633463676210527e-05, 2.3430940196333695e-05,
    5.752533623739485e-06, 1.2765024998190707e-06, 2.557528543266465e-07, 4.620801031393886e-08,
    7.517842406670475e-09, 1.099634953532233e-09, 1.4434452913113285e-10, 1.6969894883162103e-11,
    1.782888822626294e-12, 1.6698502609791837e-13, 1.3905159272674434e-14, 1.0264617076391983e-15,
    6.695399916243771e-17, 3.8453753459711065e-18, 1.937040730211094e-19, 8.52150281455112e-21,
    3.25851767693856e-22, 1.077417576671361e-23, 3.0626456251831644e-25, 7.436459304313969e-27,
    1.5313583865551348e-28, 2.6529979290842895e-30, 3.831897289808056e-32, 4.567240818289392e-34,
    4.439978901124426e-36, 3.473500602432695e-38, 2.1531180501516303e-40, 1.0384835351407867e-42,
    3.814601619150807e-45, 1.0400882255792576e-47, 2.040416134840701e-50, 2.7710014115210064e-53,
    2.4810010269263656e-56, 1.3744692759252969e-59, 4.32592288642387e-63, 6.858480471583479e-67,
    4.573744974389832e-71, 9.540270902217006e-76, 3.54051920172022e-81, 5.555999192941929e-88))
_LAGUERRE_TABLE = np.concatenate((_LAGUERRE_NODES, _LAGUERRE_WEIGHTS,
                                  ((0.5 * _LAGUERRE_NODES)[:, None] ** np.arange(5)).ravel()))
_LAGUERRE_TABLE.flags.writeable = False
SITE_CHUNK = 1024


def sici(x) -> tuple[np.ndarray, np.ndarray]:
    """(Si(x), Ci(x)) of the values x as two new float64 arrays of x's
    shape, the bits of ``scipy.special.sici`` on either backend: Ci takes
    the real part for x < 0, Si(0) = 0, Ci(0) = -inf, Si(+-inf) = +-pi/2,
    Ci(inf) = 0 and Ci(-inf) = NaN."""
    x = np.asarray(x, dtype=np.float64)
    flat = np.ascontiguousarray(x.reshape(-1))
    si, ci = np.empty(x.shape), np.empty(x.shape)
    _impl.sici(flat, flat.size, si.reshape(-1), ci.reshape(-1))
    return si, ci


def _offres_chunks(size: int, mu: float, fill) -> np.ndarray:
    """The off-resonant site values of ``size`` sites as a new array, one
    backend ``offres_sites`` call per chunk of at most ``SITE_CHUNK`` sites.

    The sites k0 <= k < k0 + n of a chunk fill one (3, 2n) buffer:
      row 0: y = (r_k mu, r_k), the Phi_k arguments of M_k(r_k, mu);
      row 1: (dot_k, pp_k), the dipole projections;
      row 2: (r_k^6, the site values).
    ``fill(k0, n, buf)`` writes rows 0 and 1. NumPy then takes r^6, whose
    bits the C library's pow does not reproduce; the backend writes the site
    values.
    """
    out = np.empty(size)
    for k0 in range(0, size, SITE_CHUNK):
        n = min(size - k0, SITE_CHUNK)
        buf = np.empty((3, 2 * n))
        fill(k0, n, buf)
        np.power(buf[0, n:], 6, out=buf[2, :n])
        _impl.offres_sites(n, mu, PHI_SWITCH, RECAST, _LAGUERRE_TABLE, _LAGUERRE_NODES.size, buf)
        out[k0:k0 + n] = buf[2, n:]
    return out


def offres_fill(buf, n: int, r, dot, pp, mu: float) -> None:
    """Rows 0 and 1 of the (3, 2n) buffer of :func:`_offres_chunks` for the
    n sites of radii r and projections dot and pp."""
    np.multiply(r, mu, out=buf[0, :n])
    buf[0, n:] = r
    buf[1, :n] = dot
    buf[1, n:] = pp


def offres_sites(r, dot, pp, mu: float) -> np.ndarray:
    """int_0^inf dxi xi^4 gpair(i xi)^2 / ((xi^2+1)(xi^2+mu^2)) for each site,
    as a flat array.

    r is the site distance, dot = e0.en and pp = (e0.n)(n.en) the dipole
    projections (broadcast against r). No prefactor is applied.
    """
    r, dot, pp = (np.asarray(v, dtype=np.float64) for v in (r, dot, pp))
    # a scalar projection stays one value; any other shape broadcasts
    if not {dot.shape, pp.shape} <= {(), r.shape}:
        r, dot, pp = np.broadcast_arrays(r, dot, pp)
    r, dot, pp = r.ravel(), dot.ravel(), pp.ravel()

    def fill(k0, n, buf):
        part = slice(k0, k0 + n)
        offres_fill(buf, n, r[part], dot if dot.size == 1 else dot[part],
                    pp if pp.size == 1 else pp[part], mu)

    return _offres_chunks(r.size, mu, fill)


# ---------------------------------------------------------------------------
# real-axis site sets: the direct sums of generic dipole pairs, the vertex
# and the off-resonant real path

def _site_set(pair, u, v, heights, rays: bool):
    """The dipole pair, float64 coordinate tables and heights of a site set,
    contiguous, and its sites per row: v holds (cos, sin) pairs with
    ``rays``. Raises ``ValueError`` unless pair is a float64 (7,) array."""
    if np.shape(pair) != (7,) or pair.dtype != np.float64:
        raise ValueError(f"need the dipole pair as float64 (7,), got {np.shape(pair)}")
    u, v, z = (np.ascontiguousarray(a, dtype=np.float64).reshape(-1) for a in (u, v, heights))
    return np.ascontiguousarray(pair), u, v, z, v.size // 2 if rays else v.size


def vanishing_origin(pair, u, v, values) -> None:
    """At a grid's origin (u_i = v_j = 0), for a pair with e0.en = e0_z en_z =
    0, each value of ``values`` (..., u, v) that is not finite (0/0) becomes
    0.0, and finite values keep their bits; ``_rows.c`` states it in C."""
    if pair[6] == 0.0 and pair[2] * pair[5] == 0.0:
        i, j = np.flatnonzero(u == 0.0)[:, None], np.flatnonzero(v == 0.0)
        origin = values[..., i, j]
        values[..., i, j] = np.where(np.isfinite(origin), origin, 0.0)


def res_points(pair: np.ndarray, u, v, heights, sums: bool) -> np.ndarray:
    """The resonant site term ``greens.resonant_sites`` of the dipole pair
    (``bundle.pair``) over a grid site set: at each height, the sites
    (x, y) = (u_i, v_j). Returns the values, (heights, u, v), or with
    ``sums`` each row's sum as ``np.sum(values, axis=1)`` takes it,
    (heights, u), with :func:`vanishing_origin` before a row is summed.

    The compiled pass takes every site in one call, without the interpreter
    lock, and sums each row by NumPy's pairwise summation; the NumPy backend
    takes blocks of rows. Raises ``MemoryError`` when the compiled pass
    cannot allocate its row."""
    pair, u, v, z, nv = _site_set(pair, u, v, heights, False)
    out = np.empty((z.size, u.size) if sums else (z.size, u.size, nv))
    if out.size and _impl.res_points(pair, u, u.size, v, nv, z, z.size, sums, out) < 0:
        raise MemoryError("no memory for a resonant row of the site set")
    return out


def offres_points(pair: np.ndarray, u, v, heights, mu: float, rays: bool = False) -> np.ndarray:
    """The off-resonant site integrals of :func:`offres_sites` over a site
    set, its sites numbered k = (h, i, j) in that order, as a new array: at
    each height z, the sites (x, y) = (u_i, v_j) of :func:`res_points`, or
    with ``rays`` the sites R (v_2j, v_2j+1) with R = z u_i, the unit
    directions v along the radii z u. The backend's ``offres_points`` fills
    the buffers of :func:`_offres_chunks`; a grid's values then take
    :func:`vanishing_origin`."""
    pair, u, v, z, nv = _site_set(pair, u, v, heights, rays)
    values = _offres_chunks(z.size * u.size * nv, mu, lambda k0, n, buf: _impl.offres_points(
        pair, u, u.size, v, nv, rays, z, k0, n, mu, buf))
    if not rays:
        vanishing_origin(pair, u, v, values.reshape(z.size, u.size, nv))
    return values


def exact_sum(parts) -> float:
    """math.fsum of every value of the float64 arrays ``parts``, in order:
    the correctly rounded sum, inf or NaN when an inf or NaN is summed, the
    same on either backend. ``parts`` is any iterable, taken one array at a
    time. NaN where math.fsum raises (intermediate overflow, or -inf + inf):
    like every kernel here it returns a sum that is not finite, never raises."""
    try:
        return math.fsum(itertools.chain.from_iterable(memoryview(np.ravel(p)) for p in parts))
    except (OverflowError, ValueError):
        return math.nan


# ---------------------------------------------------------------------------
# the ray integrals of the bulk/edge decomposition (euler_maclaurin)

# The 25-point Gauss-Legendre rule on [-1, 1] and its nested weights, the
# interpolatory rule on every other node (13 nodes, exact to degree 12):
# numpy.polynomial.legendre.leggauss(25)'s nodes and weights, and the
# np.linalg.solve of legvander(x[::2], 12).T w = (2, 0, ..., 0) for the nested
# ones, as exact literals, so that no run loads numpy.polynomial;
# test_kernels.py pins them to NumPy.
_LEGENDRE_NODES = (
    -0.9955569697904981, -0.9766639214595175, -0.9429745712289743, -0.8949919978782754,
    -0.833442628760834, -0.7592592630373576, -0.6735663684734684, -0.577662930241223,
    -0.473002731445715, -0.36117230580938786, -0.24386688372098841, -0.1228646926107104, 0.0,
    0.1228646926107104, 0.24386688372098841, 0.36117230580938786, 0.473002731445715,
    0.577662930241223, 0.6735663684734684, 0.7592592630373576, 0.833442628760834,
    0.8949919978782754, 0.9429745712289743, 0.9766639214595175, 0.9955569697904981)
_LEGENDRE_WEIGHTS = (
    0.011393798501025315, 0.026354986615031686, 0.04093915670130627, 0.054904695975835256,
    0.06803833381235715, 0.08014070033500123, 0.09102826198296358, 0.10053594906705085,
    0.10851962447426379, 0.11485825914571186, 0.11945576353578503, 0.1222424429903102,
    0.1231760537267156, 0.1222424429903102, 0.11945576353578503, 0.11485825914571186,
    0.10851962447426379, 0.10053594906705085, 0.09102826198296358, 0.08014070033500123,
    0.06803833381235715, 0.054904695975835256, 0.04093915670130627, 0.026354986615031686,
    0.011393798501025315)
_LEGENDRE_NESTED = (
    0.02003669196499526, 0.08316974037850174, 0.1352883150151743, 0.18263110461517287,
    0.2165685920391775, 0.23933267396859687, 0.24594576403676285, 0.2393326739685968,
    0.2165685920391774, 0.18263110461517287, 0.1352883150151743, 0.08316974037850201,
    0.02003669196499519)


NODES = 25
RULE_HEAD = 3 * NODES + 3  # the values of a rotated rule table before its powers


def rotated_rule_table(x, w, w_low) -> np.ndarray:
    """The read-only table of the rotated rule that the backends' ray_rotated
    read (the NumPy one through its ``rotated_rules``), built once as
    ``ROTATED_RULE`` from ``LEGENDRE``: the NODES Gauss-Legendre nodes x,
    weights w and nested weights w_low on [-1, 1], e^{i pi/4} (re, im),
    log(1.4), and the powers 1.4^k below the largest double, k < 2110. A
    height whose panel count needs more (z below ~1.7e-306, where t_max/h
    overflows) has no rule. The powers are NumPy's: 1.4 ** np.arange(n) has
    the same entries for every n, and 5 of its first 80 differ from the C
    library's pow."""
    turn = np.exp(0.25j * math.pi)
    table = np.concatenate((x, w, w_low, [turn.real, turn.imag, math.log(1.4)],
                            1.4 ** np.arange(2110)))
    table.flags.writeable = False
    return table


def _rules():
    """The rules of the ray integrals, each of composite NODES-point
    Gauss-Legendre panels with nested weights (zero off the nested nodes),
    whose difference from the full rule is a panel's error estimate. All
    are read-only.

    Returns LEGENDRE, the nodes, weights and nested weights on [-1, 1]; the
    real path's table (3, rows, NODES), the nodes, weights and nested
    weights of its panels in s = R/z: [0, 1/2], [1/2, 1], [1, 2], ..., [8,
    16], then [16, inf) mapped by s = 16/t, where the off-resonant
    integrands have decayed like s^-5 or faster and are smooth in t; and the
    rotated path's table of :func:`rotated_rule_table`, from which each call
    builds each height's panels."""
    x, w = np.array(_LEGENDRE_NODES), np.array(_LEGENDRE_WEIGHTS)
    w_low = np.zeros(x.size)
    w_low[::2] = _LEGENDRE_NESTED
    lo = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 0.0])[:, None]
    hi = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 1.0])[:, None]
    half = 0.5 * (hi - lo)
    s, sw, sw_low = lo + half * (1.0 + x), half * w, half * w_low
    jac = 16.0 / (s[-1] * s[-1])  # the last row is the tail's t in [0, 1]
    s[-1], sw[-1], sw_low[-1] = 16.0 / s[-1], jac * sw[-1], jac * sw_low[-1]
    real = np.stack((s, sw, sw_low))
    for rule in (x, w, w_low, real):
        rule.flags.writeable = False
    return (x, w, w_low), real, rotated_rule_table(x, w, w_low)


# REAL_PATH: the real path's nodes, weights and nested weights (rows,
# NODES), views of one read-only table, which panel_sums passes whole
LEGENDRE, _REAL_PATH_TABLE, ROTATED_RULE = _rules()
REAL_PATH = tuple(_REAL_PATH_TABLE)


def ray_rotated(pair: np.ndarray, axes: int,
                heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The resonant edge's axis integrals of ``euler_maclaurin._ray_integral``
    on the rotated path at each of the heights, in one call: returns (sums,
    counts), sums (heights, axes, 3) holding each axis's value, error
    estimate and scale, and counts each height's panel count (-1, with NaN
    sums, where the height has no rule). ``axes`` is 1, the positive x axis,
    or 2, the positive x and y axes; ``pair`` holds e0, en and e0.en; the
    arrays are float64. The rule is ``ROTATED_RULE``. Raises ``ValueError``
    for another ``axes`` or other shapes, and ``MemoryError`` when the
    compiled call cannot allocate its work buffer."""
    if type(axes) is not int or axes not in (1, 2):
        raise ValueError(f"need 1 or 2 axes, got {axes!r}")
    if np.shape(pair) != (7,) or np.ndim(heights) != 1:
        raise ValueError(f"need pair (7,) and 1-d heights, got {np.shape(pair)} and "
                         f"{np.shape(heights)}")
    pair, heights = (np.ascontiguousarray(a, dtype=np.float64) for a in (pair, heights))
    nz = heights.size
    counts = np.empty(nz, dtype=np.int64)
    sums = np.empty((nz, axes, 3))
    if nz and _impl.ray_rotated(pair, axes, heights, nz, ROTATED_RULE,
                                ROTATED_RULE.size - RULE_HEAD, counts, sums) < 0:
        raise MemoryError("no memory for the ray integrals' panel sums")
    return sums, counts


def panel_sums(f: np.ndarray, heights: np.ndarray, bulk: bool) -> tuple[np.ndarray, np.ndarray]:
    """The real path's ray integrals of ``euler_maclaurin._ray_integral`` at
    each of the heights, from f (heights x rows, NODES, directions), the
    site values at the nodes z s of ``REAL_PATH`` for each direction:
    returns (sums, counts), sums (heights, outputs, 3) holding each output's
    value sum J g w, error estimate sum |full - nested| and scale sum
    |full|, and counts each height's panel count, the rows. The bulk
    (``bulk`` true) has one output, g the mean over all directions, and
    J = z^2 s; the edge one output per direction, g its site value, and
    J = z; as in NumPy's order of operations (the bulk's np.mean sum and
    division, then the product, then the pairwise panel sums). All arrays
    are float64. Raises ``ValueError`` for other shapes."""
    _, rows, nodes = _REAL_PATH_TABLE.shape
    nz = np.size(heights)
    if np.ndim(heights) != 1 or np.ndim(f) != 3 or np.shape(f)[:2] != (nz * rows, nodes):
        raise ValueError(f"need f of {nz} x {rows} rows x {nodes} nodes and directions and "
                         f"1-d heights, got {np.shape(f)} and {np.shape(heights)}")
    nd = np.shape(f)[2]
    out = np.empty((nz, 1 if bulk else nd, 3))
    if out.size:
        f, heights = (np.ascontiguousarray(a, dtype=np.float64) for a in (f, heights))
        _impl.panel_sums(f, nd, bulk, heights, nz, _REAL_PATH_TABLE, rows, out)
    return out, np.full(nz, rows)


res_row_zz = res_row_zx = None  # nothing calls them: only perfbench/tracer.py's getattr reads them


# ---------------------------------------------------------------------------
# the backend, selected after every name the NumPy fallback imports from here

def _fallback():
    """The NumPy fallback, imported where it becomes the backend."""
    from . import _numpy_backend
    return _numpy_backend


_impl = _fallback() if os.environ.get("CPLATTICE_FORCE_NUMPY_KERNELS") else (
    load_library() or _fallback())


@contextlib.contextmanager
def backend(name: str):
    """The block runs on the backend ``name``, ``"c"`` or ``"numpy"``, with an
    empty distance-table cache; both are restored on exit. Yields the
    backend. Raises ``RuntimeError`` when ``"c"`` cannot be built or loaded
    and ``ValueError`` for another name. Not for use while other threads call
    the kernels."""
    global _impl, _tables
    if name not in ("c", "numpy"):
        raise ValueError(f"backend must be 'c' or 'numpy', got {name!r}")
    impl = _fallback() if name == "numpy" else (
        _impl if isinstance(_impl, ctypes.CDLL) else load_library())
    if impl is None:
        raise RuntimeError(f"the compiled row library {_SOURCE.name} cannot be built or loaded")
    saved = _impl, _tables
    _impl, _tables = impl, {}
    try:
        yield impl
    finally:
        _impl, _tables = saved


def backend_name() -> str:
    return "c" if isinstance(_impl, ctypes.CDLL) else "numpy"
