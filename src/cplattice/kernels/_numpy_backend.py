"""NumPy fallback for the hot lattice-sum row kernels, and the octant fold.

Same contract as the compiled library: ``res_row_*`` evaluates one octant
row n_x = const, n_y = 0..n_x, with the dihedral-orbit weights folded in, and
returns the row total, and ``res_rows_*(a2, z2, lo, hi, out)`` writes the
rows lo <= n_x < hi into ``out`` (``kernels.range_entry`` checks the range
and allocates ``out``). :func:`octant_sites` is the one
statement of those weights; the direct off-resonant sum folds its octant
with it too.
The site terms come from :func:`cplattice.greens.resonant_sites`,
evaluated in blocks of ``BLOCK`` sites: whole-row temporaries of long rows
(50,000 sites) can be mapped from and returned to the OS by the allocator on
every call, which made such rows up to ~10x slower depending on the process's
allocation history; small blocks are cache-resident and reused.
Each block is summed with an uncompensated NumPy dot product (w @ t), not
with the compiled kernel's Neumaier compensation; the caller performs the
exact cross-row reduction.
"""
from __future__ import annotations

import math

import numpy as np

from ..greens import resonant_sites

BLOCK = 4096


def octant_sites(nx, j, a2: float, z2: float, zx: bool):
    """Distances, projections and orbit weights of octant sites (nx, j), 0 <= j <= nx.

    Returns (r, dot, pp, w): the orbit of (nx, j) under the square's
    symmetries contributes w * term(r, dot, pp), for any site term that
    depends on the dipoles through dot = e0.en and pp = (e0.n)(n.en).
    With s = nx^2 + j^2 and r^2 = s a^2 + z^2:

    * zz: dot = 1, pp = z^2/r^2, and w = 8 interior, 4 on the axis and the
      diagonal, 1 at the origin.
    * zx (z probe, x array): the term carries x^2 = (nx a)^2, which breaks
      the bare dihedral degeneracy; summing x^2 over each orbit restores a
      radial kernel (the term at unit x: dot = 0, pp = z/r^2) with weights
      4 s a^2 interior, 2 nx^2 a^2 on the axis and 4 nx^2 a^2 on the diagonal.
    """
    s = nx * nx + j * j
    r2 = s * a2 + z2
    axis, diagonal = j == 0, j == nx
    if zx:
        w = np.where(axis, 2.0 * nx * nx, np.where(diagonal, 4.0 * nx * nx, 4.0 * s)) * a2
        return np.sqrt(r2), 0.0, math.sqrt(z2) / r2, w
    w = np.where(nx == 0, 1.0, np.where(axis | diagonal, 4.0, 8.0))
    return np.sqrt(r2), 1.0, z2 / r2, w


def _row(a2: float, z2: float, nx: int, zx: bool) -> float:
    total = 0.0
    for j0 in range(0, nx + 1, BLOCK):
        j = np.arange(j0, min(j0 + BLOCK, nx + 1), dtype=np.float64)
        r, dot, pp, w = octant_sites(nx, j, a2, z2, zx)
        total += float(w @ resonant_sites(r, dot, pp))
    return total


def res_row_zz(a2: float, z2: float, nx: int) -> float:
    """Octant row of Re[e^{2ir} Bzz^2]/r^6 for z-oriented dipole pairs."""
    return _row(a2, z2, nx, False)


def res_row_zx(a2: float, z2: float, nx: int) -> float:
    """Octant row for z-probe / x-array dipoles (x^2-folded weights)."""
    return _row(a2, z2, nx, True)


def res_rows_zz(a2: float, z2: float, lo: int, hi: int, out: np.ndarray) -> None:
    """out[nx - lo] = res_row_zz(a2, z2, nx) for lo <= nx < hi."""
    for nx in range(lo, hi):
        out[nx - lo] = _row(a2, z2, nx, False)


def res_rows_zx(a2: float, z2: float, lo: int, hi: int, out: np.ndarray) -> None:
    """out[nx - lo] = res_row_zx(a2, z2, nx) for lo <= nx < hi."""
    for nx in range(lo, hi):
        out[nx - lo] = _row(a2, z2, nx, True)
