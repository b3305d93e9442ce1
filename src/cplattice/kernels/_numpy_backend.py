"""NumPy fallback for the hot lattice-sum row kernels.

Same contract as the compiled library: one call evaluates one octant row
n_x = const, n_y = 0..n_x, with the dihedral-orbit weights folded in
(8 interior / 4 axis / 4 diagonal / 1 origin), and returns the row total.
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


def _blocks(nx: int):
    """The site indices n_y = 0..nx as float arrays of at most BLOCK sites."""
    for j0 in range(0, nx + 1, BLOCK):
        yield np.arange(j0, min(j0 + BLOCK, nx + 1), dtype=np.float64)


def res_row_zz(a2: float, z2: float, nx: int) -> float:
    """Octant row of Re[e^{2ir} Bzz^2]/r^6 for z-oriented dipole pairs."""
    if nx == 0:
        return float(resonant_sites(math.sqrt(z2), 1.0, 1.0))
    total = 0.0
    for j in _blocks(nx):
        r2 = (nx * nx + j * j) * a2 + z2
        t = resonant_sites(np.sqrt(r2), 1.0, z2 / r2)
        w = np.where((j == 0) | (j == nx), 4.0, 8.0)
        total += float(w @ t)
    return total


def res_row_zx(a2: float, z2: float, nx: int) -> float:
    """Octant row for z-probe / x-array dipoles.

    The site term carries x^2 = (n_x a)^2, which breaks the bare dihedral
    degeneracy; summing x^2 over each orbit restores a radial kernel (the
    site term at unit x, pp = z/r^2) with weights 4(n_x^2+n_y^2) interior,
    2n_x^2 axis, 4n_x^2 diagonal (times a^2).
    """
    if nx == 0:
        return 0.0
    total = 0.0
    for j in _blocks(nx):
        s = nx * nx + j * j
        r2 = s * a2 + z2
        g = resonant_sites(np.sqrt(r2), 0.0, math.sqrt(z2) / r2)
        w = (4.0 * a2) * s
        w[j == 0] = 2.0 * nx * nx * a2
        w[j == nx] = 4.0 * nx * nx * a2
        total += float(w @ g)
    return total
