"""NumPy fallback for the hot lattice-sum row kernels.

Same contract as the compiled module: one call evaluates one octant row
n_x = const, n_y = 0..n_x, with the dihedral-orbit weights folded in
(8 interior / 4 axis / 4 diagonal / 1 origin), and returns the row total.
The site terms come from :func:`cplattice.greens.resonant_sites`.
Rows are summed with an uncompensated NumPy dot product (w @ t), not
with the compiled kernel's Neumaier compensation; the caller performs the
exact cross-row reduction.
"""
from __future__ import annotations

import math

import numpy as np

from ..greens import resonant_sites

BACKEND_NAME = "numpy"


def res_row_zz(a2: float, z2: float, nx: int) -> float:
    """Octant row of Re[e^{2ir} Bzz^2]/r^6 for z-oriented dipole pairs."""
    j = np.arange(nx + 1, dtype=np.float64)
    r2 = (nx * nx + j * j) * a2 + z2
    t = resonant_sites(np.sqrt(r2), 1.0, z2 / r2)
    if nx == 0:
        return float(t[0])
    w = np.full(nx + 1, 8.0)
    w[0] = 4.0
    w[-1] = 4.0
    return float(w @ t)


def res_row_zx(a2: float, z2: float, nx: int) -> float:
    """Octant row for z-probe / x-array dipoles.

    The site term carries x^2 = (n_x a)^2, which breaks the bare dihedral
    degeneracy; summing x^2 over each orbit restores a radial kernel (the
    site term at unit x, pp = z/r^2) with weights 4(n_x^2+n_y^2) interior,
    2n_x^2 axis, 4n_x^2 diagonal (times a^2).
    """
    if nx == 0:
        return 0.0
    j = np.arange(nx + 1, dtype=np.float64)
    s = nx * nx + j * j
    r2 = s * a2 + z2
    g = resonant_sites(np.sqrt(r2), 0.0, math.sqrt(z2) / r2)
    w = (4.0 * a2) * s
    w[0] = 2.0 * nx * nx * a2
    w[-1] = 4.0 * nx * nx * a2
    return float(w @ g)
