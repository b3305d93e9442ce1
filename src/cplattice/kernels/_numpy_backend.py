"""NumPy fallback for the hot lattice-sum row kernels.

Same contract as the compiled module: one call evaluates one octant row
n_x = const, n_y = 0..n_x, with the dihedral-orbit weights folded in
(8 interior / 4 axis / 4 diagonal / 1 origin), and returns the row total.
Rows are summed with an uncompensated NumPy dot product (w @ t), not
with the compiled kernel's Neumaier compensation; the caller performs the
exact cross-row reduction.
"""
from __future__ import annotations

import numpy as np

BACKEND_NAME = "numpy"


def res_row_zz(a2: float, z2: float, nx: int) -> float:
    """Octant row of Re[e^{2ir} Bzz^2]/r^6 for z-oriented dipole pairs."""
    j = np.arange(nx + 1, dtype=np.float64)
    r2 = (nx * nx + j * j) * a2 + z2
    r = np.sqrt(r2)
    c = z2 / r2
    bre = (r2 - 1.0) + (3.0 - r2) * c
    bim = r * (1.0 - 3.0 * c)
    h = np.cos(2.0 * r) * (bre * bre - bim * bim) - np.sin(2.0 * r) * (2.0 * bre * bim)
    t = h / (r2 * r2 * r2)
    if nx == 0:
        return float(t[0])
    w = np.full(nx + 1, 8.0)
    w[0] = 4.0
    w[-1] = 4.0
    return float(w @ t)


def res_row_zx(a2: float, z2: float, nx: int) -> float:
    """Octant row for z-probe / x-array dipoles.

    The site term carries x^2 = (n_x a)^2, which breaks the bare dihedral
    degeneracy; summing x^2 over each orbit restores a radial kernel with
    weights 4(n_x^2+n_y^2) interior, 2n_x^2 axis, 4n_x^2 diagonal (times a^2).
    """
    if nx == 0:
        return 0.0
    j = np.arange(nx + 1, dtype=np.float64)
    r2 = (nx * nx + j * j) * a2 + z2
    r = np.sqrt(r2)
    q = 3.0 - r2
    h = np.cos(2.0 * r) * (q * q - 9.0 * r2) + np.sin(2.0 * r) * (6.0 * r * q)
    g = h * z2 / (r2 * r2 * r2 * r2 * r2)
    w = 4.0 * (nx * nx + j * j) * a2
    w[0] = 2.0 * nx * nx * a2
    w[-1] = 4.0 * nx * nx * a2
    return float(w @ g)
