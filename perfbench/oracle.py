"""Independent reference values for spot-checking the program's outputs.

Written from the model definition alone (the dimensionless Green tensor and
the shift prefactors in the ``cplattice`` module docstrings), sharing no code
with the package:

* direct sums run over the full (2M+1)^2 grid, or over one quadrant with
  weights 1/2/4 when both dipoles lie along x or z (the site term is then even
  in x and in y), instead of the package's octant folding;
* off-resonant site integrals use a vectorized composite Gauss-Legendre rule
  in u = xi*r on geometric panels, instead of the package's adaptive QUADPACK
  calls and closed radial kernels.
"""
from __future__ import annotations

import math

import numpy as np

# u = xi*r panels: [0, 1e-7] then doubling up to 80 (e^-160 is negligible).
_EDGES = np.concatenate(([0.0], 1e-7 * 2.0 ** np.arange(0, 31)))
_EDGES = np.concatenate((_EDGES[_EDGES < 80.0], [80.0]))
_X, _W = np.polynomial.legendre.leggauss(32)
_U = (0.5 * (_EDGES[1:] + _EDGES[:-1])[:, None]
      + 0.5 * (_EDGES[1:] - _EDGES[:-1])[:, None] * _X).ravel()
_UW = (0.5 * (_EDGES[1:] - _EDGES[:-1])[:, None] * _W).ravel()


def _prefactors(mu: float, rho: float) -> tuple[float, float]:
    return 1.125 * rho * mu / ((1.0 - mu) * (1.0 + mu)), 9.0 * rho * mu / (8.0 * math.pi)


def _projections(e0, en, x, y, z):
    """r, e0.en, and (e0.n)(n.en) for displacements (x, y, -z)."""
    e0 = np.asarray(e0, dtype=float)
    en = np.asarray(en, dtype=float)
    r = np.sqrt(x * x + y * y + z * z)
    p0 = (e0[0] * x + e0[1] * y - e0[2] * z) / r
    pn = (en[0] * x + en[1] * y - en[2] * z) / r
    return r, float(e0 @ en), p0 * pn


def _resonant_sites(e0, en, x, y, z) -> np.ndarray:
    """Re[g(k=1)^2] with g = t1 e0.en + t2 (e0.n)(n.en) = e^{ir}/r (C + iD)."""
    r, dot, pp = _projections(e0, en, x, y, z)
    r2 = r * r
    c = (dot * (r2 - 1.0) + pp * (3.0 - r2)) / r2
    d = (dot - 3.0 * pp) / r
    return (np.cos(2.0 * r) * (c * c - d * d) - np.sin(2.0 * r) * (2.0 * c * d)) / r2


def _offres_sites(e0, en, x, y, z, mu) -> np.ndarray:
    """int_0^inf dxi xi^4 g(i xi)^2 / ((xi^2+1)(xi^2+mu^2)) for each site.

    At k = i*xi, xi^2 g = e^{-u}/r^3 [(u^2+u+1) e0.en - (u^2+3u+3)(e0.n)(n.en)].
    """
    r, dot, pp = _projections(e0, en, x, y, z)
    r = np.atleast_1d(r)[:, None]
    pp = np.atleast_1d(pp)[:, None]
    u = _U[None, :]
    xi = u / r
    h = (u * u + u + 1.0) * dot - (u * u + 3.0 * u + 3.0) * pp
    f = np.exp(-2.0 * u) * h * h / (r ** 6 * (xi * xi + 1.0) * (xi * xi + mu * mu))
    return (f @ _UW) / r[:, 0]


def _grid(half_extent: int, a_tilde: float, fold: bool, chunk: int):
    """Site coordinates and weights, a block of rows at a time."""
    idx = np.arange(0 if fold else -half_extent, half_extent + 1)
    w = np.where(idx == 0, 1.0, 2.0) if fold else np.ones(idx.size)
    n = idx * a_tilde
    for i in range(0, n.size, chunk):
        x, y = np.meshgrid(n[i:i + chunk], n, indexing="ij")
        yield x.ravel(), y.ravel(), np.outer(w[i:i + chunk], w).ravel()


def _folds(e0, en) -> bool:
    return all(v[1] == 0.0 and (v[0] == 0.0 or v[2] == 0.0) for v in (e0, en))


def resonant_direct(e0, en, mu, rho, a_tilde, half_extent, z_tilde) -> float:
    pref, _ = _prefactors(mu, rho)
    parts = [float(w @ _resonant_sites(e0, en, x, y, z_tilde))
             for x, y, w in _grid(half_extent, a_tilde, _folds(e0, en), 64)]
    return pref * math.fsum(parts)


def offresonant_direct(e0, en, mu, rho, a_tilde, half_extent, z_tilde) -> float:
    _, pref = _prefactors(mu, rho)
    parts = [float(w @ _offres_sites(e0, en, x, y, z_tilde, mu))
             for x, y, w in _grid(half_extent, a_tilde, _folds(e0, en), 4)]
    return pref * math.fsum(parts)


def resonant_vertex(e0, en, mu, rho, z_tilde) -> float:
    pref, _ = _prefactors(mu, rho)
    return pref * float(_resonant_sites(e0, en, np.zeros(1), np.zeros(1), z_tilde)[0])


def offresonant_vertex(e0, en, mu, rho, z_tilde) -> float:
    _, pref = _prefactors(mu, rho)
    return pref * float(_offres_sites(e0, en, np.zeros(1), np.zeros(1), z_tilde, mu)[0])


ORIENTATIONS = {"zz": ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
                "zx": ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))}
