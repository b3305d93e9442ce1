"""Free-space dyadic Green tensor in the dimensionless convention.

The tensor is normalized so that for a displacement with k0*|r| = r_tilde and
frequency k_tilde = omega/omega0 the entries are

    g_ab = e^(i k r)/r * [ (1 + (i k r - 1)/(k r)^2) delta_ab
                           + (-1 + (3 - 3 i k r)/(k r)^2) n_a n_b ]

with k r = k_tilde * r_tilde and n the unit displacement direction. The
physical tensor is (k0/4pi) times this; the factor is absorbed into the
shift prefactors so no 4*pi ever enters a lattice loop.

The same expression serves the Wick-rotated case: pass k_tilde = i*xi_tilde
and every entry comes out real.

:func:`site_projections` and :func:`resonant_sites` are also the NumPy
statement of the compiled site-set passes (``kernels.res_points`` and
``offres_points``), which repeat their arithmetic in C, operation for
operation, so the two give the same bits: the square root and the other
IEEE operations round the same in both, and sin and cos of 2r are the C
library's in C and np.sin and np.cos, which call them on float64, here.
"""
from __future__ import annotations

import numpy as np


class ZeroSeparation(ValueError):
    """Green tensor requested at zero (or negative) separation."""


def scalar_coefficients(r_tilde, freq=1.0):
    """Transverse/longitudinal scalar parts (t1, t2) of the tensor.

    g_ab = t1 * delta_ab + t2 * n_a n_b.  Vectorized over r_tilde.
    """
    r = np.asarray(r_tilde)
    kr = freq * r
    ikr = 1j * kr
    kr2 = kr * kr
    phase = np.exp(ikr) / r
    t1 = phase * (1.0 + (ikr - 1.0) / kr2)
    t2 = phase * (-1.0 + (3.0 - 3.0 * ikr) / kr2)
    return t1, t2


def green_dyadic(direction, r_tilde: float, freq=1.0) -> np.ndarray:
    """3x3 dimensionless Green tensor for a unit direction and r_tilde > 0.

    freq is the complex frequency k_tilde (1.0 on resonance, i*xi_tilde on
    the imaginary axis). Raises ZeroSeparation for r_tilde <= 0.
    """
    if not r_tilde > 0.0:
        raise ZeroSeparation(f"r_tilde must be > 0, got {r_tilde}")
    n = np.asarray(direction, dtype=float)
    t1, t2 = scalar_coefficients(float(r_tilde), freq)
    return t1 * np.eye(3) + t2 * np.outer(n, n)


def pair_coupling(test_dipole, array_dipole, displacement, freq=1.0) -> complex:
    """Orientation-projected coupling e0 . g(v) . en for one atom pair.

    displacement is the dimensionless vector between the two atoms (sign
    irrelevant: the tensor depends on it only through n_a n_b). The physical
    coupling g_0n equals this times d^2 k0 / (4 pi).
    """
    v = np.asarray(displacement, dtype=float)
    r = float(np.linalg.norm(v))
    if not r > 0.0:
        raise ZeroSeparation("displacement must be nonzero")
    n = v / r
    e0 = np.asarray(test_dipole, dtype=float)
    en = np.asarray(array_dipole, dtype=float)
    t1, t2 = scalar_coefficients(r, freq)
    return complex(t1 * (e0 @ en) + t2 * (e0 @ n) * (n @ en))


def site_projections(e0, en, x, y, z):
    """r, e0.en and (e0.n)(n.en) for the displacements (x, y, -z).

    An edit here must be made in ``_rows.c`` (project) too."""
    r = np.sqrt(x * x + y * y + z * z)
    p0 = (e0[0] * x + e0[1] * y - e0[2] * z) / r
    pn = (en[0] * x + en[1] * y - en[2] * z) / r
    return r, float(np.dot(e0, en)), p0 * pn


def resonant_sites(r, dot, pp):
    """Re[(e0 . g(r, 1) . en)^2] for each site, vectorized.

    r is the site distance, dot = e0.en and pp = (e0.n)(n.en) the dipole
    projections (broadcast against r). No prefactor is applied. With
    alpha = dot - pp and beta = dot - 3 pp,

        e0.g(r, 1).en = e^(ir)/r^3 (B_re + i B_im),  B_re = alpha r^2 - beta,  B_im = beta r.

    An edit here must be made in ``_rows.c`` (res_site) too.
    """
    r2 = r * r
    beta = dot - 3.0 * pp
    bre = (dot - pp) * r2
    bre -= beta
    bim = beta * r
    phase = 2.0 * r
    # [cos 2r (B_re^2 - B_im^2) - sin 2r 2 B_re B_im] / r^6, updated in place:
    # octant rows run to 1e5 sites, where every fresh temporary spills cache
    cross = bre * bim
    cross *= np.sin(phase)
    bre *= bre
    bim *= bim
    bre -= bim
    bre *= np.cos(phase)
    bre -= cross
    bre -= cross
    r2 *= r2 * r2
    bre /= r2
    return bre


def resonant_sites_complex(r, dot, pp):
    """(e0 . g(r, 1) . en)^2 = e^(2ir) (B_re + i B_im)^2 / r^6, for complex r.

    The analytic continuation of :func:`resonant_sites`, which is its real
    part on the real axis; the decomposition integrates it along paths
    turned into the upper half-plane, where e^(2ir) decays.
    """
    beta = dot - 3.0 * pp
    b = (dot - pp) * r * r - beta + 1j * beta * r
    return np.exp(2j * r) * b * b / r ** 6
