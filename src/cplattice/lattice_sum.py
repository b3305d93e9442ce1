"""Direct pairwise lattice sums of the resonant and off-resonant shifts.

The resonant shift per site is

    pref_R * Re[ gpair(e0, en, v_n, 1)^2 ],   pref_R = (9/8) rho mu / ((1-mu)(1+mu))

and the off-resonant shift per site is the imaginary-frequency integral

    pref_OR * int_0^inf dxi  xi^4 gpair(e0, en, v_n, i xi)^2
                             / ((xi^2+1)(xi^2+mu^2)),
    pref_OR = 9 rho mu / (8 pi),

both in units of gamma0. For any dipole pair both depend on the orientation
only through the projections dot = e0.en and pp = (e0.n)(n.en), so each has
one vectorized site kernel: :func:`cplattice.greens.resonant_sites` and
:func:`offresonant_sites`. For the two principal orientations (probe z with
array z or array x) the projections are radial, and the sum runs over one
octant with dihedral orbit weights (8 interior / 4 axis / 4 diagonal /
origin); resonant rows are accumulated in fixed order n_x = 0..M and reduced
exactly (math.fsum), so results are bit-identical for any worker count.
General orientations lack the reflection parity needed for folding and run
the same kernels over the full grid.

The off-resonant site integral is evaluated in closed form. With u = xi r,

    xi^2 gpair(i xi) = e^{-u}/r^3 h(u),   h(u) = alpha u^2 + beta (u + 1),
    alpha = dot - pp,  beta = dot - 3 pp,

so each site reduces to five moments
M_k(r, mu) = int_0^inf e^{-2 xi r} (xi r)^k / ((xi^2+1)(xi^2+mu^2)) dxi,
k = 0..4. Partial fractions write M_k through one function of one variable,

    Phi_k(y) = int_0^inf e^{-2yt} (yt)^k / (t^2+1) dt,
    M_k = (Phi_k(r mu)/mu - Phi_k(r)) / (1 - mu^2),

which is computed in closed form from the auxiliary functions f and g of
the sine and cosine integrals (DLMF 6.7(ii)) for y < 2, and by 56-node
Gauss-Laguerre quadrature in tau = 2yt (DLMF 3.5(v)) above, where the closed
form starts to cancel. Both branches agree with 30-digit quadrature to
~1e-14 relative; the partial fractions cost at most a factor ~2/|1-mu| of
that near resonance.

Nothing here is adaptive. :class:`QuadratureFailure` is defined here and
raised by the decomposition's fixed panel rule
(:mod:`cplattice.euler_maclaurin`) when its error estimate misses its
tolerance.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_laguerre, sici

from . import kernels
from .greens import resonant_sites
# Unused here, but bound on purpose: perfbench/tracer.py wraps these names.
from .greens import pair_coupling, scalar_coefficients  # noqa: F401
from .model import ValidatedBundle, validate


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call.

    Nothing in the package calls it. The name stays only because
    perfbench/tracer.py wraps it with a plain ``getattr``; it goes with that
    tracer fix (ROADMAP item 1). Importing ``scipy.integrate`` at module
    level would load ``scipy.optimize``, ``scipy.sparse.linalg`` and more,
    about 0.3 s of every import.
    """
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


class QuadratureFailure(RuntimeError):
    """A quadrature rule's error estimate exceeded its tolerance."""


class SiteBudgetExceeded(RuntimeError):
    """(2M+1)^2 exceeds the configured direct-summation budget."""


@dataclass(frozen=True)
class ShiftResult:
    """One direct-sum evaluation; only the requested component is filled."""

    resonant: float | None
    off_resonant: float | None
    terms_summed: int


def resonant_prefactor(bundle: ValidatedBundle) -> float:
    mu = bundle.mu
    return 1.125 * bundle.rho * mu / ((1.0 - mu) * (1.0 + mu))


def offresonant_prefactor(bundle: ValidatedBundle) -> float:
    return 9.0 * bundle.rho * bundle.mu / (8.0 * math.pi)


# ---------------------------------------------------------------------------
# single-site terms

def resonant_pair_term(nx: int, ny: int, bundle: ValidatedBundle) -> float:
    """Contribution of site (nx, ny) to the resonant shift, in gamma0 units."""
    bundle = validate(bundle)
    a = bundle.a_tilde
    r, dot, pp = site_projections(bundle.params.test_dipole, bundle.params.array_dipole,
                                  nx * a, ny * a, bundle.z_tilde)
    return resonant_prefactor(bundle) * float(resonant_sites(r, dot, pp))


# ---------------------------------------------------------------------------
# off-resonant site kernel (see the module docstring)

_PHI_SWITCH = 2.0
_LAGUERRE_T, _LAGUERRE_W = roots_laguerre(56)
_LAGUERRE_POW = (0.5 * _LAGUERRE_T)[:, None] ** np.arange(5)
_SITE_CHUNK = 1024


def _phi_closed(y: np.ndarray) -> np.ndarray:
    """Phi_0..4(y) as columns, from f(2y) and g(2y) (DLMF 6.7.13-14)."""
    x = 2.0 * y
    si, ci = sici(x)
    si -= 0.5 * np.pi
    sx, cx = np.sin(x), np.cos(x)
    f = ci * sx - si * cx
    g = -ci * cx - si * sx
    y2 = y * y
    y3 = y2 * y
    return np.stack([f, y * g, 0.5 * y - y2 * f, 0.25 * y - y3 * g,
                     0.25 * y - 0.5 * y3 + y2 * y2 * f], axis=-1)


def _phi_laguerre(y: np.ndarray) -> np.ndarray:
    """Phi_0..4(y) as columns, by Gauss-Laguerre quadrature in tau = 2yt."""
    y2 = 2.0 * y[:, None]
    q = _LAGUERRE_T / y2
    q *= q
    q += 1.0
    np.divide(_LAGUERRE_W, q, out=q)
    # einsum, not a BLAS matmul: that would page in a BLAS buffer for 5 columns
    return np.einsum("ij,jk->ik", q, _LAGUERRE_POW) / y2


def _moments(r: np.ndarray, mu: float) -> np.ndarray:
    """M_0..4(r, mu) as columns."""
    y = np.concatenate((r * mu, r))
    phi = np.empty((y.size, 5))
    small = y < _PHI_SWITCH
    phi[small] = _phi_closed(y[small])
    phi[~small] = _phi_laguerre(y[~small])
    return (phi[:r.size] / mu - phi[r.size:]) / (1.0 - mu * mu)


def offresonant_sites(r, dot, pp, mu: float) -> np.ndarray:
    """int_0^inf dxi xi^4 gpair(i xi)^2 / ((xi^2+1)(xi^2+mu^2)) for each site.

    r is the site distance, dot = e0.en and pp = (e0.n)(n.en) the dipole
    projections (broadcast against r). No prefactor is applied.
    """
    r, dot, pp = (np.ravel(v) for v in np.broadcast_arrays(
        np.asarray(r, dtype=float), np.asarray(dot, dtype=float), np.asarray(pp, dtype=float)))
    alpha = dot - pp
    beta = dot - 3.0 * pp
    ab = 2.0 * alpha * beta
    b2 = beta * beta
    # h(u)^2 = sum_k c_k u^k
    coef = np.stack([b2, 2.0 * b2, ab + b2, ab, alpha * alpha], axis=-1)
    out = np.empty(r.size)
    for lo in range(0, r.size, _SITE_CHUNK):
        part = slice(lo, lo + _SITE_CHUNK)
        out[part] = np.einsum("ik,ik->i", coef[part], _moments(r[part], mu))
    return out / r ** 6


def site_projections(e0, en, x, y, z):
    """r, e0.en and (e0.n)(n.en) for the displacements (x, y, -z)."""
    r = np.sqrt(x * x + y * y + z * z)
    p0 = (e0[0] * x + e0[1] * y - e0[2] * z) / r
    pn = (en[0] * x + en[1] * y - en[2] * z) / r
    return r, float(np.dot(e0, en)), p0 * pn


def offresonant_pair_term(nx: int, ny: int, bundle: ValidatedBundle) -> float:
    """Contribution of site (nx, ny) to the off-resonant shift (gamma0 units)."""
    bundle = validate(bundle)
    a = bundle.a_tilde
    r, dot, pp = site_projections(bundle.params.test_dipole, bundle.params.array_dipole,
                                  nx * a, ny * a, bundle.z_tilde)
    return offresonant_prefactor(bundle) * float(offresonant_sites(r, dot, pp, bundle.mu)[0])


# ---------------------------------------------------------------------------
# whole-lattice sums

def _map_rows(fn, rows, threads, work=None):
    """[fn(nx) for nx in rows]. With more than one thread, each worker takes
    one contiguous range of rows holding an about equal share of ``work``
    (the cost of each row; equal by default), and the values come back in
    row order."""
    if threads is not None and threads > 1:
        cum = np.cumsum(np.ones(len(rows)) if work is None else work)
        cuts = np.searchsorted(cum, cum[-1] * np.arange(1, threads) / threads)
        bounds = [0, *cuts.tolist(), len(rows)]
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = ex.map(lambda lo, hi: [fn(nx) for nx in rows[lo:hi]], bounds[:-1], bounds[1:])
            return [v for part in parts for v in part]
    return [fn(nx) for nx in rows]


def _resonant_octant(bundle: ValidatedBundle, threads) -> float:
    a2 = bundle.a_tilde ** 2
    z2 = bundle.z_tilde ** 2
    row = kernels.res_row_zz if bundle.orientation_label() == "zz" else kernels.res_row_zx
    M = bundle.half_extent
    # octant row nx holds the nx + 1 sites j = 0..nx
    vals = _map_rows(lambda nx: row(a2, z2, nx), range(M + 1), threads, np.arange(1, M + 2))
    return resonant_prefactor(bundle) * math.fsum(vals)


def _resonant_custom(bundle: ValidatedBundle, threads) -> float:
    M = bundle.half_extent
    a = bundle.a_tilde
    e0 = bundle.params.test_dipole
    en = bundle.params.array_dipole
    y = np.arange(-M, M + 1, dtype=np.float64) * a

    def row(nx):
        r, dot, pp = site_projections(e0, en, nx * a, y, bundle.z_tilde)
        return float(np.sum(resonant_sites(r, dot, pp)))

    vals = _map_rows(row, range(-M, M + 1), threads)
    return resonant_prefactor(bundle) * math.fsum(vals)


def _offres_octant(bundle: ValidatedBundle) -> float:
    M = bundle.half_extent
    a2 = bundle.a_tilde ** 2
    z2 = bundle.z_tilde ** 2
    nx, j = np.tril_indices(M + 1)
    s = nx * nx + j * j
    s_unique, site = np.unique(s, return_inverse=True)
    r2 = s_unique * a2 + z2
    r = np.sqrt(r2)
    if bundle.orientation_label() == "zx":
        # x^2 summed over the dihedral orbit of (nx, j), times the kernel at
        # unit x: the zx site term is x^2 z^2 times a function of r
        w = np.where(j == 0, 2.0 * nx * nx, np.where(j == nx, 4.0 * nx * nx, 4.0 * s)) * a2
        radial = offresonant_sites(r, 0.0, bundle.z_tilde / r2, bundle.mu)
    else:
        w = np.where(nx == 0, 1.0, np.where((j == 0) | (j == nx), 4.0, 8.0))
        radial = offresonant_sites(r, 1.0, z2 / r2, bundle.mu)
    return offresonant_prefactor(bundle) * math.fsum(w * radial[site])


def _offres_custom(bundle: ValidatedBundle) -> float:
    M = bundle.half_extent
    n = np.arange(-M, M + 1) * bundle.a_tilde
    x, y = np.meshgrid(n, n, indexing="ij")
    r, dot, pp = site_projections(bundle.params.test_dipole, bundle.params.array_dipole,
                                  x.ravel(), y.ravel(), bundle.z_tilde)
    return offresonant_prefactor(bundle) * math.fsum(offresonant_sites(r, dot, pp, bundle.mu))


def sum_lattice(bundle: ValidatedBundle, kind: str, *, threads: int | None = None,
                site_budget: int | None = None) -> ShiftResult:
    """Sum the pair terms over all (2M+1)^2 sites.

    kind is 'resonant' or 'off_resonant'. Results are deterministic for any
    thread count: row values are independent and the cross-row reduction is
    exact (math.fsum) in fixed row order. Off-resonant sums evaluate every
    site in one vectorized kernel call and reduce exactly, so threads do not
    affect them.
    """
    bundle = validate(bundle)
    count = bundle.lattice.atom_count
    if site_budget is not None and count > site_budget:
        raise SiteBudgetExceeded(f"{count} sites exceed budget {site_budget}")
    label = bundle.orientation_label()
    if kind == "resonant":
        value = (_resonant_octant(bundle, threads) if label in ("zz", "zx")
                 else _resonant_custom(bundle, threads))
        return ShiftResult(resonant=value, off_resonant=None, terms_summed=count)
    if kind == "off_resonant":
        value = (_offres_octant(bundle) if label in ("zz", "zx")
                 else _offres_custom(bundle))
        return ShiftResult(resonant=None, off_resonant=value, terms_summed=count)
    raise ValueError(f"kind must be 'resonant' or 'off_resonant', got {kind!r}")
