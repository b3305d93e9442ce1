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
``kernels.offres_sites``. For the two principal orientations (probe z with
array z or array x) the projections are radial, and the sum runs over one
octant with the dihedral orbit weights of :func:`octant_weights` at the
radial projections of :func:`radial_sites`. The resonant octant
is one call of ``kernels.res_rows`` over the rows n_x = 0..M, or one call
per contiguous row range when split over threads, for all the heights of a
:func:`sum_lattice` call at once; the row values come back in fixed order
and are reduced exactly (``kernels.exact_sum``, math.fsum's correctly
rounded sum, NaN where fsum raises), once per height, so results are
bit-identical for any worker count and any set of heights. The octant site
terms depend on the site only through s = n_x^2 + n_y^2, so both octant
sums evaluate them once per distinct s, from one table of those distances
and each site's rank step (``kernels.distance_table``): the resonant rows
gather from it, and the off-resonant sum evaluates its site kernel on it at
each height and folds the octant, from its first site of nonzero weight,
with the orbit weights, built once for all heights, into one exact sum per
height, a block of whole rows of at most ``OFFRES_BLOCK_SITES`` products
(or one row) at a time, whose indices into the distances
``kernels.table_ranks`` gives. Past the tables' cap an octant has the
empty table, and both sums stream in the same bits: the resonant rows
evaluate every site, and the off-resonant sum each block's orbit weights
and site terms at each height, so that it holds one block, on any host.
General orientations lack the reflection parity needed for folding and run
over the full grid of rows n_x = -M..M as a site set of the kernels, which
take the dipoles as ``bundle.pair`` (the pair terms, for any pair, are
one-site sets of them): the resonant rows, split over threads the same way,
take one ``kernels.res_points`` call per worker, which returns each row's
sum, reduced exactly in row order as above (the values of one call per
row); the off-resonant grid takes ``kernels.offres_points`` a block of
rows at a time, as many rows as ``OFFRES_BLOCK_SITES`` sites hold or one
longer row, whose values one exact sum takes in turn, so its memory grows
with a row, not with the grid. On the compiled backend both run in C from
the site positions on: ``greens.site_projections`` and the site kernels'
arithmetic in their order, with the C library's sin and cos (whose bits
np.sin and np.cos share on float64), NumPy's r^6 and a port of SciPy's Si
and Ci; the NumPy backend calls those functions, and the two give the same
bits. At a grid's origin the kernels take a term that is not finite as 0.0
for a pair with e0.en = e0_z en_z = 0 (``kernels.vanishing_origin``); a sum
still not finite raises :class:`QuadratureFailure` naming stage and height.

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
form starts to cancel. ``kernels.offres_sites`` evaluates the sites. NumPy
keeps r^6 (``np.power``, whose bits the C library's pow does not
reproduce); one backend call per chunk of sites does the rest: Si and Ci of
2y with SciPy's bits (``kernels.sici``: a C port of SciPy's algorithm, or
SciPy itself on the NumPy backend), sin and cos of 2y from the C library,
which np.sin and np.cos call on float64, and IEEE arithmetic for the closed
form, the Gauss-Laguerre branch, the moments and the contraction with the
h(u)^2 coefficients, in the NumPy fallback's order of operations, so the two
backends give the same bits. A branch that no radius of a call falls in is
not called.

Phi_2, Phi_3 and Phi_4 carry the polynomial parts y/2, y/4 and
y/4 - y^3/2, which the partial fractions cancel (to 0, 0 and 0.5 r^3) only
up to rounding: a relative error ~eps/(r^2 |1 - mu^2|) in M_3 and M_4, which
are ~r^3. Where both y are in the closed form and r^2 (1 + mu) is below
``kernels.RECAST`` (~0.011), that error would exceed the bound below, so
there the moments come from the f/g parts of Phi_k alone,
Q_k(y) = f, y g, -y^2 f, -y^3 g and y^4 f (f and g at 2y):

    M_k = (Q_k(r mu)/mu - Q_k(r)) / (1 - mu^2),   plus 0.5 r^3 for k = 4,

in one order of operations in both backends; every other site keeps the
form above and its bits. Given alpha and beta as computed, the site values
agree with 30-digit quadrature to ~1e-14 relative, and at most a factor
~2/|1-mu| worse near resonance: over r from 1e-4 to 3 and mu from 0.05 to
30 the worst error was 0.81 of that bound, where the plain partial fractions
reached 1.6e-6 (mu = 1.001, r = 1e-4). alpha and beta themselves carry the
rounding of dot - pp and dot - 3 pp; where beta nearly cancels, a site
value at small r moves with that rounding by ~eps/r relative (up to 1e-11
at r = 1e-4).

Nothing here is adaptive. :class:`QuadratureFailure` is defined here and
raised by the decomposition's fixed panel rule
(:mod:`cplattice.euler_maclaurin`) when its error estimate misses its
tolerance.
"""
from __future__ import annotations

import contextvars
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from . import kernels
# Unused here, but bound on purpose: perfbench/tracer.py wraps these names.
from .greens import pair_coupling, scalar_coefficients  # noqa: F401
from .model import ORIENTATIONS, ValidatedBundle, check_length, validate


quad = None  # nothing calls it: only perfbench/tracer.py's plain getattr reads the name


class QuadratureFailure(RuntimeError):
    """A quadrature rule's error estimate exceeded its tolerance."""


class SiteBudgetExceeded(RuntimeError):
    """(2M+1)^2 exceeds the configured direct-summation budget."""


@dataclass(frozen=True)
class ShiftResult:
    """One direct-sum evaluation; only the requested component is filled,
    with a float, or with a float64 array of one value per height when the
    sum was asked for ``heights``. ``terms_summed`` counts the sites of all
    heights."""

    resonant: float | np.ndarray | None
    off_resonant: float | np.ndarray | None
    terms_summed: int


def prefactor(bundle: ValidatedBundle, kind: str) -> float:
    """The prefactor of ``kind``, pref_R or pref_OR: the one place an unknown
    kind is rejected."""
    mu = bundle.mu
    if kind == "resonant":
        return 1.125 * bundle.rho * mu / ((1.0 - mu) * (1.0 + mu))
    if kind == "off_resonant":
        return 9.0 * bundle.rho * mu / (8.0 * math.pi)
    raise ValueError(f"kind must be 'resonant' or 'off_resonant', got {kind!r}")


# ---------------------------------------------------------------------------
# single-site terms

def site_term(bundle: ValidatedBundle, kind: str, x: float, y: float, z: np.ndarray,
              stage: str) -> np.ndarray:
    """The kind's term of the site at (x, y), in gamma0 units, at each height
    z: the one-site set of the direct sums' kernels. Raises
    QuadratureFailure, naming the stage, height and mu, where it is not
    finite (the site's r^6 underflows at tiny heights)."""
    pref, u, v = prefactor(bundle, kind), np.array([x]), np.array([y])
    with quiet_nonfinite():
        if kind == "resonant":
            values = kernels.res_points(bundle.pair, u, v, z, sums=False).reshape(-1)
        else:
            values = kernels.offres_points(bundle.pair, u, v, z, bundle.mu)
    return finite(pref * values, z, bundle, stage)


def _pair_term(kind: str, nx: int, ny: int, bundle: ValidatedBundle) -> float:
    bundle = validate(bundle)
    a = bundle.a_tilde
    return float(site_term(bundle, kind, nx * a, ny * a, heights_array(bundle, None),
                           f"site ({nx}, {ny}) {kind}")[0])


def resonant_pair_term(nx: int, ny: int, bundle: ValidatedBundle) -> float:
    """Contribution of site (nx, ny) to the resonant shift, in gamma0 units."""
    return _pair_term("resonant", nx, ny, bundle)


def offresonant_pair_term(nx: int, ny: int, bundle: ValidatedBundle) -> float:
    """Contribution of site (nx, ny) to the off-resonant shift (gamma0 units)."""
    return _pair_term("off_resonant", nx, ny, bundle)


# ---------------------------------------------------------------------------
# whole-lattice sums

# threads=None sums a resonant octant or grid of at least this many sites on
# one worker per usable CPU, and a smaller one on the calling thread alone,
# where starting workers would cost more than it saves
AUTO_THREADS_SITES = 1_000_000


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split_rows(cost, threads) -> list[tuple[int, int]]:
    """Contiguous, non-empty index ranges (lo, hi) covering the rows of
    ``cost``, the cost of each row, in order, at most one per thread, each
    holding about an equal share of its total."""
    if threads is None or threads <= 1:
        return [(0, cost.size)]
    cum = np.cumsum(cost)
    cuts = np.searchsorted(cum, cum[-1] * np.arange(1, threads) / threads)
    bounds = [0, *cuts.tolist(), cost.size]
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _map_ranges(fn, ranges) -> list:
    """[fn(lo, hi) for (lo, hi) in ranges]: every range but the last on a
    worker thread of a pool started for this call, the last on the calling
    thread."""
    if len(ranges) == 1:
        return [fn(*ranges[0])]
    from concurrent.futures import ThreadPoolExecutor  # loaded only by a threaded sum
    with ThreadPoolExecutor(max_workers=len(ranges) - 1) as executor:
        # each worker runs in a copy of the caller's context: its quiet_nonfinite()
        futures = [executor.submit(contextvars.copy_context().run, fn, lo, hi)
                   for lo, hi in ranges[:-1]]
        last = fn(*ranges[-1])
        return [f.result() for f in futures] + [last]


def heights_array(bundle: ValidatedBundle, heights) -> np.ndarray:
    """The heights of a call as a float64 array: the bundle's own height, or
    the given ones, each checked as the bundle's height is."""
    if heights is None:
        return np.array([bundle.z_tilde])
    z = np.array(heights, dtype=float).reshape(-1)
    for h in z.tolist():
        check_length("z_tilde", h)
    return z


def per_height(heights, values):
    """A call's values: the one float of a call without heights, else the array."""
    return float(values[0]) if heights is None else values


def _resonant_octant(bundle: ValidatedBundle, z: np.ndarray, threads) -> list:
    a2 = bundle.a_tilde ** 2
    z2 = np.array([h ** 2 for h in z.tolist()])  # each as a one-height call squares it
    zx = bundle.orientation_label() == "zx"
    M = bundle.half_extent
    # octant row nx holds the nx + 1 sites j = 0..nx; each range is one call
    # for every height
    ranges = _split_rows(np.arange(1, M + 2), threads)
    parts = _map_ranges(lambda lo, hi: kernels.res_rows(zx, a2, z2, lo, hi), ranges)
    return [kernels.exact_sum((rows,)) for rows in np.concatenate(parts, axis=1)]


def _resonant_custom(bundle: ValidatedBundle, z: np.ndarray, threads) -> list:
    M = bundle.half_extent
    y = np.arange(-M, M + 1, dtype=np.float64) * bundle.a_tilde
    # index i is row nx = i - M; each range's rows are summed on their own,
    # for every height, in one call
    pair = bundle.pair  # built here, so that the workers share one array
    parts = _map_ranges(lambda lo, hi: kernels.res_points(pair, y[lo:hi], y, z, sums=True),
                        _split_rows(np.ones(y.size), threads))
    return [kernels.exact_sum((rows,)) for rows in np.concatenate(parts, axis=1)]


# An off-resonant direct sum takes this many folded octant sites at a time,
# or as many whole rows of a generic grid as this many sites hold (at least
# one), into its exact sum, so that its memory does not grow with the grid
OFFRES_BLOCK_SITES = 1 << 14


def radial_sites(s, a2: float, z2: float, zx: bool):
    """(r, dot, pp) of the octant sites at s = nx^2 + j^2, on which they
    alone depend: the orbit of site (nx, j) under the square's symmetries
    contributes w * term(r, dot, pp), w from :func:`octant_weights`, for any
    site term that depends on the dipoles through dot = e0.en and
    pp = (e0.n)(n.en). With r^2 = s a^2 + z^2: zz has dot = 1 and
    pp = z^2/r^2; zx (z probe, x array) the term at unit x, dot = 0 and
    pp = z/r^2, since its weights carry x^2."""
    r2 = s * a2 + z2
    if zx:
        return np.sqrt(r2), 0.0, math.sqrt(z2) / r2
    return np.sqrt(r2), 1.0, z2 / r2


def octant_weights(nx, j, a2: float, zx: bool):
    """The orbit weights w of the octant sites (nx, j), 0 <= j <= nx (see
    :func:`radial_sites`): zz 8 interior, 4 on the axis and the diagonal, 1
    at the origin; zx, where the term carries x^2 = (nx a)^2, which breaks
    the bare dihedral degeneracy, x^2 summed over each orbit: 4 s a^2
    interior, 2 nx^2 a^2 on the axis and 4 nx^2 a^2 on the diagonal."""
    axis, diagonal = j == 0, j == nx
    if zx:
        s = nx * nx + j * j
        return np.where(axis, 2.0 * nx * nx, np.where(diagonal, 4.0 * nx * nx, 4.0 * s)) * a2
    return np.where(nx == 0, 1.0, np.where(axis | diagonal, 4.0, 8.0))


def _offres_octant(bundle: ValidatedBundle, z: np.ndarray) -> list:
    M = bundle.half_extent
    a2, zx = bundle.a_tilde ** 2, bundle.orientation_label() == "zx"
    rows = max(1, OFFRES_BLOCK_SITES // (M + 1))

    def grid():
        # blocks of whole rows, (nx, j) grids masked to j <= nx, so that no
        # index array the size of the octant is built
        for lo in range(0, M + 1, rows):
            hi = min(lo + rows, M + 1)
            nx, j = np.arange(lo, hi)[:, None], np.arange(hi)
            yield nx, j, j <= nx

    d2, step = kernels.distance_table(0, M + 1)
    if step.size:
        # the site term is a function of nx^2 + j^2: evaluate it once per
        # distance and height, and fold it with each site's orbit weight,
        # built once for all heights
        weights = [octant_weights(nx, j, a2, zx)[sites] for nx, j, sites in grid()]

        def blocks(h):
            radial = kernels.offres_sites(*radial_sites(d2, a2, h ** 2, zx), bundle.mu)
            return zip(weights, (radial[ranks] for *_, ranks in
                                 kernels.table_ranks(step, 0, M + 1, rows)))
    else:
        # no table: each block's weights and site terms at each height
        def blocks(h):
            for nx, j, sites in grid():
                s = (nx * nx + j * j)[sites]
                yield (octant_weights(nx, j, a2, zx)[sites],
                       kernels.offres_sites(*radial_sites(s, a2, h ** 2, zx), bundle.mu))

    def folded(h):
        for k, (w, terms) in enumerate(blocks(h)):
            # the zx origin's weight is 0: its term, inf once r^6 underflows, is skipped
            skip = int(zx and k == 0)
            yield w[skip:] * terms[skip:]

    return [kernels.exact_sum(folded(h)) for h in z.tolist()]


def _offres_custom(bundle: ValidatedBundle, z: float) -> float:
    n = np.arange(-bundle.half_extent, bundle.half_extent + 1) * bundle.a_tilde
    rows = max(1, OFFRES_BLOCK_SITES // n.size)
    # the grid (nx, ny) row by row, one block of rows at a time
    return kernels.exact_sum(kernels.offres_points(bundle.pair, n[i:i + rows], n, [z], bundle.mu)
                             for i in range(0, n.size, rows))


def quiet_nonfinite():
    """The one NumPy error state of every site kernel, sum and ray integral: a
    value that is not finite is reported once, as a :func:`failure`, not warned of."""
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def failure(stage: str, z: float, bundle: ValidatedBundle, detail: str, axis=None):
    """The QuadratureFailure naming the stage, height z, mu, orientation, axis and detail."""
    where = bundle.orientation_label() + (f", {axis} axis" if axis else "")
    return QuadratureFailure(f"{stage} at z={float(z)!r}, mu={bundle.mu!r} ({where}): {detail}")


def finite(values: np.ndarray, z: np.ndarray, bundle: ValidatedBundle, stage: str) -> np.ndarray:
    """values, one per height z, when each is finite; else raises the stage's
    :func:`failure` at the first such height, as the decomposition's terms do:
    at tiny heights the origin's r^6 underflows, and inf or NaN would be printed."""
    for v, h in zip(values.tolist(), z.tolist()):
        if not math.isfinite(v):
            raise failure(stage, h, bundle, "value is not finite")
    return values


def sum_lattice(bundle: ValidatedBundle, kind: str, *, heights=None, threads=None) -> ShiftResult:
    """Sum the pair terms over all (2M+1)^2 sites.

    kind is 'resonant' or 'off_resonant'. With ``heights``, the sum at each
    of those heights (the bundle's other parameters kept): the requested
    field of the result is then a float64 array of one value per height,
    bitwise equal to one call per height, and ``terms_summed`` counts the
    sites of all heights; without, it is the float at the bundle's height.
    A resonant octant (zz, zx) takes all heights in one row-range call per
    worker, and an off-resonant octant with a distance table builds its
    orbit weights once for all heights; other sums loop over the heights
    here. No M is rejected for memory: a larger octant streams.

    Results are deterministic for any thread count: row values are
    independent and the cross-row reduction is exact (math.fsum) in fixed
    row order, once per height. Off-resonant sums take a height at a time,
    the octant's site terms once per distinct distance (or site, streamed)
    in ``kernels.SITE_CHUNK`` chunks and its products, or other grids'
    blocks of rows, ``OFFRES_BLOCK_SITES`` sites at a time, and reduce
    exactly, so threads do not affect them. ``threads=None`` runs a
    resonant sum whose octant (zz, zx) or grid (other pairs) holds at least
    ``AUTO_THREADS_SITES`` sites on :func:`usable_cpus` workers, and a
    smaller one on one; a larger count than :func:`usable_cpus` is cut to
    it, one that is not an integer raises ``TypeError`` and one below 1
    ``ValueError``, before any work. A threaded resonant sum
    starts a pool of its own for the call: one worker thread per row range
    but the last, which the calling thread takes. A pool costs ~0.1 ms to
    start and join, once per call however many heights it takes.
    """
    if threads is not None and operator.index(threads) < 1:  # TypeError for 2.5 or NaN
        raise ValueError(f"threads must be at least 1, got {threads}")
    bundle = validate(bundle)
    count = bundle.lattice.atom_count
    pref = prefactor(bundle, kind)
    z = heights_array(bundle, heights)
    octant = bundle.orientation_label() in ORIENTATIONS
    with quiet_nonfinite():
        if kind == "resonant":
            if threads is None:
                summed = kernels.range_sites(0, bundle.half_extent + 1) if octant else count
                threads = usable_cpus() if summed >= AUTO_THREADS_SITES else 1
            threads = min(threads, usable_cpus())
            sites = _resonant_octant if octant else _resonant_custom
            sums = sites(bundle, z, threads)
        elif octant:
            sums = _offres_octant(bundle, z)
        else:
            sums = [_offres_custom(bundle, h) for h in z.tolist()]
    value = per_height(heights, finite(pref * np.array(sums), z, bundle, f"direct {kind}"))
    return ShiftResult(resonant=value if kind == "resonant" else None,
                       off_resonant=value if kind == "off_resonant" else None,
                       terms_summed=count * z.size)
