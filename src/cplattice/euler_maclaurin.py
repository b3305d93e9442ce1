"""Bulk / edge / vertex decomposition of the infinite-lattice shift.

The lattice sum over an unbounded array is split into

    bulk   = (4/a^2) int_0^inf dx int_0^inf dy f(x, y)      (areal term)
    edge   = (2/a) [ int_0^inf dx f(x, 0) + int_0^inf dy f(0, y) ]
    vertex = f(0, 0)                                         (single site)

with f the per-site shift term. The bulk term reduces to a radial integral;
for the two principal orientations the resonant radial integral has closed
antiderivatives in terms of the cosine integral,

    bulk_zz = (9 pi/32) K Bzz(z)/(a^2 z^4),
    Bzz = -8 Ci(2z) z^4 + cos(2z)(3 - 2z^2) + 2z (3 + 2z^2) sin(2z),
    bulk_zx = (9 pi/64) K Bzx(z)/(a^2 z^4),
    Bzx = (3 - 4z^2) cos(2z) + 6z sin(2z),      K = rho mu/((1-mu)(1+mu)).

Both prefactors are pinned by high-precision quadrature of the radial
integral (the module's tests re-derive them; see also the generic
numerical-orientation path, which must agree to 1e-8).

Off-resonant bulk terms integrate the imaginary-frequency quadrature
radially: the radial integral of the squared coupling against e^{-2 xi r}
is a finite combination of exponential integrals E_n, leaving a single
smooth xi quadrature. Every other off-resonant quantity is built from the
vectorized site kernel ``lattice_sum.offresonant_sites``: the vertex is one
site, the generic-orientation bulk evaluates it over an azimuth grid inside
a radial quadrature, and the edge integrates it along each axis with a fixed
composite Gauss-Legendre panel rule whose error estimate comes from a
nested lower-order rule (:func:`_edge_axis_offres`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import expn

from . import specfun
from .greens import pair_coupling, scalar_coefficients
from .lattice_sum import (QuadratureFailure, _quad_checked, _semi_infinite_quad,
                          offresonant_pair_term, offresonant_prefactor,
                          offresonant_sites, resonant_pair_term, resonant_prefactor,
                          site_projections)
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
# off-resonant radial kernels: int_1^inf e^{-2ut} P(ut, 1/t^2) t^-k dt as
# E_n combinations, u = z*xi.

_EN_ORDERS = np.arange(1, 10)


def _radial_kernel_zz(u: float) -> float:
    if u < 1e-12:
        return 0.375
    e = expn(_EN_ORDERS, 2.0 * u)
    u2 = u * u
    u3 = u2 * u
    u4 = u2 * u2
    return (u4 * e[0] + 2.0 * u3 * e[1] + (3.0 * u2 - 2.0 * u4) * e[2]
            + (2.0 * u - 8.0 * u3) * e[3] + (1.0 - 14.0 * u2 + u4) * e[4]
            + (-12.0 * u + 6.0 * u3) * e[5] + (-6.0 + 15.0 * u2) * e[6]
            + 18.0 * u * e[7] + 9.0 * e[8])


def _radial_kernel_zx(u: float) -> float:
    if u < 1e-12:
        return 0.375
    e = expn(_EN_ORDERS, 2.0 * u)
    u2 = u * u
    u3 = u2 * u
    u4 = u2 * u2
    return (u4 * e[2] + 6.0 * u3 * e[3] + (15.0 * u2 - u4) * e[4]
            + (18.0 * u - 6.0 * u3) * e[5] + (9.0 - 15.0 * u2) * e[6]
            - 18.0 * u * e[7] - 9.0 * e[8])


# ---------------------------------------------------------------------------
# oscillatory axis/radial integrals: half-period panels + tail averaging

_GL_NODES, _GL_WEIGHTS = leggauss(16)


def _panel(f, lo, hi) -> float:
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    xs = mid + half * _GL_NODES
    return half * float(np.sum(_GL_WEIGHTS * f(xs)))


def _panel_adaptive(f, lo, hi, abs_floor, depth=0) -> float:
    """Bisect a panel until GL-16 self-agreement; the near zone of the first
    half-period needs depth (the integrand decays like a power of r there)."""
    whole = _panel(f, lo, hi)
    mid = 0.5 * (lo + hi)
    parts = _panel(f, lo, mid) + _panel(f, mid, hi)
    if abs(whole - parts) <= 1e-13 * abs(parts) + abs_floor or depth >= 24:
        return parts
    return (_panel_adaptive(f, lo, mid, 0.5 * abs_floor, depth + 1)
            + _panel_adaptive(f, mid, hi, 0.5 * abs_floor, depth + 1))


def _repeated_average(tail):
    a = list(tail)
    while len(a) > 1:
        a = [0.5 * (a[i] + a[i + 1]) for i in range(len(a) - 1)]
    return a[0]


def _oscillatory_integral(f, z: float, to_x, *, rel_tol=1e-11, max_panels=6000) -> float:
    """Integrate f over [start, inf) in half-period panels of the e^{2ir}
    phase, r_k = z + k pi/2; to_x maps r to the integration variable.

    Tail handled by repeated averaging of the partial sums (the discrete
    analogue of half-period envelope extrapolation).
    """
    partials = []
    total = 0.0
    est_prev = None
    floor = 0.0
    abs_floor = 0.0
    for k in range(max_panels):
        lo = to_x(z + k * math.pi / 2.0)
        hi = to_x(z + (k + 1) * math.pi / 2.0)
        if k < 4:
            seg = _panel_adaptive(f, lo, hi, abs_floor)
            abs_floor = max(abs_floor, 1e-14 * abs(seg))
        else:
            seg = _panel(f, lo, hi)
        total += seg
        partials.append(total)
        floor = max(floor, abs(total))
        if k >= 16 and (k & 1):
            est = _repeated_average(partials[-16:])
            if est_prev is not None and abs(est - est_prev) <= rel_tol * max(abs(est), 1e-14 * floor, 1e-300):
                return est
            est_prev = est
    raise QuadratureFailure("oscillatory tail averaging did not converge")


def _hzz(r2: np.ndarray, r: np.ndarray, z2: float) -> np.ndarray:
    c = z2 / r2
    bre = (r2 - 1.0) + (3.0 - r2) * c
    bim = r * (1.0 - 3.0 * c)
    return np.cos(2.0 * r) * (bre * bre - bim * bim) - np.sin(2.0 * r) * (2.0 * bre * bim)


def _hzx(r2: np.ndarray, r: np.ndarray) -> np.ndarray:
    q = 3.0 - r2
    return np.cos(2.0 * r) * (q * q - 9.0 * r2) + np.sin(2.0 * r) * (6.0 * r * q)


# ---------------------------------------------------------------------------
# bulk

_PHI_NODES = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
_COS_PHI = np.cos(_PHI_NODES)
_SIN_PHI = np.sin(_PHI_NODES)


def _bulk_resonant_generic(bundle: ValidatedBundle) -> float:
    """Radial half-period panels x uniform azimuthal grid (exact for the
    low-degree trigonometric polynomials the tensor projection produces)."""
    z = bundle.z_tilde
    z2 = z * z
    e0 = np.asarray(bundle.params.test_dipole)
    en = np.asarray(bundle.params.array_dipole)
    e0n = float(e0 @ en)

    def radial(rs: np.ndarray) -> np.ndarray:
        out = np.empty_like(rs)
        for i, r in enumerate(rs):
            rr = float(r)
            big_r = math.sqrt(max(rr * rr - z2, 0.0))
            x = big_r * _COS_PHI
            y = big_r * _SIN_PHI
            t1, t2 = scalar_coefficients(rr, 1.0)
            p0 = (e0[0] * x + e0[1] * y - e0[2] * z) / rr
            pn = (en[0] * x + en[1] * y - en[2] * z) / rr
            pc = t1 * e0n + t2 * p0 * pn
            out[i] = rr * float(np.mean((pc * pc).real))
        return out

    integral = _oscillatory_integral(radial, z, to_x=lambda r: r)
    return resonant_prefactor(bundle) * (2.0 * math.pi / bundle.a_tilde ** 2) * integral


def _bulk_offres_generic(bundle: ValidatedBundle) -> float:
    z = bundle.z_tilde
    z2 = z * z
    a2 = bundle.a_tilde ** 2
    e0 = bundle.params.test_dipole
    en = bundle.params.array_dipole
    mu = bundle.mu

    phi = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    cphi, sphi = np.cos(phi), np.sin(phi)

    def radial(r: float) -> float:
        big_r = math.sqrt(max(r * r - z2, 0.0))
        _, dot, pp = site_projections(e0, en, big_r * cphi, big_r * sphi, z)
        return r * float(np.mean(offresonant_sites(r, dot, pp, mu)))

    integral = _quad_checked(lambda r: radial(float(r)), z, z + 40.0, 1e-8) \
        + _quad_checked(lambda t: radial(z + 40.0 + (1.0 - t) / t) / (t * t), 1e-12, 1.0, 1e-8)
    return offresonant_prefactor(bundle) * (2.0 * math.pi / a2) * integral


def bulk_term(bundle: ValidatedBundle, kind: str, *, epsrel: float = 1e-11) -> float:
    """The (4/a^2) double-integral term for the unbounded lattice."""
    bundle = validate(bundle)
    label = bundle.orientation_label()
    z = bundle.z_tilde
    a2 = bundle.a_tilde ** 2
    mu = bundle.mu
    if kind == "resonant":
        k_pref = resonant_prefactor(bundle)
        if label == "zz":
            return k_pref * 2.0 * math.pi * bracket_zz(z) / (8.0 * a2 * z ** 4)
        if label == "zx":
            return k_pref * math.pi * bracket_zx(z) / (8.0 * a2 * z ** 4)
        return _bulk_resonant_generic(bundle)
    if kind == "off_resonant":
        if label == "zz":
            kern, geom = _radial_kernel_zz, 2.0
        elif label == "zx":
            kern, geom = _radial_kernel_zx, 1.0
        else:
            return _bulk_offres_generic(bundle)
        mu2 = mu * mu

        def f(xi):
            return kern(z * xi) / ((xi * xi + 1.0) * (xi * xi + mu2))

        integral = _semi_infinite_quad(f, epsrel)
        return offresonant_prefactor(bundle) * geom * math.pi / (a2 * z ** 4) * integral
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# edge

def _edge_axis_resonant(bundle: ValidatedBundle, axis: str) -> float:
    """int_0^inf f(t, 0) dt along one positive axis (unit prefactor folded in)."""
    z = bundle.z_tilde
    z2 = z * z
    label = bundle.orientation_label()

    def to_x(r):
        return math.sqrt(max(r * r - z2, 0.0))

    if label == "zz":
        def f(xs):
            r2 = xs * xs + z2
            r = np.sqrt(r2)
            return _hzz(r2, r, z2) / (r2 * r2 * r2)
    elif label == "zx":
        if axis == "y":
            return 0.0

        def f(xs):
            r2 = xs * xs + z2
            r = np.sqrt(r2)
            return _hzx(r2, r) * z2 * (xs * xs) / r2 ** 5
    else:
        e0 = bundle.params.test_dipole
        en = bundle.params.array_dipole

        def f(xs):
            out = np.empty_like(xs)
            for i, x in enumerate(xs):
                v = (x, 0.0, -z) if axis == "x" else (0.0, x, -z)
                pc = pair_coupling(e0, en, np.array(v), 1.0)
                out[i] = (pc * pc).real
            return out

    return _oscillatory_integral(f, z, to_x=to_x)


# Outer rule of the off-resonant edge term, in s = x/z: 25-point
# Gauss-Legendre panels [0, 1/2], [1/2, 1], [1, 2], ..., [8, 16], then
# [16, inf) mapped by s = 16/t, where the integrand has decayed like s^-6 or
# faster and is smooth in t. The lower-order rule is the interpolatory rule
# on every other node of each panel; its difference from the full rule bounds
# the error from above (for z in [1e-3, 300] and mu in [0.05, 5] it stays
# below 2e-11 of the value, while the full rule agrees with adaptive
# quadrature to ~5e-13). _EDGE_RTOL is the tolerance the estimate must meet,
# as the outer quadrature's epsrel was before.
_EDGE_RTOL = 1e-9


def _edge_rule():
    """Nodes s, Jacobian-scaled weights of the full rule and of the lower-order
    rule, one row per panel."""
    x, w = leggauss(25)
    w_low = np.zeros(25)
    w_low[::2] = np.linalg.solve(np.polynomial.legendre.legvander(x[::2], 12).T,
                                 np.eye(13)[0] * 2.0)
    hi = 0.5 * 2.0 ** np.arange(6)[:, None]
    lo = np.where(hi > 0.5, 0.5 * hi, 0.0)
    half = 0.5 * (hi - lo)
    t = 0.5 + 0.5 * x  # tail: s = S/t, ds = S/t^2 dt, t in (0, 1)
    s = np.vstack((lo + half * (1.0 + x), 16.0 / t))
    jac = np.vstack((np.broadcast_to(half, (hi.size, 25)), 8.0 / (t * t)))
    return s, jac * w, jac * w_low


_EDGE_S, _EDGE_W, _EDGE_W_LOW = _edge_rule()


def _edge_axis_offres(bundle: ValidatedBundle, axis: str) -> float:
    """int_0^inf of the off-resonant site integral along one positive axis."""
    z = bundle.z_tilde
    mu = bundle.mu
    if bundle.orientation_label() == "zx" and axis == "y":
        return 0.0
    x = z * _EDGE_S.ravel()
    zero = np.zeros_like(x)
    r, dot, pp = site_projections(bundle.params.test_dipole, bundle.params.array_dipole,
                                  *((x, zero) if axis == "x" else (zero, x)), z)
    f = z * offresonant_sites(r, dot, pp, mu).reshape(_EDGE_S.shape)
    full = np.sum(f * _EDGE_W, axis=1)
    value = float(full.sum())
    err = float(np.abs(full - np.sum(f * _EDGE_W_LOW, axis=1)).sum())
    if not err <= _EDGE_RTOL * abs(value):
        raise QuadratureFailure(
            f"edge off_resonant at z={z!r}, mu={mu!r} ({bundle.orientation_label()}, "
            f"{axis} axis): error estimate {err:.3g} exceeds {_EDGE_RTOL:g} of {value:.17g}")
    return value


def edge_term(bundle: ValidatedBundle, kind: str, *, epsrel: float = 1e-10) -> float:
    """The (2/a) one-dimensional axis-integral term.

    epsrel is kept for compatibility: the off-resonant site integrals are
    closed-form, and the axis rule is checked against _EDGE_RTOL.
    """
    bundle = validate(bundle)
    label = bundle.orientation_label()
    two_over_a = 2.0 / bundle.a_tilde
    if kind == "resonant":
        ax = _edge_axis_resonant(bundle, "x")
        ay = ax if label == "zz" else _edge_axis_resonant(bundle, "y")
        return resonant_prefactor(bundle) * two_over_a * (ax + ay)
    if kind == "off_resonant":
        ax = _edge_axis_offres(bundle, "x")
        ay = ax if label == "zz" else _edge_axis_offres(bundle, "y")
        return offresonant_prefactor(bundle) * two_over_a * (ax + ay)
    raise ValueError(f"unknown kind {kind!r}")


def vertex_term(bundle: ValidatedBundle, kind: str, *, epsrel: float = 1e-10) -> float:
    """The single-atom term: exactly the (0, 0) pair contribution."""
    bundle = validate(bundle)
    if kind == "resonant":
        return resonant_pair_term(0, 0, bundle)
    if kind == "off_resonant":
        return offresonant_pair_term(0, 0, bundle, epsrel=epsrel)
    raise ValueError(f"unknown kind {kind!r}")


def decompose(bundle: ValidatedBundle, kind: str, *, epsrel: float = 1e-10) -> ShiftBreakdown:
    """Assemble the three terms for the unbounded-lattice limit."""
    bundle = validate(bundle)
    b = bulk_term(bundle, kind, epsrel=epsrel)
    e = edge_term(bundle, kind, epsrel=epsrel)
    v = vertex_term(bundle, kind, epsrel=epsrel)
    return ShiftBreakdown(bulk=b, edge=e, vertex=v, total=b + e + v)
