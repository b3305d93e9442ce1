"""The tests' references: the slow oracles of the package's routes, the
bundle builder, the shared inputs, the extreme-height battery of every
public numeric call and the README's ``cplattice`` commands, each defined
once, for the tests and the ledger. Pytest does not collect this module;
the tests import it by name, as they import ``ledger``.

The oracles share no arithmetic with the routes they check: site integrals
by QUADPACK and by mpmath, naive grid sums site by site through the public
3x3 tensor, the bulk and edge integrals along r = z + is, on the real axis
and from exponential integrals E_n, the resonant bulk as an mpmath integral
of its plane-wave form with coefficients sympy derives, the principal
orientations' former radial brackets, and the per-node loops and NumPy site
kernel that the package's array calls replaced. ``far_bulk`` is the
exception: it is the algebra of ``bulk_term``'s far-field form, with
coefficients sympy derives, and ``plane_wave_bulk`` is its independent
oracle. ``axis_integral`` is the package's own ray-integral route, taken
also where ``edge_term`` has a shortcut, and ``rays`` its compiled resonant
edge integrals with the axes that term takes. ``stream_rows`` is a backend's
octant rows with every site's term evaluated, the oracle of the rows that a
distance table serves.
"""
import cmath
import functools
import itertools
import math
import shlex
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import expn, sici

from cplattice import kernels
from cplattice.asymptotics import Regime, all_regimes, asymptotic_shift, full_closed_form
from cplattice.euler_maclaurin import _AXES, _ray_integral, bulk_term, decompose, edge_term, vertex_term
from cplattice.greens import green_dyadic, resonant_sites, scalar_coefficients, site_projections
from cplattice.kernels import _numpy_backend, offres_sites
from cplattice.lattice_sum import (QuadratureFailure, offresonant_pair_term, prefactor,
                                   resonant_pair_term, sum_lattice)
from cplattice.model import Geometry, LatticeSpec, ModelParams, validate


def bundle(mu=0.5, rho=1e-6, a=0.01, M=0, z=0.1, test=(0, 0, 1), array=(0, 0, 1)):
    """The validated bundle of these inputs; a module with other defaults
    binds them with ``functools.partial``."""
    return validate(ModelParams(mu=mu, rho=rho, test_dipole=test, array_dipole=array),
                    LatticeSpec(a_tilde=a, half_extent=M), Geometry(z_tilde=z))


def unit(v):
    """v over its length, as a float array."""
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# vectors of length above 0.1 in the cube [-1, 1]^3, and their unit tuples
VECTORS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)
UNIT_VECTORS = VECTORS.map(lambda v: tuple(unit(v).tolist()))

S3 = 1.0 / math.sqrt(3.0)
# (test, array): the principal pairs and two custom ones
PAIRS = {"zz": ((0, 0, 1), (0, 0, 1)), "zx": ((0, 0, 1), (1, 0, 0)),
         "custom_a": ((0.6, 0.0, 0.8), (S3, S3, S3)),
         "custom_b": ((S3, S3, S3), (0.0, 0.8, 0.6))}
# the two custom_orientation strata of the benchmark plan
STRATA_PAIRS = [(unit((1, 1, 2)), unit((2, -1, 1))), (unit((-1, 2, 1)), unit((1, 1, -2)))]
# A z probe over y-array dipoles: like zx, its coupling vanishes at the
# origin, but it runs as a custom pair
ZY = ((0, 0, 1), (0, 1, 0))
# the ledger's custom pairs: e0 = (1,1,1)/sqrt(3) over en = (0.6, 0, 0.8),
# whose site term is odd along both axes, and one whose site term is even
# along both
ODD = ((S3, S3, S3), (0.6, 0.0, 0.8))
EVEN = ((0.6, 0.0, 0.8), (0.6, 0.0, -0.8))
# pairs whose site term is even along both axes, so that the edge, which
# doubles the positive half-axes, is exact
EVEN_PAIRS = {"zz": PAIRS["zz"], "zx": PAIRS["zx"], "zy": ZY, "even": EVEN}
# the pairs of the rotated-path ray integrals: zz, zx, a custom pair, and
# ZY, whose site term is even in x and y: its x axis vanishes and its y axis
# is zx's x axis
RAY_PAIRS = {**{name: PAIRS[name] for name in ("zz", "zx", "custom_a")}, "zy": ZY}
# tiny and huge heights, up to just below the 2**512 bound on lengths
EXTREME_HEIGHTS = (1e-320, 1e-60, 1e100, math.nextafter(2.0 ** 512, 0.0))
# radii of off-resonant sites at mu = 0.6 whose y = r mu and y = r all fall
# below the kernel's branch switch, all above it, and none
MOMENT_RADII = {"small": [0.1, 1.2], "large": [4.0, 30.0], "empty": []}
# the azimuths of the generic-orientation oracles' ring means
_AZIMUTHS = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)


def public_calls(b):
    """(name, call) of every public function that computes numbers, at the
    bundle b: each call returns a float, or decompose's fields as a list;
    each name, with b's orientation label, is the stem of the ledger's key."""
    label = b.orientation_label()
    for kind in ("resonant", "off_resonant"):
        yield (f"sum_lattice {label} M={b.half_extent} {kind}",
               lambda kind=kind: getattr(sum_lattice(b, kind), kind))
        for term in (bulk_term, edge_term, vertex_term):
            yield f"{term.__name__} {label} {kind}", functools.partial(term, b, kind)
        yield (f"decompose {label} {kind}",
               lambda kind=kind: list(vars(decompose(b, kind)).values()))
    for term in (resonant_pair_term, offresonant_pair_term):
        yield f"{term.__name__} {label} (1, -1)", functools.partial(term, 1, -1, b)
    for regime in all_regimes(label):
        yield (f"asymptotic_shift {' '.join(vars(regime).values())}",
               functools.partial(asymptotic_shift, regime, b))
    if label != "custom":
        yield f"full_closed_form {label}", functools.partial(full_closed_form, label, b)


# Every public route that takes ``heights=``, as a call of (bundle, kind,
# heights): the direct sum's field of that kind, and the asymptote of the
# bundle's dense non-retarded regime of that kind
HEIGHT_ROUTES = {
    "sum_lattice": lambda b, kind, heights: getattr(sum_lattice(b, kind, heights=heights), kind),
    "bulk_term": bulk_term, "edge_term": edge_term, "vertex_term": vertex_term,
    "decompose": decompose,
    "asymptotic_shift": lambda b, kind, heights: asymptotic_shift(
        Regime(kind, b.orientation_label(), "non_retarded", "dense"), b, heights),
}


def readme_commands():
    """The arguments of every ``cplattice`` line in the README, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cplattice ")]


def axis_integral(bundle, kind, axis):
    """One positive half-axis integral of edge_term, without its prefactor:
    the x axis alone, or the y column of a call on both axes."""
    k = "xy".index(axis)
    return _ray_integral(bundle, kind, "edge", _AXES[:k + 1], np.array([bundle.z_tilde]),
                         "xy"[:k + 1])[0, k]


def rays(pair, heights):
    """kernels.ray_rotated for the pair of RAY_PAIRS with the axes that
    edge_term takes: the x axis alone for the zz and zx edges, both axes
    otherwise."""
    e0, en = RAY_PAIRS[pair]
    axes = 1 if pair in ("zz", "zx") else 2
    return kernels.ray_rotated(np.array([*e0, *en, float(np.dot(e0, en))]), axes, heights)


# ---------------------------------------------------------------------------
# off-resonant site integrals

def _quad_checked(f, lo, hi, epsrel):
    out = quad(f, lo, hi, epsabs=0.0, epsrel=epsrel, full_output=True, limit=200)
    assert len(out) == 3, out[3]
    return out[0]


def site_quad(r, dot, pp, mu, epsrel=1e-12):
    """int_0^inf dxi xi^4 g(i xi)^2 / ((xi^2+1)(xi^2+mu^2)), with
    xi^2 g(i xi) = e^{-u}/r^3 [(u^2+u+1) e0.en - (u^2+3u+3)(e0.n)(n.en)],
    split at min(mu, 1), max(mu, 1) and 1/r: unsplit, it missed its epsrel
    by up to 3.5e-8 near r = 0.015 without reporting it. h is linear in dot
    and pp, so the integrand is taken with both over s = max(|dot|, |pp|)
    and the integral times s^2: at pp = 4.2e-161, dot = 0 the values were
    subnormal, and QUADPACK reported a roundoff error."""
    mu2 = mu * mu
    r6 = r ** 6
    s = max(abs(dot), abs(pp))
    if s == 0.0:
        return 0.0
    dot, pp = dot / s, pp / s

    def f(xi):
        u = xi * r
        h = (u * u + u + 1.0) * dot - (u * u + 3.0 * u + 3.0) * pp
        return math.exp(-2.0 * u) * h * h / ((xi * xi + 1.0) * (xi * xi + mu2) * r6)

    # Cut points within 1e-12 relative of the one below bound an interval
    # QUADPACK rejects ("extremely bad integrand behavior"), and past
    # xi r = 40, where e^{-2 xi r} < e^-80, a piece's values can all be
    # subnormal, which it reports as divergent; the tail integral from the
    # last cut kept covers both.
    cuts = []
    for cut in sorted({min(mu, 1.0), max(mu, 1.0), 1.0 / r}):
        if cut * r <= 40.0 and (not cuts or cut > cuts[-1] * (1.0 + 1e-12)):
            cuts.append(cut)
    head = sum(_quad_checked(f, lo, hi, epsrel) for lo, hi in zip([0.0] + cuts[:-1], cuts))
    c = cuts[-1]
    # times s twice: s^2 itself can be subnormal
    return (head + _quad_checked(lambda t: f(c / t) * c / (t * t), 0.0, 1.0, epsrel)) * s * s


def site_mpmath(r, dot, pp, mu, digits=30):
    """site_quad's integral by mpmath at the given digits."""
    with mpmath.workdps(digits):
        r, dot, pp, mu = (mpmath.mpf(v) for v in (r, dot, pp, mu))

        def f(xi):
            u = xi * r
            h = (u * u + u + 1) * dot - (u * u + 3 * u + 3) * pp
            return mpmath.exp(-2 * u) * h * h / ((xi * xi + 1) * (xi * xi + mu * mu))

        cuts = sorted({min(mu, 1), max(mu, 1), 1 / r, 10 / r})
        return float(mpmath.quad(f, [0] + cuts + [mpmath.inf]) / r ** 6)


# The nodes t, weights w and powers (t/2)^k of the Gauss-Laguerre branch:
# views of the one table that the backend offres_sites takes whole
_T = kernels._LAGUERRE_TABLE
LAGUERRE = (_T[:56], _T[56:112], _T[112:].reshape(56, 5))


def phi_laguerre(y, impl=_numpy_backend):
    """Phi_0..4(y) of a backend's Gauss-Laguerre branch; the NumPy one's is
    the oracle."""
    out = np.empty((y.size, 5))
    impl.phi_laguerre(y, y.size, *LAGUERRE, LAGUERRE[0].size, out)
    return out


def stream_rows(impl, zx, a2, z2, lo, hi):
    """The octant rows lo <= nx < hi at the height z2 of a backend (the
    compiled library or the NumPy module), streamed: its one row export,
    ``res_rows``, with the empty distance table, so every site's term is
    evaluated."""
    out = np.empty(hi - lo)
    impl.res_rows(zx, a2, np.array([z2]), 1, np.empty(0, dtype=np.int32), 0,
                  np.empty(0, dtype=np.uint16), lo, hi, np.empty(0), out)
    return out


def former_offresonant_sites(r, dot, pp, mu):
    """The off-resonant site kernel as it was written in NumPy alone, before
    the compiled call: one sici/sin/cos per chunk of 1024 sites, both Phi_k
    branches on the NumPy backend, the contraction by einsum and one r**6
    over all sites; and near r = 0, where r^2 (1 + mu) < kernels.RECAST and
    both y are closed-form, the moments from the f/g parts of Phi_k alone
    with the 0.5 r^3 that the polynomial parts leave in M_4. The slow
    oracle of the compiled entry and the front."""
    r, dot, pp = (np.ravel(v) for v in np.broadcast_arrays(
        np.asarray(r, dtype=float), np.asarray(dot, dtype=float), np.asarray(pp, dtype=float)))
    alpha = dot - pp
    beta = dot - 3.0 * pp
    ab = 2.0 * alpha * beta
    b2 = beta * beta
    coef = np.stack([b2, 2.0 * b2, ab + b2, ab, alpha * alpha], axis=-1)
    out = np.empty(r.size)
    for lo in range(0, r.size, 1024):
        part = slice(lo, lo + 1024)
        rp = r[part]
        y = np.concatenate((rp * mu, rp))
        near = (rp * mu < 2.0) & (rp < 2.0) & (rp * rp * (1.0 + mu) < kernels.RECAST)
        phi = np.empty((y.size, 5))
        small = y < 2.0
        if small.any():
            ys = y[small]
            x = 2.0 * ys
            si, ci = sici(x)
            si -= 0.5 * np.pi
            sx, cx = np.sin(x), np.cos(x)
            f = ci * sx - si * cx
            g = -ci * cx - si * sx
            y2 = ys * ys
            y3 = y2 * ys
            whole = np.stack([f, ys * g, 0.5 * ys - y2 * f, 0.25 * ys - y3 * g,
                              0.25 * ys - 0.5 * y3 + y2 * y2 * f], axis=-1)
            fg = np.stack([f, ys * g, -(y2 * f), -(y3 * g), y2 * y2 * f], axis=-1)
            phi[small] = np.where(np.concatenate((near, near))[small, None], fg, whole)
        if not small.all():
            phi[~small] = phi_laguerre(np.ascontiguousarray(y[~small]))
        moments = (phi[:rp.size] / mu - phi[rp.size:]) / (1.0 - mu * mu)
        moments[near, 4] += 0.5 * rp[near] * rp[near] * rp[near]
        out[part] = np.einsum("ik,ik->i", coef[part], moments)
    return out / r ** 6


# ---------------------------------------------------------------------------
# direct sums, site by site

def naive_resonant(bundle):
    """Full-grid oracle through green_dyadic matrices."""
    e0 = np.asarray(bundle.params.test_dipole)
    en = np.asarray(bundle.params.array_dipole)
    M, a, z = bundle.half_extent, bundle.a_tilde, bundle.z_tilde
    pref = 1.125 * bundle.rho * bundle.mu / ((1 - bundle.mu) * (1 + bundle.mu))
    total = 0.0
    for nx, ny in itertools.product(range(-M, M + 1), repeat=2):
        v = np.array([nx * a, ny * a, -z])
        r = np.linalg.norm(v)
        g = green_dyadic(v / r, r, 1.0)
        pc = complex(e0 @ g @ en)
        total += (pc * pc).real
    return pref * total


def naive_offresonant(bundle):
    """Full-grid oracle through green_dyadic matrices at imaginary
    frequencies, one quad over xi per site."""
    e0 = np.asarray(bundle.params.test_dipole)
    en = np.asarray(bundle.params.array_dipole)
    M, a, z = bundle.half_extent, bundle.a_tilde, bundle.z_tilde
    mu2 = bundle.mu ** 2
    pref = 9 * bundle.rho * bundle.mu / (8 * math.pi)
    total = 0.0
    for nx, ny in itertools.product(range(-M, M + 1), repeat=2):
        v = np.array([nx * a, ny * a, -z])
        r = np.linalg.norm(v)
        n = v / r

        def f(xi):
            g = green_dyadic(n, r, complex(0, xi))
            pc = complex(e0 @ g @ en)
            return xi ** 4 * pc.real ** 2 / ((xi * xi + 1) * (xi * xi + mu2))

        val, _ = quad(f, 0, 1, epsrel=1e-11, limit=200)
        tail, _ = quad(lambda t: f(1 / t) / t ** 2, 1e-14, 1, epsrel=1e-11, limit=200)
        total += val + tail
    return pref * total


def per_row_custom(bundle):
    """The generic resonant sum with one site-kernel call per row, each row
    summed by NumPy and the rows reduced exactly: the oracle of the row-range
    evaluation."""
    M, a = bundle.half_extent, bundle.a_tilde
    y = np.arange(-M, M + 1, dtype=np.float64) * a
    rows = []
    for nx in range(-M, M + 1):
        r, dot, pp = site_projections(bundle.params.test_dipole, bundle.params.array_dipole,
                                      nx * a, y, bundle.z_tilde)
        rows.append(float(np.sum(resonant_sites(r, dot, pp))))
    return math.fsum(rows)


def bracket_zz(r2, z2):
    """Re[e^{2ir} Bzz^2]/r^6 with Bzz = (r^2-1) + (3-r^2) z^2/r^2 + i r (1 - 3 z^2/r^2)."""
    r = np.sqrt(r2)
    c = z2 / r2
    bre = (r2 - 1.0) + (3.0 - r2) * c
    bim = r * (1.0 - 3.0 * c)
    h = np.cos(2.0 * r) * (bre * bre - bim * bim) - np.sin(2.0 * r) * (2.0 * bre * bim)
    return h / (r2 * r2 * r2)


def bracket_zx(r2, z2):
    """zx site term at unit x: [cos 2r (q^2 - 9 r^2) + 6 r q sin 2r] z^2 / r^10, q = 3 - r^2."""
    r = np.sqrt(r2)
    q = 3.0 - r2
    h = np.cos(2.0 * r) * (q * q - 9.0 * r2) + np.sin(2.0 * r) * (6.0 * r * q)
    return h * z2 / r2 ** 5


def row_zz(a2, z2, nx):
    """Octant row nx of zz: its bracket terms and orbit weights."""
    j = np.arange(nx + 1, dtype=np.float64)
    t = bracket_zz((nx * nx + j * j) * a2 + z2, z2)
    w = np.where(nx == 0, 1.0, np.where((j == 0) | (j == nx), 4.0, 8.0))
    return t, w


def row_zx(a2, z2, nx):
    """Octant row nx of zx: its bracket terms and orbit weights."""
    j = np.arange(nx + 1, dtype=np.float64)
    s = nx * nx + j * j
    g = bracket_zx(s * a2 + z2, z2)
    w = np.where(j == 0, 2.0 * nx * nx, np.where(j == nx, 4.0 * nx * nx, 4.0 * s)) * a2
    return g, w


# ---------------------------------------------------------------------------
# resonant bulk and edge integrals

def contour_bulk_resonant(bundle):
    """The zz or zx resonant bulk, Re[i int_0^inf F(z+is) ds] * 2 pi pref / a^2:
    the radial integrand is analytic above the real axis and e^{2ir} decays
    there, so quad meets a smooth, exponentially damped integral. Both
    brackets are written in d = r^2 - z^2 = is(2z + is), which has no
    cancellation, and quad takes no absolute tolerance: with r^2 - z^2 and
    an absolute tolerance of 1e-14, above the integral itself at large z,
    the zz bulk was off by 2.6e-10 of its value at z = 3e3 and 1.8e-7 at
    1e4 (a 0.01)."""
    z = bundle.z_tilde
    zz = bundle.orientation_label() == "zz"

    def fr(s):
        r, d = z + 1j * s, 1j * s * (2.0 * z + 1j * s)
        if zz:  # (r^2 + ir - 1) + (3 - r^2 - 3ir) z^2/r^2
            br = d + 1j * (d - 2.0 * z * z) / r + (2.0 * z * z - d) / (r * r)
            return cmath.exp(2j * r) * br * br / r ** 5
        return d * cmath.exp(2j * r) * (3.0 - r * r - 3j * r) ** 2 * z * z / r ** 9

    def g(s):
        return (1j * fr(s)).real

    val, _ = quad(g, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    geom = 2.0 * math.pi if zz else math.pi
    return prefactor(bundle, "resonant") * geom * val / bundle.a_tilde ** 2


def _ring_coupling(e0, en, r, z):
    """e0.g.en at distance r (complex on a contour) from the probe at height
    z, at every azimuth of _AZIMUTHS."""
    big_r = np.sqrt(r * r - z * z)
    x, y = big_r * np.cos(_AZIMUTHS), big_r * np.sin(_AZIMUTHS)
    t1, t2 = scalar_coefficients(r, 1.0)
    p0 = (e0[0] * x + e0[1] * y - e0[2] * z) / r
    pn = (en[0] * x + en[1] * y - en[2] * z) / r
    return t1 * float(e0 @ en) + t2 * p0 * pn


def bulk_vertical(bundle):
    """Re[i int_0^inf G(z + is) ds], G(r) = r <(e0.g.en)^2>_phi, by quad."""
    z = bundle.z_tilde
    e0 = np.asarray(bundle.params.test_dipole)
    en = np.asarray(bundle.params.array_dipole)

    def g(s):
        r = z + 1j * s
        pc = _ring_coupling(e0, en, r, z)
        return (1j * r * np.mean(pc * pc)).real

    val, _ = quad(g, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return prefactor(bundle, "resonant") * (2.0 * math.pi / bundle.a_tilde ** 2) * val


@functools.cache
def plane_wave_polynomial():
    """(components, (c0, c2, c4)): the six dipole components as sympy symbols,
    e0 then en, and the coefficients as exact sympy expressions in them: the
    azimuthal mean over phi of [e0.(I - KK).en][e0.(I - K'K').en],
    K = (q cos phi, q sin phi, -k), K' = (-q cos phi, -q sin phi, -k), with
    q^2 = 1 - k^2, is a polynomial in k with only the powers 0, 2 and 4."""
    import sympy as sp

    e0, en = (sp.Matrix(sp.symbols(f"{name}0:3", real=True)) for name in ("e", "n"))
    q, k, phi = sp.symbols("q k phi", real=True)

    def coupling(wave):
        return e0.dot(en) - e0.dot(wave) * wave.dot(en)

    waves = (sp.Matrix([s * q * sp.cos(phi), s * q * sp.sin(phi), -k]) for s in (1, -1))
    mean = sp.integrate(sp.expand(math.prod(map(coupling, waves))), (phi, 0, 2 * sp.pi))
    poly = sp.Poly(sp.expand(mean.subs(q, sp.sqrt(1 - k * k)) / (2 * sp.pi)), k)
    assert poly.degree() == 4 and poly.coeff_monomial(k) == poly.coeff_monomial(k ** 3) == 0
    return (*e0, *en), tuple(poly.coeff_monomial(k ** j) for j in (0, 2, 4))


@functools.cache
def _plane_wave_polynomial():
    """(c0, c2, c4) as one mpmath function of the six dipole components."""
    import sympy as sp
    return sp.lambdify(*plane_wave_polynomial(), "mpmath")


def plane_wave_coefficients(e0, en):
    """(c0, c2, c4) of the dipole pair as mpmath numbers at the working
    precision, from the sympy derivation (not the package's formula)."""
    return tuple(mpmath.mpf(c) for c in _plane_wave_polynomial()(
        *map(mpmath.mpf, [*e0, *en])))


def plane_wave_bulk(bundle, digits=30):
    """The resonant bulk of any dipole pair to ``digits`` digits, an mpmath
    number: in the plane-wave (Weyl) form of the site term, the areal
    integral is pref (2 pi/a^2) Re int <P>(k)/k e^{2ikz} dk along k = 1 + it,
    t >= 0, with <P> = c0 + c2 k^2 + c4 k^4. mpmath's quad takes it in
    s = 2zt, where the phase is e^{2iz} e^{-s}. The prefactor is taken from
    the bundle's inputs at the working precision."""
    with mpmath.workdps(digits + 10):
        c0, c2, c4 = plane_wave_coefficients(bundle.params.test_dipole,
                                             bundle.params.array_dipole)
        z, a, mu, rho = map(mpmath.mpf, (bundle.z_tilde, bundle.a_tilde, bundle.mu, bundle.rho))

        def integrand(s):
            k = mpmath.mpc(1, s / (2 * z))
            return (c0 + c2 * k ** 2 + c4 * k ** 4) / k * mpmath.exp(-s)

        integral = mpmath.mpc(0, 1) / (2 * z) * mpmath.expj(2 * z) * mpmath.quad(
            integrand, [0, mpmath.inf])
        pref = mpmath.mpf(9) / 8 * rho * mu / ((1 - mu) * (1 + mu))
        value = pref * 2 * mpmath.pi / (a * a) * integral.real
    return +value


def _series_tail(x, lead):
    """sum_{k>=2} (-1)^k (2k + lead)!/x^{2k} in float64: the asymptotic series
    of x f(x) (lead 0) or x^2 g(x) (lead 1), the auxiliary functions of Ci
    (DLMF 6.12), past its first two terms, summed up to its smallest term."""
    k, term, total = 2, math.factorial(4 + lead) / x ** 4, 0.0
    while True:
        total += term
        following = -term * (2 * k + 1 + lead) * (2 * k + 2 + lead) / (x * x)
        if abs(following) >= abs(term):
            return total
        k, term = k + 1, following


def far_bulk(bundle):
    """The resonant bulk of any dipole pair in float64 at heights above
    z = 20, and the sum of its terms' magnitudes: (bulk, scale); the algebra
    of ``euler_maclaurin._far_field``, in its own order of operations. With
    x = 2z, Ci(x) = f sin x - g cos x (DLMF 6.5), and x f and x^2 g
    asymptotic series with the tails F2 and G2 of :func:`_series_tail`,
    the plane-wave bracket over z^4 is

        B/z^4 = sin x [-4 u2/z + 2 (c0 + 3 c4)/z^3 - 4 c0 F2/z]
              + cos x [2 w/z^2 + 3 (c4 - c0)/z^4 + 2 c0 G2/z^2],

    where the z^3 terms that cancel in B cancel in the algebra:
    u2 = c0 + c2 + c4 = (e0_par.en_par)^2 and w = c0 - c2 - 3 c4 =
    2pu - u^2 - 2v, formed at 30 digits from the sympy coefficients of
    :func:`plane_wave_coefficients`. bulk = pref 2 pi/(8 a^2) B/z^4."""
    with mpmath.workdps(30):
        c0, c2, c4 = plane_wave_coefficients(bundle.params.test_dipole,
                                             bundle.params.array_dipole)
        u2, w, c0, c4 = (float(v) for v in (c0 + c2 + c4, c0 - c2 - 3 * c4, c0, c4))
    z = bundle.z_tilde
    sin, cos = math.sin(2.0 * z), math.cos(2.0 * z)
    terms = (-4.0 * u2 / z * sin, 2.0 * (c0 + 3.0 * c4) / z ** 3 * sin,
             -4.0 * c0 * _series_tail(2.0 * z, 0) / z * sin, 2.0 * w / z ** 2 * cos,
             3.0 * (c4 - c0) / z ** 4 * cos, 2.0 * c0 * _series_tail(2.0 * z, 1) / z ** 2 * cos)
    factor = prefactor(bundle, "resonant") * 2.0 * math.pi / (8.0 * bundle.a_tilde ** 2)
    return factor * math.fsum(terms), abs(factor) * math.fsum(map(abs, terms))


def edge_axis_loop(bundle, axis):
    """Per-node loop over x = t e^{i pi/4}, on the package's own nodes."""
    z = bundle.z_tilde
    e0 = np.asarray(bundle.params.test_dipole)
    en = np.asarray(bundle.params.array_dipole)
    xs, w, _, _ = _numpy_backend.rotated_rules(np.array([z]), kernels.ROTATED_RULE)
    out = np.empty_like(xs)
    for idx, x in np.ndenumerate(xs):
        v = np.array((x, 0.0, -z) if axis == "x" else (0.0, x, -z))
        r = np.sqrt(x * x + z * z)
        n = v / r
        t1, t2 = scalar_coefficients(r, 1.0)
        pc = t1 * float(e0 @ en) + t2 * (e0 @ n) * (n @ en)
        out[idx] = pc * pc
    return float(np.sum(out * w).real)


_GL_NODES, _GL_WEIGHTS = leggauss(16)


def _gl_panels(f, edges) -> list[float]:
    """GL-16 values of the panels between consecutive edges, from one call of f."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = f((mid[:, None] + half[:, None] * _GL_NODES).ravel()).reshape(half.size, -1)
    return (half * np.sum(_GL_WEIGHTS * vals, axis=1)).tolist()


def _bisected(f, lo, hi, whole, abs_floor, depth=0) -> float:
    """Bisect a panel until GL-16 self-agreement."""
    mid = 0.5 * (lo + hi)
    left, right = _gl_panels(f, (lo, mid, hi))
    parts = left + right
    if abs(whole - parts) <= 1e-13 * abs(parts) + abs_floor or depth >= 24:
        return parts
    return (_bisected(f, lo, mid, left, 0.5 * abs_floor, depth + 1)
            + _bisected(f, mid, hi, right, 0.5 * abs_floor, depth + 1))


def _repeated_average(tail):
    a = list(tail)
    while len(a) > 1:
        a = [0.5 * (a[i] + a[i + 1]) for i in range(len(a) - 1)]
    return a[0]


def _oscillatory_integral(f, z, to_x, rel_tol=1e-11, max_panels=6000):
    """Integrate f over [to_x(z), inf) on the real axis in half-period panels
    of the e^{2ir} phase, r_k = z + k pi/2; to_x maps r to the integration
    variable. The first four panels are bisected adaptively; the tail is
    summed by repeated averaging of the partial sums."""
    def edges(k0, k1):
        return [to_x(z + k * math.pi / 2.0) for k in range(k0, k1 + 1)]

    partials = []
    total = 0.0
    est_prev = None
    floor = 0.0
    abs_floor = 0.0
    near = edges(0, 4)
    wholes = _gl_panels(f, near)
    for k in range(max_panels):
        if k < 4:
            seg = _bisected(f, near[k], near[k + 1], wholes[k], abs_floor)
            abs_floor = max(abs_floor, 1e-14 * abs(seg))
        else:
            seg = _gl_panels(f, edges(k, k + 1))[0]
        total += seg
        partials.append(total)
        floor = max(floor, abs(total))
        if k >= 16 and (k & 1):
            est = _repeated_average(partials[-16:])
            if est_prev is not None and abs(est - est_prev) <= rel_tol * max(abs(est), 1e-14 * floor):
                return est
            est_prev = est
    raise QuadratureFailure("oscillatory tail averaging did not converge")


def edge_axis_real(bundle, axis):
    """One positive half-axis integral of the resonant edge on the real axis."""
    z = bundle.z_tilde
    e0, en = bundle.params.test_dipole, bundle.params.array_dipole

    def f(xs):
        r = np.sqrt(xs * xs + z * z)
        p0 = ((e0[0] * xs if axis == "x" else e0[1] * xs) - e0[2] * z) / r
        pn = ((en[0] * xs if axis == "x" else en[1] * xs) - en[2] * z) / r
        t1, t2 = scalar_coefficients(r, 1.0)
        pc = t1 * float(np.dot(e0, en)) + t2 * p0 * pn
        return (pc * pc).real

    return _oscillatory_integral(f, z, to_x=lambda r: math.sqrt(max(r * r - z * z, 0.0)))


# ---------------------------------------------------------------------------
# off-resonant bulk and edge integrals

# the radial kernels: int_1^inf e^{-2ut} P(ut, 1/t^2) t^-k dt as E_n
# combinations, u = z*xi
_EN_ORDERS = np.arange(1, 10)


def radial_kernel_zz(u: float) -> float:
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


def radial_kernel_zx(u: float) -> float:
    if u < 1e-12:
        return 0.375
    e = expn(_EN_ORDERS, 2.0 * u)
    u2 = u * u
    u3 = u2 * u
    u4 = u2 * u2
    return (u4 * e[2] + 6.0 * u3 * e[3] + (15.0 * u2 - u4) * e[4]
            + (18.0 * u - 6.0 * u3) * e[5] + (9.0 - 15.0 * u2) * e[6]
            - 18.0 * u * e[7] - 9.0 * e[8])


def radial_kernels_by_quad(u):
    """The zz and zx radial kernels by quad of their defining t-integrals."""
    def fzz(t):
        g = (u * u * t * t + u * t + 1.0) - (u * u * t * t + 3 * u * t + 3.0) / (t * t)
        return math.exp(-2.0 * u * t) * g * g / t ** 5

    def fzx(t):
        bb = u * u * t * t + 3 * u * t + 3.0
        return (t * t - 1.0) * math.exp(-2.0 * u * t) * bb * bb / t ** 9

    wzz, _ = quad(fzz, 1.0, np.inf, epsrel=1e-12, limit=300)
    wzx, _ = quad(fzx, 1.0, np.inf, epsrel=1e-12, limit=300)
    return wzz, wzx


def offres_bulk_oracle(bundle):
    """zz/zx off-resonant bulk, E_n radial kernels, quad over xi in [0, 1] + [1, inf)."""
    z = bundle.z_tilde
    mu2 = bundle.mu ** 2
    kern, geom = ((radial_kernel_zz, 2.0) if bundle.orientation_label() == "zz"
                  else (radial_kernel_zx, 1.0))

    def f(xi):
        return kern(z * xi) / ((xi * xi + 1.0) * (xi * xi + mu2))

    head, _ = quad(f, 0.0, 1.0, epsabs=1e-300, epsrel=1e-13, limit=200)
    tail, _ = quad(lambda t: f(1.0 / t) / (t * t), 0.0, 1.0, epsabs=1e-300, epsrel=1e-13,
                   limit=200)
    return prefactor(bundle, "off_resonant") * geom * math.pi / (bundle.a_tilde ** 2 * z ** 4) \
        * (head + tail)


def offres_bulk_by_ring(bundle):
    """Any pair's off-resonant bulk: adaptive quadrature over R of the mean
    of the site kernel over _AZIMUTHS."""
    e0, en = bundle.params.test_dipole, bundle.params.array_dipole
    z = bundle.z_tilde

    def ring(big_r):
        r, dot, pp = site_projections(e0, en, big_r * np.cos(_AZIMUTHS),
                                      big_r * np.sin(_AZIMUTHS), z)
        return big_r * float(np.mean(offres_sites(r, dot, pp, bundle.mu)))

    cuts = [0.0, z, 16.0 * z]
    head = sum(quad(ring, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for lo, hi in zip(cuts, cuts[1:]))
    tail, _ = quad(lambda t: ring(16.0 * z / t) * 16.0 * z / (t * t), 0.0, 1.0,
                   epsabs=0.0, epsrel=1e-12, limit=200)
    return prefactor(bundle, "off_resonant") * (2.0 * math.pi / bundle.a_tilde ** 2) * (head + tail)


def _ray_quad(bundle, d):
    """int_0^inf f(t d) dt of the off-resonant site kernel f along the
    in-plane unit direction d, by adaptive quad: f is ``kernels.offres_sites``
    at ``greens.site_projections``, so no node of ``kernels.REAL_PATH`` enters."""
    z, mu = bundle.z_tilde, bundle.mu
    e0 = np.asarray(bundle.params.test_dipole)
    en = np.asarray(bundle.params.array_dipole)

    def f(t):
        return float(offres_sites(*site_projections(e0, en, t * d[0], t * d[1], z), mu)[0])

    cuts = sorted({z, 1.0, 1.0 / mu, 10.0 * z, 10.0 / min(mu, 1.0)})
    head = sum(_quad_checked(f, lo, hi, 1e-12) for lo, hi in zip([0.0] + cuts[:-1], cuts))
    c = cuts[-1]
    return head + _quad_checked(lambda t: f(c / t) * c / (t * t), 0.0, 1.0, 1e-12)


def axis_quad(bundle, axis):
    """int_0^inf of the off-resonant site kernel along one positive axis."""
    return _ray_quad(bundle, (1.0, 0.0) if axis == "x" else (0.0, 1.0))


def whole_axis_edge(bundle):
    """The off-resonant edge over whole axes, pref (1/a) [int f(x, 0) dx +
    int f(0, y) dy] over the real line: its four half-axes by
    :func:`_ray_quad`. It equals ``edge_term``, which doubles the positive
    half-axes, only for a site term even along both axes."""
    halves = [_ray_quad(bundle, d) for d in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))]
    return prefactor(bundle, "off_resonant") / bundle.a_tilde * math.fsum(halves)


def offres_edge_reordered(bundle):
    """The zz off-resonant edge with the integration order swapped: xi
    outermost, the axis innermost."""
    z = bundle.z_tilde
    mu2 = bundle.mu ** 2

    def inner(xi):
        def g(x):
            r2 = x * x + z * z
            r = math.sqrt(r2)
            u = xi * r
            gg = (u * u + u + 1.0) - (u * u + 3.0 * u + 3.0) * z * z / r2
            return math.exp(-2.0 * u) * gg * gg / r2 ** 3
        val, _ = quad(g, 0.0, np.inf, epsrel=1e-10, limit=300)
        return val / ((xi * xi + 1.0) * (xi * xi + mu2))

    head, _ = quad(inner, 0.0, 1.0, epsrel=1e-9, limit=200)
    tail, _ = quad(lambda t: inner(1.0 / t) / (t * t), 1e-13, 1.0, epsrel=1e-9, limit=200)
    return prefactor(bundle, "off_resonant") * (4.0 / bundle.a_tilde) * (head + tail)
