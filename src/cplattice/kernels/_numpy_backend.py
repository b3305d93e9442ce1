"""NumPy fallback for the hot lattice-sum row kernels.

Same contract as the compiled library, and the same bits: ``res_rows(zx,
a2, z2, nz, d2, n, step, lo, hi, values, out)`` writes the octant rows
lo <= n_x < hi, n_y = 0..n_x, of the zz (zx false) or zx (zx true)
orientation with the dihedral-orbit weights folded in, at each of the nz
heights z2, into ``out``, from their :func:`distance_table` or, with an
empty one, streamed (``kernels.res_rows`` checks the range, allocates
``out`` and chooses the table), by ``_rows.c``'s rule for each height and
in its order of operations (:func:`site_terms`, :func:`sin_cos`,
:func:`_sums`).
:func:`phi_laguerre` is the Gauss-Laguerre branch of the off-resonant site
kernel, and :func:`offres_sites` the arithmetic of that kernel on the
buffer of ``kernels._offres_chunks`` once NumPy has put r^6 into it, with
SciPy's Si and Ci (:func:`sici`) and np.sin and np.cos of 2y: the
closed-form branch :func:`phi_closed`, the :func:`moments` and the
contraction. :func:`sici` imports ``scipy.special`` on its first call, so
this backend alone loads it.
:func:`res_points` and :func:`offres_points` are the site sets of the
direct sums of generic dipole pairs, the vertex and the off-resonant real
path (see ``kernels.res_points``), through ``greens.site_projections`` and
the site kernels. They are the fallback and the oracle that the compiled
library equals bit for bit.
:func:`ray_rotated` (the resonant edge) and :func:`panel_sums` are the
ray integrals of the bulk/edge decomposition (see ``kernels.ray_rotated``),
with :func:`rotated_rules` the reference of the compiled rule.
"""
from __future__ import annotations

import math

import numpy as np

from ..greens import resonant_sites, resonant_sites_complex, site_projections
from . import NODES, RULE_HEAD, offres_fill, table_ranks, vanishing_origin


# _rows.c's sin_branchless, a Cody-Waite reduced fdlibm-style sin/cos for
# phases below PHASE_LIMIT: its literals, which test_kernels.py requires to
# equal the C ones bit for bit
TWO_OVER_PI, PHASE_LIMIT = 6.36619772367581382433e-01, 1.0e6
PIO2_1, PIO2_1T = 1.57079632673412561417e+00, 6.07710050650619224932e-11
S1, S2, S3 = -1.66666666666666324348e-01, 8.33333333332248946124e-03, -1.98412698298579493134e-04
S4, S5, S6 = 2.75573137070700676789e-06, -2.50507602534068634195e-08, 1.58969099521155010221e-10
C1, C2, C3 = 4.16666666666666019037e-02, -1.38888888888741095749e-03, 2.48015872894767294178e-05
C4, C5, C6 = -2.75573143513906633035e-07, 2.08757232129817482790e-09, -1.13596475577881948265e-11

# The most values of one pass of the rows (rows x columns) unless it holds
# one row, and of one site_terms call: arrays of 64 KB, which the allocator
# reuses. Whole-octant temporaries (M = 500) were mapped from and returned
# to the OS on every call, and made the table pass about twice as slow
ROW_SITES = 1 << 13


def sin_cos(x):
    """(sin x, cos x) for x in [0, PHASE_LIMIT), in sin_branchless's order of
    operations: a truncating int32 quadrant, the reduced argument and 0/1
    masks for the quadrant's signs."""
    n = (x * TWO_OVER_PI + 0.5).astype(np.int32)
    fn = n.astype(np.float64)
    t = (x - fn * PIO2_1) - fn * PIO2_1T
    t2 = t * t
    ks = t + t * t2 * (S1 + t2 * (S2 + t2 * (S3 + t2 * (S4 + t2 * (S5 + t2 * S6)))))
    kc = 1.0 - 0.5 * t2 + t2 * t2 * (C1 + t2 * (C2 + t2 * (C3 + t2 * (C4 + t2 * (C5 + t2 * C6)))))
    odd, hi = (n & 1).astype(np.float64), ((n >> 1) & 1).astype(np.float64)
    even = 1.0 - odd
    sign_s, sign_c = 1.0 - 2.0 * hi, 1.0 - 2.0 * (odd + hi - 2.0 * odd * hi)
    return sign_s * (odd * kc + even * ks), sign_c * (odd * ks + even * kc)


def site_terms(zx: bool, d2, a2: float, z2, fast: bool):
    """_rows.c's term_zz, Re[e^{2ir} Bzz^2]/r^6 (zx false), or term_zx, the
    zx term times its interior orbit weight 4 d2 a^2 (zx true), at
    r^2 = d2 a^2 + z2, d2 = nx^2 + j^2: sin and cos of 2r from
    :func:`sin_cos` where ``fast``, else from np.sin and np.cos."""
    r2 = d2 * a2 + z2
    r = np.sqrt(r2)
    s, co = sin_cos(2.0 * r) if fast else (np.sin(2.0 * r), np.cos(2.0 * r))
    if zx:
        q = 3.0 - r2
        g = (co * (q * q - 9.0 * r2) + s * (6.0 * r * q)) * z2 / (r2 * r2 * r2 * r2 * r2)
        return 4.0 * d2 * a2 * g
    c = z2 / r2
    bre = (r2 - 1.0) + (3.0 - r2) * c
    bim = r * (1.0 - 3.0 * c)
    return (co * (bre * bre - bim * bim) - s * (2.0 * bre * bim)) / (r2 * r2 * r2)


def _fill_terms(zx: bool, d2, a2: float, z2: float, fast: bool, out):
    """out = :func:`site_terms` at the distances d2, ``ROW_SITES`` at a
    time; returns out."""
    for k in range(0, d2.size, ROW_SITES):
        out[k:k + ROW_SITES] = site_terms(zx, d2[k:k + ROW_SITES], a2, z2, fast)
    return out


def fast_rows(a2: float, z2, nx):
    """_rows.c's fast_row: whether row nx takes the reduced sin/cos, its
    largest phase, at the diagonal site, below PHASE_LIMIT. Rows grow in
    phase with nx."""
    nx2 = np.float64(nx) * np.float64(nx)
    return 2.0 * np.sqrt(2.0 * nx2 * a2 + z2) < PHASE_LIMIT


def _sites(lo: int, hi: int):
    """(nx, j) of the octant sites 0 <= j <= nx of the rows lo <= nx < hi,
    row by row (``np.tril_indices`` order)."""
    row, j = np.nonzero(np.arange(hi) <= np.arange(lo, hi)[:, None])
    return row + lo, j


def _sums(lo: int, hi: int, values) -> np.ndarray:
    """The passes of the rows 0 < lo <= nx < hi from values, their site terms
    in row order, as _rows.c's row_sum gives them: each row's Neumaier sum
    in j order from 0.0, taken along the row. np.add.accumulate takes the
    running sum in order, each step's compensation term follows from it
    elementwise, and a second accumulate sums those in order. Each row is
    padded to the longest with +0.0 after its end; such a step changes
    neither sum, since neither starts at or can reach -0.0 and x + 0.0 = x
    for every other x (once a sum is inf or NaN its compensation is NaN)."""
    nx = np.arange(lo, hi)
    steps = np.zeros((nx.size, hi + 1))
    steps[:, 1:][np.arange(hi) <= nx[:, None]] = values
    acc = np.add.accumulate(steps, axis=1)
    t, before = acc[:, 1:], acc[:, :-1]
    bb = t - before
    # the first term is +0.0 (or NaN), so the sum from it is the sum from 0.0
    comp = np.add.accumulate((before - (t - bb)) + (steps[:, 1:] - bb), axis=1)
    return acc[:, -1] + comp[:, -1]


def _totals(zx: bool, a2: float, z2: float, lo: int, hi: int, passes, out) -> None:
    """out = the rows lo <= nx < hi at the height z2 from their passes, as
    _rows.c's row_total gives them, the endpoint terms with np.sin and
    np.cos. The origin row takes no pass: zz its one term, zx 0.0, its
    weight 2 nx^2 a^2 being 0."""
    if lo == 0 < hi:
        out[0] = 0.0 if zx else site_terms(False, np.float64(0.0), a2, z2, False)
        lo, passes, out = 1, passes[1:], out[1:]
    nx2 = (np.arange(lo, hi) ** 2).astype(np.float64)
    ends = site_terms(zx, nx2, a2, z2, False), site_terms(zx, 2.0 * nx2, a2, z2, False)
    out[:] = (passes - 0.5 * ends[0] - 0.5 * ends[1] if zx
              else 8.0 * passes - 4.0 * ends[0] - 4.0 * ends[1])


def _stream(zx: bool, a2: float, z2: float, lo: int, hi: int, rows: int, passes) -> None:
    """passes[nx - lo] = the pass of each row 0 < nx of lo <= nx < hi at the
    height z2, as _rows.c's stream_rows gives it, ``rows`` rows at a time:
    every site's term evaluated, those of the rows whose largest phase is
    below PHASE_LIMIT (:func:`fast_rows`) with the reduced sin/cos."""
    start = max(lo, 1)  # the origin row takes no pass
    split = lo + int(np.count_nonzero(fast_rows(a2, z2, np.arange(lo, hi))))
    for fast, first, last in ((True, start, split), (False, max(split, start), hi)):
        for b in range(first, last, rows):
            e = min(b + rows, last)
            nx, j = _sites(b, e)
            d2 = (nx * nx + j * j).astype(np.float64)
            passes[b - lo:e - lo] = _sums(b, e, _fill_terms(zx, d2, a2, z2, fast,
                                                            np.empty(d2.size)))


def res_rows(zx: bool, a2: float, z2, nz: int, d2, n: int, step, lo: int, hi: int, values,
             out: np.ndarray) -> None:
    """out[h, nx - lo] = octant row nx at the height z2[h] for the nz heights
    and lo <= nx < hi, with out viewed as (nz, hi - lo): _rows.c's
    table_height height by height. With the rows' distance table, the n
    distances d2 and the rank steps of :func:`distance_table`, and the last
    row's largest phase below PHASE_LIMIT, the site term with the reduced
    sin/cos once per distance into values (room for n) and each row
    gathered through the ranks of ``kernels.table_ranks``; without a table
    (n = 0), or past the limit, the rows stream (:func:`_stream`)."""
    rows, passes = out.reshape(nz, hi - lo), np.empty(hi - lo)
    block = max(1, ROW_SITES // (hi + 1))
    for h, z2h in enumerate(z2.tolist()):
        if n and fast_rows(a2, z2h, hi - 1):
            _fill_terms(zx, d2, a2, z2h, True, values)
            for b, e, ranks in table_ranks(step, lo, hi, block):
                if b == 0:  # the origin row takes no pass
                    b, ranks = 1, ranks[1:]
                passes[b - lo:e - lo] = _sums(b, e, values[ranks])
        else:
            _stream(zx, a2, z2h, lo, hi, block, passes)
        _totals(zx, a2, z2h, lo, hi, passes, rows[h])


def distance_table(lo: int, hi: int, d2: np.ndarray, step: np.ndarray) -> int:
    """Write the distinct nx^2 + j^2 over the octant sites of the rows
    lo <= nx < hi in ascending order into d2, and each site's rank step
    (``np.tril_indices`` order) into step: its rank less that of the site
    before it in its row, or at j = 0 less that of the row before's first
    site (0 for row lo); return the count. ``kernels.build_table`` checks
    the range and allocates d2 and step."""
    nx, j = _sites(lo, hi)
    distinct, rank = np.unique(nx * nx + j * j, return_inverse=True)
    before = np.concatenate(([0], rank[:-1]))
    heads = j == 0
    before[heads] = np.concatenate(([0], rank[heads]))[:-1]
    step[:] = rank - before
    d2[:distinct.size] = distinct
    return distinct.size


def phi_laguerre(y, n: int, t, w, pw, m: int, out: np.ndarray) -> None:
    """out = Phi_0..4(y) as columns, by Gauss-Laguerre quadrature in tau = 2yt
    with the nodes t, weights w and powers pw = (t/2)^k; n and m, the sizes
    of y and t, are implied by the arrays here."""
    y2 = 2.0 * y[:, None]
    q = t / y2
    q *= q
    q += 1.0
    np.divide(w, q, out=q)
    # einsum, not a BLAS matmul: that would page in a BLAS buffer for 5
    # columns; it sums the nodes in order, as the compiled branch does
    np.divide(np.einsum("ij,jk->ik", q, pw), y2, out=out)


def phi_closed(y, si, ci, sx, cx, poly) -> np.ndarray:
    """Phi_0..4(y) as columns, from f(2y) and g(2y) (DLMF 6.7.13-14), for
    si, ci = Si(2y), Ci(2y), sx = sin(2y) and cx = cos(2y): the f/g parts
    Q_k = f, y g, -y^2 f, -y^3 g, y^4 f, and where the mask ``poly`` is set
    the polynomial parts 0, 0, y/2, y/4 and y/4 - y^3/2 added to them."""
    si = si - 0.5 * np.pi
    f = ci * sx - si * cx
    g = -ci * cx - si * sx
    y2 = y * y
    y3 = y2 * y
    phi = np.stack([f, y * g, -(y2 * f), -(y3 * g), y2 * y2 * f], axis=-1)
    yp = y[poly]
    phi[poly, 2:] += np.stack([0.5 * yp, 0.25 * yp, 0.25 * yp - 0.5 * y3[poly]], axis=-1)
    return phi


def moments(y, mu: float, sw: float, recast: float, t, w, pw) -> np.ndarray:
    """M_0..4(r, mu) as columns for the n sites of y = (r mu, r) (2n values):
    Phi_k(y) in closed form for y < sw, from :func:`sici`, np.sin and np.cos
    of 2y, by Gauss-Laguerre
    quadrature above, and the partial fractions. A branch that no y falls in
    is not called.

    The partial fractions cancel the polynomial parts of Phi_2..4 exactly
    but for rounding, ~eps r/|1 - mu^2| against M_3 and M_4 ~ r^3: a site
    whose two y are closed-form and whose r^2 (1 + mu) is below ``recast``
    takes the moments from the f/g parts alone, (Q_k(r mu)/mu - Q_k(r)) /
    (1 - mu^2), with the 0.5 r^3 those polynomial parts leave in M_4 added.
    """
    n = y.size // 2
    r = y[n:]
    rearranged = (y[:n] < sw) & (r < sw) & (r * r * (1.0 + mu) < recast)
    phi = np.empty((y.size, 5))
    small = y < sw
    if small.any():
        poly = ~np.concatenate([rearranged, rearranged])
        x = 2.0 * y[small]
        si, ci = np.empty(x.size), np.empty(x.size)
        sici(x, x.size, si, ci)
        phi[small] = phi_closed(y[small], si, ci, np.sin(x), np.cos(x), poly[small])
    if not small.all():
        large = np.ascontiguousarray(y[~small])
        lag = np.empty((large.size, 5))
        phi_laguerre(large, large.size, t, w, pw, t.size, lag)
        phi[~small] = lag
    m = (phi[:n] / mu - phi[n:]) / (1.0 - mu * mu)
    rr = r[rearranged]
    m[rearranged, 4] += 0.5 * rr * rr * rr
    return m


def sici(x, n: int, si, ci) -> None:
    """si, ci = Si(x) and Ci(x) of the n values x: ``scipy.special.sici``,
    the oracle that the compiled port equals bit for bit, imported here so
    that only this backend loads ``scipy.special``."""
    from scipy.special import sici as scipy_sici
    scipy_sici(x, out=(si, ci))


def offres_sites(n: int, mu: float, sw: float, recast: float, table, m: int, buf) -> None:
    """The off-resonant site integrals of the n sites of the (3, 2n) buffer
    buf of ``kernels._offres_chunks`` into the second half of its row 2:
    sum_k c_k M_k / r^6 with the h(u)^2 coefficients c_k, the moments as in
    :func:`moments` with the m nodes t, weights w and powers pw (m, 5) that
    table holds in that order.

    The five terms are summed as ((p0 + p2) + p4) + (p1 + p3), each lane
    from zero and the lane sum added to zero, the order in which
    np.einsum("ik,ik->i") summed them when the site values were pinned; the
    compiled contraction spells out the same order, so the two are bitwise
    equal without depending on how a NumPy build splits its einsum loop.
    """
    y, dot, pp = buf[0], buf[1, :n], buf[1, n:]
    t, w, pw = table[:m], table[m:2 * m], table[2 * m:].reshape(m, 5)
    alpha = dot - pp
    beta = dot - 3.0 * pp
    ab = 2.0 * alpha * beta
    b2 = beta * beta
    mk = moments(y, mu, sw, recast, t, w, pw)
    # h(u)^2 = sum_k c_k u^k
    p0, p1, p2 = b2 * mk[:, 0], (2.0 * b2) * mk[:, 1], (ab + b2) * mk[:, 2]
    p3, p4 = ab * mk[:, 3], (alpha * alpha) * mk[:, 4]
    even = ((0.0 + p0) + p2) + p4
    odd = ((0.0 + p1) + p3) + 0.0
    np.divide((even + odd) + 0.0, buf[2, :n], out=buf[2, n:])


# ---------------------------------------------------------------------------
# real-axis site sets (kernels.res_points and offres_points)

# The most sites of one block of rows of res_points: as many whole rows as
# fit, or one longer row
SITE_SET_BLOCK = 1 << 14


def res_points(pair, u, nu: int, v, nv: int, z, nz: int, sums: bool, out: np.ndarray) -> int:
    """out = the resonant site values of the grid site set (see
    ``kernels.res_points``), (nz, nu, nv), or with ``sums`` each row's
    np.sum, (nz, nu): ``site_projections`` and ``resonant_sites`` over blocks
    of at most ``SITE_SET_BLOCK`` sites, whole rows or one longer row, a
    height at a time, with ``vanishing_origin`` before a row is summed.
    Returns 0, as the compiled pass does when it can allocate its row."""
    step = max(1, SITE_SET_BLOCK // nv)
    for h, zh in enumerate(z.tolist()):
        for start in range(0, nu, step):
            rows = slice(start, min(start + step, nu))
            values = resonant_sites(*site_projections(pair[:3], pair[3:6], u[rows, None], v, zh))
            vanishing_origin(pair, u[rows], v, values)
            out[h, rows] = np.sum(values, axis=1) if sums else values
    return 0


def offres_points(pair, u, nu: int, v, nv: int, rays: bool, z, k0: int, n: int, mu: float,
                  buf) -> None:
    """``kernels.offres_fill`` for the sites k0 <= k < k0 + n of the site set
    (k = (h nu + i) nv + j), at (u[i], v[j]) or with ``rays`` R (v[2j],
    v[2j+1]) with R = z[h] u[i], through ``site_projections``."""
    h, site = np.divmod(np.arange(k0, k0 + n), nu * nv)
    i, j = np.divmod(site, nv)
    zh = z[h]
    if rays:
        big_r = zh * u[i]
        x, y = big_r * v[2 * j], big_r * v[2 * j + 1]
    else:
        x, y = u[i], v[j]
    r, dot, pp = site_projections(pair[:3], pair[3:6], x, y, zh)
    offres_fill(buf, n, r, dot, pp, mu)


# ---------------------------------------------------------------------------
# the decomposition's ray integrals (euler_maclaurin._ray_integral)

def rotated_rules(heights, rule):
    """Nodes t e^{i pi/4} and weights of the rotated path at each height, the
    panels of all heights concatenated as rows in height order, and each
    height's panel count, from the table ``rule`` of
    ``kernels.rotated_rule_table``. A height z has the panel [0, h],
    h = 0.1 min(z, 1), then n panels in ratio 1.4 out to t_max = max(30,
    7 sqrt(z)), where e^{2ir} has decayed below ~e^-40: the edges h 1.4^k,
    k = 0..n, with n = ceil(log(t_max/h)/log(1.4)). A height whose n is not
    below the number of powers (t_max/h overflows for z below ~1.7e-306)
    has no panels and the count -1."""
    x, w, w_low = (rule[k * NODES:(k + 1) * NODES] for k in range(3))
    turn, log_ratio, powers = complex(*rule[3 * NODES:3 * NODES + 2]), rule[3 * NODES + 2], \
        rule[RULE_HEAD:]
    counts = []
    for z in heights.tolist():
        hz = 0.1 * min(z, 1.0)
        n = math.log(max(30.0, 7.0 * math.sqrt(z)) / hz if hz else math.inf) / log_ratio
        counts.append(math.ceil(n) + 1 if n <= powers.size - 1 else -1)
    counts = np.array(counts, dtype=np.int64)  # int64 even for no heights
    panels = np.maximum(counts, 0)
    first = np.cumsum(panels) - panels  # each height's first panel
    # panel k of a height spans [0, h] for k = 0, else [h 1.4^(k-1), h 1.4^k]
    k = np.arange(panels.sum()) - np.repeat(first, panels)
    hi = np.repeat(0.1 * np.minimum(heights, 1.0), panels) * powers[k]
    lo = np.concatenate(([0.0], hi[:-1]))[:hi.size]
    lo[first[panels > 0]] = 0.0
    lo, hi = lo[:, None], hi[:, None]
    half = 0.5 * (hi - lo)
    return turn * (lo + half * (1.0 + x)), turn * (half * w), turn * (half * w_low), counts


def ray_rotated(pair, axes: int, z, nz: int, rule, npowers: int, counts, out) -> int:
    """The resonant edge's axis integrals on the rotated path at the nz
    heights z: out (nz, axes, 3) = each axis's value Re sum f w, error
    estimate sum |full - nested| and scale sum |full| over its height's
    panels, and counts = each height's panel count (-1, with NaNs, where it
    has no rule), at the sites (t, 0) of the x axis and, with axes 2, (0, t)
    of the y axis, t = s e^{i pi/4}: one site-projection pass over both.
    pair = e0, en and e0.en; rule as in :func:`rotated_rules`; npowers is
    implied by it here. Returns 0."""
    t, w, w_low, counts[:] = rotated_rules(z, rule)
    zr = np.repeat(z, np.maximum(counts, 0))[:, None]
    zero = np.zeros_like(t)
    # axis first, so that each axis's f is contiguous, as are the weights
    x, y = np.stack((t, zero))[:axes], np.stack((zero, t))[:axes]
    r, _, pp = site_projections(pair[:3], pair[3:6], x, y, zr)
    f = resonant_sites_complex(r, pair[6], pp)
    sums = out.reshape(nz, axes, 3)
    for o in range(axes):
        full = np.sum(f[o] * w, axis=1)
        err = np.abs(full - np.sum(f[o] * w_low, axis=1))
        mag = np.abs(full)
        start = 0
        for i, count in enumerate(counts.tolist()):
            part = slice(start, start + max(count, 0))
            start = part.stop
            sums[i, o] = ((full[part].sum().real, err[part].sum(), mag[part].sum()) if count >= 0
                          else math.nan)
    return 0


def panel_sums(f, nd: int, bulk: bool, z, nz: int, rule, rows: int, out) -> None:
    """out (nz, outputs, 3) = the value sum J g w, error estimate sum
    |full - nested| and scale sum |full| of each of the nz heights z, whose
    rows panels of NODES nodes z s are consecutive rows of f (nz rows,
    NODES, nd directions): for the bulk g the mean over all directions, one
    output, and J = z^2 s; for the edge g each direction's site value, one
    output each, and J = z; with the rows' weights w and nested weights
    w_low. The table ``rule`` (3, rows, NODES) holds s, w and w_low."""
    s, w, w_low = rule.reshape(3, rows, NODES)
    zr = np.repeat(z, rows)[:, None]
    jac = zr * zr * np.tile(s, (nz, 1)) if bulk else zr
    sites = f.reshape(nz * rows, NODES, nd)
    values = [sites.mean(axis=-1)] if bulk else [sites[..., k] for k in range(nd)]
    sums = out.reshape(nz, len(values), 3)
    for o, g in enumerate(values):
        # np.multiply(J, g), never J * g: NumPy computes an operator on a
        # temporary of more than 256 KiB in the temporary's buffer, and the
        # order of a block's operations must not depend on its size
        g = np.multiply(jac, g).reshape(nz, rows, NODES)
        full = np.sum(g * w, axis=-1)
        err = np.abs(full - np.sum(g * w_low, axis=-1))
        sums[:, o] = np.stack([full.sum(axis=-1), err.sum(axis=-1), np.abs(full).sum(axis=-1)],
                              axis=-1)
