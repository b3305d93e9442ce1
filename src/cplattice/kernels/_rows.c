/* Compiled lattice-sum row kernels and the decomposition's ray integrals,
   C99 with two GCC/Clang extensions (bit builtins and a vector type) and
   one GCC pragma, loaded through ctypes.

   Contract matches the NumPy fallback (_numpy_backend.py): res_rows(zx, a2,
   z2, nz, d2, n, step, lo, hi, values, out) writes into
   out[h (hi - lo) + nx - lo] the octant row n_x = nx, n_y = 0..nx with the
   orbit weights folded in, for z-oriented array dipoles (zx = 0) or
   x-oriented ones (zx = 1), at each of the nz heights z2[h] and for
   lo <= nx < hi, so the octants of a block of heights cost one call;
   phi_laguerre is the Gauss-Laguerre branch of the off-resonant site
   kernel, and offres_sites the rest of that kernel's arithmetic once
   NumPy has computed r^6: its bits come from NumPy's power, not from libm,
   so it stays there; Si and Ci of 2y are sici's, a port of SciPy's
   algorithm (cephes sici) with SciPy's bits; sin and cos of 2y are libm's, which np.sin and np.cos call on float64, and the rest is
   IEEE +, -, * and / in the NumPy fallback's order of operations. Each
   orientation's site term is written once (term_zz, term_zx) and serves the
   row pass, its endpoint corrections and the origin. The exports test zx
   outside their site loops, so each loop instance has its term fixed:
   choosing the term per site made the zx table pass ~30% slower. The row
   pass fills chunks the compiler vectorizes and sums them with Neumaier
   compensation in strict index order, so a row value is a pure function of
   (a2, z2, nx) and the caller's exact cross-row reduction is
   bit-reproducible for any worker count.

   The site term depends on (nx, j) only through d2 = nx^2 + j^2, and many
   d2 occur more than once (0.63 of the octant sites at M = 500 are
   distinct). distance_table lists the distinct d2 of a row range as int32
   and each site's rank among them as a uint16 step from the rank before.
   res_rows takes the range's table (its n distances) or none (n = 0) and
   applies one rule at each height: with a table, and the last row's largest
   phase below PHASE_LIMIT, it evaluates the term once per distinct d2 and
   gathers every row from those values; otherwise it streams, evaluating
   every site's term. Both sum a row in the same order, with the same
   compensation and endpoint terms, so either gives the same bits. One
   values buffer serves all heights of a call in turn.

   sin/cos use a Cody-Waite reduced fdlibm-style kernel (1 ulp), valid for
   phases below ~1e6. Rows whose largest phase reaches that bound, and the
   endpoint and origin terms, use libm; the choice is a constant at each
   fill call site, so every loop instance is branch-free.

   ray_rotated evaluates the resonant edge's integrals of the bulk/edge
   decomposition along the positive x axis and, where the edge needs it,
   the positive y axis, on their rotated paths, whole, and panel_sums the
   off-resonant ones on the real path from their site values; res_points and offres_points take the
   real-axis site sets (the direct sums of generic dipole pairs, the vertex
   and the off-resonant real path) from site positions on; see their
   sections at the end.

   Build: cc -O3 -std=c99 -fno-math-errno -march=native -shared -fPIC
   -o _rows.so _rows.c -lm. Strict ISO C mode turns off FMA contraction, so
   row values do not depend on how the compiler contracts; no -ffast-math,
   the compensated accumulation relies on strict IEEE semantics. */
#include <complex.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define CHUNK 512
#define LANES 8
#define SITE_BLOCK 64

static const double TWO_OVER_PI = 6.36619772367581382433e-01, PHASE_LIMIT = 1.0e6;
static const double HALF_PI = 1.57079632679489661923;
static const double PIO2_1 = 1.57079632673412561417e+00, PIO2_1T = 6.07710050650619224932e-11;

static const double S1 = -1.66666666666666324348e-01, S2 = 8.33333333332248946124e-03,
                    S3 = -1.98412698298579493134e-04, S4 = 2.75573137070700676789e-06,
                    S5 = -2.50507602534068634195e-08, S6 = 1.58969099521155010221e-10;
static const double C1 = 4.16666666666666019037e-02, C2 = -1.38888888888741095749e-03,
                    C3 = 2.48015872894767294178e-05, C4 = -2.75573143513906633035e-07,
                    C5 = 2.08757232129817482790e-09, C6 = -1.13596475577881948265e-11;

/* sin(x) and *cosv = cos(x) for x in [0, PHASE_LIMIT); a truncating int
   quadrant and exact 0/1 masks keep the pass branch-free. */
static inline double sin_branchless(double x, double *cosv)
{
    int n = (int)(x * TWO_OVER_PI + 0.5);
    double fn = (double)n;
    double t = (x - fn * PIO2_1) - fn * PIO2_1T;
    double t2 = t * t;
    double ks = t + t * t2 * (S1 + t2 * (S2 + t2 * (S3 + t2 * (S4 + t2 * (S5 + t2 * S6)))));
    double kc = 1.0 - 0.5 * t2 + t2 * t2 * (C1 + t2 * (C2 + t2 * (C3 + t2 * (C4 + t2 * (C5 + t2 * C6)))));
    double odd = (double)(n & 1), hi = (double)((n >> 1) & 1), even = 1.0 - odd;
    double sign_s = 1.0 - 2.0 * hi, sign_c = 1.0 - 2.0 * (odd + hi - 2.0 * odd * hi);
    *cosv = sign_c * (odd * ks + even * kc);
    return sign_s * (odd * kc + even * ks);
}

/* The reduced sin/cos pair of each x[i], exported for accuracy tests. */
void sincos_probe(const double *x, long n, double *s, double *c)
{
    for (long i = 0; i < n; i++)
        s[i] = sin_branchless(x[i], &c[i]);
}

/* sin(x) and *c = cos(x): the reduced kernel when fast, else libm. */
static inline double sin_cos(double x, double *c, int fast)
{
    return fast ? sin_branchless(x, c) : (*c = cos(x), sin(x));
}

/* zz site term Re[e^{2ir} Bzz^2]/r^6 at r2 = d2 a2 + z2. */
static inline double term_zz(double d2, double a2, double z2, int fast)
{
    double r2 = d2 * a2 + z2;
    double r = sqrt(r2);
    double c = z2 / r2;
    double bre = (r2 - 1.0) + (3.0 - r2) * c;
    double bim = r * (1.0 - 3.0 * c);
    double co, s = sin_cos(2.0 * r, &co, fast);
    return (co * (bre * bre - bim * bim) - s * (2.0 * bre * bim)) / (r2 * r2 * r2);
}

/* zx site term at r2 = d2 a2 + z2 times its interior orbit weight 4 d2 a2. */
static inline double term_zx(double d2, double a2, double z2, int fast)
{
    double r2 = d2 * a2 + z2;
    double r = sqrt(r2);
    double q = 3.0 - r2;
    double co, s = sin_cos(2.0 * r, &co, fast);
    double g = (co * (q * q - 9.0 * r2) + s * (6.0 * r * q)) * z2 / (r2 * r2 * r2 * r2 * r2);
    return 4.0 * d2 * a2 * g;
}

/* out[j] = term(nx^2 + (j0+j)^2) for j < m; zx and fast are constants at
   every call site, so each instance is a branch-free loop. */
static inline void fill(double *out, int zx, int fast, double nx2, double a2, double z2,
                        long j0, long m)
{
    for (long j = 0; j < m; j++) {
        double dj = (double)(int)(j0 + j);
        double d2 = nx2 + dj * dj;
        out[j] = zx ? term_zx(d2, a2, z2, fast) : term_zz(d2, a2, z2, fast);
    }
}

/* Whether row nx takes the reduced sin/cos: its largest phase, at the
   diagonal site, is below PHASE_LIMIT. Rows grow in phase with nx. */
static inline int fast_row(double a2, double z2, long nx)
{
    double nx2 = (double)nx * (double)nx;
    return 2.0 * sqrt(2.0 * nx2 * a2 + z2) < PHASE_LIMIT;
}

/* One Neumaier step: *acc += v, with the rounding error added to *comp. */
static inline void neumaier(double *acc, double *comp, double v)
{
    double t = *acc + v, bb = t - *acc;
    *comp += (*acc - (t - bb)) + (v - bb);
    *acc = t;
}

/* Neumaier sum of the site terms over j = 0..nx in chunks, in strict index
   order; the fast kernel is chosen once per row from its largest phase. */
static inline double row_sum(int zx, double nx2, double a2, double z2, long nx)
{
    int fast = fast_row(a2, z2, nx);
    double buf[CHUNK];
    double acc = 0.0, comp = 0.0;
    for (long j0 = 0; j0 <= nx; j0 += CHUNK) {
        long m = nx + 1 - j0 < CHUNK ? nx + 1 - j0 : CHUNK;
        if (fast)
            fill(buf, zx, 1, nx2, a2, z2, j0, m);
        else
            fill(buf, zx, 0, nx2, a2, z2, j0, m);
        for (long j = 0; j < m; j++)
            neumaier(&acc, &comp, buf[j]);
    }
    return acc + comp;
}

/* The octant row's total from its row pass, the compensated sum of the
   row's site terms (ignored at the origin row):
   zz: weights 4/8/4 and 1 at the origin, as 8 * pass - 4 * (endpoint terms);
   zx: x^2-folded orbit weights; the pass applies the interior weight
   4(nx^2+j^2) a^2, and subtracting half of the j=0 and j=nx terms leaves
   their weights 2 nx^2 a^2 and 4 nx^2 a^2. */
static inline double row_total(int zx, double pass, double a2, double z2, long nx)
{
    double nx2 = (double)nx * (double)nx;
    if (zx)
        return nx == 0 ? 0.0 : pass - 0.5 * term_zx(nx2, a2, z2, 0)
                                    - 0.5 * term_zx(2.0 * nx2, a2, z2, 0);
    return nx == 0 ? term_zz(0.0, a2, z2, 0) : 8.0 * pass - 4.0 * term_zz(nx2, a2, z2, 0)
                                                 - 4.0 * term_zz(2.0 * nx2, a2, z2, 0);
}

/* Octant row n_x = nx, streamed: every site term is evaluated. */
static inline double stream_row(int zx, double a2, double z2, long nx)
{
    double nx2 = (double)nx * (double)nx;
    return row_total(zx, nx == 0 ? 0.0 : row_sum(zx, nx2, a2, z2, nx), a2, z2, nx);
}

/* out[nx - lo] = octant row nx for lo <= nx < hi, one height, streamed.
   Kept out of line: inlined into table_height, its one caller, it changed
   GCC's register allocation of the gather loop there, and the zx table
   pass at M = 500 ran 2-3% slower. */
__attribute__((noinline))
static void stream_rows(int zx, double a2, double z2, long lo, long hi, double *out)
{
    if (zx)
        for (long nx = lo; nx < hi; nx++)
            out[nx - lo] = stream_row(1, a2, z2, nx);
    else
        for (long nx = lo; nx < hi; nx++)
            out[nx - lo] = stream_row(0, a2, z2, nx);
}

/* The distance table of the rows lo <= nx < hi, hi <= 2^15: the distinct
   d2 = nx^2 + j^2 over their sites 0 <= j <= nx in ascending order into d2,
   returning their count, and a rank step for each site into step, the
   sites row by row in j order (np.tril_indices order): the rank of its d2
   less that of the site before it in its row, or at j = 0 less that of the
   first site of the row before (none for row lo, whose d2 = lo^2 ranks 0).
   So d2 <= 2(hi-1)^2 < 2^31, and a step is at most 2j - 1, or 2nx - 1 at
   j = 0, below 2^16. d2 needs room for one value per site. A bitmap over
   lo^2 <= d2 <= 2(hi-1)^2 marks the distances that occur; the count of
   marks before each 64-bit word ranks them. Returns -1, writing nothing,
   when the bitmap cannot be allocated. */
long distance_table(long lo, long hi, int32_t *d2, uint16_t *step)
{
    if (hi <= lo)
        return 0;
    long base = lo * lo, words = (2 * (hi - 1) * (hi - 1) - base) / 64 + 1;
    uint64_t *bits = calloc((size_t)words, sizeof *bits);
    long *rank = malloc((size_t)words * sizeof *rank);
    if (bits == NULL || rank == NULL) {
        free(bits);
        free(rank);
        return -1;
    }
    for (long nx = lo; nx < hi; nx++)
        for (long j = 0; j <= nx; j++) {
            long s = nx * nx + j * j - base;
            bits[s >> 6] |= (uint64_t)1 << (s & 63);
        }
    long count = 0;
    for (long w = 0; w < words; w++) {
        rank[w] = count;
        for (uint64_t b = bits[w]; b; b &= b - 1)
            d2[count++] = (int32_t)(base + 64 * w + __builtin_ctzll(b));
    }
    for (long nx = lo, head = 0; nx < hi; nx++)
        for (long j = 0, before = head; j <= nx; j++) {
            long s = nx * nx + j * j - base;
            uint64_t below = bits[s >> 6] & (((uint64_t)1 << (s & 63)) - 1);
            long r = rank[s >> 6] + __builtin_popcountll(below);
            *step++ = (uint16_t)(r - before);
            before = r;
            if (j == 0)
                head = r;
        }
    free(bits);
    free(rank);
    return count;
}

/* LANES doubles as one vector (a GCC and Clang extension); arithmetic on it
   is the same IEEE operation in every lane. */
typedef double lanes __attribute__((vector_size(LANES * sizeof(double))));

/* Rows lo <= nx < hi from values[k], the fast site term at the k-th distance
   of the rows' table, and step, the rows' rank steps: a site's rank is its
   row's running sum of them, from the rank of the row before's first site.
   LANES consecutive rows are summed side by side, one row per lane, each
   lane in its row's j order with its own running rank, so every row is the
   Neumaier sum of row_sum. */
static void gather_rows(int zx, double a2, double z2, const double *values,
                        const uint16_t *step, long lo, long hi, double *out)
{
    long head = 0; /* the rank of the first site of the row before nx */
    long nx = lo;
    for (; nx + LANES <= hi; nx += LANES) {
        const uint16_t *row[LANES];
        long rank[LANES];
        for (int k = 0; k < LANES; k++) {
            row[k] = step;
            rank[k] = head;
            head += step[0];
            step += nx + k + 1;
        }
        lanes acc = {0.0}, comp = {0.0};
        for (long j = 0; j <= nx; j++) {
            lanes v;
            for (int k = 0; k < LANES; k++) {
                rank[k] += row[k][j];
                v[k] = values[rank[k]];
            }
            lanes t = acc + v, bb = t - acc;
            comp += (acc - (t - bb)) + (v - bb);
            acc = t;
        }
        for (int k = 0; k < LANES; k++) {
            double a = acc[k], c = comp[k];
            for (long j = nx + 1; j <= nx + k; j++) {
                rank[k] += row[k][j];
                neumaier(&a, &c, values[rank[k]]);
            }
            out[nx + k - lo] = row_total(zx, a + c, a2, z2, nx + k);
        }
    }
    for (; nx < hi; nx++) {
        double acc = 0.0, comp = 0.0;
        long rank = head;
        head += step[0];
        for (long j = 0; j <= nx; j++) {
            rank += step[j];
            neumaier(&acc, &comp, values[rank]);
        }
        step += nx + 1;
        out[nx - lo] = row_total(zx, acc + comp, a2, z2, nx);
    }
}

/* out[nx - lo] = octant row nx for lo <= nx < hi, one height: from the
   rows' distance table (the n distances d2 and the rank steps of
   distance_table(lo, hi, ...)), the site term evaluated once per distance,
   converted to double exactly, into values (room for n) and each row
   gathering its terms. Without a table (n = 0), or when the last row's
   largest phase reaches PHASE_LIMIT, the rows stream: rows past the limit
   take libm, and one distance could then carry two values. The height is a
   value here, not a pointer, so the value loops can be vectorized without
   an alias check against values. */
static void table_height(int zx, double a2, double z2, const int32_t *d2, long n,
                         const uint16_t *step, long lo, long hi, double *values, double *out)
{
    if (n == 0 || !fast_row(a2, z2, hi - 1)) {
        stream_rows(zx, a2, z2, lo, hi, out);
        return;
    }
    /* the distances are converted a chunk at a time: on int32 input GCC
       runs the term loop 16 wide and spills its constants */
    for (long k0 = 0; k0 < n; k0 += CHUNK) {
        long m = n - k0 < CHUNK ? n - k0 : CHUNK;
        double buf[CHUNK], *v = values + k0;
        for (long k = 0; k < m; k++)
            buf[k] = (double)d2[k0 + k];
        if (zx)
            for (long k = 0; k < m; k++)
                v[k] = term_zx(buf[k], a2, z2, 1);
        else
            for (long k = 0; k < m; k++)
                v[k] = term_zz(buf[k], a2, z2, 1);
    }
    gather_rows(zx, a2, z2, values, step, lo, hi, out);
}

/* out[h (hi - lo) + nx - lo] = octant row nx at the height z2[h], for the nz
   heights h and lo <= nx < hi: table_height height by height, from the
   rows' distance table (n > 0) or streamed (n = 0), every height reusing
   the one values buffer. */
void res_rows(int zx, double a2, const double *z2, long nz, const int32_t *d2, long n,
              const uint16_t *step, long lo, long hi, double *values, double *out)
{
    for (long h = 0; h < nz; h++)
        table_height(zx, a2, z2[h], d2, n, step, lo, hi, values, out + h * (hi - lo));
}

/* Phi_0..4(y[i]) by m-node Gauss-Laguerre quadrature in tau = 2yt, into
   out[5i + k], for the nodes t, weights w and powers pw[5j + k] = (t_j/2)^k of
   kernels._LAGUERRE_TABLE. The order of operations is that of the NumPy branch
   (_numpy_backend.phi_laguerre), so the values are bitwise equal: per node
   q = w_j/((t_j/2y)^2 + 1), per moment acc_k += q pw_jk from j = 0 up, and
   acc_k/2y last. LANES radii are evaluated side by side, one per lane, each
   lane in that order; the lanes past the last radius hold y = 1 and are not
   written. */
void phi_laguerre(const double *y, long n, const double *t, const double *w,
                  const double *pw, long m, double *out)
{
    for (long i = 0; i < n; i += LANES) {
        int used = n - i < LANES ? (int)(n - i) : LANES;
        lanes y2, acc[5] = {{0.0}, {0.0}, {0.0}, {0.0}, {0.0}};
        for (int l = 0; l < LANES; l++)
            y2[l] = 2.0 * (l < used ? y[i + l] : 1.0);
        for (long j = 0; j < m; j++) {
            lanes q = t[j] / y2;
            q = q * q;
            q = q + 1.0;
            q = w[j] / q;
            for (int k = 0; k < 5; k++)
                acc[k] = acc[k] + q * pw[5 * j + k];
        }
        for (int l = 0; l < used; l++)
            for (int k = 0; k < 5; k++)
                out[5 * (i + l) + k] = acc[k][l] / y2[l];
    }
}

/* The sine and cosine integrals: cephes sici, the algorithm and the
   coefficients of scipy.special.sici, in its order of operations, so that
   the bits are SciPy's. Below 4 the rational approximations of Si(x)/x and
   Ci(x) - gamma - ln x in x^2, above it the auxiliary functions f(x) and
   g(x) (DLMF 6.7(ii)) as rational functions of 1/x^2, one set to 8 and one
   beyond. The denominators' leading coefficients of 1, which cephes leaves
   to p1evl, are written out: 1 * z is exactly z. */
static const double SN[] = {-8.39167827910303881427E-11, 4.62591714427012837309E-8,
                            -9.75759303843632795789E-6, 9.76945438170435310816E-4,
                            -4.13470316229406538752E-2, 1.00000000000000000302E0};
static const double SD[] = {2.03269266195951942049E-12, 1.27997891179943299903E-9,
                            4.41827842801218905784E-7, 9.96412122043875552487E-5,
                            1.42085239326149893930E-2, 9.99999999999999996984E-1};
static const double CN[] = {2.02524002389102268789E-11, -1.35249504915790756375E-8,
                            3.59325051419993077021E-6, -4.74007206873407909465E-4,
                            2.89159652607555242092E-2, -1.00000000000000000080E0};
static const double CD[] = {4.07746040061880559506E-12, 3.06780997581887812692E-9,
                            1.23210355685883423679E-6, 3.17442024775032769882E-4,
                            5.10028056236446052392E-2, 4.00000000000000000080E0};
static const double FN4[] = {4.23612862892216586994E0, 5.45937717161812843388E0,
                             1.62083287701538329132E0, 1.67006611831323023771E-1,
                             6.81020132472518137426E-3, 1.08936580650328664411E-4,
                             5.48900223421373614008E-7};
static const double FD4[] = {1.0, 8.16496634205391016773E0, 7.30828822505564552187E0,
                             1.86792257950184183883E0, 1.78792052963149907262E-1,
                             7.01710668322789753610E-3, 1.10034357153915731354E-4,
                             5.48900252756255700982E-7};
static const double GN4[] = {8.71001698973114191777E-2, 6.11379109952219284151E-1,
                             3.97180296392337498885E-1, 7.48527737628469092119E-2,
                             5.38868681462177273157E-3, 1.61999794598934024525E-4,
                             1.97963874140963632189E-6, 7.82579040744090311069E-9};
static const double GD4[] = {1.0, 1.64402202413355338886E0, 6.66296701268987968381E-1,
                             9.88771761277688796203E-2, 6.22396345441768420760E-3,
                             1.73221081474177119497E-4, 2.02659182086343991969E-6,
                             7.82579218933534490868E-9};
static const double FN8[] = {4.55880873470465315206E-1, 7.13715274100146711374E-1,
                             1.60300158222319456320E-1, 1.16064229408124407915E-2,
                             3.49556442447859055605E-4, 4.86215430826454749482E-6,
                             3.20092790091004902806E-8, 9.41779576128512936592E-11,
                             9.70507110881952024631E-14};
static const double FD8[] = {1.0, 9.17463611873684053703E-1, 1.78685545332074536321E-1,
                             1.22253594771971293032E-2, 3.58696481881851580297E-4,
                             4.92435064317881464393E-6, 3.21956939101046018377E-8,
                             9.43720590350276732376E-11, 9.70507110881952025725E-14};
static const double GN8[] = {6.97359953443276214934E-1, 3.30410979305632063225E-1,
                             3.84878767649974295920E-2, 1.71718239052347903558E-3,
                             3.48941165502279436777E-5, 3.47131167084116673800E-7,
                             1.70404452782044526189E-9, 3.85945925430276600453E-12,
                             3.14040098946363334640E-15};
static const double GD8[] = {1.0, 1.68548898811011640017E0, 4.87852258695304967486E-1,
                             4.67913194259625806320E-2, 1.90284426674399523638E-3,
                             3.68475504442561108162E-5, 3.57043223443740838771E-7,
                             1.72693748966316146736E-9, 3.87830166023954706752E-12,
                             3.14040098946363335242E-15};
static const double EULER_GAMMA = 0.57721566490153286061;

/* cephes polevl: the polynomial of the given degree with the coefficients
   c[0..degree], highest power first, by Horner's rule */
static inline double polevl(double x, const double *c, int degree)
{
    double p = c[0];
    for (int i = 1; i <= degree; i++)
        p = p * x + c[i];
    return p;
}

/* *si = Si(x) and *ci = Ci(x), the real part for x < 0: Si(0) = 0 and
   Ci(0) = -inf, Si(+-inf) = +-pi/2 and Ci(inf) = 0, Ci(-inf) NaN, NaN for
   NaN. (cephes also takes sin(x)/x and cos(x)/x above 1e9, then overwrites
   them in the branch beyond 8: they are left out.) */
static inline void si_ci(double x, double *si, double *ci)
{
    int negative = x < 0.0;
    if (negative)
        x = -x;
    if (x == 0.0) {
        *si = 0.0;
        *ci = -INFINITY;
    } else if (x == INFINITY) {
        *si = negative ? -HALF_PI : HALF_PI;
        *ci = negative ? NAN : 0.0;
    } else if (!(x > 4.0)) {
        double z = x * x;
        double s = x * polevl(z, SN, 5) / polevl(z, SD, 5);
        *si = negative ? -s : s;
        *ci = EULER_GAMMA + log(x) + z * polevl(z, CN, 5) / polevl(z, CD, 5);
    } else {
        double s = sin(x), c = cos(x), z = 1.0 / (x * x), f, g;
        if (x < 8.0) {
            f = polevl(z, FN4, 6) / (x * polevl(z, FD4, 7));
            g = z * polevl(z, GN4, 7) / polevl(z, GD4, 7);
        } else {
            f = polevl(z, FN8, 8) / (x * polevl(z, FD8, 8));
            g = z * polevl(z, GN8, 8) / polevl(z, GD8, 9);
        }
        double v = HALF_PI - f * c - g * s;
        *si = negative ? -v : v;
        *ci = f * s - g * c;
    }
}

/* si[i] = Si(x[i]) and ci[i] = Ci(x[i]), as si_ci takes them */
void sici(const double *x, long n, double *si, double *ci)
{
    for (long i = 0; i < n; i++)
        si_ci(x[i], &si[i], &ci[i]);
}

/* Phi_0..4(y) into phi by the closed form from f(2y) and g(2y) (DLMF
   6.7.13-14), for si = Si(2y), ci = Ci(2y), sx = sin(2y) and cx = cos(2y),
   in the NumPy backend's order of operations (_numpy_backend.phi_closed):
   the f/g parts Q_k = f, y g, -y^2 f, -y^3 g, y^4 f, and with poly set the
   polynomial parts 0, 0, y/2, y/4 and y/4 - y^3/2 added to them. */
static inline void phi_closed(double y, double si, double ci, double sx, double cx,
                              int poly, double *phi)
{
    si -= HALF_PI;
    double f = ci * sx - si * cx;
    double g = -ci * cx - si * sx;
    double y2 = y * y, y3 = y2 * y;
    phi[0] = f;
    phi[1] = y * g;
    phi[2] = -(y2 * f);
    phi[3] = -(y3 * g);
    phi[4] = y2 * y2 * f;
    if (poly) {
        phi[2] += 0.5 * y;
        phi[3] += 0.25 * y;
        phi[4] += 0.25 * y - 0.5 * y3;
    }
}

/* The off-resonant site integrals of n sites from buf, a row-major
   (3, 2n) array laid out by kernels._offres_chunks:
     row 0: y = (r_i mu, r_i), the Phi_k arguments of M_k(r_i, mu);
     row 1: (dot_i, pp_i), the dipole projections;
     row 2: (r_i^6, the site values written here).
   Si and Ci of 2y are si_ci's, SciPy's bits, and sin and cos the C
   library's, whose bits np.sin and np.cos share on float64 (see
   libm_sincos). Phi_k(y) takes the closed form below
   sw and the Gauss-Laguerre branch above (phi_laguerre, with the m nodes t,
   weights w and powers pw (m, 5) that table holds in that order); the
   sites are taken SITE_BLOCK at a time, gathering the block's
   Gauss-Laguerre radii into one phi_laguerre call. A site whose two y are
   below sw and whose r^2 (1 + mu) is below recast takes the moments from
   the f/g parts alone, M_k = (Q_k(r mu)/mu - Q_k(r))/(1 - mu^2), and
   0.5 r^3 added to M_4: the polynomial parts that the partial fractions
   would cancel only up to rounding. Each site value is sum_k c_k M_k / r^6
   with the h(u)^2 coefficients c_k, every step in the NumPy backend's
   order (_numpy_backend.offres_sites). */
void offres_sites(long n, double mu, double sw, double recast, const double *table, long m,
                  double *buf)
{
    const double *t = table, *w = table + m, *pw = table + 2 * m;
    const double *y = buf, *dot = buf + 2 * n, *pp = buf + 3 * n, *r6 = buf + 4 * n;
    double *out = buf + 5 * n;
    double c = 1.0 - mu * mu;
    for (long i0 = 0; i0 < n; i0 += SITE_BLOCK) {
        int used = n - i0 < SITE_BLOCK ? (int)(n - i0) : SITE_BLOCK;
        /* phi[2l] at y = r mu and phi[2l + 1] at y = r of site i0 + l */
        double phi[2 * SITE_BLOCK][5], lag[2 * SITE_BLOCK][5], lag_y[2 * SITE_BLOCK];
        int lag_row[2 * SITE_BLOCK], nl = 0, poly[SITE_BLOCK];
        for (int l = 0; l < used; l++) {
            double r = y[n + i0 + l];
            poly[l] = !(y[i0 + l] < sw && r < sw && r * r * (1.0 + mu) < recast);
            for (int h = 0; h < 2; h++) {
                double v = y[h * n + i0 + l];
                if (v < sw) {
                    double si, ci, cx, sx = sin_cos(2.0 * v, &cx, 0);
                    si_ci(2.0 * v, &si, &ci);
                    phi_closed(v, si, ci, sx, cx, poly[l], phi[2 * l + h]);
                } else {
                    lag_y[nl] = v;
                    lag_row[nl++] = 2 * l + h;
                }
            }
        }
        phi_laguerre(lag_y, nl, t, w, pw, m, &lag[0][0]);
        for (int j = 0; j < nl; j++)
            for (int k = 0; k < 5; k++)
                phi[lag_row[j]][k] = lag[j][k];
        for (int l = 0; l < used; l++) {
            long i = i0 + l;
            double mk[5];
            for (int k = 0; k < 5; k++)
                mk[k] = (phi[2 * l][k] / mu - phi[2 * l + 1][k]) / c;
            if (!poly[l]) {
                double r = y[n + i];
                mk[4] += 0.5 * r * r * r;
            }
            double alpha = dot[i] - pp[i], beta = dot[i] - 3.0 * pp[i];
            double ab = 2.0 * alpha * beta, b2 = beta * beta;
            double p0 = b2 * mk[0], p1 = 2.0 * b2 * mk[1], p2 = (ab + b2) * mk[2],
                   p3 = ab * mk[3], p4 = alpha * alpha * mk[4];
            /* the NumPy backend's contraction order: two lanes take the
               even and the odd terms from zero, and the lane sum is added
               to zero */
            double even = ((0.0 + p0) + p2) + p4, odd = ((0.0 + p1) + p3) + 0.0;
            out[i] = ((even + odd) + 0.0) / r6[i];
        }
    }
}

/* ---------------------------------------------------------------------------
   The decomposition's ray integrals (euler_maclaurin._ray_integral): the
   resonant edge's on the rotated path, whole, at the sites (t, 0) of the x
   axis and (0, t) of the y axis, and the panel sums of the real path.
   Every step is the NumPy backend's (_numpy_backend.ray_rotated and
   panel_sums) in its order of operations, so the values are bitwise equal:
   csqrt and cexp are glibc's, as np.sqrt and np.exp call them on complex128;
   a product of complex arrays is NumPy's SIMD loop, fmaddsub, with the fma
   written out (cmul); r^6 is npy_cpow's binary powering with the plain
   product (cmul_plain); a quotient is NumPy's Smith division; np.abs is its
   SIMD modulus, with its one fma written out; a real operand is the
   complex (v, 0); and every sum is NumPy's pairwise summation, added to
   the reduction's zero.

   -std=c99 keeps GCC from contracting a * b + c into an fma, but its
   vectorizer still recognizes complex arithmetic written out in real
   operations and fuses it (fmaddsub), which changed bits here: this section
   is compiled without vectorization. */
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("no-tree-vectorize")
#endif

#define NODES 25
/* the most axes of one ray_rotated call: x and y */
#define AXES 2

typedef struct {
    double re, im;
} cplx;

static inline cplx cpx(double re, double im)
{
    cplx c = {re, im};
    return c;
}

static inline cplx cadd(cplx a, cplx b)
{
    return cpx(a.re + b.re, a.im + b.im);
}

static inline cplx csub(cplx a, cplx b)
{
    return cpx(a.re - b.re, a.im - b.im);
}

/* NumPy's product of complex arrays: fmaddsub of a.re b and a.im b swapped */
static inline cplx cmul(cplx a, cplx b)
{
    return cpx(fma(a.re, b.re, -(a.im * b.im)), fma(a.re, b.im, a.im * b.re));
}

/* The scalar product of npy_cpow: no fused operation */
static inline cplx cmul_plain(cplx a, cplx b)
{
    return cpx(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re);
}

/* r ** 6 as npy_cpow takes it: (1 r^2) (r^2 r^2) */
static inline cplx pow6(cplx r)
{
    cplx r2 = cmul_plain(r, r);
    return cmul_plain(cmul_plain(cpx(1.0, 0.0), r2), cmul_plain(r2, r2));
}

/* NumPy's complex division (Smith's method) */
static inline cplx cdiv(cplx a, cplx b)
{
    double br = fabs(b.re), bi = fabs(b.im);
    if (br >= bi) {
        if (br == 0 && bi == 0)
            return cpx(a.re / br, a.im / br);
        double rat = b.im / b.re, scl = 1.0 / (b.re + b.im * rat);
        return cpx((a.re + a.im * rat) * scl, (a.im - a.re * rat) * scl);
    }
    double rat = b.re / b.im, scl = 1.0 / (b.im + b.re * rat);
    return cpx((a.re * rat + a.im) * scl, (a.im * rat - a.re) * scl);
}

/* np.abs of a complex128: larger sqrt(1 + ratio^2), the square fused */
static inline double cabs_np(cplx a)
{
    double re = fabs(a.re), im = fabs(a.im);
    if (re == INFINITY)
        im = INFINITY;
    if (im == INFINITY)
        re = INFINITY;
    if (re != re)
        im = NAN;
    if (im != im)
        re = NAN;
    double larger = re > im ? re : im, smaller = re > im ? im : re;
    double ratio = larger == 0.0 || smaller == INFINITY ? 0.0 : smaller / larger;
    return sqrt(fma(ratio, ratio, 1.0)) * larger;
}

typedef union {
    double complex c;
    cplx s;
} cunion;

static inline cplx c_sqrt(cplx a)
{
    cunion u;
    u.s = a;
    u.c = csqrt(u.c);
    return u.s;
}

static inline cplx c_exp(cplx a)
{
    cunion u;
    u.s = a;
    u.c = cexp(u.c);
    return u.s;
}

/* NumPy's pairwise sum of the n doubles a[0..n) (DOUBLE_pairwise_sum) */
static double pairwise(const double *a, long n)
{
    if (n < 8) {
        double res = -0.0;
        for (long i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        long i = 8;
        for (; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* One part (real or imaginary) of NumPy's pairwise sum of m complex values,
   the part's m doubles a[0..m): the blocks and accumulators of
   CDOUBLE_pairwise_sum, which sums the 2m interleaved doubles */
static double pairwise_part(const double *a, long m)
{
    if (m < 4) {
        double res = -0.0;
        for (long i = 0; i < m; i++)
            res += a[i];
        return res;
    }
    if (m <= 64) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        long i = 4;
        for (; i < m - m % 4; i += 4) {
            r0 += a[i];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
        }
        double res = (r0 + r1) + (r2 + r3);
        for (; i < m; i++)
            res += a[i];
        return res;
    }
    long m2 = (m - m % 8) / 2;
    return pairwise_part(a, m2) + pairwise_part(a + m2, m - m2);
}

/* e.(x, y, -z) / r for the unit vector e */
static inline cplx projection(const double *e, cplx x, cplx y, double z, cplx r)
{
    cplx v = cadd(cmul(cpx(e[0], 0.0), x), cmul(cpx(e[1], 0.0), y));
    return cdiv(csub(v, cpx(e[2] * z, 0.0)), r);
}

/* greens.resonant_sites_complex at the site (x, y, -z) at distance r, with
   phase = e^{2ir}: e^{2ir} b^2 / r^6, b = (dot - pp) r^2 - beta + i beta r,
   beta = dot - 3 pp; pair holds e0, en and dot = e0.en */
static inline cplx site_complex(const double *pair, cplx x, cplx y, double z, cplx r,
                                cplx phase)
{
    cplx pp = cmul(projection(pair, x, y, z, r), projection(pair + 3, x, y, z, r));
    cplx dot = cpx(pair[6], 0.0);
    cplx beta = csub(dot, cmul(cpx(3.0, 0.0), pp));
    cplx b = csub(cmul(cmul(csub(dot, pp), r), r), beta);
    b = cadd(b, cmul(cmul(cpx(0.0, 1.0), beta), r));
    return cdiv(cmul(cmul(phase, b), b), pow6(r));
}

/* The panel count n + 1 of the rotated rule at height z, as
   _numpy_backend.rotated_rules counts it, with log_ratio = log(1.4); -1
   when n is not below npowers (no finite count, or a panel edge past the
   powers of 1.4 the rule holds) */
static long rotated_panels(double z, double log_ratio, long npowers)
{
    double h = 0.1 * fmin(z, 1.0);
    double n = ceil(log(fmax(30.0, 7.0 * sqrt(z)) / h) / log_ratio);
    return n < (double)npowers ? (long)n + 1 : -1;
}

/* The complex values at a panel's nodes, real and imaginary parts in
   arrays of their own: the edge calls ran 3-5% faster than with arrays of
   cplx. */
typedef struct {
    double re[NODES], im[NODES];
} nodes;

static inline cplx at(const nodes *v, int j)
{
    return cpx(v->re[j], v->im[j]);
}

static inline void put(nodes *v, int j, cplx c)
{
    v->re[j] = c.re;
    v->im[j] = c.im;
}

/* One panel of the rotated path at the height z, the nodes lo + half (1 +
   x_j) of the rule: the full and nested sums of f w along the x axis into
   full[0] and low[0] and, with axes 2, along the y axis into full[1] and
   low[1] (see ray_rotated). The arithmetic runs in loops over the panel's
   nodes between the loops of csqrt and cexp calls. */
static void ray_panel(const double *pair, long axes, double z, double lo, double half,
                      const double *rule, cplx *full, cplx *low)
{
    const double *gx = rule, *gw = rule + NODES, *gw_low = rule + 2 * NODES;
    cplx turn = cpx(rule[3 * NODES], rule[3 * NODES + 1]), zero = cpx(0.0, 0.0);
    nodes w, w_low, t, r, phase;
    for (int j = 0; j < NODES; j++) {
        put(&t, j, cmul(turn, cpx(lo + half * (1.0 + gx[j]), 0.0)));
        put(&w, j, cmul(turn, cpx(half * gw[j], 0.0)));
        put(&w_low, j, cmul(turn, cpx(half * gw_low[j], 0.0)));
        put(&r, j, cadd(cmul(at(&t, j), at(&t, j)), cpx(z * z, 0.0)));
    }
    for (int j = 0; j < NODES; j++)
        put(&r, j, c_sqrt(at(&r, j)));
    for (int j = 0; j < NODES; j++)
        put(&phase, j, c_exp(cmul(cpx(0.0, 2.0), at(&r, j))));
    for (long o = 0; o < axes; o++) {
        nodes a, b;
        for (int j = 0; j < NODES; j++) {
            cplx tj = at(&t, j);
            cplx f = site_complex(pair, o ? zero : tj, o ? tj : zero, z, at(&r, j), at(&phase, j));
            put(&a, j, cmul(f, at(&w, j)));
            put(&b, j, cmul(f, at(&w_low, j)));
        }
        full[o] = cpx(0.0 + pairwise_part(a.re, NODES), 0.0 + pairwise_part(a.im, NODES));
        low[o] = cpx(0.0 + pairwise_part(b.re, NODES), 0.0 + pairwise_part(b.im, NODES));
    }
}

/* The resonant edge's axis integrals of euler_maclaurin._ray_integral on
   the rotated path, for the nz heights z: out[(h axes + o) 3 + 0..2] = the
   value Re sum f w of axis o (x, then y) at height z[h], its error estimate
   (the sum of the panels' |full - nested|) and its scale (the sum of the
   panels' |full|), and counts[h] = the height's panel count, or -1 and NaNs
   where rotated_panels finds no rule. axes is 1 (the x axis) or 2 (x and
   y), at most AXES.

   The nodes t e^{i pi/4} run along the positive x axis, the sites (t, 0),
   and the positive y axis, the sites (0, t): both take the same
   r = sqrt(t^2 + z^2) and e^{2ir}, evaluated once per node.

   pair holds e0, en and dot = e0.en; rule the 25 Gauss-Legendre nodes x,
   weights w and nested weights w_low on [-1, 1], e^{i pi/4} (re, im),
   log(1.4) and the npowers powers 1.4^k of NumPy's 1.4 ** arange. Returns
   0, or -1 when the work buffer cannot be allocated. */
long ray_rotated(const double *pair, long axes, const double *z, long nz, const double *rule,
                 long npowers, long *counts, double *out)
{
    const double *powers = rule + 3 * NODES + 3;
    /* per axis and panel: Re full, |full - nested| and |full| */
    double *panel = malloc((size_t)(3 * axes * npowers) * sizeof *panel);
    if (panel == NULL)
        return -1;
    for (long hz = 0; hz < nz; hz++) {
        double zh = z[hz], *res = out + 3 * axes * hz;
        long count = rotated_panels(zh, rule[3 * NODES + 2], npowers);
        counts[hz] = count;
        if (count < 0) {
            for (long o = 0; o < 3 * axes; o++)
                res[o] = NAN;
            continue;
        }
        double h = 0.1 * fmin(zh, 1.0);
        for (long k = 0; k < count; k++) {
            double hi = h * powers[k], lo = k ? h * powers[k - 1] : 0.0;
            cplx full[AXES], low[AXES];
            ray_panel(pair, axes, zh, lo, 0.5 * (hi - lo), rule, full, low);
            for (long o = 0; o < axes; o++) {
                double *p = panel + 3 * npowers * o;
                p[k] = full[o].re;
                p[npowers + k] = cabs_np(csub(full[o], low[o]));
                p[2 * npowers + k] = cabs_np(full[o]);
            }
        }
        for (long o = 0; o < axes; o++) {
            double *p = panel + 3 * npowers * o;
            res[3 * o] = 0.0 + pairwise_part(p, count);
            res[3 * o + 1] = 0.0 + pairwise(p + npowers, count);
            res[3 * o + 2] = 0.0 + pairwise(p + 2 * npowers, count);
        }
    }
    free(panel);
    return 0;
}

/* The panel sums of the real path, for the nz heights z, each with the
   rows panels of NODES nodes z s (s: rows x NODES), from f, the site values
   at every node and each of nd directions, directions last: per output o,
   the integrand J g and out[3 (h nout + o) + 0..2] = the value sum J g w,
   the error estimate sum |full - nested| and the scale sum |full| over the
   height's panels, with the rows' weights w and nested weights w_low (rows
   x NODES): the table rule holds s, w and w_low, one after the other. The
   bulk has one output, g np.mean's over all directions (0.0 plus NumPy's
   pairwise sum, over their count) and J = z^2 s; the edge one per
   direction, g its site value and J = z. */
void panel_sums(const double *f, long nd, int bulk, const double *z, long nz,
                const double *rule, long rows, double *out)
{
    const double *s = rule, *w = rule + rows * NODES, *w_low = rule + 2 * rows * NODES;
    long nout = bulk ? 1 : nd;
    double full[rows], err[rows], mag[rows];
    for (long hz = 0; hz < nz; hz++)
        for (long o = 0; o < nout; o++) {
            for (long k = 0; k < rows; k++) {
                double a[NODES], b[NODES];
                for (int j = 0; j < NODES; j++) {
                    const double *site = f + ((hz * rows + k) * NODES + j) * nd;
                    double g = bulk ? (0.0 + pairwise(site, nd)) / (double)nd : site[o];
                    double jac = bulk ? z[hz] * z[hz] * s[k * NODES + j] : z[hz];
                    a[j] = jac * g * w[k * NODES + j];
                    b[j] = jac * g * w_low[k * NODES + j];
                }
                full[k] = 0.0 + pairwise(a, NODES);
                err[k] = fabs(full[k] - (0.0 + pairwise(b, NODES)));
                mag[k] = fabs(full[k]);
            }
            double *res = out + 3 * (hz * nout + o);
            res[0] = 0.0 + pairwise(full, rows);
            res[1] = 0.0 + pairwise(err, rows);
            res[2] = 0.0 + pairwise(mag, rows);
        }
}

/* ---------------------------------------------------------------------------
   Real-axis site sets: the direct sums of generic dipole pairs, the vertex
   and the off-resonant real path of the decomposition. A site set is the
   heights z[h] and two coordinate tables, u (nu values) and v (nv sites a
   row): site (h, i, j) sits at (x, y) = (u[i], v[j]) at the height z[h], or,
   with rays set, at R (v[2j], v[2j+1]), R = z[h] u[i]: the unit directions
   v along the real rule's radii z s. Sites run in h, then i, then j.
   At a grid's origin (u[i] = v[j] = 0) a pair with e0.en = e0_z en_z = 0
   takes a term that is not finite (0/0) as 0.0 (kernels.vanishing_origin).
   Every step is the NumPy backend's (greens.site_projections, then
   greens.resonant_sites or the off-resonant buffer of offres_sites)
   in its order of operations: IEEE +, -, *, / and sqrt, and sin and cos of
   2r from the C library, which np.sin and np.cos call on float64 (see
   libm_sincos). */

/* sin and cos of each x[i] as the site sets take them, for the test that
   pins them to np.sin and np.cos */
void libm_sincos(const double *x, long n, double *s, double *c)
{
    for (long i = 0; i < n; i++)
        s[i] = sin_cos(x[i], &c[i], 0);
}

/* The position (*x, *y) of site (h, i, j) of a site set, z = z[h] */
static inline void position(int rays, const double *u, const double *v, long i, long j, double z,
                            double *x, double *y)
{
    if (rays) {
        double big_r = z * u[i];
        *x = big_r * v[2 * j];
        *y = big_r * v[2 * j + 1];
    } else {
        *x = u[i];
        *y = v[j];
    }
}

/* r, and *pp = (e0.n)(n.en), of greens.site_projections at the displacement
   (x, y, -z); pair holds e0, en and e0.en */
static inline double project(const double *pair, double x, double y, double z, double *pp)
{
    double r = sqrt(x * x + y * y + z * z);
    double p0 = (pair[0] * x + pair[1] * y - pair[2] * z) / r;
    double pn = (pair[3] * x + pair[4] * y - pair[5] * z) / r;
    *pp = p0 * pn;
    return r;
}

/* greens.resonant_sites: Re[e^{2ir} (B_re + i B_im)^2] / r^6 with
   B_re = (dot - pp) r^2 - beta, B_im = beta r, beta = dot - 3 pp */
static inline double res_site(double dot, double r, double pp)
{
    double r2 = r * r;
    double beta = dot - 3.0 * pp;
    double bre = (dot - pp) * r2 - beta, bim = beta * r;
    double c, s = sin_cos(2.0 * r, &c, 0);
    double cross = bre * bim * s;
    return ((bre * bre - bim * bim) * c - cross - cross) / (r2 * (r2 * r2));
}

/* The resonant site values of a grid site set: with sums unset out[(h nu +
   i) nv + j] = the value of site (h, i, j); with sums set out[h nu + i] = the
   sum of row (h, i), 0.0 plus NumPy's pairwise sum, as np.sum(values,
   axis=1) takes it, once the origin's is set. Returns 0, or -1 when the
   row buffer cannot be allocated. */
long res_points(const double *pair, const double *u, long nu, const double *v, long nv,
                const double *z, long nz, int sums, double *out)
{
    int vanishes = pair[6] == 0.0 && pair[2] * pair[5] == 0.0;
    double *row = sums ? malloc((size_t)(nv > 0 ? nv : 1) * sizeof *row) : NULL;
    if (sums && row == NULL)
        return -1;
    for (long h = 0; h < nz; h++)
        for (long i = 0; i < nu; i++) {
            double *site = sums ? row : out + (h * nu + i) * nv;
            for (long j = 0; j < nv; j++) {
                double x, y, pp;
                position(0, u, v, i, j, z[h], &x, &y);
                double r = project(pair, x, y, z[h], &pp);
                site[j] = res_site(pair[6], r, pp);
            }
            for (long j = 0; vanishes && u[i] == 0.0 && j < nv; j++)
                site[j] = v[j] == 0.0 && !isfinite(site[j]) ? 0.0 : site[j];
            if (sums)
                out[h * nu + i] = 0.0 + pairwise(row, nv);
        }
    free(row);
    return 0;
}

/* The n sites k0 <= k < k0 + n of a site set (k = (h nu + i) nv + j) into
   rows 0 and 1 of the (3, 2n) buffer of offres_sites. */
void offres_points(const double *pair, const double *u, long nu, const double *v, long nv,
                   int rays, const double *z, long k0, long n, double mu, double *buf)
{
    double *y = buf, *dot = buf + 2 * n, *pp = buf + 3 * n;
    long per = nu * nv;
    for (long l = 0; l < n; l++) {
        long k = k0 + l, h = k / per, i = k % per / nv, j = k % nv;
        double x, yy;
        position(rays, u, v, i, j, z[h], &x, &yy);
        double r = project(pair, x, yy, z[h], &pp[l]);
        y[l] = r * mu;
        y[n + l] = r;
        dot[l] = pair[6];
    }
}
