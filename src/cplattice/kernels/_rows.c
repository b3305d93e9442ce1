/* Compiled lattice-sum row kernels, plain C99 loaded through ctypes.

   Contract matches the NumPy fallback (_numpy_backend.py): res_row_* returns
   one octant row n_x = nx, n_y = 0..nx with the orbit weights folded in, and
   res_rows_*(a2, z2, lo, hi, out) writes out[nx - lo] = res_row_*(a2, z2, nx)
   for lo <= nx < hi, so a whole octant costs one call. Each
   orientation's site term is written once (term_zz, term_zx) and serves the
   row pass, its endpoint corrections and the origin. The row pass fills
   chunks the compiler vectorizes and sums them with Neumaier compensation
   in strict index order, so a row value is a pure function of (a2, z2, nx)
   and the caller's exact cross-row reduction is bit-reproducible for any
   worker count.

   sin/cos use a Cody-Waite reduced fdlibm-style kernel (1 ulp), valid for
   phases below ~1e6. Rows whose largest phase reaches that bound, and the
   endpoint and origin terms, use libm; the choice is a constant at each
   fill call site, so every loop instance is branch-free.

   Build: cc -O3 -std=c99 -fno-math-errno -march=native -shared -fPIC
   -o _rows.so _rows.c -lm. Strict ISO C mode turns off FMA contraction, so
   row values do not depend on how the compiler contracts; no -ffast-math,
   the compensated accumulation relies on strict IEEE semantics. */
#include <math.h>

#define CHUNK 512

static const double TWO_OVER_PI = 6.36619772367581382433e-01, PHASE_LIMIT = 1.0e6;
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

/* The reduced sin/cos pair, exported for accuracy tests. */
void sincos_probe(double x, double *s, double *c)
{
    *s = sin_branchless(x, c);
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

/* Neumaier sum of the site terms over j = 0..nx in chunks, in strict index
   order; the fast kernel is chosen once per row from its largest phase. */
static inline double row_sum(int zx, double nx2, double a2, double z2, long nx)
{
    int fast = 2.0 * sqrt(2.0 * nx2 * a2 + z2) < PHASE_LIMIT;
    double buf[CHUNK];
    double acc = 0.0, comp = 0.0;
    for (long j0 = 0; j0 <= nx; j0 += CHUNK) {
        long m = nx + 1 - j0 < CHUNK ? nx + 1 - j0 : CHUNK;
        if (fast)
            fill(buf, zx, 1, nx2, a2, z2, j0, m);
        else
            fill(buf, zx, 0, nx2, a2, z2, j0, m);
        for (long j = 0; j < m; j++) {
            double v = buf[j], t = acc + v, bb = t - acc;
            comp += (acc - (t - bb)) + (v - bb);
            acc = t;
        }
    }
    return acc + comp;
}

/* Octant row of Re[e^{2ir} Bzz^2]/r^6 with weights 4/8/4 and 1 at the
   origin, as 8 * (row pass) - 4 * (endpoint terms). */
double res_row_zz(double a2, double z2, long nx)
{
    double nx2 = (double)nx * (double)nx;
    if (nx == 0)
        return term_zz(0.0, a2, z2, 0);
    return 8.0 * row_sum(0, nx2, a2, z2, nx) - 4.0 * term_zz(nx2, a2, z2, 0)
           - 4.0 * term_zz(2.0 * nx2, a2, z2, 0);
}

/* Octant row for z-probe / x-array dipoles, x^2-folded orbit weights: the
   row pass applies the interior weight 4(nx^2+j^2) a^2, and subtracting half
   of the j=0 and j=nx terms leaves their weights 2 nx^2 a^2 and 4 nx^2 a^2. */
double res_row_zx(double a2, double z2, long nx)
{
    double nx2 = (double)nx * (double)nx;
    if (nx == 0)
        return 0.0;
    return row_sum(1, nx2, a2, z2, nx) - 0.5 * term_zx(nx2, a2, z2, 0)
           - 0.5 * term_zx(2.0 * nx2, a2, z2, 0);
}

/* out[nx - lo] = res_row_zz(a2, z2, nx) for lo <= nx < hi. */
void res_rows_zz(double a2, double z2, long lo, long hi, double *out)
{
    for (long nx = lo; nx < hi; nx++)
        out[nx - lo] = res_row_zz(a2, z2, nx);
}

/* out[nx - lo] = res_row_zx(a2, z2, nx) for lo <= nx < hi. */
void res_rows_zx(double a2, double z2, long lo, long hi, double *out)
{
    for (long nx = lo; nx < hi; nx++)
        out[nx - lo] = res_row_zx(a2, z2, nx);
}
