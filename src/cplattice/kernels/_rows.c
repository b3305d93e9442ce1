/* Compiled lattice-sum row kernels, plain C99 loaded through ctypes.

   Contract matches the NumPy fallback (_numpy_backend.py): one call = one
   octant row n_x = nx, n_y = 0..nx with the orbit weights folded in. Terms
   are produced in branch-free chunked passes the compiler vectorizes, then
   accumulated with Neumaier compensation in strict index order, so a row
   value is a pure function of (a2, z2, nx) and the caller's exact cross-row
   reduction stays bit-reproducible for any worker count.

   sin/cos use a Cody-Waite reduced fdlibm-style kernel (1 ulp), with the
   quadrant taken from a truncating int conversion so the pass stays
   vectorizable. It is valid for phases below ~1e6; rows whose largest phase
   reaches that bound fall back to libm per-site evaluation. sqrt is the
   correctly rounded library call (a hardware instruction under
   -fno-math-errno).

   Build: cc -O3 -std=c99 -fno-math-errno -march=native -shared -fPIC
   -o _rows.so _rows.c -lm. Strict ISO C mode turns off FMA contraction, so
   row values do not depend on how the compiler contracts; no -ffast-math,
   the compensated accumulation relies on strict IEEE semantics. */
#include <math.h>

#define CHUNK 512

static const double TWO_OVER_PI = 6.36619772367581382433e-01;
static const double PIO2_1 = 1.57079632673412561417e+00;
static const double PIO2_1T = 6.07710050650619224932e-11;
static const double PHASE_LIMIT = 1.0e6;

static const double S1 = -1.66666666666666324348e-01;
static const double S2 = 8.33333333332248946124e-03;
static const double S3 = -1.98412698298579493134e-04;
static const double S4 = 2.75573137070700676789e-06;
static const double S5 = -2.50507602534068634195e-08;
static const double S6 = 1.58969099521155010221e-10;

static const double C1 = 4.16666666666666019037e-02;
static const double C2 = -1.38888888888741095749e-03;
static const double C3 = 2.48015872894767294178e-05;
static const double C4 = -2.75573143513906633035e-07;
static const double C5 = 2.08757232129817482790e-09;
static const double C6 = -1.13596475577881948265e-11;

/* sin(x) and *cosv = cos(x) for x in [0, PHASE_LIMIT); exact 0/1 quadrant
   masks keep the pass branch-free. */
static inline double sin_branchless(double x, double *cosv)
{
    int n = (int)(x * TWO_OVER_PI + 0.5);
    double fn = (double)n;
    double t = (x - fn * PIO2_1) - fn * PIO2_1T;
    double t2 = t * t;
    double ks = t + t * t2 * (S1 + t2 * (S2 + t2 * (S3 + t2 * (S4 + t2 * (S5 + t2 * S6)))));
    double kc = 1.0 - 0.5 * t2 + t2 * t2 * (C1 + t2 * (C2 + t2 * (C3 + t2 * (C4 + t2 * (C5 + t2 * C6)))));
    double odd = (double)(n & 1);
    double hi = (double)((n >> 1) & 1);
    double even = 1.0 - odd;
    double sign_s = 1.0 - 2.0 * hi;
    double sign_c = 1.0 - 2.0 * (odd + hi - 2.0 * odd * hi);
    *cosv = sign_c * (odd * ks + even * kc);
    return sign_s * (odd * kc + even * ks);
}

/* The reduced sin/cos pair, exported for accuracy tests. */
void sincos_probe(double x, double *s, double *c)
{
    *s = sin_branchless(x, c);
}

/* zz site term Re[e^{2ir} Bzz^2]/r^6 at r2 = d2 + z2 (libm sin/cos). */
static double site_zz(double d2, double z2)
{
    double r2 = d2 + z2;
    double r = sqrt(r2);
    double c = z2 / r2;
    double bre = (r2 - 1.0) + (3.0 - r2) * c;
    double bim = r * (1.0 - 3.0 * c);
    return (cos(2.0 * r) * (bre * bre - bim * bim) - sin(2.0 * r) * (2.0 * bre * bim))
           / (r2 * r2 * r2);
}

/* zx site term at (nx2 + j2) a2 with its interior orbit weight 4 (nx2+j2) a2. */
static double site_zx_weighted(double nx2, double j2, double a2, double z2)
{
    double r2 = (nx2 + j2) * a2 + z2;
    double r = sqrt(r2);
    double q = 3.0 - r2;
    double g = (cos(2.0 * r) * (q * q - 9.0 * r2) + sin(2.0 * r) * (6.0 * r * q)) * z2
               / (r2 * r2 * r2 * r2 * r2);
    return 4.0 * (nx2 + j2) * a2 * g;
}

static void fill_zz(double *out, double nx2, double a2, double z2, long j0, long m)
{
    for (long j = 0; j < m; j++) {
        double dj = (double)(int)(j0 + j);
        double r2 = (nx2 + dj * dj) * a2 + z2;
        double r = sqrt(r2);
        double c = z2 / r2;
        double bre = (r2 - 1.0) + (3.0 - r2) * c;
        double bim = r * (1.0 - 3.0 * c);
        double co;
        double s = sin_branchless(2.0 * r, &co);
        out[j] = (co * (bre * bre - bim * bim) - s * (2.0 * bre * bim)) / (r2 * r2 * r2);
    }
}

static void fill_zz_libm(double *out, double nx2, double a2, double z2, long j0, long m)
{
    for (long j = 0; j < m; j++) {
        double dj = (double)(j0 + j);
        out[j] = site_zz((nx2 + dj * dj) * a2, z2);
    }
}

static void fill_zx(double *out, double nx2, double a2, double z2, long j0, long m)
{
    for (long j = 0; j < m; j++) {
        double dj = (double)(int)(j0 + j);
        double d2 = nx2 + dj * dj;
        double r2 = d2 * a2 + z2;
        double r = sqrt(r2);
        double q = 3.0 - r2;
        double co;
        double s = sin_branchless(2.0 * r, &co);
        double g = (co * (q * q - 9.0 * r2) + s * (6.0 * r * q)) * z2 / (r2 * r2 * r2 * r2 * r2);
        out[j] = 4.0 * d2 * a2 * g;
    }
}

static void fill_zx_libm(double *out, double nx2, double a2, double z2, long j0, long m)
{
    for (long j = 0; j < m; j++) {
        double dj = (double)(j0 + j);
        out[j] = site_zx_weighted(nx2, dj * dj, a2, z2);
    }
}

typedef void (*fill_fn)(double *, double, double, double, long, long);

/* Neumaier sum of fill(j) over j = 0..nx in chunks, in strict index order. */
static double row_sum(fill_fn fill, double nx2, double a2, double z2, long nx)
{
    double buf[CHUNK];
    double acc = 0.0, comp = 0.0;
    for (long j0 = 0; j0 <= nx; j0 += CHUNK) {
        long m = nx + 1 - j0 < CHUNK ? nx + 1 - j0 : CHUNK;
        fill(buf, nx2, a2, z2, j0, m);
        for (long j = 0; j < m; j++) {
            double v = buf[j];
            double t = acc + v;
            double bb = t - acc;
            comp += (acc - (t - bb)) + (v - bb);
            acc = t;
        }
    }
    return acc + comp;
}

static int fast_phase(double nx2, double a2, double z2)
{
    return 2.0 * sqrt(2.0 * nx2 * a2 + z2) < PHASE_LIMIT;
}

/* Octant row of Re[e^{2ir} Bzz^2]/r^6; weights 4/8/4, 1 at the origin.

   Computed as 8 * sum(j=0..nx) - 4*(endpoint terms) so the hot loop is
   weight-free; identical arithmetic for every worker partition. */
double res_row_zz(double a2, double z2, long nx)
{
    double nx2 = (double)nx * (double)nx;
    if (nx == 0)
        return site_zz(0.0, z2);
    double total = row_sum(fast_phase(nx2, a2, z2) ? fill_zz : fill_zz_libm, nx2, a2, z2, nx);
    return 8.0 * total - 4.0 * site_zz(nx2 * a2, z2) - 4.0 * site_zz(2.0 * nx2 * a2, z2);
}

/* Octant row for z-probe / x-array dipoles, x^2-folded orbit weights.

   The fill pass applies the interior orbit weight 4(nx^2+j^2) a^2; the
   j=0 and j=nx endpoints are corrected to 2 nx^2 a^2 and 4 nx^2 a^2 by
   subtracting half of their filled values. */
double res_row_zx(double a2, double z2, long nx)
{
    double nx2 = (double)nx * (double)nx;
    if (nx == 0)
        return 0.0;
    double total = row_sum(fast_phase(nx2, a2, z2) ? fill_zx : fill_zx_libm, nx2, a2, z2, nx);
    total -= 0.5 * site_zx_weighted(nx2, 0.0, a2, z2);
    total -= 0.5 * site_zx_weighted(nx2, nx2, a2, z2);
    return total;
}
