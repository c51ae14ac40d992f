/* Compiled per-ray engine: ray tracing in the quarter stadium, specular
 * reflection and the closed-form integral of V along each straight flight.
 *
 * Built and loaded by native.py with -ffp-contract=off, so no multiply-add
 * is fused.  Every floating-point operation of the geometry (wall times,
 * normals, reflection, normalisation, position update, wall nudge) mirrors
 * in order the numpy expressions of geometry.first_hit_arrays and of the
 * numpy engine kept in tests/reference.py, and hypot and sqrt are glibc's,
 * as numpy's are: a ray's geometry is bit-identical to that engine's.  The
 * integrals use glibc's erf and exp where numpy and scipy have their own,
 * a squared cross product for the squared miss distance where that engine
 * takes d0sq - proj^2, and a left fold over the bumps where numpy used a
 * BLAS dot product, so they can differ from that engine's in the last
 * digits.
 *
 * Each flight evaluates erf and exp over all its bumps at once, through
 * the call's erf_n and exp_n.  Its set-up takes the erf of both ends of the
 * flight in one call over 2n arguments, since the flight's duration is
 * known before it starts; only a checkpoint inside the flight takes one
 * more erf over n.  On x86_64 with glibc 2.35 or later (the #if below,
 * __GLIBC_PREREQ(2, 35) spelled out), trace and segment_integrals check
 * once per call, with __builtin_cpu_supports("avx2"), whether the CPU has
 * AVX2; if so they call libmvec's four-lane _ZGVdN4v_erf and _ZGVdN4v_exp,
 * which -lm links through libm.so's AS_NEEDED libmvec, from helpers
 * compiled for AVX2 alone.  Otherwise they loop over the scalar erf and
 * exp.  The two paths differ by a few units in the last place, and
 * math_lanes says which one runs.
 *
 * A trace reads one ascending array of checkpoint times, the union of the
 * times of every request that shares the rays, so a time two requests share
 * is filled once.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* y[i] = erf(x[i]) and y[i] = exp(x[i]) for i < n; y may be x.  The scalar
 * loops are the fallback wherever the four-lane path below is not used. */
typedef void (*vec_fn)(const double *x, double *y, int64_t n);

static void erf_scalar(const double *x, double *y, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        y[i] = erf(x[i]);
}

static void exp_scalar(const double *x, double *y, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        y[i] = exp(x[i]);
}

#if defined(__x86_64__) && defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 35)
#define HAVE_LANES4 1
#include <immintrin.h>

#pragma GCC push_options
#pragma GCC target("avx2")
__m256d _ZGVdN4v_erf(__m256d x);
__m256d _ZGVdN4v_exp(__m256d x);

/* Four elements per call; a short last block pads its lanes with 0. */
static void lanes4(__m256d (*f)(__m256d), const double *x, double *y, int64_t n)
{
    int64_t i = 0;
    for (; i + 3 < n; i += 4)
        _mm256_storeu_pd(y + i, f(_mm256_loadu_pd(x + i)));
    if (i < n) {
        double pad[4] = {0.0, 0.0, 0.0, 0.0};
        for (int64_t k = 0; i + k < n; k++)
            pad[k] = x[i + k];
        _mm256_storeu_pd(pad, f(_mm256_loadu_pd(pad)));
        for (int64_t k = 0; i + k < n; k++)
            y[i + k] = pad[k];
    }
}

static void erf_lanes4(const double *x, double *y, int64_t n) { lanes4(_ZGVdN4v_erf, x, y, n); }
static void exp_lanes4(const double *x, double *y, int64_t n) { lanes4(_ZGVdN4v_exp, x, y, n); }
#pragma GCC pop_options
#endif

/* 4 when the engine takes erf and exp four lanes at a time on this CPU, 1
 * when it takes them one by one. */
int math_lanes(void)
{
#ifdef HAVE_LANES4
    if (__builtin_cpu_supports("avx2"))
        return 4;
#endif
    return 1;
}

/* The quench potential: n signed Gaussian bumps of width sigma. */
typedef struct {
    double sigma;
    int64_t n;
    const double *centers; /* (n, 2) */
    const double *signs;   /* (n,) */
} bumps_t;

/* The quarter stadium and the tolerances of geometry.py. */
typedef struct {
    double r, l;
    double tol_geom, tol_grazing, wall_nudge;
} walls_t;

/* Closed-form pieces of one flight q0 + d s tau over [0, dur]; see
 * potential.py.  For bump i the integrand is
 * amp_i exp(-(s (tau - tau_star_i))^2 / (2 sigma^2)), and on a stationary
 * flight amp_i is the bump's value at q0.  erf holds 2n values: each bump's
 * erf(alpha tau_star_i), then its erf(alpha (dur - tau_star_i)).  arg holds
 * one erf argument per bump while a checkpoint inside the flight is filled.
 * erf_n and exp_n are the call's math path. */
typedef struct {
    int still;
    double alpha, pref;
    double *amp, *tau_star, *erf, *arg; /* per bump; erf has 2n */
    vec_fn erf_n, exp_n;
} segment_t;

static void segment_setup(const bumps_t *v, double x, double y, double dx, double dy,
                          double s, double dur, segment_t *g)
{
    const double sigma = v->sigma;
    const double width = 2.0 * sigma * sigma;
    const int still = s <= 0.0;
    const double s_safe = still ? 1.0 : s;
    const int64_t n = v->n;
    g->still = still;
    g->alpha = s_safe / (sigma * M_SQRT2);
    g->pref = sigma * sqrt(M_PI / 2.0) / s_safe;
    for (int64_t i = 0; i < n; i++) {
        const double d0x = x - v->centers[2 * i];
        const double d0y = y - v->centers[2 * i + 1];
        if (still) {
            g->amp[i] = -(d0x * d0x + d0y * d0y) / width;
            continue;
        }
        /* The squared miss distance as a squared cross product: d0sq - proj^2
         * cancels when the flight points at the bump from afar. */
        const double proj = d0x * dx + d0y * dy;
        const double cross = d0x * dy - d0y * dx;
        const double b2 = cross * cross;
        g->tau_star[i] = -proj / s_safe;
        g->amp[i] = -b2 / width;
        g->erf[i] = g->alpha * g->tau_star[i];
        g->erf[n + i] = g->alpha * (dur - g->tau_star[i]);
    }
    g->exp_n(g->amp, g->amp, n);
    if (!still)
        g->erf_n(g->erf, g->erf, 2 * n);
}

/* Integral of V over [0, duration] of a set-up flight whose upper erf
 * values are hi[0 .. n). */
static double segment_sum(const bumps_t *v, const segment_t *g, const double *hi,
                          double duration)
{
    double sum = 0.0;
    if (g->still) {
        for (int64_t i = 0; i < v->n; i++)
            sum += g->amp[i] * duration * v->signs[i];
        return sum;
    }
    for (int64_t i = 0; i < v->n; i++) {
        const double per = g->amp[i] * g->pref * (hi[i] + g->erf[i]);
        sum += per * v->signs[i];
    }
    return sum;
}

/* Integral of V over [0, duration] of a set-up flight, at a checkpoint. */
static double segment_integral(const bumps_t *v, segment_t *g, double duration)
{
    if (!g->still) {
        for (int64_t i = 0; i < v->n; i++)
            g->arg[i] = g->alpha * (duration - g->tau_star[i]);
        g->erf_n(g->arg, g->arg, v->n);
    }
    return segment_sum(v, g, g->arg, duration);
}

/* Integral of V over the whole flight [0, dur] given to its set-up. */
static double segment_total(const bumps_t *v, const segment_t *g, double dur)
{
    return segment_sum(v, g, g->erf + v->n, dur);
}

/* Working memory and the math path of one call. */
static int segment_alloc(const bumps_t *v, segment_t *g)
{
    const int64_t n = v->n;
    double *buf = malloc(5 * (size_t)(n > 0 ? n : 1) * sizeof(double));
    if (buf == NULL)
        return -1;
    g->amp = buf;
    g->tau_star = buf + n;
    g->erf = buf + 2 * n;
    g->arg = buf + 4 * n;
    g->erf_n = erf_scalar;
    g->exp_n = exp_scalar;
#ifdef HAVE_LANES4
    if (math_lanes() == 4) {
        g->erf_n = erf_lanes4;
        g->exp_n = exp_lanes4;
    }
#endif
    return 0;
}

/* out[i] = integral of V over [0, dur[i]] along q0[i] + d[i] s[i] tau. */
int segment_integrals(const bumps_t *v, int64_t n, const double *q0, const double *d,
                      const double *s, const double *dur, double *out)
{
    segment_t g;
    if (segment_alloc(v, &g) != 0)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        segment_setup(v, q0[2 * i], q0[2 * i + 1], d[2 * i], d[2 * i + 1], s[i], dur[i], &g);
        out[i] = segment_total(v, &g, dur[i]);
    }
    free(g.amp);
    return 0;
}

typedef struct {
    double t;      /* path length to the nearest wall, inf when none */
    double nx, ny; /* inward unit normal, the bisector at corners */
    int ok, corner;
} hit_t;

/* One ray of geometry.first_hit_arrays. */
static void first_hit(const walls_t *w, double x, double y, double dx, double dy, hit_t *h)
{
    const double r = w->r, l = w->l, tol = w->tol_geom;
    double times[4] = {INFINITY, INFINITY, INFINITY, INFINITY};

    if (dy < 0.0) { /* bottom, y = 0 */
        const double t = -y / dy;
        const double xb = x + dx * t;
        if (t > tol && xb >= -tol && xb <= l + r + tol)
            times[0] = t;
    }
    if (dx < 0.0) { /* left, x = 0 */
        const double t = -x / dx;
        const double yl = y + dy * t;
        if (t > tol && yl >= -tol && yl <= r + tol)
            times[1] = t;
    }
    if (dy > 0.0) { /* top, y = r */
        const double t = (r - y) / dy;
        const double xt = x + dx * t;
        if (t > tol && xt >= -tol && xt <= l + tol)
            times[2] = t;
    }
    /* Arc: both roots are candidates; a crossing with x < l is interior. */
    const double cx = x - l;
    const double b = cx * dx + y * dy;
    const double c = cx * cx + y * y - r * r;
    const double disc = b * b - c;
    const int has = disc >= 0.0;
    const double sq = sqrt(has ? disc : 0.0);
    const double roots[2] = {-b - sq, -b + sq};
    for (int k = 0; k < 2; k++) {
        const double root = roots[k];
        const double hx = x + dx * root;
        const double hy = y + dy * root;
        if (has && root > tol && hx >= l - tol && hy >= -tol && root < times[3])
            times[3] = root;
    }

    double t_min = times[0];
    for (int k = 1; k < 4; k++)
        if (times[k] < t_min)
            t_min = times[k];
    const int ok = isfinite(t_min);
    int near[4], n_near = 0;
    for (int k = 0; k < 4; k++) {
        near[k] = times[k] <= t_min + tol;
        n_near += near[k];
    }

    double nx = 0.0, ny = 0.0;
    if (ok) {
        static const double flat[3][2] = {{0.0, 1.0}, {1.0, 0.0}, {0.0, -1.0}};
        for (int k = 0; k < 3; k++) {
            if (near[k]) {
                nx += flat[k][0];
                ny += flat[k][1];
            }
        }
        if (near[3]) {
            const double hx = x + dx * times[3];
            const double hy = y + dy * times[3];
            nx += (l - hx) / r;
            ny += -hy / r;
        }
    }
    const double norm = sqrt(nx * nx + ny * ny);
    const double safe = norm > 0.0 ? norm : 1.0;
    h->t = t_min;
    h->nx = nx / safe;
    h->ny = ny / safe;
    h->ok = ok;
    h->corner = n_near >= 2;
}

/* Trace n rays and fill their checkpoints.
 *
 * times[0 .. m) is ascending and nonnegative; ray i's integral at times[j]
 * goes to out[i * m + j].  Checkpoints at t <= 0 read 0.0.  Each ray keeps
 * one running integral and one cursor, and each segment fills every
 * checkpoint up to its end.  The ray stops at the last checkpoint, when it
 * loses the boundary or when it passes max_bounces reflections; the
 * checkpoints it did not reach keep what the caller put there (NaN), so a
 * ray that stopped early reads NaN at times[m - 1].  Per ray, segments[i]
 * and bounces[i] count its flights and reflections; events[0] and
 * events[1] add up the grazing and corner reflections.  Returns 0, or -1
 * when working memory cannot be allocated. */
int trace(const walls_t *w, const bumps_t *v, int64_t n, const double *qs, const double *ps,
          int64_t m, const double *times, int64_t max_bounces, double *out,
          int64_t *segments, int64_t *bounces, int64_t *events)
{
    const double t_end = times[m - 1];
    int64_t first = 0; /* checkpoints before it are at t = 0 */
    while (first < m && times[first] <= 0.0)
        first++;

    segment_t g;
    if (segment_alloc(v, &g) != 0)
        return -1;

    for (int64_t i = 0; i < n; i++) {
        double *row = out + i * m;
        for (int64_t j = 0; j < first; j++)
            row[j] = 0.0;
        if (t_end <= 0.0)
            continue;
        const double px = ps[2 * i], py = ps[2 * i + 1];
        const double pmag = hypot(px, py);
        const double s = 2.0 * pmag;
        const int moving = s > 0.0;
        double dx = moving ? px / pmag : 1.0;
        double dy = moving ? py / pmag : 0.0;
        double x = qs[2 * i], y = qs[2 * i + 1];
        double elapsed = 0.0, acc = 0.0;
        int64_t next = first, nseg = 0, nbounce = 0;

        for (;;) {
            hit_t h = {INFINITY, 0.0, 0.0, 0, 0};
            double t_wall = INFINITY;
            int bad = 0;
            nseg++;
            if (s > 0.0) {
                first_hit(w, x, y, dx, dy, &h);
                t_wall = h.t / s;
                bad = !h.ok;
            }
            const double remaining = t_end - elapsed;
            const int finishing = t_wall >= remaining;
            const double dur = bad ? 0.0 : (finishing ? remaining : t_wall);
            const double t_new = finishing ? t_end : elapsed + dur;

            segment_setup(v, x, y, dx, dy, s, dur, &g);
            while (!bad && next < m && times[next] <= t_new) {
                row[next] = acc + segment_integral(v, &g, times[next] - elapsed);
                next++;
            }

            acc = acc + segment_total(v, &g, dur);
            x = x + dx * (s * dur);
            y = y + dy * (s * dur);
            elapsed = t_new;

            if (!finishing && !bad) {
                const double dn = dx * h.nx + dy * h.ny;
                events[0] += fabs(dn) < w->tol_grazing;
                events[1] += h.corner;
                dx = dx - 2.0 * dn * h.nx;
                dy = dy - 2.0 * dn * h.ny;
                const double norm = hypot(dx, dy);
                dx /= norm;
                dy /= norm;
                x += w->wall_nudge * h.nx;
                y += w->wall_nudge * h.ny;
                nbounce++;
            }
            if (finishing || bad || nbounce > max_bounces)
                break;
        }
        segments[i] = nseg;
        bounces[i] = nbounce;
    }
    free(g.amp);
    return 0;
}
