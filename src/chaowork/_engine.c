/* Compiled ray engine: ray tracing in the quarter stadium, specular
 * reflection and the closed-form integral of V along each straight flight,
 * four rays at a time.
 *
 * Built and loaded by native.py with -ffp-contract=off, so no multiply-add
 * is fused.  Every floating-point operation of the geometry (wall times,
 * normals, reflection, normalisation, position update, wall nudge) mirrors
 * in order the numpy expressions of first_hit_arrays and of the numpy
 * engine, the test oracle in tests/reference.py, and hypot and sqrt have the bits
 * of glibc's, which numpy calls: a ray's geometry is bit-identical to that
 * engine's.  The integrals use glibc's erf and exp where numpy and scipy
 * have their own, a squared cross product for the squared miss distance
 * where that engine takes d0sq - proj^2, and a left fold over the bumps
 * where numpy used a BLAS dot product, so they can differ from that
 * engine's in the last digits.
 *
 * The trace carries four rays in lockstep, one per lane of a GCC vector of
 * four doubles.  The wall times, the move and the reflection run on all
 * four lanes at once, and masks select between results where the one-ray
 * code branched; each lane keeps that code's operations in order, and
 * vector add, multiply, divide, sqrt and compare round as the scalar ones
 * do, so a lane's geometry has the bits one ray alone would have.  sqrt
 * takes two lanes per SSE2 instruction (sqrt4).  Under the #if below,
 * hypot is glibc's own algorithm on four lanes (hypot4): a fixed sequence
 * of correctly rounded operations, so each lane has glibc's bits, and a
 * lane outside the algorithm's common case calls glibc's hypot, as every
 * lane does elsewhere.  When a lane's ray stops, the lane takes the next
 * ray that has not started, so rays of different lengths leave no lane
 * idle until the last ones; a lane with no ray left carries a still flight
 * whose results are dropped.
 *
 * A flight's set-up is lane-major: each bump holds its four lanes side by
 * side, so the call's exp_n runs over 4n values and its erf_n over the 8n
 * erf arguments of both ends of the four flights, whose durations are known
 * before set-up.  A checkpoint inside a flight takes one more erf over n,
 * lane by lane.  segment_integrals goes through the same set-up and total,
 * four flights at a time.  On x86_64 with glibc 2.35 or later (the #if
 * below, __GLIBC_PREREQ(2, 35) spelled out), trace and segment_integrals
 * check once per call, with __builtin_cpu_supports("avx2"), whether the
 * CPU has AVX2; if so they call libmvec's four-lane _ZGVdN4v_erf and
 * _ZGVdN4v_exp, which -lm links through libm.so's AS_NEEDED libmvec, and
 * trace runs its loop compiled for AVX2.  Otherwise the same loop runs as
 * compiled for the baseline target, with the scalar erf and exp.  The two
 * math paths differ by a few units in the last place, and math_lanes says
 * which one runs; the geometry is the same on both.
 *
 * A trace reads one ascending array of checkpoint times, the union of the
 * times of every request that shares the rays, so a time two requests share
 * is filled once.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

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

/* Four doubles, one per lane, and a lane mask: all ones in a lane where a
 * comparison holds, zeros elsewhere.  v4d_mem is the same vector in working
 * memory, which erf_n and exp_n read and write as doubles.  Helpers that
 * take or return these vectors are macros or always inlined: a vector
 * passed by value to a function compiled for the baseline target would
 * change the calling convention (-Wpsabi). */
typedef double v4d __attribute__((vector_size(32)));
typedef double v4d_mem __attribute__((vector_size(32), may_alias));
typedef __typeof__((v4d){0.0} < (v4d){0.0}) v4m;

#define INLINE static inline __attribute__((always_inline))
#define SPLAT(c) ((v4d){(c), (c), (c), (c)})
/* a in the lanes where m is set, b elsewhere */
#define SELECT(m, a, b) ((v4d)(((m) & (v4m)(a)) | (~(m) & (v4m)(b))))

/* The square root of each lane, in place.  SSE2, part of every x86_64
 * target, takes two lanes per instruction, correctly rounded as glibc's
 * sqrt is; the engine takes it only of sums of squares and of
 * discriminants masked to 0, never of a negative, where glibc would set
 * errno. */
INLINE void sqrt4(v4d *x)
{
#ifdef __SSE2__
    const __m128d lo = _mm_sqrt_pd((__m128d){(*x)[0], (*x)[1]});
    const __m128d hi = _mm_sqrt_pd((__m128d){(*x)[2], (*x)[3]});
    *x = (v4d){lo[0], lo[1], hi[0], hi[1]};
#else
    for (int k = 0; k < 4; k++)
        (*x)[k] = sqrt((*x)[k]);
#endif
}

/* h = hypot(x, y) in each lane, with the bits of the C library's hypot. */
#ifdef HAVE_LANES4
/* glibc's hypot (hypot@@GLIBC_2.35, e_hypot.c's kernel without FMA, no
 * ifunc) is a fixed sequence of correctly rounded operations; each lane
 * takes them in its order.  Its common case has ax <= 2^511, ay >= 2^-459
 * and ay > ax 2^-54 (the constants of glibc 2.36's code), which no NaN or
 * infinity passes; a lane outside it, such as a reflected direction with
 * an exact 0 component, calls hypot itself. */
INLINE void hypot4(const v4d *x, const v4d *y, v4d *h)
{
    const v4m sign = (v4m)SPLAT(-0.0);
    const v4d absx = (v4d)((v4m)*x & ~sign), absy = (v4d)((v4m)*y & ~sign);
    const v4m swap = absx < absy;
    const v4d ax = SELECT(swap, absy, absx), ay = SELECT(swap, absx, absy);
    v4d r = ax * ax + ay * ay;
    sqrt4(&r);
    /* The correction, by glibc's two branches. */
    const v4m near = r <= 2.0 * ay;
    const v4d delta = SELECT(near, r - ay, r - ax);
    const v4d t1 = SELECT(near, ax * (2.0 * delta - ax), 2.0 * delta * (ax - 2.0 * ay));
    const v4d t2 = SELECT(near, (delta - 2.0 * (ax - ay)) * delta,
                          (4.0 * delta - ay) * ay + delta * delta);
    *h = r - (t1 + t2) / (2.0 * r);
    const v4m common = (ax <= 0x1p511) & (ay >= 0x1p-459) & (ay > ax * 0x1p-54);
    if (!(common[0] & common[1] & common[2] & common[3]))
        for (int k = 0; k < 4; k++)
            if (!common[k])
                (*h)[k] = hypot((*x)[k], (*y)[k]);
}
#else
INLINE void hypot4(const v4d *x, const v4d *y, v4d *h)
{
    for (int k = 0; k < 4; k++)
        (*h)[k] = hypot((*x)[k], (*y)[k]);
}
#endif

/* Four straight flights q0 + d s tau over [0, dur], one per lane, with the
 * closed-form constants of potential.py.  A still flight (s <= 0) takes
 * s_safe = 1 in them. */
typedef struct {
    v4d x, y, dx, dy, s, dur;
    v4d s_safe, alpha, pref; /* alpha = s_safe / (sigma sqrt 2) */
    v4m still;
} flights_t;

/* Lane k's flight from (x, y) along (dx, dy) at speed s. */
INLINE void flight_start(const bumps_t *v, flights_t *f, int k, double x, double y, double dx,
                         double dy, double s)
{
    const int still = s <= 0.0;
    const double s_safe = still ? 1.0 : s;
    f->x[k] = x;
    f->y[k] = y;
    f->dx[k] = dx;
    f->dy[k] = dy;
    f->s[k] = s;
    f->s_safe[k] = s_safe;
    f->alpha[k] = s_safe / (v->sigma * M_SQRT2);
    f->pref[k] = v->sigma * sqrt(M_PI / 2.0) / s_safe;
    f->still[k] = -still;
}

/* Working memory and the math path of one call.  amp, tau_star, lo and hi
 * hold one vector per bump; lo and hi, the erf at the start and the end of
 * the flights, are one block of 2n vectors.  arg holds one erf argument per
 * bump while a checkpoint inside a flight is filled. */
typedef struct {
    v4d_mem *amp, *tau_star, *lo, *hi;
    double *arg;
    vec_fn erf_n, exp_n;
} work_t;

/* lanes is 4 for libmvec's four-lane erf and exp, 1 for the scalar ones. */
INLINE int work_alloc(const bumps_t *v, work_t *g, int lanes)
{
    const int64_t n = v->n > 0 ? v->n : 1;
    v4d_mem *buf = aligned_alloc(sizeof(v4d), (size_t)(4 * n + (n + 3) / 4) * sizeof(v4d));
    if (buf == NULL)
        return -1;
    g->amp = buf;
    g->tau_star = buf + n;
    g->lo = buf + 2 * n;
    g->hi = buf + 3 * n;
    g->arg = (double *)(buf + 4 * n);
    g->erf_n = erf_scalar;
    g->exp_n = exp_scalar;
#ifdef HAVE_LANES4
    if (lanes == 4) {
        g->erf_n = erf_lanes4;
        g->exp_n = exp_lanes4;
    }
#else
    (void)lanes;
#endif
    return 0;
}

/* Closed-form pieces of the four flights; see potential.py.  For bump i
 * the integrand is amp_i exp(-(s (tau - tau_star_i))^2 / (2 sigma^2)), and
 * on a still flight amp_i is the bump's value at q0. */
INLINE void flights_setup(const bumps_t *v, const flights_t *f, work_t *g)
{
    const double width = 2.0 * v->sigma * v->sigma;
    const int64_t n = v->n;
    const v4d x = f->x, y = f->y, dx = f->dx, dy = f->dy;
    const v4d s_safe = f->s_safe, alpha = f->alpha, dur = f->dur;
    for (int64_t i = 0; i < n; i++) {
        const v4d d0x = x - v->centers[2 * i];
        const v4d d0y = y - v->centers[2 * i + 1];
        /* The squared miss distance as a squared cross product: d0sq - proj^2
         * cancels when the flight points at the bump from afar. */
        const v4d proj = d0x * dx + d0y * dy;
        const v4d cross = d0x * dy - d0y * dx;
        const v4d tau_star = -proj / s_safe;
        g->amp[i] = SELECT(f->still, -(d0x * d0x + d0y * d0y) / width, -(cross * cross) / width);
        g->tau_star[i] = tau_star;
        g->lo[i] = alpha * tau_star;
        g->hi[i] = alpha * (dur - tau_star);
    }
    g->exp_n((double *)g->amp, (double *)g->amp, 4 * n);
    g->erf_n((double *)g->lo, (double *)g->lo, 8 * n);
}

/* Integral of V over each lane's whole flight [0, dur], a left fold over
 * the bumps. */
INLINE void flights_total(const bumps_t *v, const flights_t *f, const work_t *g, v4d *total)
{
    v4d moving = SPLAT(0.0), still = SPLAT(0.0);
    for (int64_t i = 0; i < v->n; i++) {
        const v4d per = g->amp[i] * f->pref * (g->hi[i] + g->lo[i]);
        moving += per * v->signs[i];
        still += g->amp[i] * f->dur * v->signs[i];
    }
    *total = SELECT(f->still, still, moving);
}

/* Integral of V over [0, duration] of lane k's set-up flight, for a
 * checkpoint inside it: the same fold as flights_total. */
INLINE double lane_integral(const bumps_t *v, const flights_t *f, work_t *g, int k,
                            double duration)
{
    const int64_t n = v->n;
    double sum = 0.0;
    if (f->still[k]) {
        for (int64_t i = 0; i < n; i++)
            sum += g->amp[i][k] * duration * v->signs[i];
        return sum;
    }
    for (int64_t i = 0; i < n; i++)
        g->arg[i] = f->alpha[k] * (duration - g->tau_star[i][k]);
    g->erf_n(g->arg, g->arg, n);
    for (int64_t i = 0; i < n; i++) {
        const double per = g->amp[i][k] * f->pref[k] * (g->arg[i] + g->lo[i][k]);
        sum += per * v->signs[i];
    }
    return sum;
}

/* out[i] = integral of V over [0, dur[i]] along q0[i] + d[i] s[i] tau. */
int segment_integrals(const bumps_t *v, int64_t n, const double *q0, const double *d,
                      const double *s, const double *dur, double *out)
{
    work_t g;
    if (work_alloc(v, &g, math_lanes()) != 0)
        return -1;
    flights_t f;
    for (int64_t i0 = 0; i0 < n; i0 += 4) {
        for (int k = 0; k < 4; k++) {
            /* A short last group repeats its last flight. */
            const int64_t i = i0 + k < n ? i0 + k : n - 1;
            flight_start(v, &f, k, q0[2 * i], q0[2 * i + 1], d[2 * i], d[2 * i + 1], s[i]);
            f.dur[k] = dur[i];
        }
        flights_setup(v, &f, &g);
        v4d total;
        flights_total(v, &f, &g, &total);
        for (int k = 0; k < 4 && i0 + k < n; k++)
            out[i0 + k] = total[k];
    }
    free(g.amp);
    return 0;
}

/* The first wall each lane's ray meets, as first_hit_arrays in tests/reference.py. */
typedef struct {
    v4d t;      /* path length to the nearest wall, inf when none */
    v4d nx, ny; /* inward unit normal, the bisector at corners */
    v4m ok, corner;
} hits_t;

INLINE void first_hits(const walls_t *w, const flights_t *f, hits_t *h)
{
    const double r = w->r, l = w->l, tol = w->tol_geom;
    const v4d inf = SPLAT(INFINITY), zero = SPLAT(0.0);
    const v4d x = f->x, y = f->y, dx = f->dx, dy = f->dy;

    /* bottom, y = 0 */
    v4d t = -y / dy;
    v4d u = x + dx * t;
    const v4d t0 = SELECT((dy < 0.0) & (t > tol) & (u >= -tol) & (u <= l + r + tol), t, inf);
    /* left, x = 0 */
    t = -x / dx;
    u = y + dy * t;
    const v4d t1 = SELECT((dx < 0.0) & (t > tol) & (u >= -tol) & (u <= r + tol), t, inf);
    /* top, y = r */
    t = (r - y) / dy;
    u = x + dx * t;
    const v4d t2 = SELECT((dy > 0.0) & (t > tol) & (u >= -tol) & (u <= l + tol), t, inf);
    /* Arc: both roots are candidates; a crossing with x < l is interior. */
    const v4d cx = x - l;
    const v4d b = cx * dx + y * dy;
    const v4d c = cx * cx + y * y - r * r;
    const v4d disc = b * b - c;
    const v4m has = disc >= 0.0;
    v4d sq = SELECT(has, disc, zero);
    sqrt4(&sq);
    v4d t3 = inf;
    v4d root = -b - sq;
    t3 = SELECT(has & (root > tol) & (x + dx * root >= l - tol) & (y + dy * root >= -tol) &
                    (root < t3),
                root, t3);
    root = -b + sq;
    t3 = SELECT(has & (root > tol) & (x + dx * root >= l - tol) & (y + dy * root >= -tol) &
                    (root < t3),
                root, t3);

    v4d t_min = t0;
    t_min = SELECT(t1 < t_min, t1, t_min);
    t_min = SELECT(t2 < t_min, t2, t_min);
    t_min = SELECT(t3 < t_min, t3, t_min);
    const v4m ok = (t_min > -inf) & (t_min < inf);
    const v4d reach = t_min + tol;
    const v4m near0 = t0 <= reach, near1 = t1 <= reach, near2 = t2 <= reach, near3 = t3 <= reach;

    /* The normals of the walls within reach: bottom (0, 1), left (1, 0),
     * top (0, -1) and the arc's, summed in that order. */
    v4d nx = zero, ny = zero;
    nx = SELECT(ok & near0, nx + 0.0, nx);
    ny = SELECT(ok & near0, ny + 1.0, ny);
    nx = SELECT(ok & near1, nx + 1.0, nx);
    ny = SELECT(ok & near1, ny + 0.0, ny);
    nx = SELECT(ok & near2, nx + 0.0, nx);
    ny = SELECT(ok & near2, ny + -1.0, ny);
    const v4d hx = x + dx * t3;
    const v4d hy = y + dy * t3;
    nx = SELECT(ok & near3, nx + (l - hx) / r, nx);
    ny = SELECT(ok & near3, ny + -hy / r, ny);
    v4d norm = nx * nx + ny * ny;
    sqrt4(&norm);
    const v4d safe = SELECT(norm > 0.0, norm, SPLAT(1.0));
    h->t = t_min;
    h->nx = nx / safe;
    h->ny = ny / safe;
    h->ok = ok;
    h->corner = -(near0 + near1 + near2 + near3) >= 2;
}

/* Lane k's flight along ray i, or a still flight whose results are dropped
 * when i < 0. */
INLINE void ray_start(const bumps_t *v, flights_t *f, int k, int64_t i, const double *qs,
                      const double *ps)
{
    if (i < 0) {
        flight_start(v, f, k, 0.0, 0.0, 1.0, 0.0, 0.0);
        return;
    }
    const double px = ps[2 * i], py = ps[2 * i + 1];
    const double pmag = hypot(px, py);
    const double s = 2.0 * pmag;
    const int moving = s > 0.0;
    flight_start(v, f, k, qs[2 * i], qs[2 * i + 1], moving ? px / pmag : 1.0,
                 moving ? py / pmag : 0.0, s);
}

#define TRACE_PARAMS                                                                               \
    const walls_t *w, const bumps_t *v, int64_t n, const double *qs, const double *ps, int64_t m, \
        const double *times, int64_t max_bounces, double *out, int64_t *segments,                  \
        int64_t *bounces, int64_t *events
#define TRACE_ARGS w, v, n, qs, ps, m, times, max_bounces, out, segments, bounces, events

/* trace's loop; lanes picks the math path as in work_alloc. */
INLINE int trace_lanes(TRACE_PARAMS, int lanes)
{
    const double t_end = times[m - 1];
    int64_t first = 0; /* checkpoints before it are at t = 0 */
    while (first < m && times[first] <= 0.0)
        first++;
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < first; j++)
            out[i * m + j] = 0.0;
    if (t_end <= 0.0)
        return 0;

    work_t g;
    if (work_alloc(v, &g, lanes) != 0)
        return -1;

    /* Per lane: its ray (-1 when none is left), the time and integral at the
     * flight's start, the next checkpoint, and the flights and reflections. */
    flights_t f;
    v4d elapsed = SPLAT(0.0), acc = SPLAT(0.0);
    int64_t ray[4], next[4], nseg[4], nbounce[4];
    int64_t started = 0;
    int live = 0;
    for (int k = 0; k < 4; k++) {
        ray[k] = started < n ? started++ : -1;
        ray_start(v, &f, k, ray[k], qs, ps);
        live += ray[k] >= 0;
        next[k] = first;
        nseg[k] = nbounce[k] = 0;
    }

    while (live > 0) {
        hits_t h;
        first_hits(w, &f, &h);
        const v4m moving = f.s > 0.0;
        const v4d t_wall = SELECT(moving, h.t / f.s, SPLAT(INFINITY));
        const v4m bad = moving & ~h.ok;
        const v4d remaining = t_end - elapsed;
        const v4m finishing = t_wall >= remaining;
        f.dur = SELECT(bad, SPLAT(0.0), SELECT(finishing, remaining, t_wall));
        const v4d t_new = SELECT(finishing, SPLAT(t_end), elapsed + f.dur);

        flights_setup(v, &f, &g);
        for (int k = 0; k < 4; k++) {
            if (ray[k] < 0 || bad[k])
                continue;
            double *row = out + ray[k] * m;
            while (next[k] < m && times[next[k]] <= t_new[k]) {
                row[next[k]] = acc[k] + lane_integral(v, &f, &g, k, times[next[k]] - elapsed[k]);
                next[k]++;
            }
        }

        v4d total;
        flights_total(v, &f, &g, &total);
        acc = acc + total;
        f.x = f.x + f.dx * (f.s * f.dur);
        f.y = f.y + f.dy * (f.s * f.dur);
        elapsed = t_new;

        /* Reflect the lanes whose flight ended on a wall; the others stop. */
        const v4m reflect = ~finishing & ~bad;
        const v4d dn = f.dx * h.nx + f.dy * h.ny;
        const v4m grazing = (dn < w->tol_grazing) & (dn > -w->tol_grazing);
        const v4d dx = f.dx - 2.0 * dn * h.nx;
        const v4d dy = f.dy - 2.0 * dn * h.ny;
        v4d norm;
        hypot4(&dx, &dy, &norm);
        f.dx = SELECT(reflect, dx / norm, f.dx);
        f.dy = SELECT(reflect, dy / norm, f.dy);
        f.x = SELECT(reflect, f.x + w->wall_nudge * h.nx, f.x);
        f.y = SELECT(reflect, f.y + w->wall_nudge * h.ny, f.y);

        for (int k = 0; k < 4; k++) {
            if (ray[k] < 0)
                continue;
            nseg[k]++;
            if (reflect[k]) {
                events[0] += grazing[k] != 0;
                events[1] += h.corner[k] != 0;
                nbounce[k]++;
            }
            if (!reflect[k] || nbounce[k] > max_bounces) {
                segments[ray[k]] = nseg[k];
                bounces[ray[k]] = nbounce[k];
                ray[k] = started < n ? started++ : -1;
                ray_start(v, &f, k, ray[k], qs, ps);
                live -= ray[k] < 0;
                elapsed[k] = acc[k] = 0.0;
                next[k] = first;
                nseg[k] = nbounce[k] = 0;
            }
        }
    }
    free(g.amp);
    return 0;
}

static int trace_baseline(TRACE_PARAMS) { return trace_lanes(TRACE_ARGS, 1); }

#ifdef HAVE_LANES4
__attribute__((target("avx2"))) static int trace_avx2(TRACE_PARAMS)
{
    return trace_lanes(TRACE_ARGS, 4);
}
#endif

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
int trace(TRACE_PARAMS)
{
#ifdef HAVE_LANES4
    if (math_lanes() == 4)
        return trace_avx2(TRACE_ARGS);
#endif
    return trace_baseline(TRACE_ARGS);
}
