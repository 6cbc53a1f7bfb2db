/* The compiled kernels of coevnet, loaded through ctypes by _native.py.
 *
 * 1. coevnet_closure_loop: the fixed-step RK4 loop of the six-moment closure
 *    system, a port of closures._rhs_arrays_py and of the reference loop
 *    closures._integrate_loop_py, which runs on stepping.run_grid and
 *    follows its rules for records and failures.
 * 2. coevnet_minimal_init / coevnet_minimal_run: the exact Gillespie loop of
 *    the binary minimal model, a port of jumpsim._MinimalEngine.run and
 *    the mutations and samplers it calls.
 * 3. coevnet_format_rows: the CSV row renderer of io._write_table, which
 *    prints each float64 as python's "%.17g" % x, byte for byte.
 * 4. coevnet_flow_pairs / coevnet_rk4_combine: the elementwise bookkeeping
 *    of one micro flow evaluation and the RK4 stage and final sums of
 *    microsim's compiled flow; microsim._micro_flow_py is the reference.
 * 5. coevnet_illinois: one Illinois iteration over every element of the
 *    weight nullcline solve; microsim._nullcline_array_py is the reference.
 *
 * Every expression keeps the evaluation order of its python or numpy
 * counterpart, and the library is built without floating-point contraction
 * or fast-math, so each kernel is bitwise equal to its reference.
 *
 * Rates are ordered (a_pm, a_mp, b_pp, b_mm, b_pm, c_pp, c_mm, c_pm)
 * everywhere.
 */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* -- closure RK4 loop ---------------------------------------------------------
 *
 * State ordering: (f_pp, g_pp, f_mm, g_mm, f_pm, g_pm).
 */

static void rhs(const double *y, const double *r, int kirk, double *out)
{
    double f_pp = y[0], g_pp = y[1], f_mm = y[2], g_mm = y[3], f_pm = y[4], g_pm = y[5];
    double rho_p = f_pp + g_pp + f_pm + g_pm;
    double rho_m = f_mm + g_mm + f_pm + g_pm;
    double kpp = 1.0, kmm = 1.0, kpm = 1.0;
    if (kirk == 1) {
        kpp = (f_pp + g_pp) / (rho_p * rho_p);
        kmm = (f_mm + g_mm) / (rho_m * rho_m);
        kpm = (f_pm + g_pm) / (rho_p * rho_m);
    }
    double a_pm = r[0], a_mp = r[1], b_pp = r[2], b_mm = r[3], b_pm = r[4];
    double c_pp = r[5], c_mm = r[6], c_pm = r[7];

    double u = f_pm / rho_m;
    double v = f_pm / rho_p;
    out[0] = a_mp * f_pm * u * kpp - a_pm * f_pp * v * kpm + b_pp * g_pp - c_pp * f_pp;
    out[1] = a_mp * g_pm * u * kpp - a_pm * g_pp * v * kpm - b_pp * g_pp + c_pp * f_pp;
    out[2] = a_pm * f_pm * v * kmm - a_mp * f_mm * u * kpm + b_mm * g_mm - c_mm * f_mm;
    out[3] = a_pm * g_pm * v * kmm - a_mp * g_mm * u * kpm - b_mm * g_mm + c_mm * f_mm;
    out[4] = (-a_mp * f_pm * u * kpp + a_pm * f_pp * v * kpm
              - a_pm * f_pm * v * kmm + a_mp * f_mm * u * kpm) * 0.5
        + b_pm * g_pm - c_pm * f_pm;
    out[5] = (-a_mp * g_pm * u * kpp + a_pm * g_pp * v * kpm
              - a_pm * g_pm * v * kmm + a_mp * g_mm * u * kpm) * 0.5
        - b_pm * g_pm + c_pm * f_pm;
}

/* Records step 0, every stride-th step and the last step, as run_grid
 * samples, so recs holds n_steps / stride + 2 rows of 6 and rec_steps as
 * many entries; a stop records nothing more.  counts receives (n_rec,
 * clamp_count, steps_done).  Returns the status: 0 = completed,
 * 1 = consensus boundary, 2 = negativity beyond neg_tol, 3 = non-finite
 * step. */
int coevnet_closure_loop(const double *y0, const double *r, int kirk, double dt,
                         int64_t n_steps, int64_t stride, double delta, double neg_tol,
                         double *recs, int64_t *rec_steps, int64_t *counts)
{
    double y[6], y_new[6], tmp[6], k1[6], k2[6], k3[6], k4[6];
    double half = 0.5 * dt, sixth = dt / 6.0;
    int64_t n_rec = 1, clamped = 0, steps_done = 0;
    int status = 0;
    int i;

    for (i = 0; i < 6; i++) {
        y[i] = y0[i];
        recs[i] = y0[i];
    }
    rec_steps[0] = 0;
    for (int64_t step = 1; step <= n_steps; step++) {
        double rho_p = y[0] + y[1] + y[4] + y[5];
        double rho_m = y[2] + y[3] + y[4] + y[5];
        int bad = 0;
        if (rho_p * rho_m <= delta) {
            status = 1;
            if (rec_steps[n_rec - 1] != steps_done) {   /* record where it stopped */
                for (i = 0; i < 6; i++)
                    recs[6 * n_rec + i] = y[i];
                rec_steps[n_rec] = steps_done;
                n_rec++;
            }
            break;
        }
        rhs(y, r, kirk, k1);
        for (i = 0; i < 6; i++)
            tmp[i] = y[i] + half * k1[i];
        rhs(tmp, r, kirk, k2);
        for (i = 0; i < 6; i++)
            tmp[i] = y[i] + half * k2[i];
        rhs(tmp, r, kirk, k3);
        for (i = 0; i < 6; i++)
            tmp[i] = y[i] + dt * k3[i];
        rhs(tmp, r, kirk, k4);
        for (i = 0; i < 6; i++)
            y_new[i] = y[i] + sixth * (((k1[i] + 2.0 * k2[i]) + 2.0 * k3[i]) + k4[i]);
        for (i = 0; i < 6; i++)
            if (!isfinite(y_new[i]))
                bad = 1;
        if (bad) {
            status = 3;
            break;
        }
        /* keep scanning after a component beyond tolerance: the reference
         * step counts every undershoot within it, the later ones too */
        for (i = 0; i < 6; i++) {
            if (y_new[i] < 0.0) {
                if (y_new[i] < -neg_tol) {
                    status = 2;
                    bad = 1;
                } else {
                    y_new[i] = 0.0;
                    clamped++;
                }
            }
        }
        if (bad)
            break;
        for (i = 0; i < 6; i++)
            y[i] = y_new[i];
        steps_done = step;
        if (step % stride == 0 || step == n_steps) {
            for (i = 0; i < 6; i++)
                recs[6 * n_rec + i] = y[i];
            rec_steps[n_rec] = step;
            n_rec++;
        }
    }
    counts[0] = n_rec;
    counts[1] = clamped;
    counts[2] = steps_done;
    return status;
}

/* -- minimal-model Gillespie engine --------------------------------------------
 *
 * Eight aggregated channels (flip+, flip-, create per pair type, remove per
 * pair type) whose totals depend only on the plus count and the per-type
 * link counts.  The engine keeps _MinimalEngine's bookkeeping in flat arrays:
 * plus and minus member lists with a position index, one link list per pair
 * type holding codes i N + j (i < j), and a code-indexed position array in
 * place of the per-type dicts.  Swap-removal and the order of every list
 * operation follow the python engine, so both draw the same uniforms in the
 * same order and pick the same agents and pairs.
 */

enum { PP = 0, MM = 1, PM = 2 };
enum { EV_FLIP = 0, EV_CREATE = 1, EV_REMOVE = 2 };
/* return codes of coevnet_minimal_run */
enum { RUN_DONE = 0, RUN_END = 1, RUN_SAMPLE = 2, RUN_FULL = 3, RUN_EMPTY = 4 };

/* numpy's bitgen_t (numpy/random/bitgen.h) */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Stored agent indices, positions and pair codes; the caller keeps
 * N * N below 2^31. */
typedef int32_t idx_t;

/* Mirrored field by field by jumpsim._EngineState. */
typedef struct {
    /* set by the caller; the arrays are owned by the caller */
    int64_t N;
    double rates[8];
    int8_t *s;              /* N: 1 for plus, 0 for minus */
    int8_t *W;              /* N x N, symmetric over {0, 1} */
    idx_t *members[2];      /* [0] minus list, [1] plus list; N each */
    idx_t *member_pos;      /* N */
    idx_t *links[3];        /* per pair type; N (N - 1) / 2 each */
    idx_t *link_pos;        /* N x N, valid at the codes of present links */
    idx_t *scratch;         /* N */
    double *ev_t;           /* ev_cap event times */
    int64_t *ev_kij;        /* 3 x ev_cap: kind, i, j */
    int64_t ev_cap;         /* 0: events are not recorded */
    /* engine state */
    int64_t n_members[2];
    int64_t n_links[3];
    int64_t n_ev;
    double t;
    double t_next;
    int64_t pending;        /* t_next is drawn, its event not yet applied */
} minimal_engine;

static double uniform(bitgen_t *bg)
{
    return bg->next_double(bg->state);
}

static int pair_type(const int8_t *s, int64_t i, int64_t j)
{
    if (s[i] && s[j])
        return PP;
    if (!s[i] && !s[j])
        return MM;
    return PM;
}

static void link_add(minimal_engine *e, int64_t i, int64_t j)
{
    int64_t N = e->N, code, tmp;
    int tau;
    if (i > j) {
        tmp = i;
        i = j;
        j = tmp;
    }
    tau = pair_type(e->s, i, j);
    code = i * N + j;
    e->link_pos[code] = (idx_t)e->n_links[tau];
    e->links[tau][e->n_links[tau]++] = (idx_t)code;
    e->W[i * N + j] = 1;
    e->W[j * N + i] = 1;
}

static void link_drop(minimal_engine *e, int64_t i, int64_t j)
{
    int64_t N = e->N, code, pos, last, tmp;
    int tau;
    if (i > j) {
        tmp = i;
        i = j;
        j = tmp;
    }
    tau = pair_type(e->s, i, j);
    code = i * N + j;
    pos = e->link_pos[code];
    last = e->links[tau][--e->n_links[tau]];
    if (pos < e->n_links[tau]) {
        e->links[tau][pos] = (idx_t)last;
        e->link_pos[last] = (idx_t)pos;
    }
    e->W[i * N + j] = 0;
    e->W[j * N + i] = 0;
}

/* Drop a's links in ascending neighbour order, move a to the other member
 * list, then re-add the links in the same order under their new types. */
static void flip(minimal_engine *e, int64_t a)
{
    int64_t N = e->N, n_nb = 0, nb, pos, last, k;
    int old = e->s[a];
    for (nb = 0; nb < N; nb++)
        if (e->W[a * N + nb])
            e->scratch[n_nb++] = (idx_t)nb;
    for (k = 0; k < n_nb; k++)
        link_drop(e, a, e->scratch[k]);
    pos = e->member_pos[a];
    last = e->members[old][--e->n_members[old]];
    if (pos < e->n_members[old]) {
        e->members[old][pos] = (idx_t)last;
        e->member_pos[last] = (idx_t)pos;
    }
    e->member_pos[a] = (idx_t)e->n_members[1 - old];
    e->members[1 - old][e->n_members[1 - old]++] = (idx_t)a;
    e->s[a] = (int8_t)(1 - old);
    for (k = 0; k < n_nb; k++)
        link_add(e, a, e->scratch[k]);
}

static int64_t cross_link_endpoint(minimal_engine *e, bitgen_t *bg, int want_plus)
{
    int64_t code = e->links[PM][(int64_t)(uniform(bg) * (double)e->n_links[PM])];
    int64_t i = code / e->N, j = code % e->N;
    if ((e->s[i] == 1) == want_plus)
        return i;
    return j;
}

/* Uniform unlinked pair (*pi < *pj) of type tau; 0 when none exists.
 * Rejection sampling, then row-major enumeration over pool_a x pool_b for
 * dense types or when all 200 tries fail. */
static int unlinked_pair(minimal_engine *e, bitgen_t *bg, int tau, int64_t *pi, int64_t *pj)
{
    int64_t N = e->N, n_p = e->n_members[1], n_m = N - n_p;
    int64_t P, U, na, nb, n_open, k, x, y, i, j;
    const idx_t *a, *b;
    const int8_t *W = e->W;
    if (tau == PP)
        P = n_p * (n_p - 1) / 2;
    else if (tau == MM)
        P = n_m * (n_m - 1) / 2;
    else
        P = n_p * n_m;
    U = P - e->n_links[tau];
    if (U <= 0)
        return 0;
    if (tau == PP) {
        a = b = e->members[1];
        na = nb = n_p;
    } else if (tau == MM) {
        a = b = e->members[0];
        na = nb = e->n_members[0];
    } else {
        a = e->members[1];
        b = e->members[0];
        na = n_p;
        nb = e->n_members[0];
    }
    if (U >= (P / 20 > 1 ? P / 20 : 1)) {
        for (k = 0; k < 200; k++) {
            i = a[(int64_t)(uniform(bg) * (double)na)];
            j = b[(int64_t)(uniform(bg) * (double)nb)];
            if (i != j && W[i * N + j] == 0) {
                *pi = i < j ? i : j;
                *pj = i < j ? j : i;
                return 1;
            }
        }
    }
#define OPEN(x, y) (W[a[x] * N + b[y]] == 0 && (tau == PM || a[x] < b[y]))
    n_open = 0;
    for (x = 0; x < na; x++)
        for (y = 0; y < nb; y++)
            if (OPEN(x, y))
                n_open++;
    if (n_open == 0)
        return 0;
    k = (int64_t)(uniform(bg) * (double)n_open);
    for (x = 0; x < na; x++)
        for (y = 0; y < nb; y++)
            if (OPEN(x, y) && k-- == 0) {
                *pi = a[x] < b[y] ? a[x] : b[y];
                *pj = a[x] < b[y] ? b[y] : a[x];
                return 1;
            }
#undef OPEN
    return 0;
}

static void record(minimal_engine *e, double t, int64_t kind, int64_t i, int64_t j)
{
    if (e->ev_cap == 0)
        return;
    e->ev_t[e->n_ev] = t;
    e->ev_kij[e->n_ev] = kind;
    e->ev_kij[e->ev_cap + e->n_ev] = i;
    e->ev_kij[2 * e->ev_cap + e->n_ev] = j;
    e->n_ev++;
}

/* Member lists, positions and per-type link lists from s and W, in the
 * order _MinimalEngine builds them (ascending agents, row-major links), as
 * removals index into the lists.  The pair scan has no data-dependent branch
 * (at half density one would mispredict every other pair): it writes each
 * code at the tail of row i's same-state list and of the PM list, and the
 * link bit (W is over {0, 1}) advances the tail that the cross bit selects. */
void coevnet_minimal_init(minimal_engine *e)
{
    int64_t N = e->N, i, j, k, tau;
    e->n_members[0] = e->n_members[1] = 0;
    for (i = 0; i < N; i++) {
        e->member_pos[i] = (idx_t)e->n_members[e->s[i]];
        e->members[e->s[i]][e->n_members[e->s[i]]++] = (idx_t)i;
    }
    e->n_links[PP] = e->n_links[MM] = e->n_links[PM] = 0;
    for (i = 0; i < N; i++) {
        const int8_t *row = e->W + i * N, *s = e->s, si = s[i];
        int64_t same = si ? PP : MM, n_same = e->n_links[same], n_cross = e->n_links[PM];
        for (j = i + 1; j < N; j++) {
            int64_t cross = s[j] ^ si;
            e->links[same][n_same] = e->links[PM][n_cross] = (idx_t)(i * N + j);
            n_same += row[j] & (cross ^ 1);
            n_cross += row[j] & cross;
        }
        e->n_links[same] = n_same;
        e->n_links[PM] = n_cross;
    }
    for (tau = 0; tau < 3; tau++)
        for (k = 0; k < e->n_links[tau]; k++)
            e->link_pos[e->links[tau][k]] = (idx_t)k;
    e->n_ev = 0;
    e->t = 0.0;
    e->t_next = 0.0;
    e->pending = 0;
}

/* Run events from e->t towards T and return to the caller when
 *   RUN_DONE:   the loop ended without drawing past T (t >= T, or a zero
 *               total rate: the state is absorbing);
 *   RUN_END:    the next event time e->t_next is at or beyond T (e->t = T);
 *   RUN_SAMPLE: e->t_next is at or beyond t_sample, the next sample time;
 *               the event is pending and is applied by the next call, after
 *               the caller has recorded the state;
 *   RUN_FULL:   the event buffer is full;
 *   RUN_EMPTY:  the removal channel of a pair type without links was drawn
 *               (possible only through rounding; the python engine raises
 *               IndexError there, after the same draw).
 * e->n_ev events were recorded by this call. */
int coevnet_minimal_run(minimal_engine *e, bitgen_t *bg, double T, double t_sample)
{
    const double a_pm = e->rates[0], a_mp = e->rates[1], b_pp = e->rates[2];
    const double b_mm = e->rates[3], b_pm = e->rates[4], c_pp = e->rates[5];
    const double c_mm = e->rates[6], c_pm = e->rates[7];
    const int64_t N = e->N;
    e->n_ev = 0;
    for (;;) {
        int64_t n_p, n_m, L0, L1, L2, U0, U1, U2, i, j;
        double r_fp, r_fm, r_c0, r_c1, r_c2, r_r0, r_r1, r_r2, total, t_next, u;
        int tau;
        if (!e->pending) {
            if (!(e->t < T))
                return RUN_DONE;
            if (e->ev_cap > 0 && e->n_ev == e->ev_cap)
                return RUN_FULL;
        }
        n_p = e->n_members[1];
        n_m = N - n_p;
        L0 = e->n_links[PP];
        L1 = e->n_links[MM];
        L2 = e->n_links[PM];
        U0 = n_p * (n_p - 1) / 2 - L0;
        U1 = n_m * (n_m - 1) / 2 - L1;
        U2 = n_p * n_m - L2;
        r_fp = a_pm * (double)L2 / (double)N;
        r_fm = a_mp * (double)L2 / (double)N;
        r_c0 = b_pp * (double)U0;
        r_c1 = b_mm * (double)U1;
        r_c2 = b_pm * (double)U2;
        r_r0 = c_pp * (double)L0;
        r_r1 = c_mm * (double)L1;
        r_r2 = c_pm * (double)L2;
        total = r_fp + r_fm + r_c0 + r_c1 + r_c2 + r_r0 + r_r1 + r_r2;
        if (e->pending) {
            e->pending = 0;
            t_next = e->t_next;
        } else {
            if (total <= 0.0)
                return RUN_DONE;
            t_next = e->t - log(1.0 - uniform(bg)) / total;
            e->t_next = t_next;
            if (t_next >= T) {
                e->t = T;
                return RUN_END;
            }
            if (t_sample <= t_next) {
                e->pending = 1;
                return RUN_SAMPLE;
            }
        }
        u = uniform(bg) * total;
        if (u < r_fp + r_fm) {
            i = cross_link_endpoint(e, bg, u < r_fp);
            flip(e, i);
            record(e, t_next, EV_FLIP, i, -1);
        } else {
            u -= r_fp + r_fm;
            if (u < r_c0 + r_c1 + r_c2) {
                tau = u < r_c0 ? PP : (u < r_c0 + r_c1 ? MM : PM);
                if (unlinked_pair(e, bg, tau, &i, &j)) {
                    link_add(e, i, j);
                    record(e, t_next, EV_CREATE, i, j);
                }
            } else {
                u -= r_c0 + r_c1 + r_c2;
                tau = u < r_r0 ? PP : (u < r_r0 + r_r1 ? MM : PM);
                u = uniform(bg) * (double)e->n_links[tau];
                if (e->n_links[tau] == 0)
                    return RUN_EMPTY;
                i = e->links[tau][(int64_t)u] / N;
                j = e->links[tau][(int64_t)u] % N;
                link_drop(e, i, j);
                record(e, t_next, EV_REMOVE, i, j);
            }
        }
        e->t = t_next;
    }
}

/* -- CSV rows ------------------------------------------------------------------
 *
 * Python prints "%.17g" % x with the correctly rounded 17 significant digits
 * of x.  Write |x| = m 2^q (m < 2^53) and k = 16 - floor(log10 |x|): the
 * digits are the integer D = round(m 5^k 2^(q + k)), 10^16 <= D < 10^17.
 * When 0 <= k <= 27, 5^k fits in 64 bits, so D is one 128-bit product and
 * one shift, rounded half to even on the exact remainder (the exact-integer
 * idea of Gay 1990 and of Ryu printf).  That covers 1e-11 <= |x| < 1e17.
 * Integers below 2^53 (index columns) print as their digits, and every
 * other finite value goes through snprintf, exact as well but several times
 * slower.  The text follows python's layout: positional from exponent
 * -4 to 16, else d.ddde-XX with at least two exponent digits, trailing
 * zeros dropped, "-0" for negative zero, and "nan" for every NaN (glibc
 * prints "-nan" for a NaN with its sign bit set).
 */

__extension__ typedef unsigned __int128 u128;

/* The longest "%.17g" text, e.g. -2.2250738585072014e-308. */
#define G17_MAX 24
#define TEN17 100000000000000000ull

static const uint64_t POW5[28] = {
    1ull, 5ull, 25ull, 125ull, 625ull, 3125ull, 15625ull, 78125ull, 390625ull,
    1953125ull, 9765625ull, 48828125ull, 244140625ull, 1220703125ull,
    6103515625ull, 30517578125ull, 152587890625ull, 762939453125ull,
    3814697265625ull, 19073486328125ull, 95367431640625ull, 476837158203125ull,
    2384185791015625ull, 11920928955078125ull, 59604644775390625ull,
    298023223876953125ull, 1490116119384765625ull, 7450580596923828125ull};

static const char DIGIT_PAIRS[201] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

static int format_g17_libc(double x, char *out)
{
    char tmp[32];
    int n = snprintf(tmp, sizeof tmp, "%.17g", x);
    memcpy(out, tmp, (size_t)n);
    return n;
}

/* The 17 significant digits of |x| into dig, with the decimal exponent in
 * *e10; 0 when |x| is outside the fast range (or zero, or not finite). */
static int digits_g17(double x, char *dig, int *e10)
{
    uint64_t bits, m, d;
    uint32_t hi, lo;
    int be, q, k, e, i;
    u128 p, r, rem = 0, half = 0;
    memcpy(&bits, &x, sizeof bits);
    be = (int)(bits >> 52 & 0x7ff);
    if (be == 0 || be == 0x7ff)
        return 0;
    m = (bits & 0xfffffffffffffull) | 1ull << 52;
    q = be - 1075;
    /* From 2^(q + 52) <= |x|: e starts at floor((q + 52) log10 2) (exact
     * for |q + 52| < 1100), which is floor(log10 |x|) or one less, so r is at
     * least 10^16 and at most one step up is needed. */
    for (e = ((q + 52) * 78913) >> 18;; e++) {
        k = 16 - e;
        if (k < 0 || k > 27)
            return 0;
        p = (u128)m * POW5[k];
        if (q + k >= 0) {
            r = p << (q + k);   /* below 10^18: no bits are lost */
        } else {
            int sh = -(q + k);  /* below 128: m 5^k < 2^116 and r >= 1 */
            r = p >> sh;
            rem = p - (r << sh);
            half = (u128)1 << (sh - 1);
        }
        if (r < TEN17)
            break;
    }
    /* No rounding carries into an 18th digit: that needs a double less
     * than 5e-18 (relative) below a power of ten, and the doubles below
     * 1e-10 .. 1e17 are farther from it than that. */
    d = (uint64_t)r;
    if (rem > half || (rem == half && half != 0 && (d & 1)))
        d++;
    *e10 = e;
    /* digit 0, then digits 1 to 8 and 9 to 16 in two interleaved pair loops */
    hi = (uint32_t)(d / 100000000u);
    lo = (uint32_t)(d % 100000000u);
    dig[0] = (char)('0' + hi / 100000000u);
    hi %= 100000000u;
    for (i = 7; i > 0; i -= 2) {
        memcpy(dig + i, DIGIT_PAIRS + 2 * (hi % 100), 2);
        memcpy(dig + i + 8, DIGIT_PAIRS + 2 * (lo % 100), 2);
        hi /= 100;
        lo /= 100;
    }
    return 1;
}

/* x as python's "%.17g" % x into out (G17_MAX bytes); returns the length. */
static int format_g17(double x, char *out)
{
    char dig[17], *p = out;
    int e, n, a;
    if (isnan(x)) {
        memcpy(out, "nan", 3);
        return 3;
    }
    if (fabs(x) < 9007199254740992.0 && x == (double)(int64_t)x && x != 0.0) {
        /* an integer below 2^53 (an index column): its digits alone */
        uint64_t v = (uint64_t)fabs(x);
        char tmp[16];
        n = 16;
        for (; v >= 10; v /= 100) {
            n -= 2;
            memcpy(tmp + n, DIGIT_PAIRS + 2 * (v % 100), 2);
        }
        if (v > 0)
            tmp[--n] = (char)('0' + v);
        if (x < 0.0)
            *p++ = '-';
        memcpy(p, tmp + n, (size_t)(16 - n));
        return (int)(p - out) + 16 - n;
    }
    if (!digits_g17(x, dig, &e)) {
        if (x == 0.0) {
            if (signbit(x))
                *p++ = '-';
            *p++ = '0';
            return (int)(p - out);
        }
        return format_g17_libc(x, out);
    }
    for (n = 17; n > 1 && dig[n - 1] == '0'; n--)
        ;
    if (signbit(x))
        *p++ = '-';
    if (e < -4) {   /* the fast range has e >= -11 */
        *p++ = dig[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, dig + 1, (size_t)(n - 1));
            p += n - 1;
        }
        a = -e;
        *p++ = 'e';
        *p++ = '-';
        memcpy(p, DIGIT_PAIRS + 2 * a, 2);
        p += 2;
    } else if (e >= 0) {    /* and e <= 16 */
        memcpy(p, dig, (size_t)(e + 1));
        p += e + 1;
        if (n > e + 1) {
            *p++ = '.';
            memcpy(p, dig + e + 1, (size_t)(n - e - 1));
            p += n - e - 1;
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', (size_t)(-e - 1));
        p += -e - 1;
        memcpy(p, dig, (size_t)n);
        p += n;
    }
    return (int)(p - out);
}

/* Render rows row0 .. row0 + n_rows - 1 of n_cols float64 columns between
 * n_cols + 1 pieces of constant text: a row is piece 0, the value of column
 * 0, piece 1, ..., the value of column n_cols - 1, piece n_cols.  Piece c is
 * text[off[c] .. off[c + 1]); the value of column c in row r is the double
 * at byte address cols[c] + r strides[c].  out must hold
 * n_rows (off[n_cols + 1] + G17_MAX n_cols) bytes.  Returns the number of
 * bytes written. */
int64_t coevnet_format_rows(const char *text, const int64_t *off, int64_t n_cols,
                            const uintptr_t *cols, const int64_t *strides, int64_t row0,
                            int64_t n_rows, char *out)
{
    char *p = out;
    int64_t r, c;
    double x;
    for (r = row0; r < row0 + n_rows; r++) {
        for (c = 0; c < n_cols; c++) {
            memcpy(p, text + off[c], (size_t)(off[c + 1] - off[c]));
            p += off[c + 1] - off[c];
            memcpy(&x, (const char *)cols[c] + r * strides[c], sizeof x);
            p += format_g17(x, p);
        }
        memcpy(p, text + off[n_cols], (size_t)(off[n_cols + 1] - off[n_cols]));
        p += off[n_cols + 1] - off[n_cols];
    }
    return p - out;
}

/* -- micro flow bookkeeping ---------------------------------------------------
 *
 * L stacked legs of N agents in m dimensions.  U is the (L, N, N, m) pair
 * force and V the (L, N, N) weight drift, both C-contiguous; leg l's
 * (N, N) weight part of the flow's output starts at dw + l * dw_row.
 */

/* Whether x[0 .. n) is all finite: x * 0.0 is a zero for finite x and NaN
 * otherwise, and four independent sums keep the scan pipelined. */
static int all_finite(const double *x, int64_t n)
{
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    int64_t k = 0;
    for (; k + 4 <= n; k += 4) {
        a0 += x[k] * 0.0;
        a1 += x[k + 1] * 0.0;
        a2 += x[k + 2] * 0.0;
        a3 += x[k + 3] * 0.0;
    }
    for (; k < n; k++)
        a0 += x[k] * 0.0;
    return (a0 + a1) + (a2 + a3) == 0.0;
}

/* ok[l] = whether leg l's U and V are all finite, checked before anything
 * is written; when a leg is not, returns 1 and writes nothing else.
 * Otherwise zeroes U's diagonal and, unless V is NULL, writes the weight
 * drift: with sym, the strict upper triangle of V plus 0.0 (so -0.0 turns
 * into +0.0) mirrored, as V + V^T after zeroing V on and below the
 * diagonal; without, V with a zero diagonal.  With eps (not NULL) leg l's
 * weight drift is divided by eps[l].  Returns 0. */
int coevnet_flow_pairs(double *U, const double *V, double *dw, const double *eps, uint8_t *ok,
                       int64_t L, int64_t N, int64_t m, int64_t dw_row, int sym)
{
    int64_t nn = N * N, l, i, j, k;
    int bad = 0;
    for (l = 0; l < L; l++) {
        int fin = all_finite(U + l * nn * m, nn * m) && (!V || all_finite(V + l * nn, nn));
        ok[l] = (uint8_t)fin;
        bad |= !fin;
    }
    if (bad)
        return 1;
    for (l = 0; l < L; l++) {
        double *u = U + l * nn * m, *d;
        const double *v;
        for (i = 0; i < N; i++)
            for (k = 0; k < m; k++)
                u[(i * N + i) * m + k] = 0.0;
        if (!V)
            continue;
        v = V + l * nn;
        d = dw + l * dw_row;
        for (i = 0; i < N; i++) {
            if (sym) {
                for (j = i + 1; j < N; j++) {
                    double x = v[i * N + j] + 0.0;
                    d[i * N + j] = d[j * N + i] = eps ? x / eps[l] : x;
                }
            } else {
                for (j = 0; j < N; j++)
                    d[i * N + j] = eps ? v[i * N + j] / eps[l] : v[i * N + j];
            }
            d[i * N + i] = 0.0;
        }
    }
    return 0;
}

/* out = y + c k1 (an RK4 stage, k2 NULL), or the final RK4 sum
 * out = y + c (((k1 + 2 k2) + 2 k3) + k4), over n elements. */
void coevnet_rk4_combine(const double *y, const double *k1, const double *k2, const double *k3,
                         const double *k4, double *out, double c, int64_t n)
{
    int64_t i;
    if (!k2) {
        for (i = 0; i < n; i++)
            out[i] = y[i] + c * k1[i];
        return;
    }
    for (i = 0; i < n; i++)
        out[i] = y[i] + c * (((k1[i] + 2.0 * k2[i]) + 2.0 * k3[i]) + k4[i]);
}

/* -- weight nullcline ----------------------------------------------------------
 *
 * The rows of the (10, n) buffer of one solve; side and done hold
 * -1/0/+1 and 0/1 as doubles.
 */

enum { IL_LO, IL_HI, IL_FLO, IL_FHI, IL_W, IL_FW, IL_SIDE, IL_DONE, IL_NEW, IL_FNEW };

/* np.sign: NaN for NaN, and a zero compares equal to zero. */
static double sign_of(double x)
{
    return x > 0.0 ? 1.0 : x < 0.0 ? -1.0 : x;
}

/* np.spacing(x) for x >= 0 or NaN, from the bit pattern: NaN for NaN and
 * inf, inf for the largest finite double. */
static double spacing_of(double x)
{
    uint64_t bits;
    double next;
    if (!(x < INFINITY))
        return NAN;
    memcpy(&bits, &x, sizeof bits);
    bits++;
    memcpy(&next, &bits, sizeof next);
    return next - x;
}

/* With first, sets w, fw, side and done from the bracket (lo, hi, flo,
 * fhi): an element with a zero endpoint value is done at that endpoint.
 * Otherwise takes one iteration's update from fnew = V(new): done, w and fw
 * of the elements not yet done, the Illinois halving and the bracket side.
 * Then proposes the next point new of every element, the secant point as a
 * correction to the endpoint with the smaller |V|, or the midpoint where
 * that leaves the bracket or the endpoint values differ by a non-finite
 * amount.  Returns the number of elements not done. */
int64_t coevnet_illinois(double *buf, int64_t n, int first)
{
    double *lo = buf + IL_LO * n, *hi = buf + IL_HI * n, *flo = buf + IL_FLO * n;
    double *fhi = buf + IL_FHI * n, *w = buf + IL_W * n, *fw = buf + IL_FW * n;
    double *side = buf + IL_SIDE * n, *done = buf + IL_DONE * n;
    double *nw = buf + IL_NEW * n, *fnew = buf + IL_FNEW * n;
    int64_t i, active = 0;
    for (i = 0; i < n; i++) {
        double a, fa, b, fb, x;
        if (first) {
            int on_lo = flo[i] == 0.0;
            done[i] = on_lo || fhi[i] == 0.0;
            w[i] = on_lo ? lo[i] : done[i] != 0.0 ? hi[i] : NAN;
            fw[i] = on_lo ? flo[i] : fhi[i];
            side[i] = 0.0;
        } else {
            double fn = fnew[i];
            int to_lo = sign_of(fn) == sign_of(flo[i]);
            if (done[i] == 0.0) {
                done[i] = fn == 0.0 || fabs(nw[i] - w[i]) <= 2.0 * spacing_of(fabs(nw[i]));
                w[i] = nw[i];
                fw[i] = fn;
            }
            /* Illinois: halve the kept endpoint's value when one side is replaced twice */
            if (to_lo && side[i] == -1.0)
                fhi[i] = 0.5 * fhi[i];
            if (!to_lo && side[i] == 1.0)
                flo[i] = 0.5 * flo[i];
            if (to_lo) {
                lo[i] = nw[i];
                flo[i] = fn;
            } else {
                hi[i] = nw[i];
                fhi[i] = fn;
            }
            side[i] = to_lo ? -1.0 : 1.0;
        }
        active += done[i] == 0.0;
        if (fabs(flo[i]) < fabs(fhi[i])) {
            a = lo[i], fa = flo[i], b = hi[i], fb = fhi[i];
        } else {
            a = hi[i], fa = fhi[i], b = lo[i], fb = flo[i];
        }
        x = a - fa * (b - a) / (fb - fa);
        nw[i] = isfinite(fb - fa) && x >= lo[i] && x <= hi[i] ? x : 0.5 * (lo[i] + hi[i]);
    }
    return active;
}
