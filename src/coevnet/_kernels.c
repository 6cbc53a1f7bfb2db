/* The compiled kernels of coevnet, built as the CPython extension module
 * coevnet._kernels by _native.py.
 *
 * 1. coevnet_closure_loop: the fixed-step RK4 loop of the six-moment closure
 *    system, a port of closures._rhs_arrays_py and of the numpy twin
 *    closures._closure_loop_py, with the closure_loop entry's signature,
 *    which runs on stepping.run_grid and follows its rules for records and
 *    failures.  Its stages and update are coevnet_rk_sum, the one explicit
 *    Runge-Kutta sum of the module, summed as stepping.rk_sum sums it.
 * 2. coevnet_minimal_init / coevnet_minimal_run: the exact Gillespie loop of
 *    the binary minimal model, a port of jumpsim._MinimalEngine.run and
 *    the mutations and samplers it calls.  It runs from t = 0 to T and
 *    calls back through two hooks where the python loop calls record_until
 *    and appends an event, so both engines share one run protocol.
 * 3. coevnet_format_rows: the CSV row renderer of io._write_table, which
 *    prints each float64 as python's "%.17g" % x, byte for byte.
 * 4. The MicroFlow type, one micro flow evaluation per call: it calls the
 *    model's V and U back, or, in the pair mode of a kernel-relaxation
 *    model (models.PairForm), takes s_i - s_j once into the flow's scratch
 *    d of K and of eta, calls eta and K back and forms V = eta - kappa w and
 *    U = -(w K) itself, with the IEEE operations of the catalog's V and U
 *    on the same operands (exp stays in the model's eta).  Every result is
 *    read in place through its strides and never written: one that is not
 *    a float64 array of its grid is read through microsim._on_grid, numpy's
 *    read-only broadcast view of it.  One pass per pair row then checks U
 *    and V finite and sums U over the partners (the equal-mass sum itself,
 *    coevnet_row_sum in np.add.reduce(U, axis=2)'s order, or the
 *    mass-weighted einsum called back on U formed in a grid of the flow's
 *    own); when every leg is finite, one write pass writes the weight
 *    drift and divides the sums into the state drift, then U0 is called
 *    back and added with numpy's own +=.  Its reference is the numpy twin
 *    microsim._MicroFlow, with the same constructor and call.  Each RK4
 *    step and each Fehlberg substep of microsim's workspace is one call of
 *    the entry rk_step: its stages, with the flow evaluated here when it is
 *    a MicroFlow (else called back), and its update, each sum
 *    coevnet_rk_sum, then the step checks of coevnet_step_flags or the
 *    Fehlberg error estimate.  Its reference is stepping.rk4_step or
 *    rkf45_step over the flow, then the checks of microsim._step_flags:
 *    microsim's workspace runs them in its place when the module is not
 *    loaded, into the same buffers.
 * 5. coevnet_nullcline: one weight nullcline solve, the bracket search,
 *    every Illinois iteration, the step limit and the residual check over
 *    one buffer, calling V back through a hook, which reads each result as
 *    the flow reads its results: the model's own V, or, for a
 *    kernel-relaxation model with its pair form, a V that microsim gives
 *    it, eta(s_i - s_j) taken once per solve minus kappa w.  Its reference
 *    is the numpy twin microsim._nullcline_py, with the nullcline entry's
 *    signature.
 *
 * Every expression keeps the evaluation order of its python or numpy
 * counterpart, and the module is built without floating-point contraction
 * or fast-math, so each kernel is bitwise equal to its reference up to the
 * sign and payload of a NaN: which of two NaN operands a + or * returns
 * depends on their order, which the compiler may swap.  The
 * module's functions, at the end of this file, take the numpy arrays
 * themselves and check each one before a kernel reads or writes it.
 *
 * Rates are ordered (a_pm, a_mp, b_pp, b_mm, b_pm, c_pp, c_mm, c_pm)
 * everywhere.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stddef.h>
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

/* out[i] = y[i] + h (a[0] k[0][i] + ... + a[nk-1] k[nk-1][i]) for i < n, the
 * terms summed left to right from the first: the one explicit Runge-Kutta sum
 * of the module, in stepping.rk_sum's order.  An RK4 stage has a = RK_ONE,
 * the RK4 update a = RK4_B with h = dt / 6 (1.0 x is x). */
static inline double rk_terms(const double *a, const double *const *k, int64_t nk, int64_t i)
{
    double s = a[0] * k[0][i];
    int64_t j;
#pragma GCC unroll 8   /* the closure loop's constant weights then fold, 1.0 x to x */
    for (j = 1; j < nk; j++)
        s = s + a[j] * k[j][i];
    return s;
}

static inline void coevnet_rk_sum(const double *y, double h, const double *a,
                                  const double *const *k, int64_t nk, double *out, int64_t n)
{
    int64_t i;
    for (i = 0; i < n; i++)
        out[i] = y[i] + h * rk_terms(a, k, nk, i);
}

static const double RK_ONE[1] = {1.0}, RK4_B[4] = {1.0, 2.0, 2.0, 1.0};

/* Records step 0, every stride-th step and the last step, as run_grid
 * samples, so recs holds n_steps / stride + 2 rows of 6 and rec_steps as
 * many entries; a stop records nothing more.  counts receives (n_rec,
 * clamp_count, steps_done).  Returns the status: 0 = completed,
 * 1 = consensus boundary, 2 = negativity beyond neg_tol, 3 = non-finite
 * step. */
static int coevnet_closure_loop(const double *y0, const double *r, int kirk, double dt,
                                int64_t n_steps, int64_t stride, double delta, double neg_tol,
                                double *recs, int64_t *rec_steps, int64_t *counts)
{
    double y[6], y_new[6], tmp[6], k1[6], k2[6], k3[6], k4[6];
    const double *const k[4] = {k1, k2, k3, k4};
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
        coevnet_rk_sum(y, half, RK_ONE, k, 1, tmp, 6);
        rhs(tmp, r, kirk, k2);
        coevnet_rk_sum(y, half, RK_ONE, k + 1, 1, tmp, 6);
        rhs(tmp, r, kirk, k3);
        coevnet_rk_sum(y, dt, RK_ONE, k + 2, 1, tmp, 6);
        rhs(tmp, r, kirk, k4);
        coevnet_rk_sum(y, sixth, RK4_B, k, 4, y_new, 6);
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
enum { RUN_DONE = 0, RUN_FAILED = 1, RUN_EMPTY = 2 };

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

typedef struct {
    /* set by MinimalEngine; the arrays are owned by the caller */
    int64_t N;
    double rates[8];
    int8_t *s;              /* N: 1 for plus, 0 for minus */
    int8_t *W;              /* N x N, symmetric over {0, 1} */
    idx_t *members[2];      /* [0] minus list, [1] plus list; N each */
    idx_t *member_pos;      /* N */
    idx_t *links[3];        /* per pair type; N (N - 1) / 2 each */
    idx_t *link_pos;        /* N x N, valid at the codes of present links */
    idx_t *scratch;         /* N */
    /* engine state */
    int64_t n_members[2];
    int64_t n_links[3];
} minimal_engine;

/* The caller's side of coevnet_minimal_run.  sample(ctx, t, &t_sample) runs
 * where _MinimalEngine.run calls record_until(t) and sets the next sample
 * time; event(ctx, t, kind, i, j) runs after each applied event, or not at
 * all when it is NULL.  Each returns 0, or -1 when it failed. */
typedef struct {
    int (*sample)(void *ctx, double t, double *t_sample);
    int (*event)(void *ctx, double t, int kind, int64_t i, int64_t j);
    void *ctx;
} minimal_hooks;

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

/* Member lists, positions and per-type link lists from s and W, in the
 * order _MinimalEngine builds them (ascending agents, row-major links), as
 * removals index into the lists.  The pair scan has no data-dependent branch
 * (at half density one would mispredict every other pair): it writes each
 * code at the tail of row i's same-state list and of the PM list, and the
 * link bit (W is over {0, 1}) advances the tail that the cross bit selects. */
static void coevnet_minimal_init(minimal_engine *e)
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
}

/* Run events from t = 0 to T, the first sample time being t_sample, with
 * the hooks h.  Returns
 *   RUN_DONE:   the loop ended at T, or at a zero total rate (the state is
 *               absorbing);
 *   RUN_FAILED: a hook failed; the loop stopped there;
 *   RUN_EMPTY:  the removal channel of a pair type without links was drawn
 *               (possible only through rounding; the python engine raises
 *               IndexError there, after the same draw). */
static int coevnet_minimal_run(minimal_engine *e, bitgen_t *bg, double T, double t_sample,
                               const minimal_hooks *h)
{
    const double a_pm = e->rates[0], a_mp = e->rates[1], b_pp = e->rates[2];
    const double b_mm = e->rates[3], b_pm = e->rates[4], c_pp = e->rates[5];
    const double c_mm = e->rates[6], c_pm = e->rates[7];
    const int64_t N = e->N;
    double t = 0.0;
    while (t < T) {
        int64_t n_p, n_m, L0, L1, L2, U0, U1, U2, i, j = -1;
        double r_fp, r_fm, r_c0, r_c1, r_c2, r_r0, r_r1, r_r2, total, t_next, u;
        int tau, kind = -1;
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
        if (total <= 0.0)
            break;
        t_next = t - log(1.0 - uniform(bg)) / total;
        if (t_next >= T)
            break;
        if (t_sample <= t_next && h->sample(h->ctx, t_next, &t_sample) < 0)
            return RUN_FAILED;
        u = uniform(bg) * total;
        if (u < r_fp + r_fm) {
            i = cross_link_endpoint(e, bg, u < r_fp);
            flip(e, i);
            kind = EV_FLIP;
        } else {
            u -= r_fp + r_fm;
            if (u < r_c0 + r_c1 + r_c2) {
                tau = u < r_c0 ? PP : (u < r_c0 + r_c1 ? MM : PM);
                if (unlinked_pair(e, bg, tau, &i, &j)) {
                    link_add(e, i, j);
                    kind = EV_CREATE;
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
                kind = EV_REMOVE;
            }
        }
        if (kind >= 0 && h->event && h->event(h->ctx, t_next, kind, i, j) < 0)
            return RUN_FAILED;
        t = t_next;
    }
    return RUN_DONE;
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
static int64_t coevnet_format_rows(const char *text, const int64_t *off, int64_t n_cols,
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
 * L stacked legs of N agents in m dimensions: the finiteness scan, the
 * step checks and sums, and the row sum of the (L, N, N, m) pair force U.
 */

/* Whether x[0 .. n) is all finite: x * 0.0 is a zero for finite x and NaN
 * otherwise, and four independent sums keep the scan pipelined. */
static inline int all_finite(const double *x, int64_t n)
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

/* The checks of a step's result y, L rows of row doubles: ok[l] = whether
 * row l is all finite.  When every row is and sym is set, also whether each
 * row's N x N weights, starting at its n-th double, equal their transpose.
 * Returns 0 when both hold, 1 when a row is not finite and 2 when the
 * weights are not symmetric. */
static int coevnet_step_flags(const double *y, int64_t L, int64_t row, int64_t n, int64_t N,
                              int sym, uint8_t *ok)
{
    int64_t l, i, j;
    int bad = 0;
    for (l = 0; l < L; l++) {
        ok[l] = (uint8_t)all_finite(y + l * row, row);
        bad |= !ok[l];
    }
    if (bad)
        return 1;
    if (!sym)
        return 0;
    for (l = 0; l < L; l++) {
        const double *w = y + l * row + n;
        for (i = 0; i < N; i++)
            for (j = i + 1; j < N; j++)
                if (w[i * N + j] != w[j * N + i])
                    return 2;
    }
    return 0;
}

/* The Fehlberg update y5 = y + h sum(b5 k) into y5 and the error estimate
 * max |y5 - y4|, y4 = y + h sum(b4 k), as stepping.rkf45_step: NaN when a
 * difference is NaN, as np.max, and 0 for n = 0. */
static double coevnet_fehlberg_update(const double *y, const double *const *k,
                                      const double *b5, const double *b4, int64_t nk, double h,
                                      double *y5, int64_t n)
{
    double err = 0.0, d;
    int64_t i;
    for (i = 0; i < n; i++) {
        y5[i] = y[i] + h * rk_terms(b5, k, nk, i);
        d = fabs(y5[i] - (y[i] + h * rk_terms(b4, k, nk, i)));
        if (!isnan(err) && (d > err || isnan(d)))
            err = d;
    }
    return err;
}

/* The Fehlberg 4(5) tableau, stepping's _RKF_A, _RKF_B5 and _RKF_B4: each
 * weight the correctly rounded quotient that python's / gives. */
static const double RKF_A[6][5] = {
    {0.0},
    {1.0 / 4.0},
    {3.0 / 32.0, 9.0 / 32.0},
    {1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0},
    {439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0},
    {-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0},
};
static const double RKF_B5[6] = {16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0,
                                 -9.0 / 50.0, 2.0 / 55.0};
static const double RKF_B4[6] = {25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0,
                                 -1.0 / 5.0, 0.0};

/* numpy's pairwise sum of the n doubles at a (its pairwise_sum for float64,
 * which np.add.reduce runs along a contiguous axis): below 8 terms a running
 * sum from -0.0; up to 128 eight running sums, each over every 8th term of
 * the largest multiple of 8, combined as ((r0 + r1) + (r2 + r3)) + ((r4 +
 * r5) + (r6 + r7)), then the rest added in turn; above 128 the sum of the
 * two parts split at n / 2 rounded down to a multiple of 8. */
static inline double pairwise_sum(const double *a, int64_t n)
{
    double r[8], res;
    int64_t i, j;
    if (n < 8) {
        res = -0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        for (j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    i = n / 2;
    i -= i % 8;
    return pairwise_sum(a, i) + pairwise_sum(a + i, n - i);
}

/* The sum over j < N of the doubles u[j m], U[l, i, j, k] of a row U[l, i]
 * of N x m doubles from u = U[l, i, 0, k] on, in np.add.reduce(U, axis=2)'s
 * order (numpy 2): 0.0 + pairwise_sum of the row for m = 1, else ((0.0 +
 * U[l, i, 0, k]) + U[l, i, 1, k]) + ... left to right; so a row of -0.0
 * sums to +0.0. */
static double coevnet_row_sum(const double *u, int64_t N, int64_t m)
{
    double s = 0.0;
    int64_t j;
    if (m == 1)
        return s + pairwise_sum(u, N);
    for (j = 0; j < N; j++)
        s += u[j * m];
    return s;
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

/* One Illinois iteration over the n elements of the buffer.  With first,
 * sets w, fw, side and done from the bracket (lo, hi, flo, fhi): an
 * element with a zero endpoint value is done at that endpoint.  Otherwise
 * takes one iteration's update from fnew = V(new): done, w and fw of the
 * elements not yet done, the Illinois halving and the bracket side.  Then
 * proposes the next point new of every element, the secant point as a
 * correction to the endpoint with the smaller |V|, or the midpoint where
 * that leaves the bracket or the endpoint values differ by a non-finite
 * amount.  Returns the number of elements not done. */
static int64_t illinois_step(double *buf, int64_t n, int first)
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

/* The caller's side of coevnet_nullcline: V(ctx, row, out) evaluates V at
 * the n values of row IL_LO, IL_HI or IL_NEW of the buffer, writes its n
 * values to out and returns 0, or -1 when it failed. */
typedef struct {
    int (*V)(void *ctx, int row, double *out);
    void *ctx;
} nullcline_hooks;

/* the status of coevnet_nullcline */
enum { NC_FAILED = -1, NC_DONE, NC_NO_SIGN_CHANGE, NC_NO_CONVERGENCE, NC_RESIDUAL };

/* One weight nullcline solve over the n elements of the (10, n) buffer,
 * calling V back through the hooks in the order of microsim._nullcline_py.
 * The bracket search sets lo, hi = -1, 1 and takes V there; while the
 * values at an element's endpoints have one sign (the element's side is
 * 1.0) and b < max_bracket, b grows by 4 and each such element moves to
 * [-b, b], V being taken at all of lo and then of hi (into fnew) and kept
 * where the side is 1.0.  With a side still 1.0 and no zero at either
 * endpoint, returns NC_NO_SIGN_CHANGE: the largest hi is then the last b.
 * Otherwise Illinois iterations, each after V at new (into fnew), run until
 * every element is done; max_steps iterations after the first without that
 * return NC_NO_CONVERGENCE.  Returns NC_RESIDUAL unless every |fw| <=
 * tol (a NaN fails), else NC_DONE with the roots in w; NC_FAILED when a
 * hook failed. */
static int coevnet_nullcline(double *buf, int64_t n, int64_t max_steps, double max_bracket,
                             double tol, const nullcline_hooks *h)
{
    double *lo = buf + IL_LO * n, *hi = buf + IL_HI * n, *flo = buf + IL_FLO * n;
    double *fhi = buf + IL_FHI * n, *fw = buf + IL_FW * n, *side = buf + IL_SIDE * n;
    double *fnew = buf + IL_FNEW * n;
    double b = 1.0;
    int64_t i, steps = 0, left;
    for (i = 0; i < n; i++) {
        lo[i] = -1.0;
        hi[i] = 1.0;
    }
    if (h->V(h->ctx, IL_LO, flo) < 0 || h->V(h->ctx, IL_HI, fhi) < 0)
        return NC_FAILED;
    for (;;) {
        left = 0;
        for (i = 0; i < n; i++) {
            side[i] = sign_of(flo[i]) == sign_of(fhi[i]);
            left += side[i] != 0.0;
        }
        if (!left || !(b < max_bracket))
            break;
        b *= 4.0;
        for (i = 0; i < n; i++)
            if (side[i] != 0.0) {
                lo[i] = -b;
                hi[i] = b;
            }
        if (h->V(h->ctx, IL_LO, fnew) < 0)
            return NC_FAILED;
        for (i = 0; i < n; i++)
            if (side[i] != 0.0)
                flo[i] = fnew[i];
        if (h->V(h->ctx, IL_HI, fnew) < 0)
            return NC_FAILED;
        for (i = 0; i < n; i++)
            if (side[i] != 0.0)
                fhi[i] = fnew[i];
    }
    for (i = 0; i < n; i++)
        if (side[i] != 0.0 && flo[i] != 0.0 && fhi[i] != 0.0)
            return NC_NO_SIGN_CHANGE;
    for (left = illinois_step(buf, n, 1); left; left = illinois_step(buf, n, 0)) {
        if (steps == max_steps)
            return NC_NO_CONVERGENCE;
        steps++;
        if (h->V(h->ctx, IL_NEW, fnew) < 0)
            return NC_FAILED;
    }
    for (i = 0; i < n; i++)
        if (!(fabs(fw[i]) <= tol))
            return NC_RESIDUAL;
    return NC_DONE;
}

/* -- the extension module ------------------------------------------------------
 *
 * One METH_FASTCALL function per kernel (nullcline's supplies its V hook),
 * the MinimalEngine type, whose run method supplies the Gillespie loop's
 * hooks, and the MicroFlow type, taking the numpy arrays themselves.
 * Before a kernel runs, every array is checked for its element
 * type, C-contiguity (the renderer's 1-D columns may be strided),
 * writability where the kernel writes, and its length against the sizes the
 * kernel is given: a failed check raises ValueError (TypeError for an
 * object without a buffer), where a wrong address would read or write out
 * of bounds.  A callback's result is taken by take_result, of its grid's
 * shape and with any strides, and only read.
 */

#define MAX_ARRAYS 16

/* The buffers one call holds, released together. */
typedef struct {
    Py_buffer views[MAX_ARRAYS];
    int n;
} arrays;

static void release(arrays *a)
{
    while (a->n > 0)
        PyBuffer_Release(&a->views[--a->n]);
}

/* 'f' float, 'i' signed or 'u' unsigned integer, or 0 for any other
 * element format. */
static char elem_kind(const Py_buffer *v)
{
    const char *f = v->format ? v->format : "B";
    if (*f == '@' || *f == '=' || *f == (PY_LITTLE_ENDIAN ? '<' : '>'))
        f++;
    if (f[0] == '\0' || f[1] != '\0')
        return 0;
    if (strchr("efd", f[0]))
        return 'f';
    if (strchr("bhilqn", f[0]))
        return 'i';
    return strchr("BHILQN", f[0]) ? 'u' : 0;
}

/* The element types the kernels take. */
typedef struct {
    char kind;
    Py_ssize_t size;
    const char *name;
} elem_t;

static const elem_t F64 = {'f', 8, "float64"}, I64 = {'i', 8, "int64"},
                    I32 = {'i', 4, "int32"}, I8 = {'i', 1, "int8"}, U8 = {'u', 1, "uint8"};

/* flags of take() */
enum { WRITE = 1, OPTIONAL = 2 };

/* a * b and a + b, or -1 when either is negative or the result overflows. */
static int64_t mul(int64_t a, int64_t b)
{
    if (a < 0 || b < 0 || (a > 0 && b > INT64_MAX / a))
        return -1;
    return a * b;
}

static int64_t add(int64_t a, int64_t b)
{
    if (a < 0 || b < 0 || b > INT64_MAX - a)
        return -1;
    return a + b;
}

/* Takes obj's buffer into a, checked as a C-contiguous array of at least
 * need elements of type t, writable with WRITE, and sets *data to its first
 * element, or to NULL for None with OPTIONAL.  Returns -1 with an exception
 * set when a check fails. */
static int take(arrays *a, PyObject *obj, const char *name, const elem_t *t, int flags,
                int64_t need, void **data)
{
    Py_buffer *v = &a->views[a->n];
    const char *what = NULL;
    *data = NULL;
    if ((flags & OPTIONAL) && obj == Py_None)
        return 0;
    if (need < 0) {
        PyErr_Format(PyExc_ValueError, "the sizes of %s are out of range", name);
        return -1;
    }
    if (a->n == MAX_ARRAYS || PyObject_GetBuffer(obj, v, PyBUF_RECORDS_RO) < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "too many arrays in one call");
        return -1;
    }
    if (elem_kind(v) != t->kind || v->itemsize != t->size)
        what = "has the wrong element type";
    else if (!PyBuffer_IsContiguous(v, 'C'))
        what = "is not C-contiguous";
    else if ((flags & WRITE) && v->readonly)
        what = "is read-only";
    if (what) {
        PyErr_Format(PyExc_ValueError, "%s must be a C-contiguous%s %s array: it %s", name,
                     flags & WRITE ? " writable" : "", t->name, what);
    } else if (v->len / t->size < need) {
        PyErr_Format(PyExc_ValueError, "%s holds %zd elements, fewer than the %lld needed",
                     name, v->len / t->size, (long long)need);
    } else {
        a->n++;
        *data = v->buf;
        return 0;
    }
    PyBuffer_Release(v);
    return -1;
}

/* The number of elements of the buffer taken last. */
static int64_t last_len(const arrays *a)
{
    const Py_buffer *v = &a->views[a->n - 1];
    return v->len / v->itemsize;
}

static int check_nargs(const char *fn, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", fn, want, nargs);
    return -1;
}

static int int_arg(PyObject *obj, const char *name, int64_t lo, int64_t *out)
{
    long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < lo) {
        PyErr_Format(PyExc_ValueError, "%s must be at least %lld, got %lld", name,
                     (long long)lo, v);
        return -1;
    }
    *out = v;
    return 0;
}

static int float_arg(PyObject *obj, double *out)
{
    *out = PyFloat_AsDouble(obj);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* The per-leg flags ok[0 .. L) as a tuple of bools. */
static PyObject *leg_flags(const uint8_t *ok, int64_t L)
{
    PyObject *t = PyTuple_New((Py_ssize_t)L);
    int64_t l;
    if (!t)
        return NULL;
    for (l = 0; l < L; l++)
        PyTuple_SET_ITEM(t, (Py_ssize_t)l, PyBool_FromLong(ok[l]));
    return t;
}

/* closure_loop(y0, r, kirk, dt, n_steps, stride, delta, neg_tol, recs,
 * rec_steps, counts) -> status of coevnet_closure_loop. */
static PyObject *py_closure_loop(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    arrays a = {.n = 0};
    void *y0, *r, *recs, *rec_steps, *counts;
    int64_t kirk, n_steps, stride, n_rec;
    double dt, delta, neg_tol;
    int status;
    (void)self;
    if (check_nargs("closure_loop", nargs, 11) < 0 || int_arg(args[2], "kirk", 0, &kirk) < 0
        || float_arg(args[3], &dt) < 0 || int_arg(args[4], "n_steps", 0, &n_steps) < 0
        || int_arg(args[5], "stride", 1, &stride) < 0 || float_arg(args[6], &delta) < 0
        || float_arg(args[7], &neg_tol) < 0)
        return NULL;
    n_rec = add(n_steps / stride, 2);
    if (take(&a, args[0], "y0", &F64, 0, 6, &y0) < 0
        || take(&a, args[1], "r", &F64, 0, 8, &r) < 0
        || take(&a, args[8], "recs", &F64, WRITE, mul(6, n_rec), &recs) < 0
        || take(&a, args[9], "rec_steps", &I64, WRITE, n_rec, &rec_steps) < 0
        || take(&a, args[10], "counts", &I64, WRITE, 3, &counts) < 0) {
        release(&a);
        return NULL;
    }
    status = coevnet_closure_loop(y0, r, (int)(kirk != 0), dt, n_steps, stride, delta, neg_tol,
                                  recs, rec_steps, counts);
    release(&a);
    return PyLong_FromLong(status);
}

/* MinimalEngine(rates, s, W, members, member_pos, links, link_pos,
 * scratch): the engine state of coevnet_minimal_init over arrays that it
 * holds until it is freed.  N is len(s); s holds 0 and 1, and W must be a
 * symmetric 0/1 matrix, as DiscreteConfiguration keeps it.
 * run(bitgen, T, t_sample, record_until, events) takes a generator's
 * "BitGenerator" capsule and returns the status of coevnet_minimal_run,
 * whose hooks call record_until(t), which returns the next sample time, and
 * append (t, kind, i, j) to the list events unless it is None; a hook's
 * exception propagates. */
typedef struct {
    PyObject_HEAD
    minimal_engine e;
    arrays a;
} engine_object;

/* the event kinds by EV_ code, made by PyInit__kernels */
static PyObject *event_kinds[3];

/* The hooks of run; ctx points to its arguments record_until and events. */
static int engine_sample(void *ctx, double t, double *t_sample)
{
    PyObject *next = PyObject_CallFunction(((PyObject **)ctx)[0], "d", t);
    *t_sample = next ? PyFloat_AsDouble(next) : -1.0;
    Py_XDECREF(next);
    return *t_sample == -1.0 && PyErr_Occurred() ? -1 : 0;
}

static int engine_event(void *ctx, double t, int kind, int64_t i, int64_t j)
{
    PyObject *ev = Py_BuildValue("(dOLL)", t, event_kinds[kind], (long long)i, (long long)j);
    int rc = ev ? PyList_Append(((PyObject **)ctx)[1], ev) : -1;
    Py_XDECREF(ev);
    return rc;
}

static void engine_dealloc(PyObject *self)
{
    release(&((engine_object *)self)->a);
    Py_TYPE(self)->tp_free(self);
}

static PyObject *engine_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *o[8];
    engine_object *self;
    minimal_engine *e;
    arrays rates = {.n = 0};
    void *p[8];
    int64_t N, half, i;
    if ((kwds && PyDict_GET_SIZE(kwds))
        || !PyArg_UnpackTuple(args, "MinimalEngine", 8, 8, &o[0], &o[1], &o[2], &o[3],
                              &o[4], &o[5], &o[6], &o[7])) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "MinimalEngine takes no keyword arguments");
        return NULL;
    }
    self = (engine_object *)type->tp_alloc(type, 0);
    if (!self)
        return NULL;
    e = &self->e;
    if (take(&rates, o[0], "rates", &F64, 0, 8, &p[0]) < 0)
        goto fail;
    memcpy(e->rates, p[0], sizeof e->rates);
    release(&rates);
    if (take(&self->a, o[1], "s", &I8, WRITE, 0, &p[1]) < 0)
        goto fail;
    N = e->N = last_len(&self->a);
    if (N > 46340) {   /* pair codes are int32 */
        PyErr_Format(PyExc_ValueError, "the compiled engine takes N <= 46340, got %lld",
                     (long long)N);
        goto fail;
    }
    half = N * (N - 1) / 2;
    if (take(&self->a, o[2], "W", &I8, WRITE, N * N, &p[2]) < 0
        || take(&self->a, o[3], "members", &I32, WRITE, 2 * N, &p[3]) < 0
        || take(&self->a, o[4], "member_pos", &I32, WRITE, N, &p[4]) < 0
        || take(&self->a, o[5], "links", &I32, WRITE, 3 * half, &p[5]) < 0
        || take(&self->a, o[6], "link_pos", &I32, WRITE, N * N, &p[6]) < 0
        || take(&self->a, o[7], "scratch", &I32, WRITE, N, &p[7]) < 0)
        goto fail;
    e->s = p[1];
    for (i = 0; i < N; i++) {
        if (e->s[i] != 0 && e->s[i] != 1) {
            PyErr_SetString(PyExc_ValueError, "s must hold 0 and 1 only");
            goto fail;
        }
    }
    e->W = p[2];
    e->members[0] = p[3];
    e->members[1] = e->members[0] + N;
    e->member_pos = p[4];
    for (i = 0; i < 3; i++)
        e->links[i] = (idx_t *)p[5] + i * half;
    e->link_pos = p[6];
    e->scratch = p[7];
    coevnet_minimal_init(e);
    return (PyObject *)self;
fail:
    release(&rates);
    Py_DECREF(self);
    return NULL;
}

static PyObject *engine_run(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    bitgen_t *bg;
    double T, t_sample;
    minimal_hooks h = {engine_sample, engine_event, NULL};
    int status;
    if (check_nargs("run", nargs, 5) < 0)
        return NULL;
    bg = PyCapsule_GetPointer(args[0], "BitGenerator");
    if (!bg || float_arg(args[1], &T) < 0 || float_arg(args[2], &t_sample) < 0)
        return NULL;
    h.ctx = (void *)(args + 3);
    if (args[4] == Py_None) {
        h.event = NULL;
    } else if (!PyList_Check(args[4])) {
        PyErr_SetString(PyExc_TypeError, "events must be a list or None");
        return NULL;
    }
    status = coevnet_minimal_run(&((engine_object *)self)->e, bg, T, t_sample, &h);
    return status == RUN_FAILED ? NULL : PyLong_FromLong(status);
}

static PyObject *engine_n_members(PyObject *self, void *closure)
{
    const minimal_engine *e = &((engine_object *)self)->e;
    (void)closure;
    return Py_BuildValue("(LL)", (long long)e->n_members[0], (long long)e->n_members[1]);
}

static PyObject *engine_n_links(PyObject *self, void *closure)
{
    const minimal_engine *e = &((engine_object *)self)->e;
    (void)closure;
    return Py_BuildValue("(LLL)", (long long)e->n_links[0], (long long)e->n_links[1],
                         (long long)e->n_links[2]);
}

static PyMethodDef engine_methods[] = {
    {"run", (PyCFunction)(void (*)(void))engine_run, METH_FASTCALL,
     "run(bitgen_capsule, T, t_sample, record_until, events) -> status of "
     "coevnet_minimal_run"},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef engine_getset[] = {
    {"n_members", engine_n_members, NULL, "members per side (minus, plus)", NULL},
    {"n_links", engine_n_links, NULL, "links per pair type (pp, mm, pm)", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject engine_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "coevnet._kernels.MinimalEngine",
    .tp_basicsize = sizeof(engine_object),
    .tp_dealloc = engine_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "The state of the compiled Gillespie loop of the minimal model.",
    .tp_methods = engine_methods,
    .tp_getset = engine_getset,
    .tp_new = engine_new,
};

/* format_rows(text, off, columns, row0, n_rows, out) -> bytes written by
 * coevnet_format_rows; columns is a sequence of 1-D float64 arrays, which
 * may be strided. */
static PyObject *py_format_rows(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    arrays a = {.n = 0};
    PyObject *seq = NULL, *result = NULL;
    Py_buffer *cv = NULL;
    uintptr_t *cols = NULL;
    int64_t *strides = NULL, *off, row0, n_rows, end, n_cols, n_text, k, n_held = 0;
    int bad_off;
    void *text, *off_p, *out;
    (void)self;
    if (check_nargs("format_rows", nargs, 6) < 0 || int_arg(args[3], "row0", 0, &row0) < 0
        || int_arg(args[4], "n_rows", 0, &n_rows) < 0)
        return NULL;
    end = add(row0, n_rows);
    if (end < 0) {
        PyErr_SetString(PyExc_ValueError, "row0 + n_rows is out of range");
        return NULL;
    }
    seq = PySequence_Fast(args[2], "columns must be a sequence of arrays");
    if (!seq)
        return NULL;
    n_cols = PySequence_Fast_GET_SIZE(seq);
    if (take(&a, args[0], "text", &U8, 0, 0, &text) < 0)
        goto done;
    n_text = last_len(&a);
    if (take(&a, args[1], "off", &I64, 0, n_cols + 2, &off_p) < 0)
        goto done;
    off = off_p;
    bad_off = off[0] < 0 || off[n_cols + 1] > n_text;
    for (k = 0; k <= n_cols; k++)
        bad_off |= off[k + 1] < off[k];
    if (bad_off) {
        PyErr_SetString(PyExc_ValueError, "off must rise from 0 or more to at most len(text)");
        goto done;
    }
    if (take(&a, args[5], "out", &U8, WRITE,
             mul(n_rows, add(off[n_cols + 1], mul(G17_MAX, n_cols))), &out) < 0)
        goto done;
    cv = PyMem_Calloc((size_t)n_cols + 1, sizeof *cv);
    cols = PyMem_Calloc((size_t)n_cols + 1, sizeof *cols);
    strides = PyMem_Calloc((size_t)n_cols + 1, sizeof *strides);
    if (!cv || !cols || !strides) {
        PyErr_NoMemory();
        goto done;
    }
    for (; n_held < n_cols; n_held++) {
        Py_buffer *v = &cv[n_held];
        if (PyObject_GetBuffer(PySequence_Fast_GET_ITEM(seq, n_held), v, PyBUF_RECORDS_RO) < 0)
            goto done;
        if (elem_kind(v) != 'f' || v->itemsize != 8 || v->ndim != 1 || v->shape[0] < end) {
            PyErr_Format(PyExc_ValueError, "column %lld must be a 1-D float64 array of at "
                         "least %lld elements", (long long)n_held, (long long)end);
            PyBuffer_Release(v);
            goto done;
        }
        cols[n_held] = (uintptr_t)v->buf;
        strides[n_held] = v->strides[0];
    }
    result = PyLong_FromLongLong(coevnet_format_rows(text, off, n_cols, cols, strides, row0,
                                                     n_rows, out));
done:
    while (n_held > 0)
        PyBuffer_Release(&cv[--n_held]);
    PyMem_Free(cv);
    PyMem_Free(cols);
    PyMem_Free(strides);
    release(&a);
    Py_DECREF(seq);
    return result;
}

/* MicroFlow(V, U, row_sum, divisor, U0, eps, L, N, m, sym, row, on_grid
 * [, pair]): one micro flow of L stacked legs of N agents in m dimensions,
 * made once per flow; its reference is the numpy twin microsim._MicroFlow,
 * with the same constructor and call.  V (None for a flow without
 * weights), U, U0 (or None), row_sum (the interaction sum of U over its
 * partner axis; None for the sum of np.add.reduce(U, axis=2), which
 * coevnet_row_sum computes in numpy's order) and on_grid
 * (microsim._on_grid) are called back; eps (or None), held until the flow
 * is freed, holds the legs' weight divisors, and row is the number of
 * doubles of one leg of the flow's output.  pair, None or the (K, eta,
 * kappa) of a model whose U and V are its pair form's, selects the pair
 * mode.  The flow makes its scratch once and holds it: in the pair mode
 * the d grids (L, N, N, m) of eta (given V) and of K, and given row_sum
 * the U grid (L, N, N, m) that row_sum is called on.
 *
 * flow(states, si, sj, W, ds, out) -> None, or the per-leg finiteness flags
 * of U and V as a tuple when a leg is not finite, is one evaluation:
 *   1. V(si, sj, W) (given V) and U(si, sj, W); in the pair mode, where si
 *      and sj must be float64 arrays that broadcast to the pair grid (L, N,
 *      N, m) and W a float64 array of (L, N, N), all with any strides (else
 *      ValueError), instead d = si - sj into K's scratch and (given V)
 *      eta's, then eta(d) (given V) and K(d).  A kernel may write into its
 *      argument or return it, or a view of it, but must not keep it, nor
 *      write into the other's result, read after both calls;
 *   2. each result is read in place through its strides and never written
 *      (take_result): one that is not a float64 array of its grid, (L, N,
 *      N) for V and eta and (L, N, N, m) for U and K, through on_grid(result,
 *      grid, name), numpy's read-only broadcast view of it, which raises
 *      ModelError when it does not broadcast;
 *   3. flow_rows, one pass per pair row, U = -(W K) and V = eta - kappa W
 *      in the pair mode: a leg whose U or V is not finite returns the flags,
 *      nothing written;
 *   4. flow_write, leg l's weight drift written to out from its (N m + l
 *      row)-th double on, then the row sums (or row_sum(U), U with its zero
 *      diagonal in the flow's U grid) / divisor into ds, the (L, N, m)
 *      states of the output, which may be strided;
 *   5. ds += U0(states), numpy's own in-place add.
 * A callback's exception propagates.  out may be None when V is.  The
 * scratch serves one evaluation at a time. */
typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *fn[2];   /* V and U */
    PyObject *row_sum, *U0, *on_grid;
    PyObject *K, *eta;   /* the pair form's kernels, NULL without the pair mode */
    PyObject *scratch[3];   /* d of eta, d of K and the U grid, in held where made */
    double *d[2], *u;   /* their data (NULL where not made) */
    double *sums, *urow, *vrow;   /* U's (L, N, m) row sums, a row of U and of V */
    double kappa, divisor;
    const double *eps;   /* in held, or NULL */
    arrays held;
    uint8_t *ok;
    Py_ssize_t shape[4];   /* L, N, N, m */
    int64_t row, out_need;
    int sym;
} flow_object;

/* What steps 3 and 4 read, through byte strides: the results of V (NULL
 * without V) and U, or in the pair mode of eta and K, and W. */
typedef struct {
    const char *w, *e, *k;
    Py_ssize_t sw[3], se[3], sk[4];
} flow_grids;

/* The operands of one evaluation: in the pair mode the addresses of si, sj
 * and W with their byte strides (0 along a broadcast axis; W has three),
 * ds with its byte strides, and out (NULL for None). */
typedef struct {
    const char *p[3];
    Py_ssize_t st[3][4];
    char *ds;
    Py_ssize_t ds_st[3];
    double *out;
} flow_io;

/* numpy.ndarray and numpy.empty, made by PyInit__kernels */
static PyObject *ndarray_type, *np_empty;

/* shape[0 .. ndim) as a tuple. */
static PyObject *shape_tuple(const Py_ssize_t *shape, int ndim)
{
    PyObject *t = PyTuple_New(ndim), *x;
    int d;
    for (d = 0; t && d < ndim; d++) {
        if (!(x = PyLong_FromSsize_t(shape[d])))
            Py_CLEAR(t);
        else
            PyTuple_SET_ITEM(t, d, x);
    }
    return t;
}

/* Takes obj's buffer into *v when obj is a numpy array of native float64
 * elements whose shape is shape[0 .. ndim), with any strides, and returns
 * 1; else returns 0 with nothing taken and no exception set. */
static int f64_view(PyObject *obj, Py_buffer *v, const Py_ssize_t *shape, int ndim)
{
    int d;
    if (!PyObject_TypeCheck(obj, (PyTypeObject *)ndarray_type))
        return 0;
    if (PyObject_GetBuffer(obj, v, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        return 0;
    }
    if (elem_kind(v) == 'f' && v->itemsize == 8 && v->ndim == ndim) {
        for (d = 0; d < ndim && (!shape || v->shape[d] == shape[d]); d++)
            ;
        if (d == ndim)
            return 1;
    }
    PyBuffer_Release(v);
    return 0;
}

/* Takes a callback's result res (a new reference, released here; NULL when
 * the callback raised) into a as a float64 array of shape shape[0 .. ndim)
 * with any strides, to be read and never written: res itself when it is
 * one, else on_grid(res, shape, name).  Returns its buffer, or NULL with an
 * exception set. */
static const Py_buffer *take_result(arrays *a, PyObject *res, PyObject *on_grid,
                                    const char *name, const Py_ssize_t *shape, int ndim)
{
    Py_buffer *v = &a->views[a->n];
    PyObject *grid;
    if (!res)
        return NULL;
    if (a->n == MAX_ARRAYS) {
        PyErr_SetString(PyExc_ValueError, "too many arrays in one call");
        Py_DECREF(res);
        return NULL;
    }
    if (!f64_view(res, v, shape, ndim)) {
        grid = shape_tuple(shape, ndim);
        Py_SETREF(res, grid ? PyObject_CallFunction(on_grid, "OOs", res, grid, name) : NULL);
        Py_XDECREF(grid);
        if (!res)
            return NULL;
        if (!f64_view(res, v, shape, ndim)) {
            PyErr_Format(PyExc_ValueError, "on_grid made no float64 array of %s's grid", name);
            Py_DECREF(res);
            return NULL;
        }
    }
    Py_DECREF(res);   /* the view holds it */
    a->n++;
    return v;
}

/* The double at byte offset off of base. */
#define AT(base, off) (*(const double *)((const char *)(base) + (off)))

/* Takes si, sj and W (args 1 to 3) into a, and their addresses and strides
 * into io, when si and sj are float64 arrays that broadcast to the pair grid
 * and W is a float64 array of (L, N, N), all with any strides; else raises
 * ValueError.  Returns 0 or -1. */
static int pair_operands(const flow_object *f, PyObject *const *args, arrays *a, flow_io *io)
{
    const Py_ssize_t *g = f->shape;
    const Py_buffer *in = &a->views[a->n];
    int e, k;
    for (e = 0; e < 3; e++) {
        if (a->n == MAX_ARRAYS
            || !f64_view(args[1 + e], &a->views[a->n], e < 2 ? NULL : g, e < 2 ? 4 : 3))
            goto fail;
        io->p[e] = a->views[a->n++].buf;
    }
    for (k = 0; k < 4; k++) {
        for (e = 0; e < 2; e++) {
            if (in[e].shape[k] != 1 && in[e].shape[k] != g[k])
                goto fail;
            io->st[e][k] = in[e].shape[k] == 1 ? 0 : in[e].strides[k];
        }
        if (in[0].shape[k] != g[k] && in[1].shape[k] != g[k])
            goto fail;
    }
    for (k = 0; k < 3; k++)
        io->st[2][k] = in[2].strides[k];
    return 0;
fail:   /* what was taken is released with a */
    PyErr_Format(PyExc_ValueError, "the pair mode takes si and sj as float64 arrays that span "
                 "the pair grid (%zd, %zd, %zd, %zd) and W as a float64 array of (%zd, %zd, %zd)",
                 g[0], g[1], g[2], g[3], g[0], g[1], g[2]);
    return -1;
}

/* si - sj on the pair grid (L, N, N, m), read through io, into out. */
static void pair_diff(const flow_object *f, const flow_io *io, double *out)
{
    const Py_ssize_t *g = f->shape, *s = io->st[0], *t = io->st[1];
    Py_ssize_t N = g[2], m = g[3], l, i, j, k;
    for (l = 0; l < g[0]; l++)
        for (i = 0; i < g[1]; i++, out += N * m) {
            const char *si = io->p[0] + l * s[0] + i * s[1];
            const char *sj = io->p[1] + l * t[0] + i * t[1];
            if (m == 1)
                for (j = 0; j < N; j++)
                    out[j] = AT(si, j * s[2]) - AT(sj, j * t[2]);
            else
                for (j = 0; j < N; j++)
                    for (k = 0; k < m; k++)
                        out[j * m + k] = AT(si, j * s[2] + k * s[3]) - AT(sj, j * t[2] + k * t[3]);
        }
}

/* Steps 1 and 2 of an evaluation on the operands io (args are the call's
 * states, si, sj and W): V (given) and U called back, or in the pair mode
 * d = si - sj into K's scratch and, given V, eta's, then eta (given V) and
 * K, each result taken by take_result into a and read through g.  Returns
 * 0, or -1 when a callback raised. */
static int flow_results(flow_object *f, PyObject *const *args, const flow_io *io, arrays *a,
                        flow_grids *g)
{
    static const char *const names[2][2] = {{"V", "U"}, {"eta", "K"}};
    const Py_ssize_t *shape = f->shape;
    int k = f->fn[0] == Py_None;
    if (f->K) {
        pair_diff(f, io, f->d[k]);
        if (k == 0)   /* K's d too, before eta may write into its own */
            memcpy(f->d[1], f->d[0], (size_t)(shape[0] * shape[1] * shape[2]) * shape[3] * 8);
        g->w = io->p[2];
        memcpy(g->sw, io->st[2], sizeof g->sw);
    }
    for (; k < 2; k++) {   /* V or eta, then U or K */
        PyObject *res = f->K ? PyObject_CallOneArg(k ? f->K : f->eta, f->scratch[k])
                             : PyObject_Vectorcall(f->fn[k], args + 1, 3, NULL);
        const Py_buffer *v = take_result(a, res, f->on_grid, names[f->K != NULL][k], shape,
                                         3 + k);
        if (!v)
            return -1;
        memcpy(k ? g->sk : g->se, v->strides, (size_t)(3 + k) * sizeof(Py_ssize_t));
        *(k ? &g->k : &g->e) = v->buf;
    }
    return 0;
}

/* Row i of leg l of U into row[0 .. N m): U's own row, or in the pair mode
 * -(W K). */
static void u_row(const flow_object *f, const flow_grids *g, Py_ssize_t l, Py_ssize_t i,
                  double *row)
{
    Py_ssize_t N = f->shape[1], m = f->shape[3], j, k;
    const Py_ssize_t *sw = g->sw, *sk = g->sk;
    const char *pk = g->k + l * sk[0] + i * sk[1], *pw;
    if (!f->K) {
        for (j = 0; j < N; j++)
            for (k = 0; k < m; k++)
                row[j * m + k] = AT(pk, j * sk[2] + k * sk[3]);
        return;
    }
    pw = g->w + l * sw[0] + i * sw[1];
    if (m == 1)
        for (j = 0; j < N; j++)
            row[j] = -(AT(pw, j * sw[2]) * AT(pk, j * sk[2]));
    else
        for (j = 0; j < N; j++)
            for (k = 0; k < m; k++)
                row[j * m + k] = -(AT(pw, j * sw[2]) * AT(pk, j * sk[2] + k * sk[3]));
}

/* Row i of leg l of V from its from-th double on, into buf: V's own row, or
 * in the pair mode eta - kappa W (1.0 W is W). */
static inline const double *v_row(const flow_object *f, const flow_grids *g, Py_ssize_t l,
                                  Py_ssize_t i, Py_ssize_t from, double *buf)
{
    Py_ssize_t N = f->shape[1], j;
    const Py_ssize_t *sw = g->sw, *se = g->se;
    const char *pe = g->e + l * se[0] + i * se[1], *pw;
    double kappa = f->kappa;
    if (!f->K) {
        for (j = from; j < N; j++)
            buf[j] = AT(pe, j * se[2]);
        return buf;
    }
    pw = g->w + l * sw[0] + i * sw[1];
    for (j = from; j < N; j++)
        buf[j] = AT(pe, j * se[2]) - kappa * AT(pw, j * sw[2]);
    return buf;
}

/* Step 3 of an evaluation on g: ok[l] = whether leg l's U and V are all
 * finite; each row of U, formed in the U grid when row_sum is given, its
 * diagonal then set to +0.0, summed into f->sums with row_sum None.  A
 * finite sum has finite terms, so only a row without one is scanned.
 * Returns 1 when a leg is not finite, else 0. */
static int flow_rows(flow_object *f, const flow_grids *g)
{
    Py_ssize_t L = f->shape[0], N = f->shape[1], m = f->shape[3], l, i, k;
    int bad = 0;
    for (l = 0; l < L; l++) {
        int fin = 1;
        for (i = 0; i < N && fin; i++) {
            double *row = f->u ? f->u + (l * N + i) * N * m : f->urow;
            double *sum = f->sums + (l * N + i) * m;
            int summed = f->row_sum == Py_None;   /* and each sum finite */
            u_row(f, g, l, i, row);
            for (k = 0; k < m; k++) {
                fin &= isfinite(row[i * m + k]) != 0;   /* the diagonal */
                row[i * m + k] = 0.0;
                if (f->row_sum == Py_None)
                    summed &= isfinite(sum[k] = coevnet_row_sum(row + k, N, m)) != 0;
            }
            fin = fin && (summed || all_finite(row, N * m))
                  && (!g->e || all_finite(v_row(f, g, l, i, 0, f->vrow), N));
        }
        f->ok[l] = (uint8_t)fin;
        bad |= !fin;
    }
    return bad;
}

/* Step 4's weight drift into dw (leg l from dw + l f->row on), given V: with
 * sym V's strict upper triangle plus 0.0 (so -0.0 turns into +0.0)
 * mirrored, else V with a zero diagonal, divided by eps[l] with eps. */
static void flow_write(const flow_object *f, const flow_grids *g, double *dw)
{
    Py_ssize_t L = f->shape[0], N = f->shape[1], l, i, j;
    if (!g->e)
        return;
    for (l = 0; l < L; l++) {
        double *d = dw + l * f->row;
        for (i = 0; i < N; i++) {
            const double *v = v_row(f, g, l, i, f->sym ? i + 1 : 0, f->vrow);
            if (f->sym) {
                for (j = i + 1; j < N; j++) {
                    double x = v[j] + 0.0;
                    d[i * N + j] = d[j * N + i] = f->eps ? x / f->eps[l] : x;
                }
            } else {
                for (j = 0; j < N; j++)
                    d[i * N + j] = f->eps ? v[j] / f->eps[l] : v[j];
            }
            d[i * N + i] = 0.0;
        }
    }
}

/* Takes obj's buffer into a, checked as a float64 array of shape (L, N, m)
 * with any strides, writable with WRITE. */
static int take_states(arrays *a, PyObject *obj, const char *name, int flags,
                       const flow_object *f, void **data, const Py_ssize_t **strides)
{
    Py_buffer *v = &a->views[a->n];
    if (a->n == MAX_ARRAYS || PyObject_GetBuffer(obj, v, PyBUF_RECORDS_RO) < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "too many arrays in one call");
        return -1;
    }
    if (elem_kind(v) != 'f' || v->itemsize != 8 || v->ndim != 3 || v->shape[0] != f->shape[0]
        || v->shape[1] != f->shape[1] || v->shape[2] != f->shape[3]
        || ((flags & WRITE) && v->readonly)) {
        PyErr_Format(PyExc_ValueError, "%s must be a%s float64 array of shape (%zd, %zd, %zd)",
                     name, flags & WRITE ? " writable" : "", f->shape[0], f->shape[1],
                     f->shape[3]);
        PyBuffer_Release(v);
        return -1;
    }
    a->n++;
    *data = v->buf;
    *strides = v->strides;
    return 0;
}

/* ds[l, i, k] of io. */
#define DS(io, l, i, k) \
    (*(double *)((io)->ds + (l) * (io)->ds_st[0] + (i) * (io)->ds_st[1] + (k) * (io)->ds_st[2]))

/* Steps 1 to 5 of one evaluation on the operands io; args are the call's
 * states, si, sj, W and ds, which the callbacks get.  Returns 0, 1 with the
 * per-leg flags in f->ok when a leg is not finite, or -1 when a callback
 * raised. */
static int flow_eval(flow_object *f, PyObject *const *args, const flow_io *io)
{
    arrays a = {.n = 0};
    PyObject *rs = NULL;
    flow_grids g = {.e = NULL};
    void *sum = NULL;
    const Py_ssize_t *sum_st = NULL;
    Py_ssize_t L = f->shape[0], N = f->shape[1], m = f->shape[3], l, i, k;
    int status = -1;
    if (flow_results(f, args, io, &a, &g) < 0)
        goto done;
    if (flow_rows(f, &g)) {
        status = 1;
        goto done;
    }
    flow_write(f, &g, io->out ? io->out + N * m : NULL);
    if (f->row_sum != Py_None) {
        rs = PyObject_CallOneArg(f->row_sum, f->scratch[2]);
        if (!rs || take_states(&a, rs, "row_sum(U)", 0, f, &sum, &sum_st) < 0)
            goto done;
    }
    for (l = 0; l < L; l++)
        for (i = 0; i < N; i++)
            for (k = 0; k < m; k++)
                DS(io, l, i, k) = (rs ? AT(sum, l * sum_st[0] + i * sum_st[1] + k * sum_st[2])
                                   : f->sums[(l * N + i) * m + k]) / f->divisor;
    release(&a);
    if (f->U0 != Py_None) {
        PyObject *u0 = PyObject_CallOneArg(f->U0, args[0]);
        PyObject *sum_u0 = u0 ? PyNumber_InPlaceAdd(args[4], u0) : NULL;
        Py_XDECREF(u0);
        if (!sum_u0)
            goto done;
        Py_DECREF(sum_u0);
    }
    status = 0;
done:
    release(&a);
    Py_XDECREF(rs);
    return status;
}

static PyObject *flow_call(PyObject *self, PyObject *const *args, size_t nargsf,
                           PyObject *kwnames)
{
    flow_object *f = (flow_object *)self;
    arrays a = {.n = 0};
    flow_io io = {.out = NULL};
    void *ds, *out;
    const Py_ssize_t *ds_st;
    PyObject *result = NULL;
    int status;
    if (kwnames && PyTuple_GET_SIZE(kwnames)) {
        PyErr_SetString(PyExc_TypeError, "MicroFlow takes no keyword arguments");
        return NULL;
    }
    if (check_nargs("MicroFlow", PyVectorcall_NARGS(nargsf), 6) < 0)
        return NULL;
    if (take_states(&a, args[4], "ds", WRITE, f, &ds, &ds_st) < 0
        || take(&a, args[5], "out", &F64, WRITE | OPTIONAL,
                f->fn[0] != Py_None ? f->out_need : 0, &out) < 0)
        goto done;
    if (f->fn[0] != Py_None && !out) {
        PyErr_SetString(PyExc_ValueError, "MicroFlow needs out to write the weight drift");
        goto done;
    }
    io.ds = ds;
    memcpy(io.ds_st, ds_st, sizeof io.ds_st);
    io.out = out;
    if (f->K && pair_operands(f, args, &a, &io) < 0)
        goto done;
    status = flow_eval(f, args, &io);
    if (status >= 0)
        result = status ? leg_flags(f->ok, f->shape[0]) : Py_NewRef(Py_None);
done:
    release(&a);
    return result;
}

static int flow_traverse(PyObject *self, visitproc visit, void *arg)
{
    flow_object *f = (flow_object *)self;
    Py_VISIT(f->fn[0]);
    Py_VISIT(f->fn[1]);
    Py_VISIT(f->row_sum);
    Py_VISIT(f->U0);
    Py_VISIT(f->on_grid);
    Py_VISIT(f->K);
    Py_VISIT(f->eta);
    return 0;
}

static int flow_clear(PyObject *self)
{
    flow_object *f = (flow_object *)self;
    Py_CLEAR(f->fn[0]);
    Py_CLEAR(f->fn[1]);
    Py_CLEAR(f->row_sum);
    Py_CLEAR(f->U0);
    Py_CLEAR(f->on_grid);
    Py_CLEAR(f->K);
    Py_CLEAR(f->eta);
    return 0;
}

static void flow_dealloc(PyObject *self)
{
    flow_object *f = (flow_object *)self;
    PyObject_GC_UnTrack(self);
    flow_clear(self);
    release(&f->held);
    PyMem_Free(f->sums);
    PyMem_Free(f->ok);
    Py_TYPE(self)->tp_free(self);
}

/* The scratch of f, held until f is freed: the grids (L, N, N, m) d of eta
 * (pair mode, given V), d of K (pair mode) and U (given row_sum). */
static int make_scratch(flow_object *f)
{
    int64_t size = f->shape[0] * f->shape[1] * f->shape[2] * f->shape[3];
    double **data[3] = {&f->d[0], &f->d[1], &f->u};
    int made[3] = {f->K && f->fn[0] != Py_None, f->K != NULL, f->row_sum != Py_None};
    PyObject *shape = shape_tuple(f->shape, 4), *grid;
    int k, status = shape ? 0 : -1;
    for (k = 0; k < 3 && status == 0; k++) {
        void *p;
        if (!made[k])
            continue;
        grid = PyObject_CallOneArg(np_empty, shape);
        status = grid ? take(&f->held, grid, "scratch", &F64, WRITE, size, &p) : -1;
        Py_XDECREF(grid);   /* held keeps it */
        if (status == 0) {
            f->scratch[k] = grid;
            *data[k] = p;
        }
    }
    Py_XDECREF(shape);
    return status;
}

static PyObject *flow_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *o[13] = {NULL}, *pair[3];
    flow_object *self;
    void *eps;
    int64_t L, N, m, sym, row, n, nn;
    if ((kwds && PyDict_GET_SIZE(kwds))
        || !PyArg_UnpackTuple(args, "MicroFlow", 12, 13, &o[0], &o[1], &o[2], &o[3], &o[4],
                              &o[5], &o[6], &o[7], &o[8], &o[9], &o[10], &o[11], &o[12])) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "MicroFlow takes no keyword arguments");
        return NULL;
    }
    if (int_arg(o[6], "L", 1, &L) < 0 || int_arg(o[7], "N", 1, &N) < 0
        || int_arg(o[8], "m", 1, &m) < 0 || int_arg(o[9], "sym", 0, &sym) < 0
        || int_arg(o[10], "row", 0, &row) < 0)
        return NULL;
    n = mul(N, m);
    nn = mul(N, N);
    if (mul(mul(L, nn), m) < 0 || mul(L - 1, row) < 0 || add(add(n, mul(L - 1, row)), nn) < 0) {
        PyErr_SetString(PyExc_ValueError, "the sizes of MicroFlow are out of range");
        return NULL;
    }
    if (o[0] != Py_None && row < n + nn) {
        PyErr_Format(PyExc_ValueError, "row must hold the %lld states and %lld weights of a leg",
                     (long long)n, (long long)nn);
        return NULL;
    }
    if (o[12] && o[12] != Py_None
        && (!PyTuple_Check(o[12])
            || !PyArg_UnpackTuple(o[12], "pair", 3, 3, &pair[0], &pair[1], &pair[2]))) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "pair must be None or a tuple (K, eta, kappa)");
        return NULL;
    }
    self = (flow_object *)type->tp_alloc(type, 0);
    if (!self)
        return NULL;
    if (o[12] && o[12] != Py_None) {
        if (float_arg(pair[2], &self->kappa) < 0)
            goto fail;
        self->K = Py_NewRef(pair[0]);
        self->eta = Py_NewRef(pair[1]);
    }
    self->vectorcall = flow_call;
    self->shape[0] = (Py_ssize_t)L;
    self->shape[1] = self->shape[2] = (Py_ssize_t)N;
    self->shape[3] = (Py_ssize_t)m;
    self->row = row;
    self->out_need = n + (L - 1) * row + nn;
    self->sym = sym != 0;
    if (float_arg(o[3], &self->divisor) < 0)
        goto fail;
    if (take(&self->held, o[5], "eps", &F64, OPTIONAL, L, &eps) < 0)
        goto fail;
    self->eps = eps;
    self->ok = PyMem_Malloc((size_t)L);
    self->sums = PyMem_Malloc((size_t)((L + 1) * n + N) * sizeof(double));
    if (!self->ok || !self->sums) {
        PyErr_NoMemory();
        goto fail;
    }
    self->urow = self->sums + L * n;
    self->vrow = self->urow + n;
    self->fn[0] = Py_NewRef(o[0]);
    self->fn[1] = Py_NewRef(o[1]);
    self->row_sum = Py_NewRef(o[2]);
    self->U0 = Py_NewRef(o[4]);
    self->on_grid = Py_NewRef(o[11]);
    if (make_scratch(self) < 0)
        goto fail;
    return (PyObject *)self;
fail:
    Py_DECREF(self);
    return NULL;
}

static PyTypeObject flow_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "coevnet._kernels.MicroFlow",
    .tp_basicsize = sizeof(flow_object),
    .tp_dealloc = flow_dealloc,
    .tp_vectorcall_offset = offsetof(flow_object, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "One micro flow evaluation per call: see _kernels.c.",
    .tp_traverse = flow_traverse,
    .tp_clear = flow_clear,
    .tp_new = flow_new,
    .tp_free = PyObject_GC_Del,
};

/* rk_step(f, y, stage, ks, out, h, fehlberg, L, n, N, sym): one RK4 step
 * (fehlberg 0) or one Fehlberg substep (fehlberg 1) from y into out, all of
 * its work in one call; its reference is stepping.rk4_step or rkf45_step
 * over f, with microsim._step_flags after an RK4 update, which microsim's
 * workspace runs in its place when the module is not loaded.  y, stage and the
 * first 4 (RK4) or 6 (Fehlberg) records of the tuple ks are records (z,
 * states, si, sj, W): a buffer z of L rows, each of z's length, and the
 * views that f is called on; out has z's length.  Stage i's derivative
 * k_i, ks[i]'s buffer, is f's evaluation on y (i = 0) or on the stage
 * buffer, with ds the states of k_i and out k_i: when f is a MicroFlow it
 * is evaluated here, its operands read from the buffers (which must hold
 * its L rows of states and weights), else f(states, si, sj, W, ds, k_i) is
 * called back and returns None or the per-leg flags.  The stages and the
 * update are coevnet_rk_sum with the RK4 or Fehlberg weights; an RK4 step
 * ends with the checks of coevnet_step_flags (n states, then N x N weights,
 * symmetric with sym, per leg).  Returns None (RK4) or the error estimate
 * (Fehlberg); else (i, flags), with i the stage whose evaluation flagged a
 * leg, or i = 4 and the step flags of an RK4 update that failed its checks. */
typedef struct {
    PyObject *f;
    flow_object *flow;         /* f when it is a MicroFlow, else NULL */
    PyObject **rec[8];         /* the items of y's, stage's and ks' records */
    double *z[8], *out;        /* their buffers, and out's */
    const double *k[6];        /* ks' */
    int64_t size, L;
    PyObject *flags;           /* of a failed evaluation */
} step_call;

/* k_i = f's evaluation on y (in = 0) or on the stage buffer (in = 1): 0, 1
 * with the flags in c->flags, or -1 when a callback raised. */
static int step_eval(step_call *c, int in, int i)
{
    PyObject **z = c->rec[in], **k = c->rec[2 + i];
    PyObject *args[6] = {z[1], z[2], z[3], z[4], k[1], k[0]};
    int status;
    if (c->flow) {
        const Py_ssize_t *g = c->flow->shape;
        Py_ssize_t r8 = (Py_ssize_t)(c->size / c->L) * 8, m8 = g[3] * 8;
        const char *y = (const char *)c->z[in];
        flow_io io = {.p = {y, y, y + g[1] * m8},
                      .st = {{r8, m8, 0, 8}, {r8, 0, m8, 8}, {r8, g[1] * 8, 8, 0}},
                      .ds = (char *)c->z[2 + i], .ds_st = {r8, m8, 8},
                      .out = c->z[2 + i]};
        status = flow_eval(c->flow, args, &io);
        if (status == 1 && !(c->flags = leg_flags(c->flow->ok, c->L)))
            return -1;
        return status;
    }
    if (!(c->flags = PyObject_Vectorcall(c->f, args, 6, NULL)))
        return -1;
    if (c->flags != Py_None)
        return 1;
    Py_CLEAR(c->flags);
    return 0;
}

/* The RK4 step: k_i from y (i = 0) or the stage y + c_i k_(i-1), c = h / 2,
 * h / 2, h, then out = y + h / 6 (k_0 + 2 k_1 + 2 k_2 + k_3).  Returns 0,
 * else step_eval's status with *stage = i. */
static int rk4_body(step_call *c, double h, int *stage)
{
    const double ch[3] = {0.5 * h, 0.5 * h, h};
    int i, status;
    for (i = 0; i < 4; i++) {
        if ((status = step_eval(c, i > 0, i)) != 0) {
            *stage = i;
            return status;
        }
        if (i < 3)
            coevnet_rk_sum(c->z[0], ch[i], RK_ONE, c->k + i, 1, c->z[1], c->size);
    }
    coevnet_rk_sum(c->z[0], h / 6.0, RK4_B, c->k, 4, c->out, c->size);
    return 0;
}

/* The Fehlberg substep: k_i from y (i = 0) or the stage y + h sum(RKF_A[i]
 * k), then the update into out and the error estimate into *err.  Returns 0,
 * else step_eval's status with *stage = i. */
static int rkf45_body(step_call *c, double h, int *stage, double *err)
{
    int i, status;
    for (i = 0; i < 6; i++) {
        if (i)
            coevnet_rk_sum(c->z[0], h, RKF_A[i], c->k, i, c->z[1], c->size);
        if ((status = step_eval(c, i > 0, i)) != 0) {
            *stage = i;
            return status;
        }
    }
    *err = coevnet_fehlberg_update(c->z[0], c->k, RKF_B5, RKF_B4, 6, h, c->out, c->size);
    return 0;
}

static PyObject *py_rk_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    arrays a = {.n = 0};
    step_call c = {.f = args[0]};
    int64_t fehlberg, L, n, N, sym, nk, w_end;
    double h, err = 0.0;
    uint8_t *ok = NULL;
    PyObject *result = NULL, *flags;
    void *p;
    int i, status, stage = 0;
    (void)self;
    if (check_nargs("rk_step", nargs, 11) < 0 || float_arg(args[5], &h) < 0
        || int_arg(args[6], "fehlberg", 0, &fehlberg) < 0 || int_arg(args[7], "L", 1, &L) < 0
        || int_arg(args[8], "n", 0, &n) < 0 || int_arg(args[9], "N", 0, &N) < 0
        || int_arg(args[10], "sym", 0, &sym) < 0)
        return NULL;
    nk = fehlberg ? 6 : 4;
    if (!PyTuple_Check(args[3]) || PyTuple_GET_SIZE(args[3]) < nk) {
        PyErr_Format(PyExc_TypeError, "rk_step: ks must be a tuple of at least %d records",
                     (int)nk);
        return NULL;
    }
    for (i = 0; i < 2 + nk; i++) {
        PyObject *r = i == 0 ? args[1] : i == 1 ? args[2] : PyTuple_GET_ITEM(args[3], i - 2);
        if (!PyTuple_Check(r) || PyTuple_GET_SIZE(r) != 5) {
            PyErr_SetString(PyExc_TypeError, "rk_step: a record must be a tuple "
                            "(z, states, si, sj, W)");
            goto done;
        }
        c.rec[i] = PySequence_Fast_ITEMS(r);
        if (take(&a, c.rec[i][0], i ? "a stage buffer" : "y", &F64, i ? WRITE : 0, c.size,
                 &p) < 0)
            goto done;
        c.z[i] = p;
        if (i >= 2)
            c.k[i - 2] = p;
        if (i == 0) {   /* the length of every buffer */
            c.size = last_len(&a);
            if (take(&a, args[4], "out", &F64, WRITE, c.size, &p) < 0)
                goto done;
            c.out = p;
        }
    }
    c.L = L;
    w_end = add(n, mul(N, N));
    if (c.size % L || (sym && (w_end < 0 || w_end > c.size / L))) {
        PyErr_SetString(PyExc_ValueError, "rk_step: y does not hold L rows of n states "
                        "and N x N weights");
        goto done;
    }
    if (Py_IS_TYPE(c.f, &flow_type)) {
        c.flow = (flow_object *)c.f;
        if (c.flow->shape[0] != L || c.size != mul(L, c.flow->row)
            || c.flow->row < c.flow->shape[1] * (c.flow->shape[3] + c.flow->shape[1])) {
            PyErr_SetString(PyExc_ValueError, "rk_step: the buffers do not hold the flow's "
                            "rows of states and weights");
            goto done;
        }
    }
    status = fehlberg ? rkf45_body(&c, h, &stage, &err) : rk4_body(&c, h, &stage);
    if (status < 0)
        goto done;
    if (status) {
        result = Py_BuildValue("(iO)", stage, c.flags);
    } else if (fehlberg) {
        result = PyFloat_FromDouble(err);
    } else if (!(ok = PyMem_Malloc((size_t)L))) {
        PyErr_NoMemory();
    } else if (coevnet_step_flags(c.out, L, c.size / L, n, N, (int)(sym != 0), ok)) {
        if ((flags = leg_flags(ok, L))) {
            result = Py_BuildValue("(iO)", 4, flags);
            Py_DECREF(flags);
        }
    } else {
        result = Py_NewRef(Py_None);
    }
done:
    Py_XDECREF(c.flags);
    PyMem_Free(ok);
    release(&a);
    return result;
}

/* nullcline(V, si, sj, buf, lo, hi, new, max_steps, max_bracket, tol,
 * on_grid) -> the status of coevnet_nullcline (NC_DONE 0, NC_NO_SIGN_CHANGE
 * 1, NC_NO_CONVERGENCE 2, NC_RESIDUAL 3), one solve over the buffer buf of
 * 10 rows of the grid lo's shape; lo, hi and new are the views of its rows
 * 0, 1 and 8 that V is called on, as V(si, sj, row).  Its reference is the
 * numpy twin microsim._nullcline_py, with the same signature.  Each of V's
 * results is taken as MicroFlow takes its results (take_result, on lo's
 * shape and with on_grid), read through its strides into its row of buf
 * and never written.  A callback's exception propagates. */
typedef struct {
    PyObject *V, *on_grid;
    PyObject *const *args;   /* the call's: V's si and sj, then the rows */
    const Py_buffer *grid;   /* lo's */
} nullcline_call;

static int nullcline_V(void *ctx, int row, double *out)
{
    nullcline_call *c = ctx;
    PyObject *vargs[3] = {c->args[1], c->args[2],
                          c->args[row == IL_LO ? 4 : row == IL_HI ? 5 : 6]};
    arrays a = {.n = 0};
    const Py_buffer *v = take_result(&a, PyObject_Vectorcall(c->V, vargs, 3, NULL), c->on_grid,
                                     "V", c->grid->shape, c->grid->ndim);
    int status = v ? PyBuffer_ToContiguous(out, v, v->len, 'C') : -1;
    release(&a);
    return status;
}

static PyObject *py_nullcline(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    arrays a = {.n = 0};
    nullcline_call c = {.args = args};
    nullcline_hooks h = {nullcline_V, &c};
    void *buf, *lo;
    int64_t max_steps, n;
    double max_bracket, tol;
    int status = NC_FAILED;
    (void)self;
    if (check_nargs("nullcline", nargs, 11) < 0
        || int_arg(args[7], "max_steps", 0, &max_steps) < 0
        || float_arg(args[8], &max_bracket) < 0 || float_arg(args[9], &tol) < 0
        || take(&a, args[4], "lo", &F64, 0, 0, &lo) < 0)
        goto done;
    c.grid = &a.views[0];
    n = last_len(&a);
    if (take(&a, args[3], "buf", &F64, WRITE, mul(10, n), &buf) < 0)
        goto done;
    c.V = args[0];
    c.on_grid = args[10];
    status = coevnet_nullcline(buf, n, max_steps, max_bracket, tol, &h);
done:
    release(&a);
    return status == NC_FAILED ? NULL : PyLong_FromLong(status);
}

#define FASTCALL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef kernel_functions[] = {
    FASTCALL(closure_loop, "the closure RK4 loop (coevnet_closure_loop)"),
    FASTCALL(format_rows, "CSV rows of float64 columns (coevnet_format_rows)"),
    FASTCALL(rk_step, "one RK4 step or Fehlberg substep of a micro flow"),
    FASTCALL(nullcline, "one weight nullcline solve (coevnet_nullcline)"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "coevnet._kernels",
    .m_doc = "The compiled kernels of coevnet; see _kernels.c.",
    .m_size = -1,
    .m_methods = kernel_functions,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    static const char *const names[3] = {"flip", "create", "remove"};
    PyObject *m;
    int k;
    for (k = 0; k < 3; k++)
        if (!event_kinds[k] && !(event_kinds[k] = PyUnicode_InternFromString(names[k])))
            return NULL;
    if (!ndarray_type) {
        PyObject *numpy = PyImport_ImportModule("numpy");
        ndarray_type = numpy ? PyObject_GetAttrString(numpy, "ndarray") : NULL;
        np_empty = numpy ? PyObject_GetAttrString(numpy, "empty") : NULL;
        Py_XDECREF(numpy);
        if (!ndarray_type || !np_empty) {
            Py_CLEAR(ndarray_type);   /* a later import tries again */
            Py_CLEAR(np_empty);
            return NULL;
        }
    }
    if (PyType_Ready(&engine_type) < 0 || PyType_Ready(&flow_type) < 0)
        return NULL;
    m = PyModule_Create(&kernels_module);
    if (m && (PyModule_AddObjectRef(m, "MinimalEngine", (PyObject *)&engine_type) < 0
              || PyModule_AddObjectRef(m, "MicroFlow", (PyObject *)&flow_type) < 0))
        Py_CLEAR(m);
    return m;
}
