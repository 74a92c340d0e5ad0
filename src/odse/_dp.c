/* The compiled kernels of odse, in one library: odse_cost_table, the
 * alignment dynamic program, odse_smo_sweep, one sweep of the SVM solver,
 * and odse_parzen_exponents, the Parzen kernel exponents of one column
 * (both at the end of this file).  Each does the floating-point
 * operations of its numpy reference in the same order, so the results
 * are equal bit for bit.
 *
 * odse_cost_table: global-alignment costs of a list of encoded queries
 * against a batch of encoded, padded targets, the dynamic program behind
 * odse.alignment.dissimilarity_table and alignment_cost_rows.
 *
 * Row i of one alignment's table is built from
 *     c[j]     = min(diag + sub[a][t[j-1]], up + gap)   (c[0] = (i+1)*gap)
 *     m        = min(m, c[j] - jg[j])                  (prefix minimum)
 *     state[j] = m + jg[j]
 * with jg[j] = gap*j.  Compile with -ffp-contract=off so no multiply-add
 * is fused.
 *
 * The targets are aligned LANES at a time (inter-sequence lanes, as in
 * Rognes 2011, SWIPE).  For each block of LANES targets the substitution
 * profile
 *     prof[a][j-1][l] = sub[a][t_l[j-1]]
 * is built once, straight from the padded targets; then every query runs
 * through the block.  A query row reads one contiguous profile row,
 * prof[a], instead of gathering sub[a][t] per cell, and each lane does
 * exactly the scalar operations above on its own target: the profile
 * entry is the same double as sub[a][t], and the two selects
 * `a < b ? a : b` are x86 minpd, signed zeros and NaN operands included.
 * A block runs to its longest target and each lane reads its result at
 * its own length, which the padded cells past it never reach.  Lanes
 * past the last target align code 0 and are never read.  Callers that
 * order targets by length keep the lanes full.
 *
 * On x86-64 ELF builds with a GNU-compatible compiler the block loop is
 * also written with AVX2 intrinsics, eight lanes as two vectors of four
 * so two independent prefix-minimum chains hide each other's latency;
 * it is chosen at run time when the processor has AVX2.  Both loops do
 * the same IEEE operations, so the choice never changes a result.
 *
 * Inputs are validated by the caller (codes in range, lengths within the
 * padded width).  Query q is codes[starts[q] .. starts[q+1]-1]; its cost
 * to target k is written to out[q*n_cols + cols[k]].  The scratch is one
 * aligned block per call, sized by the padded width, so concurrent callers
 * share no state and a call's memory does not grow with its query count.
 */

#include <math.h>
#include <stddef.h>
#include <stdlib.h>

#define LANES 8

#if defined(__x86_64__) && defined(__GNUC__) && defined(__ELF__)
#define ODSE_AVX2 1
#include <immintrin.h>
#endif

/* The DP of one query of n codes against one block of targets, whose
 * profile is prof and whose longest target has len codes.  state is the
 * block's lane-major DP row of len+1 columns; it is left holding the
 * query's last row. */
typedef void query_fn(const ptrdiff_t *query, ptrdiff_t n, const double *prof,
                      ptrdiff_t len, const double *jg, double gap,
                      double *state);

/* One cell of four lanes: the recurrence above, lane by lane. */
static inline void cells4(double *restrict s, const double *restrict p,
                          double *restrict diag, double *restrict m,
                          double g, double gap)
{
    for (ptrdiff_t l = 0; l < 4; l++) {
        double up = s[l];
        double c = diag[l] + p[l];
        double u = up + gap;
        c = u < c ? u : c;
        double v = c - g;
        m[l] = v < m[l] ? v : m[l];
        s[l] = m[l] + g;
        diag[l] = up;
    }
}

static void query_plain(const ptrdiff_t *query, ptrdiff_t n, const double *prof,
                        ptrdiff_t len, const double *jg, double gap,
                        double *state)
{
    for (ptrdiff_t j = 0; j <= len; j++)
        for (ptrdiff_t l = 0; l < LANES; l++)
            state[j * LANES + l] = jg[j];
    for (ptrdiff_t i = 0; i < n; i++) {
        const double *p = prof + query[i] * len * LANES;
        double diag[LANES], m[LANES];
        for (ptrdiff_t l = 0; l < LANES; l++) {
            diag[l] = state[l];
            m[l] = (double)(i + 1) * gap - jg[0];
            state[l] = m[l] + jg[0];
        }
        for (ptrdiff_t j = 1; j <= len; j++) {
            /* two independent groups of four lanes */
            double *s = state + j * LANES;
            const double *pj = p + (j - 1) * LANES;
            cells4(s, pj, diag, m, jg[j], gap);
            cells4(s + 4, pj + 4, diag + 4, m + 4, jg[j], gap);
        }
    }
}

#ifdef ODSE_AVX2
/* query_plain with the eight lanes in two AVX2 registers.
 * _mm256_min_pd(x, y) is x < y ? x : y, lane by lane. */
__attribute__((target("avx2")))
static void query_avx2(const ptrdiff_t *query, ptrdiff_t n, const double *prof,
                       ptrdiff_t len, const double *jg, double gap,
                       double *state)
{
    const __m256d vgap = _mm256_set1_pd(gap);
    for (ptrdiff_t j = 0; j <= len; j++) {
        __m256d g = _mm256_set1_pd(jg[j]);
        _mm256_store_pd(state + j * LANES, g);
        _mm256_store_pd(state + j * LANES + 4, g);
    }
    for (ptrdiff_t i = 0; i < n; i++) {
        const double *p = prof + query[i] * len * LANES;
        __m256d diag0 = _mm256_load_pd(state);
        __m256d diag1 = _mm256_load_pd(state + 4);
        __m256d m0 = _mm256_set1_pd((double)(i + 1) * gap - jg[0]);
        __m256d m1 = m0;
        __m256d g = _mm256_set1_pd(jg[0]);
        _mm256_store_pd(state, _mm256_add_pd(m0, g));
        _mm256_store_pd(state + 4, _mm256_add_pd(m1, g));
        for (ptrdiff_t j = 1; j <= len; j++) {
            double *s = state + j * LANES;
            const double *pj = p + (j - 1) * LANES;
            g = _mm256_broadcast_sd(jg + j);
            __m256d up0 = _mm256_load_pd(s);
            __m256d up1 = _mm256_load_pd(s + 4);
            __m256d c0 = _mm256_add_pd(diag0, _mm256_load_pd(pj));
            __m256d c1 = _mm256_add_pd(diag1, _mm256_load_pd(pj + 4));
            c0 = _mm256_min_pd(_mm256_add_pd(up0, vgap), c0);
            c1 = _mm256_min_pd(_mm256_add_pd(up1, vgap), c1);
            m0 = _mm256_min_pd(_mm256_sub_pd(c0, g), m0);
            m1 = _mm256_min_pd(_mm256_sub_pd(c1, g), m1);
            _mm256_store_pd(s, _mm256_add_pd(m0, g));
            _mm256_store_pd(s + 4, _mm256_add_pd(m1, g));
            diag0 = up0;
            diag1 = up1;
        }
    }
}
#endif

int odse_cost_table(const ptrdiff_t *codes, const ptrdiff_t *starts,
                    ptrdiff_t n_queries, const ptrdiff_t *targets,
                    const ptrdiff_t *lens, ptrdiff_t n_targets,
                    ptrdiff_t width, const double *sub, ptrdiff_t n_alpha,
                    double gap, const ptrdiff_t *cols, ptrdiff_t n_cols,
                    double *out)
{
    query_fn *run = query_plain;
#ifdef ODSE_AVX2
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        run = query_avx2;
#endif
    /* jg | DP row | profile in one block; jg's width+1 doubles are rounded
     * up to whole vectors of 4, so each part starts 32-byte aligned */
    size_t jg_n = ((size_t)width + 4) & ~(size_t)3, row = LANES * ((size_t)width + 1);
    size_t prof_n = (size_t)n_alpha * LANES * (size_t)width;
    void *block;
    if (posix_memalign(&block, 32, (jg_n + row + prof_n) * sizeof(double)))
        return -1;
    double *jg = block, *state = jg + jg_n, *prof = state + row;
    for (ptrdiff_t j = 0; j <= width; j++)
        jg[j] = gap * (double)j;

    for (ptrdiff_t k0 = 0; k0 < n_targets; k0 += LANES) {
        ptrdiff_t nl = n_targets - k0 < LANES ? n_targets - k0 : LANES;
        ptrdiff_t len = 0;
        for (ptrdiff_t l = 0; l < nl; l++)
            if (lens[k0 + l] > len)
                len = lens[k0 + l];
        for (ptrdiff_t a = 0; a < n_alpha; a++) {
            const double *sa = sub + a * n_alpha;
            double *pa = prof + a * len * LANES;
            for (ptrdiff_t j = 0; j < len; j++)
                for (ptrdiff_t l = 0; l < LANES; l++)
                    pa[j * LANES + l] = sa[l < nl ? targets[(k0 + l) * width + j] : 0];
        }
        for (ptrdiff_t q = 0; q < n_queries; q++) {
            run(codes + starts[q], starts[q + 1] - starts[q], prof, len, jg, gap, state);
            double *row_q = out + q * n_cols;
            for (ptrdiff_t l = 0; l < nl; l++)
                row_q[cols[k0 + l]] = state[lens[k0 + l] * LANES + l];
        }
    }
    free(block);
    return 0;
}

/* One sweep of odse.classifiers.smo_solve over i = 0..n-1: the loop body
 * of odse._dp.numpy_smo_sweep, operation for operation.
 *
 * k and eta are row-major n x n (the Gram matrix and every pair's
 * curvature K_ii + K_jj - 2 K_ij); alphas and errors are updated in
 * place and *bias holds the running bias.  Returns the number of pair
 * steps taken.  numpy's elementwise maximum and minimum propagate NaN
 * from either operand, as MAXIMUM and MINIMUM below do, and its argmax
 * takes the first maximal value or the first NaN, as the partner scan
 * does.  Each expression keeps numpy's operand grouping, so the results
 * are equal bit for bit.  The sweep keeps no state between calls.
 */
#define MAXIMUM(a, b) (((a) >= (b) || (a) != (a)) ? (a) : (b))
#define MINIMUM(a, b) (((a) <= (b) || (a) != (a)) ? (a) : (b))

ptrdiff_t odse_smo_sweep(const double *k, const double *y, const double *eta,
                         ptrdiff_t n, double c, double tol, double step_eps,
                         double *alphas, double *errors, double *bias)
{
    double b = *bias;
    ptrdiff_t changed = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        const double e_i = errors[i];
        const double r_i = e_i * y[i];
        if (!((r_i < -tol && alphas[i] < c) || (r_i > tol && alphas[i] > 0.0)))
            continue;
        const double a_i = alphas[i];
        const double *eta_i = eta + i * n;
        /* masked argmax of |E_j - E_i| over the feasible partners; an
         * infeasible partner scores -1, below any feasible one */
        ptrdiff_t j = -1;
        double best = 0.0, a_j_new = 0.0;
        for (ptrdiff_t m = 0; m < n; m++) {
            double lo, hi, score = -1.0, a_new = 0.0;
            if (y[m] == y[i]) {
                lo = (a_i + alphas[m]) - c;
                hi = a_i + alphas[m];
            } else {
                lo = alphas[m] - a_i;
                hi = (c + alphas[m]) - a_i;
            }
            lo = MAXIMUM(0.0, lo);
            hi = MINIMUM(c, hi);
            if (m != i && lo < hi && eta_i[m] > 0.0) {
                a_new = alphas[m] + (y[m] * (e_i - errors[m])) / eta_i[m];
                a_new = MAXIMUM(a_new, lo);
                a_new = MINIMUM(a_new, hi);
                if (!(fabs(a_new - alphas[m]) < step_eps))
                    score = fabs(errors[m] - e_i);
            }
            if (j < 0 || !(score <= best)) {
                best = score;
                j = m;
                a_j_new = a_new;
                if (best != best)
                    break;
            }
        }
        if (best < 0.0)
            continue;
        const double a_j = alphas[j];
        const double a_i_new = a_i + (y[i] * y[j]) * (a_j - a_j_new);
        const double d_i = y[i] * (a_i_new - a_i);
        const double d_j = y[j] * (a_j_new - a_j);
        const double b1 = ((b - e_i) - d_i * k[i * n + i]) - d_j * k[i * n + j];
        const double b2 = ((b - errors[j]) - d_i * k[i * n + j]) - d_j * k[j * n + j];
        double b_new;
        if (0.0 < a_i_new && a_i_new < c)
            b_new = b1;
        else if (0.0 < a_j_new && a_j_new < c)
            b_new = b2;
        else
            b_new = 0.5 * (b1 + b2);
        const double shift = b_new - b;
        for (ptrdiff_t m = 0; m < n; m++)
            errors[m] += (d_i * k[m * n + i] + d_j * k[m * n + j]) + shift;
        alphas[i] = a_i_new;
        alphas[j] = a_j_new;
        b = b_new;
        changed++;
    }
    *bias = b;
    return changed;
}

/* odse_parzen_exponents: the exponents of the Parzen kernel terms of one
 * column x of n samples, stride doubles apart, as entropy.column_scores'
 * numpy path computes them (np.subtract, np.multiply, np.divide):
 *     out[i*n + k] = ((x_i - x_k) * (x_i - x_k)) / scale
 * Two k at a time in a vector of two doubles; each lane does the same
 * IEEE operations, so the values are equal bit for bit.
 */
typedef double pair_t __attribute__((vector_size(16)));

void odse_parzen_exponents(const double *x, ptrdiff_t stride, ptrdiff_t n,
                           double scale, double *out)
{
    const pair_t s = {scale, scale};
    for (ptrdiff_t i = 0; i < n; i++) {
        const double x_i = x[i * stride];
        const pair_t v_i = {x_i, x_i};
        double *row = out + i * n;
        ptrdiff_t k = 0;
        for (; k + 2 <= n; k += 2) {
            const pair_t v_k = {x[k * stride], x[(k + 1) * stride]};
            const pair_t d = v_i - v_k;
            const pair_t q = (d * d) / s;
            row[k] = q[0];
            row[k + 1] = q[1];
        }
        if (k < n) {
            const double d = x_i - x[k * stride];
            row[k] = (d * d) / scale;
        }
    }
}
