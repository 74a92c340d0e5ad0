/* The two compiled kernels of odse, in one library: odse_cost_rows, the
 * alignment dynamic program, and odse_smo_sweep, one sweep of the SVM
 * solver (at the end of this file).  Each does the floating-point
 * operations of its numpy reference in the same order, so the results
 * are equal bit for bit.
 *
 * odse_cost_rows: global-alignment costs of one encoded query against a
 * batch of encoded, padded targets, the dynamic program behind
 * odse.alignment.alignment_cost_rows.
 *
 * Row i of the table is built from
 *     c[j]     = min(diag + sub[a][t[j-1]], up + gap)   (c[0] = (i+1)*gap)
 *     m        = min(m, c[j] - jg[j])                  (prefix minimum)
 *     state[j] = m + jg[j]
 * with jg[j] = gap*j.  Compile with -ffp-contract=off so no multiply-add
 * is fused.
 *
 * The query is aligned against LANES targets at a time (inter-sequence
 * lanes, as in Rognes 2011, SWIPE).  Each block's codes are transposed
 * lane-major into tt[j*LANES + l] and its DP state is one lane-major row,
 * so the innermost loop runs over the lanes and each lane does exactly
 * the scalar operations above; the two selects `a < b ? a : b` are x86
 * minpd, signed zeros included.  A block runs to its longest target and
 * each lane reads its result at its own length, which the padded cells
 * past it never reach.  Lanes past the last target align code 0 and are
 * never read.  Callers that order targets by length keep the lanes full.
 *
 * On x86-64 ELF builds the function is compiled twice, for AVX2 and for
 * the baseline, and the loader picks one at run time; both clones do the
 * same IEEE operations, so the choice never changes a result.
 *
 * Inputs are validated by the caller (codes in range, lengths within the
 * padded width).  The scratch rows are allocated per call, so concurrent
 * callers share no state.
 */

#include <math.h>
#include <stddef.h>
#include <stdlib.h>

#define LANES 4

#if defined(__x86_64__) && defined(__GNUC__) && defined(__ELF__)
__attribute__((target_clones("avx2", "default")))
#endif
int odse_cost_rows(const ptrdiff_t *query, ptrdiff_t n_query,
                   const ptrdiff_t *targets, ptrdiff_t n_targets,
                   ptrdiff_t width, const ptrdiff_t *lens,
                   const double *sub, ptrdiff_t n_alpha, double gap,
                   double *out)
{
    size_t cols = (size_t)width + 1;
    double *jg = malloc((1 + LANES) * cols * sizeof(double));
    ptrdiff_t *tt = malloc(LANES * cols * sizeof(ptrdiff_t));
    if (jg == NULL || tt == NULL) {
        free(jg);
        free(tt);
        return -1;
    }
    double *state = jg + cols;
    for (ptrdiff_t j = 0; j <= width; j++)
        jg[j] = gap * (double)j;

    for (ptrdiff_t k0 = 0; k0 < n_targets; k0 += LANES) {
        ptrdiff_t nl = n_targets - k0 < LANES ? n_targets - k0 : LANES;
        ptrdiff_t len = 0;
        for (ptrdiff_t l = 0; l < nl; l++)
            if (lens[k0 + l] > len)
                len = lens[k0 + l];
        for (ptrdiff_t j = 0; j < len; j++)
            for (ptrdiff_t l = 0; l < LANES; l++)
                tt[j * LANES + l] = l < nl ? targets[(k0 + l) * width + j] : 0;
        for (ptrdiff_t j = 0; j <= len; j++)
            for (ptrdiff_t l = 0; l < LANES; l++)
                state[j * LANES + l] = jg[j];

        for (ptrdiff_t i = 0; i < n_query; i++) {
            const double *restrict row = sub + query[i] * n_alpha;
            double diag[LANES], m[LANES];
            for (ptrdiff_t l = 0; l < LANES; l++) {
                diag[l] = state[l];
                m[l] = (double)(i + 1) * gap - jg[0];
                state[l] = m[l] + jg[0];
            }
            for (ptrdiff_t j = 1; j <= len; j++) {
                /* restrict lets the compiler vectorize the lane loop */
                double *restrict s = state + j * LANES;
                const ptrdiff_t *restrict t = tt + (j - 1) * LANES;
                const double g = jg[j];
                for (ptrdiff_t l = 0; l < LANES; l++) {
                    double up = s[l];
                    double c = diag[l] + row[t[l]];
                    double u = up + gap;
                    c = u < c ? u : c;
                    double v = c - g;
                    m[l] = v < m[l] ? v : m[l];
                    s[l] = m[l] + g;
                    diag[l] = up;
                }
            }
        }
        for (ptrdiff_t l = 0; l < nl; l++)
            out[k0 + l] = state[lens[k0 + l] * LANES + l];
    }
    free(jg);
    free(tt);
    return 0;
}

/* One sweep of odse.classifiers.smo_solve over i = 0..n-1: the loop body
 * of odse.classifiers.numpy_smo_sweep, operation for operation.
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
