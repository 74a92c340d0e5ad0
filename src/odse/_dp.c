/* Global-alignment costs of one encoded query against a batch of encoded,
 * padded targets: the dynamic program behind odse.alignment.alignment_cost_rows.
 *
 * The arithmetic is that of the numpy loop, operation for operation, so
 * the results are equal bit for bit.  Row i of the table is built from
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
