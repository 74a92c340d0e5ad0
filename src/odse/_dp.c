/* Global-alignment costs of one encoded query against a batch of encoded,
 * padded targets: the dynamic program behind odse.alignment.alignment_cost_rows.
 *
 * The arithmetic is that of the numpy loop, operation for operation, so
 * the results are equal bit for bit.  Row i of the table is built from
 *     c[j]     = min(diag + sub[a][t[j-1]], up + gap)   (c[0] = (i+1)*gap)
 *     m        = min(m, c[j] - jg[j])                  (prefix minimum)
 *     state[j] = m + jg[j]
 * with jg[j] = gap*j.  Each target is aligned only up to its true length;
 * padded columns never reach the value read at that length.  Compile with
 * -ffp-contract=off so no multiply-add is fused.
 *
 * Inputs are validated by the caller (codes in range, lengths within the
 * padded width).  The scratch row is allocated per call, so concurrent
 * callers share no state.
 */

#include <stddef.h>
#include <stdlib.h>

int odse_cost_rows(const ptrdiff_t *query, ptrdiff_t n_query,
                   const ptrdiff_t *targets, ptrdiff_t n_targets,
                   ptrdiff_t width, const ptrdiff_t *lens,
                   const double *sub, ptrdiff_t n_alpha, double gap,
                   double *out)
{
    double *jg = malloc(2 * (size_t)(width + 1) * sizeof(double));
    if (jg == NULL)
        return -1;
    double *state = jg + width + 1;
    for (ptrdiff_t j = 0; j <= width; j++)
        jg[j] = gap * (double)j;

    for (ptrdiff_t k = 0; k < n_targets; k++) {
        const ptrdiff_t *t = targets + k * width;
        ptrdiff_t len = lens[k];
        for (ptrdiff_t j = 0; j <= len; j++)
            state[j] = jg[j];
        for (ptrdiff_t i = 0; i < n_query; i++) {
            const double *row = sub + query[i] * n_alpha;
            double diag = state[0];
            double m = (double)(i + 1) * gap - jg[0];
            state[0] = m + jg[0];
            for (ptrdiff_t j = 1; j <= len; j++) {
                double up = state[j];
                double c = diag + row[t[j - 1]];
                double u = up + gap;
                if (u < c)
                    c = u;
                double v = c - jg[j];
                if (v < m)
                    m = v;
                state[j] = m + jg[j];
                diag = up;
            }
        }
        out[k] = state[len];
    }
    free(jg);
    return 0;
}
