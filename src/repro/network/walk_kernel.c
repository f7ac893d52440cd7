/* The hop loops of repro.network.walk_kernel: every hop of every walk.
 *
 * One call runs `n` uniforms through one variant's loop over a CSR
 * graph (`indptr`, `indices`: the topology's own int64 arrays).  The
 * walk struct carries the walk from one chunk of uniforms to the next:
 * `current` is the current peer, `left` the hops left until the next
 * selection (reset to `jump` after each), `emitted` the number of
 * selections written to `out` so far.  Returns the current peer, or -1
 * (nothing walked) when the walk starts outside the graph or at an
 * isolated peer; every later peer is a neighbour, so has degree >= 1.
 *
 * Every expression reproduces the reference loop in
 * tests/walk_oracle.py bit for bit: a neighbour is the truncation of
 * the double `r * degree` (the degree converted to a double, which is
 * exact), and the accept tests multiply in the same order.  The file
 * must be compiled with -ffp-contract=off and without fast-math, so
 * that no product is fused into a multiply-add.
 */

#include <stdint.h>

enum { SIMPLE, METROPOLIS, WEIGHTED };

/* Mirrored field for field by walk_kernel._Walk. */
struct walk {
    const int64_t *indptr;
    const int64_t *indices;
    const double *weights; /* the weighted loop's; NULL otherwise */
    const double *uniforms;
    int64_t *out;
    int64_t num_peers;
    int64_t variant;
    int64_t n;
    int64_t jump;
    int64_t current;
    int64_t left;
    int64_t emitted;
};

#define EMIT()                          \
    if (!--left) {                      \
        out[emitted++] = current;       \
        left = jump;                    \
    }

int64_t repro_walk(struct walk *walk)
{
    const int64_t *indptr = walk->indptr, *indices = walk->indices;
    const double *weights = walk->weights;
    const double *u = walk->uniforms, *end = u + walk->n;
    int64_t *out = walk->out;
    int64_t jump = walk->jump, current = walk->current;
    int64_t left = walk->left, emitted = walk->emitted;

    if (current < 0 || current >= walk->num_peers
            || indptr[current] == indptr[current + 1])
        return -1;
    switch (walk->variant) {
    case SIMPLE:
        for (; u < end; u++) {
            const int64_t *row = indices + indptr[current];
            double degree = (double)(indptr[current + 1] - indptr[current]);
            current = row[(int64_t)(*u * degree)];
            EMIT()
        }
        break;
    case METROPOLIS:
        /* Two uniforms per hop: propose, then accept with
         * min(1, deg(u)/deg(v)) for a uniform target. */
        for (; u < end; u += 2) {
            double degree = (double)(indptr[current + 1] - indptr[current]);
            int64_t proposal =
                indices[indptr[current] + (int64_t)(u[0] * degree)];
            double proposed =
                (double)(indptr[proposal + 1] - indptr[proposal]);
            if (u[1] * proposed < degree)
                current = proposal;
            EMIT()
        }
        break;
    case WEIGHTED:
        /* Accept iff u < (w_v * deg_u) / (w_u * deg_v). */
        for (; u < end; u += 2) {
            double degree = (double)(indptr[current + 1] - indptr[current]);
            int64_t proposal =
                indices[indptr[current] + (int64_t)(u[0] * degree)];
            double proposed =
                (double)(indptr[proposal + 1] - indptr[proposal]);
            if (u[1] * weights[current] * proposed
                    < weights[proposal] * degree)
                current = proposal;
            EMIT()
        }
        break;
    }
    walk->current = current;
    walk->left = left;
    walk->emitted = emitted;
    return current;
}
