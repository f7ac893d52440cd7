/* The visit kernels of repro.data.segments: the paper's Visit (§4)
 * for a whole chunk of visited peers, in two passes.
 *
 * repro_visit_plan / repro_visit_select pick each peer's rows: a
 * partition of at most `size` rows (or any partition when `size` is 0)
 * is read whole; a larger one keeps the rows holding the `size`
 * smallest of its random keys, equal keys going to the lower row, and
 * lists them in ascending order — per partition exactly
 * np.sort(np.argsort(keys, kind="stable")[:size]).  The plan writes
 * every peer's start, processed-row count and partition size and says
 * how many keys to draw; the select writes the absolute row indices.
 *
 * repro_reduce sums each segment's predicate mask, masked column and
 * column, and the squared deviations of its contribution around their
 * mean, to the bits np.add.reduceat gives (see SEGMENT_SUM below), then
 * scales the three sums by #tuples / #processedTuples when asked.
 *
 * The file must be compiled with -ffp-contract=off and without
 * fast-math, so that no product is fused into a multiply-add and no
 * sum is reassociated.
 */

#include <stdint.h>
#include <stdlib.h>

/* Mirrored field for field by segments._Select. */
struct select {
    const int64_t *peers;
    const int64_t *offsets; /* the store's: num_peers + 1 entries */
    const double *keys;
    int64_t *chosen;        /* out: row_count + 1 entries of room */
    int64_t *starts;        /* out, like processed and totals: n each */
    int64_t *processed;
    int64_t *totals;
    int64_t num_peers;
    int64_t n;
    int64_t size;
    int64_t shared;    /* 1: the peers' keys lie back to back; 0: every
                        * peer reads the first keys of one draw */
    int64_t row_count; /* out (plan) */
    int64_t key_count; /* out (plan) */
};

/* Returns 0, or -1 - i when peers[i] is not a peer of the store. */
int64_t repro_visit_plan(struct select *s)
{
    int64_t rows = 0, keys = 0;

    for (int64_t i = 0; i < s->n; i++) {
        int64_t peer = s->peers[i];
        if (peer < 0 || peer >= s->num_peers)
            return -1 - i;
        int64_t total = s->offsets[peer + 1] - s->offsets[peer];
        int64_t kept = s->size && total > s->size ? s->size : total;
        s->starts[i] = rows;
        s->processed[i] = kept;
        s->totals[i] = total;
        rows += kept;
        if (kept < total)
            keys = s->shared ? keys + total : (total > keys ? total : keys);
    }
    s->row_count = rows;
    s->key_count = keys;
    return 0;
}

enum { BUCKETS = 64, SMALL = 256 };

static int64_t bucket(double key)
{
    double scaled = key * BUCKETS; /* exact: a power of two */
    return scaled >= 1.0 ? (scaled < BUCKETS - 1 ? (int64_t)scaled
                                                 : BUCKETS - 1)
                         : 0;
}

static void sort_keys(double *keys, int64_t n)
{
    for (int64_t i = 1; i < n; i++) {
        double key = keys[i];
        int64_t j = i;
        for (; j > 0 && keys[j - 1] > key; j--)
            keys[j] = keys[j - 1];
        keys[j] = key;
    }
}

static int compare_keys(const void *a, const void *b)
{
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

/* The `size` rows of the `n` keys' smallest, ascending, at base + i.
 * A histogram of the keys' top bits finds the bucket holding the
 * size-th smallest key; ranking that bucket alone gives the threshold,
 * and one pass without a branch on the keys writes the rows: every
 * key below the threshold, and the first `ties` keys equal to it.
 * `out` needs one entry of room past the last row kept. */
static int smallest(const double *keys, int64_t n, int64_t size,
                    int64_t base, int64_t *out)
{
    int64_t histogram[BUCKETS] = {0};
    for (int64_t i = 0; i < n; i++)
        histogram[bucket(keys[i])]++;
    int64_t held = 0, below = 0;
    while (below + histogram[held] < size)
        below += histogram[held++];

    /* The bucket's keys, with room for one more: the collecting pass
     * writes every key and keeps the bucket's. */
    double small[SMALL], *ranked = small;
    int64_t count = histogram[held];
    if (count >= SMALL && !(ranked = malloc((count + 1) * sizeof *ranked)))
        return -1;
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        ranked[m] = keys[i];
        m += bucket(keys[i]) == held;
    }
    if (count > 32)
        qsort(ranked, count, sizeof *ranked, compare_keys);
    else
        sort_keys(ranked, count);
    int64_t wanted = size - below; /* 1 .. count */
    double threshold = ranked[wanted - 1];
    int64_t ties = 0; /* keys equal to the threshold that are kept */
    for (int64_t i = wanted - 1; i >= 0 && ranked[i] == threshold; i--)
        ties++;
    if (ranked != small)
        free(ranked);

    /* Uniform keys keep exactly `size` rows; the clamp only keeps keys
     * that compare unordered (NaN) from writing past them. */
    int64_t j = 0, seen = 0;
    for (int64_t i = 0; i < n; i++) {
        double key = keys[i];
        int64_t equal = key == threshold;
        out[j] = base + i;
        j += (key < threshold) | (equal & (seen < ties));
        j = j < size ? j : size;
        seen += equal;
    }
    return 0;
}

/* Returns 0, or -1 when memory for ranking a bucket ran out. */
int64_t repro_visit_select(struct select *s)
{
    const double *keys = s->keys;

    for (int64_t i = 0; i < s->n; i++) {
        int64_t base = s->offsets[s->peers[i]], total = s->totals[i];
        int64_t *out = s->chosen + s->starts[i];
        if (s->processed[i] == total) {
            for (int64_t j = 0; j < total; j++)
                out[j] = base + j;
            continue;
        }
        if (smallest(keys, total, s->size, base, out))
            return -1;
        if (s->shared)
            keys += total;
    }
    return 0;
}

/* Mirrored field for field by segments._Reduce. */
struct reduce {
    const uint8_t *mask;    /* the predicate's, one bool per row */
    const double *column;
    const int64_t *counts;  /* rows per segment, laid end to end */
    const int64_t *totals;  /* NULL: the sums are not scaled */
    double *out;            /* row r of segment i at out[r * stride + i]:
                             * count, sum, column sum, variance */
    int64_t stride;
    int64_t n;
    int64_t length;         /* the mask's and the column's */
    int64_t count_query;    /* the contribution is the mask, not the
                             * masked value */
};

/* np.add.reduceat's sum of a segment: its first term plus numpy's
 * pairwise sum of the rest — below 8 terms a loop from -0.0, up to 128
 * eight accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
 * and the remainder added in order, above that a split at n/2 rounded
 * down to a multiple of 8. */
#define SEGMENT_SUM(name, TERM)                                          \
    static double name##_pairwise(const double *v, const uint8_t *m,    \
                                  double mean, int64_t n)               \
    {                                                                    \
        (void)v, (void)m, (void)mean;                                    \
        if (n < 8) {                                                     \
            double sum = -0.0;                                           \
            for (int64_t i = 0; i < n; i++)                              \
                sum += TERM(i);                                          \
            return sum;                                                  \
        }                                                                \
        if (n <= 128) {                                                  \
            double r[8];                                                 \
            for (int64_t j = 0; j < 8; j++)                              \
                r[j] = TERM(j);                                          \
            int64_t i = 8;                                               \
            for (; i < n - n % 8; i += 8)                                \
                for (int64_t j = 0; j < 8; j++)                          \
                    r[j] += TERM(i + j);                                 \
            double sum = ((r[0] + r[1]) + (r[2] + r[3]))                 \
                         + ((r[4] + r[5]) + (r[6] + r[7]));              \
            for (; i < n; i++)                                           \
                sum += TERM(i);                                          \
            return sum;                                                  \
        }                                                                \
        int64_t half = n / 2;                                            \
        half -= half % 8;                                                \
        return name##_pairwise(v, m, mean, half)                         \
               + name##_pairwise(v + half, m + half, mean, n - half);    \
    }                                                                    \
    static double name(const double *v, const uint8_t *m, double mean,  \
                       int64_t n)                                        \
    {                                                                    \
        return TERM(0) + name##_pairwise(v + 1, m + 1, mean, n - 1);     \
    }

#define MASK(i) ((double)m[i])
#define MASKED(i) (v[i] * (double)m[i])
#define VALUE(i) (v[i])
#define MASK_DEVIATION(i) \
    (((double)m[i] - mean) * ((double)m[i] - mean))
#define MASKED_DEVIATION(i) \
    ((v[i] * (double)m[i] - mean) * (v[i] * (double)m[i] - mean))

SEGMENT_SUM(mask_sum, MASK)
SEGMENT_SUM(masked_sum, MASKED)
SEGMENT_SUM(value_sum, VALUE)
SEGMENT_SUM(mask_deviations, MASK_DEVIATION)
SEGMENT_SUM(masked_deviations, MASKED_DEVIATION)

/* Returns 0, or -1 when there are segments and their counts do not
 * tile the rows exactly. */
int64_t repro_reduce(struct reduce *r)
{
    const double *v = r->column;
    const uint8_t *m = r->mask;
    double *out = r->out;
    int64_t stride = r->stride, at = 0;

    for (int64_t i = 0; i < r->n; i++) {
        int64_t count = r->counts[i];
        if (count < 0 || count > r->length - at)
            return -1;
        at += count;
    }
    if (r->n && at != r->length)
        return -1;
    at = 0;
    for (int64_t i = 0; i < r->n; i++, out++) {
        int64_t count = r->counts[i];
        if (!count) {
            out[0] = out[stride] = out[2 * stride] = out[3 * stride] = 0.0;
            continue;
        }
        double matched = mask_sum(v + at, m + at, 0.0, count);
        double sum = masked_sum(v + at, m + at, 0.0, count);
        double column = value_sum(v + at, m + at, 0.0, count);
        double mean = (r->count_query ? matched : sum) / (double)count;
        double squares =
            r->count_query ? mask_deviations(v + at, m + at, mean, count)
                           : masked_deviations(v + at, m + at, mean, count);
        if (r->totals) {
            double scale = (double)r->totals[i] / (double)count;
            matched *= scale;
            sum *= scale;
            column *= scale;
        }
        out[0] = matched;
        out[stride] = sum;
        out[2 * stride] = column;
        out[3 * stride] = squares / (double)count;
        at += count;
    }
    return 0;
}
