/*
 * Weighted Brandes dependency accumulation over a symmetric CSR graph.
 *
 * The native twin of the numpy loop behind the "brandes" kernel
 * (repro.core.betweenness._single_source_dependency, summed by
 * repro.perf.kernels.brandes_numpy), and bit-identical to it:
 *
 *   - sigma(w) sums over w's own CSR row, which is sorted, so the
 *     predecessors are added in ascending id order: the order numpy's
 *     bincount adds them in, because each BFS frontier is ascending;
 *   - delta(u) sums u's successors in its row's order, as bincount
 *     does over the level's edge list;
 *   - every quotient, product and sum is numpy's expression, evaluated
 *     in the same order (build with -ffp-contract=off: nothing fused);
 *   - a sum may also add +0.0, which leaves a sum that started at +0.0
 *     unchanged;
 *   - only visited nodes are added into the accumulator.  numpy adds
 *     w * 0.0 everywhere else, which leaves the sum as it is when w is
 *     finite; a non-finite w takes the full-vector path.
 *
 * No Python API: repro.perf.native loads it with ctypes, which drops
 * the GIL for the length of each call.  Callers pass arrays that
 * brandes_check has accepted and sources in [0, n); every function
 * is reentrant.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* 0 if the CSR arrays describe n nodes and m entries safely: indptr
 * starts at 0, never decreases and ends at m, and every neighbor id is
 * in [0, n).  1 otherwise. */
int brandes_check(const int64_t *indptr, const int64_t *indices,
                  int64_t n, int64_t m)
{
    if (n < 0 || m < 0 || indptr[0] != 0 || indptr[n] != m)
        return 1;
    for (int64_t i = 0; i < n; i++)
        if (indptr[i + 1] < indptr[i])
            return 1;
    for (int64_t p = 0; p < m; p++)
        if (indices[p] < 0 || indices[p] >= n)
            return 1;
    return 0;
}

/* v if keep, else +0.0, without a branch. */
static inline double keep_if(double v, int keep)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    bits &= -(uint64_t)keep;
    memcpy(&v, &bits, sizeof v);
    return v;
}

/* Add weights[i] * dependency(sources[i]) into acc, for i in [0, k),
 * in that order.  Nodes below n_targets are targets (weight 1), the
 * rest only relay.  Returns 0, or -1 if scratch allocation failed. */
int brandes_accumulate(const int64_t *indptr, const int64_t *indices,
                       int64_t n, const int64_t *sources,
                       const double *weights, int64_t k,
                       int64_t n_targets, double *acc)
{
    if (k <= 0)
        return 0;
    const int64_t m = indptr[n];
    /* queue and succ take one speculative store past their end. */
    int64_t *dist = malloc((size_t)n * sizeof *dist);
    int64_t *queue = malloc((size_t)(n + 1) * sizeof *queue);
    int64_t *first = malloc((size_t)(n + 1) * sizeof *first);
    int64_t *succ = malloc((size_t)(m + 1) * sizeof *succ);
    double *sigma = calloc((size_t)n, sizeof *sigma);
    double *delta = malloc((size_t)n * sizeof *delta);
    int failed = !dist || !queue || !first || !succ || !sigma || !delta;
    if (!failed)
        for (int64_t i = 0; i < n; i++)
            dist[i] = -1;

    for (int64_t i = 0; i < k && !failed; i++) {
        const int64_t s = sources[i];
        const double w = weights[i];
        int64_t tail = 0, edges = 0;

        /* Forward, one scan per visited row: discover the next level,
         * pull sigma from the previous one, and list the successors
         * (queue[j]'s are succ[first[j] .. first[j + 1])).  Branchless:
         * on lake graphs the three cases follow no pattern. */
        dist[s] = 0;
        sigma[s] = 1.0;
        queue[tail++] = s;
        for (int64_t head = 0; head < tail; head++) {
            const int64_t u = queue[head];
            const int64_t du = dist[u];
            double sum = 0.0;
            first[head] = edges;
            for (int64_t p = indptr[u]; p < indptr[u + 1]; p++) {
                const int64_t x = indices[p];
                const int64_t dx = dist[x];
                const int fresh = dx < 0;
                sum += keep_if(sigma[x], dx == du - 1);
                succ[edges] = x;
                edges += fresh | (dx == du + 1);
                queue[tail] = x;
                tail += fresh;
                dist[x] = fresh ? du + 1 : dx;
            }
            if (u != s)  /* the source's sum counted undiscovered nodes */
                sigma[u] = sum;
        }
        first[tail] = edges;

        /* Backward: deepest level first. */
        for (int64_t j = tail - 1; j >= 0; j--) {
            const double su = sigma[queue[j]];
            double sum = 0.0;
            for (int64_t q = first[j]; q < first[j + 1]; q++) {
                const int64_t x = succ[q];
                sum += su / sigma[x]
                    * ((x < n_targets ? 1.0 : 0.0) + delta[x]);
            }
            delta[queue[j]] = sum;
        }
        delta[s] = 0.0;

        if (w - w == 0.0) {
            for (int64_t j = 1; j < tail; j++)
                acc[queue[j]] += w * delta[queue[j]];
        } else {
            /* inf or nan: w * 0.0 is nan, so numpy's sum changes every
             * slot; an unvisited node's dependency is 0. */
            for (int64_t j = 0; j < tail; j++)
                dist[queue[j]] = -2;
            for (int64_t x = 0; x < n; x++)
                acc[x] += w * (dist[x] == -2 ? delta[x] : 0.0);
        }
        for (int64_t j = 0; j < tail; j++)
            dist[queue[j]] = -1;
    }

    free(dist);
    free(queue);
    free(first);
    free(succ);
    free(sigma);
    free(delta);
    return failed ? -1 : 0;
}
