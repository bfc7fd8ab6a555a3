"""Local clustering coefficient (LCC) homograph scores.

The paper defines (Eq. 1) the LCC of a value node ``u`` as the average
pairwise clustering coefficient over its value neighbors ``N(u)``, where
the pairwise coefficient of two values is the Jaccard similarity of their
neighbor sets.  The paper then observes that "the measure as defined in
Equation (1) is no more than the average Jaccard similarity between the
set of attributes that a value co-occurs with" — and indeed only that
attribute-set reading reproduces the scores reported in Example 3.6
(Jaguar 0.36, Puma 0.43, Toyota/Panda 0.46).  See DESIGN.md §1.

Both readings are implemented:

* :func:`lcc_scores` with ``variant="attribute-jaccard"`` (default) —
  the paper's implementation:
  ``LCC(u) = mean over v in N(u) of J(A(u), A(v))``
  with ``A(x)`` the attribute set of ``x``.
* ``variant="value-neighbors"`` — the literal Eq. 1 over value-neighbor
  sets, quadratic in ``|N(u)|`` and only practical on small graphs; kept
  for the measure ablation (DESIGN.md E-X1).

Hypothesis 3.4: homographs should score *lower* than unambiguous values,
so rankings sort ascending.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from .graph import BipartiteGraph, value_neighbors_csr

if TYPE_CHECKING:  # pragma: no cover - hints only, avoids import cycle
    from ..perf.config import ExecutionConfig

#: The LCC variants :func:`lcc_scores` computes.
LCC_VARIANTS = ("attribute-jaccard", "value-neighbors")


def lcc_scores(
    graph: BipartiteGraph,
    variant: str = "attribute-jaccard",
    execution: Optional["ExecutionConfig"] = None,
) -> np.ndarray:
    """LCC score for every value node, indexed by value node id.

    Isolated values (no value neighbors) score 0.0 — they have no
    community to cohere with, and they cannot be homographs anyway.

    ``execution`` selects the backend: per-value scores are
    independent, so contiguous chunks of value nodes fan across worker
    processes and stitch back deterministically (bit-exact for every
    backend and chunking).
    """
    if variant not in LCC_VARIANTS:
        raise ValueError(
            f"unknown LCC variant {variant!r}; "
            f"expected one of {LCC_VARIANTS}"
        )
    from ..perf.backends import backend_scope

    scores = np.zeros(graph.num_values, dtype=np.float64)
    with backend_scope(execution) as backend:
        partials = backend.map_chunks(
            graph, "lcc", backend.spans(graph.num_values),
            {"variant": variant},
        )
    for lo, hi, segment in partials:
        scores[lo:hi] = segment
    return scores


def _lcc_attribute_jaccard_ids(
    indptr: np.ndarray, indices: np.ndarray, ids: np.ndarray
) -> np.ndarray:
    """Vectorized attribute-set Jaccard averaging for the given values.

    For a value ``u``, concatenating the value lists of every attribute
    in ``A(u)`` yields each co-occurring value ``v`` exactly
    ``|A(u) ∩ A(v)|`` times, so one ``np.unique(..., return_counts=True)``
    call gives all intersection sizes at once and the Jaccard follows
    from the value degrees.  Cost is linear in the total size of ``u``'s
    attributes rather than quadratic in ``|N(u)|``.  Each value's score
    is independent, so any subset computes bit-identically to the full
    sweep — the property delta maintenance relies on.
    """
    scores = np.zeros(ids.size, dtype=np.float64)
    degrees = np.diff(indptr)

    for i, u in enumerate(ids):
        attrs = indices[indptr[u]:indptr[u + 1]]
        if attrs.size == 0:
            continue
        pieces = [indices[indptr[a]:indptr[a + 1]] for a in attrs]
        cooccurring = np.concatenate(pieces)
        neighbors, inter = np.unique(cooccurring, return_counts=True)
        mask = neighbors != u
        neighbors, inter = neighbors[mask], inter[mask]
        if neighbors.size == 0:
            continue
        union = degrees[u] + degrees[neighbors] - inter
        scores[i] = float(np.mean(inter / union))
    return scores


def _lcc_attribute_jaccard_range(
    indptr: np.ndarray, indices: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Attribute-set Jaccard averaging for the contiguous ``[lo, hi)``."""
    return _lcc_attribute_jaccard_ids(
        indptr, indices, np.arange(lo, hi, dtype=np.int64)
    )


def _lcc_value_neighbors_ids(
    indptr: np.ndarray, indices: np.ndarray, ids: np.ndarray
) -> np.ndarray:
    """Literal Eq. 1 for the given values: Jaccard on value neighbors.

    ``N(v)`` arrays are cached across the loop since neighbors share
    attributes heavily (the cache is per chunk, so chunking trades a
    little recomputation for parallelism).  O(|N(u)|^2)-ish per node —
    ablation use only.  Like the attribute-Jaccard variant, per-value
    scores are subset-independent and bit-exact under any chunking.
    """
    scores = np.zeros(ids.size, dtype=np.float64)
    cache: Dict[int, np.ndarray] = {}

    def neighbor_set(v: int) -> np.ndarray:
        cached = cache.get(v)
        if cached is None:
            cached = value_neighbors_csr(indptr, indices, v)
            cache[v] = cached
        return cached

    for i, u in enumerate(ids):
        n_u = neighbor_set(int(u))
        if n_u.size == 0:
            continue
        total = 0.0
        size_u = n_u.size
        for v in n_u:
            n_v = neighbor_set(int(v))
            inter = np.intersect1d(n_u, n_v, assume_unique=True).size
            union = size_u + n_v.size - inter
            total += inter / union if union else 0.0
        scores[i] = total / size_u
    return scores


def _lcc_value_neighbors_range(
    indptr: np.ndarray, indices: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Literal Eq. 1 for the contiguous value range ``[lo, hi)``."""
    return _lcc_value_neighbors_ids(
        indptr, indices, np.arange(lo, hi, dtype=np.int64)
    )


def lcc_score_map(
    graph: BipartiteGraph,
    variant: str = "attribute-jaccard",
    execution: Optional["ExecutionConfig"] = None,
) -> Dict[str, float]:
    """LCC scores keyed by value name."""
    scores = lcc_scores(graph, variant=variant, execution=execution)
    return {graph.value_name(v): float(scores[v]) for v in range(graph.num_values)}
