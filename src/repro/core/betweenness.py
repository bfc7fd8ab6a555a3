"""Betweenness centrality (BC) — exact Brandes and sampled approximation.

Hypothesis 3.5 of the paper: homographs have *higher* betweenness than
unambiguous values because shortest paths between the communities they
bridge must pass through them.

The exact algorithm is Brandes' (2001) dependency accumulation, O(nm)
for unweighted graphs.  It runs through the ``"brandes"`` kernel of
:mod:`repro.perf.kernels`: a C loop compiled on first use
(:mod:`repro.perf.native`), or, where no C compiler is available, the
level-synchronous numpy loop below (:func:`_single_source_dependency`),
a handful of numpy operations per BFS level.  Both give the same bits.
The approximation follows the source-sampling
scheme the paper uses through Networkit (Geisberger, Sanders & Schultes
2008 / Brandes & Pich 2007): run the single-source dependency
accumulation from ``s`` sampled sources and extrapolate by ``n/s``.

Calibrated conventions (DESIGN.md §1): scores are over the *whole*
bipartite graph with all nodes acting as endpoints, normalized by the
number of node pairs — this reproduces Example 3.6 exactly (Jaguar
0.025, Puma 0.003, Toyota/Panda 0.002).  The footnote-2 variant that
restricts endpoints to value nodes is available via ``endpoints=
"values"`` and is compared in the measure-ablation bench.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .graph import BipartiteGraph, frontier_edges

if TYPE_CHECKING:  # pragma: no cover - hints only, avoids import cycle
    from ..perf.config import ExecutionConfig

#: The endpoint modes :func:`betweenness_scores` accepts.
ENDPOINT_MODES = ("all", "values")


def betweenness_scores(
    graph: BipartiteGraph,
    sample_size: Optional[int] = None,
    seed: Optional[int] = None,
    normalized: bool = True,
    endpoints: str = "all",
    strategy: str = "uniform",
    execution: Optional["ExecutionConfig"] = None,
    state_out: Optional[dict] = None,
) -> np.ndarray:
    """Betweenness centrality of every node, indexed by node id.

    Parameters
    ----------
    graph:
        The bipartite value–attribute graph.
    sample_size:
        ``None`` runs exact Brandes over all eligible sources.  A
        positive integer samples that many sources and extrapolates —
        the paper uses ~1% of nodes (5000 samples on TUS) with no loss
        of ranking quality (§5.4).
    seed:
        RNG seed for source sampling; ignored for exact computation.
    normalized:
        Divide by the number of eligible endpoint pairs so scores are
        comparable across graph sizes (the paper's reported scale).
    endpoints:
        ``"all"`` (paper default): every node is a source/target.
        ``"values"``: only value nodes are endpoints (footnote 2).
    strategy:
        ``"uniform"`` (default): sources drawn uniformly without
        replacement, scaled by n/s.  ``"degree"``: sources drawn with
        probability proportional to their degree (with replacement)
        and importance-weighted — the §3.3 observation that high-degree
        nodes are more likely to lie on shortest paths.
    execution:
        Optional :class:`~repro.perf.ExecutionConfig` selecting the
        execution backend.  ``None`` (default) runs serially in
        process; a process backend fans the per-source dependency
        accumulations across cores.  Results agree with serial to
        float tolerance (bit-exactly when ``chunk_size`` is pinned).
    state_out:
        Optional dict filled with the maintenance state incremental
        mutation needs to patch this result later: the raw
        (pre-normalization) value-node accumulator, the effective
        chunk count, and the source-selection parameters.  See
        ``repro.api.maintenance``.

    Returns
    -------
    numpy.ndarray
        Scores for all ``graph.num_nodes`` nodes.  With ``endpoints=
        "values"`` attribute nodes still receive scores (they can lie on
        paths between values) but never act as endpoints.
    """
    if endpoints not in ENDPOINT_MODES:
        raise ValueError(
            f"unknown endpoints mode {endpoints!r}; "
            f"expected one of {ENDPOINT_MODES}"
        )
    if strategy not in ("uniform", "degree"):
        raise ValueError(
            f"unknown sampling strategy {strategy!r}; "
            "expected 'uniform' or 'degree'"
        )
    n = graph.num_nodes
    scores = np.zeros(n, dtype=np.float64)
    if n == 0:
        return scores

    if endpoints == "all":
        eligible = np.arange(n, dtype=np.int64)
    else:
        eligible = np.arange(graph.num_values, dtype=np.int64)

    if sample_size is None or (
        strategy == "uniform" and sample_size >= eligible.size
    ):
        sources = eligible
        source_weights = np.ones(eligible.size, dtype=np.float64)
    else:
        if sample_size <= 0:
            raise ValueError("sample_size must be positive")
        rng = np.random.default_rng(seed)
        if strategy == "uniform":
            sources = rng.choice(eligible, size=sample_size, replace=False)
            source_weights = np.full(
                sample_size, eligible.size / sample_size
            )
        else:
            degrees = graph.degrees()[eligible].astype(np.float64)
            total_degree = degrees.sum()
            if total_degree == 0:
                return scores
            probabilities = degrees / total_degree
            picks = rng.choice(
                eligible.size, size=sample_size, replace=True,
                p=probabilities,
            )
            sources = eligible[picks]
            # Horvitz-Thompson style weights: each draw contributes
            # 1 / (r * p_s), keeping the estimator unbiased.
            source_weights = 1.0 / (sample_size * probabilities[picks])

    # Fan the per-source dependency accumulations across the execution
    # backend: each chunk of sources yields one partial score vector,
    # reduced with a deterministic tree-sum.
    from ..perf.backends import backend_scope, tree_sum

    with backend_scope(execution) as backend:
        spans = backend.spans(sources.size)
        payloads = [
            (sources[lo:hi], source_weights[lo:hi]) for lo, hi in spans
        ]
        partials = backend.map_chunks(
            graph, "brandes", payloads, {"endpoints": endpoints}
        )
    if partials:
        scores = tree_sum(partials)

    if state_out is not None:
        # Raw value-node accumulator *before* normalization: patching
        # carries these floats bitwise for untouched components, then
        # renormalizes — recovering raw from normalized scores would
        # not round-trip bit-exactly.
        state_out.update(
            kind="brandes",
            raw_values=scores[: graph.num_values].copy(),
            chunks=len(payloads),
            eligible=int(eligible.size),
            sampled=sources is not eligible,
            strategy=strategy,
            normalized=normalized,
        )

    # Raw accumulation counts each unordered pair twice (once per
    # direction); normalize by ordered endpoint pairs, or halve.
    n_end = eligible.size
    if normalized:
        pairs = (n_end - 1) * (n_end - 2)
        scores = scores / pairs if pairs > 0 else np.zeros_like(scores)
    else:
        scores = scores / 2.0
    return scores


def _single_source_dependency(
    source: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    num_nodes: int,
    target_weight: np.ndarray,
) -> np.ndarray:
    """Brandes dependency accumulation from one source, vectorized.

    Forward phase: level-synchronous BFS recording, per level, the DAG
    edges (u, w) with dist(w) = dist(u) + 1 and accumulating shortest-
    path counts sigma.  Backward phase: walk levels deepest-first and
    push dependencies up the DAG.  ``target_weight[w]`` generalizes the
    textbook ``1``: a node only contributes as a *target* when its
    weight is 1, which implements the values-only endpoint mode.

    Scatter-adds run through ``np.bincount`` rather than ``np.add.at``
    (whose buffered-ufunc path is far slower on large frontiers), and
    the next frontier comes from an idempotent distance write plus one
    ``np.flatnonzero`` scan — O(E + n) per level — instead of sorting
    the discovered endpoints with ``np.unique``, which dominated the
    profile on lake-scale graphs.
    """
    dist = np.full(num_nodes, -1, dtype=np.int64)
    sigma = np.zeros(num_nodes, dtype=np.float64)
    dist[source] = 0
    sigma[source] = 1.0

    frontier = np.array([source], dtype=np.int64)
    level = 0
    level_edges: List[Tuple[np.ndarray, np.ndarray]] = []

    while frontier.size:
        src, dst = frontier_edges(frontier, indptr, indices)
        # Edges to undiscovered endpoints are exactly the DAG edges of
        # this level: the gather happens before any distance write, so
        # nothing can look discovered early.
        mask = dist[dst] < 0
        src, dst = src[mask], dst[mask]
        if dst.size == 0:
            break
        level += 1
        dist[dst] = level
        frontier = np.flatnonzero(dist == level)
        sigma += np.bincount(dst, weights=sigma[src], minlength=num_nodes)
        level_edges.append((src, dst))

    delta = np.zeros(num_nodes, dtype=np.float64)
    for src, dst in reversed(level_edges):
        contrib = sigma[src] / sigma[dst] * (target_weight[dst] + delta[dst])
        delta += np.bincount(src, weights=contrib, minlength=num_nodes)

    delta[source] = 0.0
    return delta


def betweenness_score_map(
    graph: BipartiteGraph,
    sample_size: Optional[int] = None,
    seed: Optional[int] = None,
    normalized: bool = True,
    endpoints: str = "all",
    execution: Optional["ExecutionConfig"] = None,
    state_out: Optional[dict] = None,
) -> Dict[str, float]:
    """Betweenness of *value* nodes keyed by value name."""
    scores = betweenness_scores(
        graph,
        sample_size=sample_size,
        seed=seed,
        normalized=normalized,
        endpoints=endpoints,
        execution=execution,
        state_out=state_out,
    )
    return {
        graph.value_name(v): float(scores[v])
        for v in range(graph.num_values)
    }
