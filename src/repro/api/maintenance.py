"""Delta-scoped score maintenance for cached detection results.

When a lake mutation is applied as a CSR splice
(:meth:`~repro.core.graph.BipartiteGraph.splice_rows`), the cached
``DetectResponse`` entries do not have to be dropped: each measure's
dependence on the graph is local enough that only a delta-sized part of
its scores can have changed.  This module patches cached entries so
they are **bit-identical** to recomputing the measure from scratch on
the new graph:

* **Affected set** — one BFS closure over the new graph seeded from
  the splice frontiers marks every node whose connected component
  gained or lost structure.  Per-source measures (Brandes betweenness,
  RK path samples) contribute exactly ``+0.0`` across components, so
  scores outside the affected set carry over bitwise.
* **LCC** is 2-hop local (3-hop for the ``value-neighbors`` variant):
  only values adjacent to a spliced attribute (plus one neighbor
  expansion for the literal-Eq.-1 variant) are recomputed, through the
  ``"lcc_subset"`` kernel.
* **Exact betweenness** re-runs Brandes only from affected sources as
  one ordered chunk (:meth:`~repro.perf.ExecutionBackend.map_sources`),
  carries the raw accumulator elsewhere, and renormalizes.  Requires
  the original run to have been a single chunk, so float association
  matches.
* **Sampled betweenness / RK** additionally require stable node ids
  (the RNG draws are replayed against the new graph) and, for RK, an
  unchanged derived sample size.

Every patcher returns ``None`` when its preconditions fail or the
affected fraction exceeds :data:`AFFECTED_FRACTION_LIMIT` — the caller
then evicts the entry and the next detect recomputes it in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from typing import Dict, Optional

import numpy as np

from ..core.approx import _approximate_vertex_diameter, sample_size_bound
from ..core.graph import BipartiteGraph, GraphDelta, frontier_edges
from ..core.ranking import HomographRanking
from ..perf.backends import ExecutionBackend
from .requests import DetectResponse

#: Evict (full recompute on next detect) instead of patching when the
#: delta touches more than this fraction of an entry's work items.
AFFECTED_FRACTION_LIMIT = 0.5


@dataclass(frozen=True)
class PatchResult:
    """A successfully patched cache entry.

    ``response`` carries the updated scores/ranking, ``state`` is the
    refreshed maintenance payload for the *next* mutation, and
    ``recomputed`` counts the sources / samples / values actually
    re-scored (the delta-cost evidence surfaced in mutation stats).
    """

    response: DetectResponse
    state: Dict[str, object]
    recomputed: int


def affected_nodes(
    graph: BipartiteGraph, delta: GraphDelta
) -> np.ndarray:
    """Boolean mask over new-graph nodes whose component changed.

    Seeds are the splice frontiers — surviving endpoints of removed
    edges (mapped into the new id space) plus endpoints of inserted
    edges — expanded to their full connected components in the new
    graph.  Everything outside the mask has a component whose edge set
    is untouched, so traversal-based scores there are bitwise equal to
    the pre-splice run.
    """
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mapped_old = delta.node_map[delta.frontier_old]
    seeds = np.concatenate(
        [mapped_old[mapped_old >= 0], delta.frontier_new]
    )
    if seeds.size == 0:
        return mask
    mask[seeds] = True
    frontier = np.flatnonzero(mask)
    indptr, indices = graph.indptr, graph.indices
    while frontier.size:
        _src, dst = frontier_edges(frontier, indptr, indices)
        fresh = dst[~mask[dst]]
        if fresh.size == 0:
            break
        mask[fresh] = True
        frontier = np.unique(fresh)
    return mask


def patch_entry(
    response: DetectResponse,
    state: object,
    graph: BipartiteGraph,
    delta: GraphDelta,
    mask: np.ndarray,
    backend: ExecutionBackend,
    limit: float = AFFECTED_FRACTION_LIMIT,
) -> Optional[PatchResult]:
    """Patch one cached response onto the spliced graph, or ``None``.

    ``state`` is the maintenance payload captured when the entry was
    computed (``MeasureOutput.state``); entries without one — custom
    measures, snapshot-loaded responses — are not patchable.  ``mask``
    is :func:`affected_nodes` for this splice, shared across entries.
    """
    if not isinstance(state, dict):
        return None
    kind = state.get("kind")
    try:
        if kind == "lcc":
            return _patch_lcc(response, state, graph, delta, mask,
                              backend, limit)
        if kind == "brandes":
            return _patch_brandes(response, state, graph, delta, mask,
                                  backend, limit)
        if kind == "rk":
            return _patch_rk(response, state, graph, delta, mask,
                             backend, limit)
    except (KeyError, ValueError, TypeError):
        return None
    return None


def _rebuild(
    response: DetectResponse, scores: Dict[str, float]
) -> DetectResponse:
    """A response copy with re-ranked scores (same shape as a compute)."""
    ranking = HomographRanking(
        scores, descending=response.descending, measure=response.measure
    )
    return dataclass_replace(response, ranking=ranking, scores=ranking.scores)


def _value_frontiers(delta: GraphDelta) -> np.ndarray:
    """New-space ids of value nodes whose own row the splice rewrote."""
    nv_old = delta.num_values_old
    nv_new = delta.num_values_new
    old_values = delta.frontier_old[delta.frontier_old < nv_old]
    mapped = delta.node_map[old_values]
    new_values = delta.frontier_new[delta.frontier_new < nv_new]
    return np.concatenate([mapped[mapped >= 0], new_values])


def _attr_frontiers(delta: GraphDelta) -> np.ndarray:
    """New-space ids of attribute nodes the splice rewrote."""
    nv_old = delta.num_values_old
    nv_new = delta.num_values_new
    old_attrs = delta.frontier_old[delta.frontier_old >= nv_old]
    mapped = delta.node_map[old_attrs]
    new_attrs = delta.frontier_new[delta.frontier_new >= nv_new]
    return np.concatenate([mapped[mapped >= 0], new_attrs])


def _patch_lcc(
    response: DetectResponse,
    state: Dict[str, object],
    graph: BipartiteGraph,
    delta: GraphDelta,
    mask: np.ndarray,
    backend: ExecutionBackend,
    limit: float,
) -> Optional[PatchResult]:
    """Recompute LCC only for values whose 2-hop neighborhood changed.

    ``LCC(u)`` reads ``u``'s adjacency row and the rows of ``u``'s
    attributes, so it changes iff ``u``'s row was rewritten or ``u``
    is adjacent to a rewritten attribute.  The ``value-neighbors``
    variant also reads ``N(v)`` for every value neighbor ``v``, adding
    one more expansion hop.  Per-value independence makes the subset
    recompute bit-identical to the same slots of a full sweep.
    """
    variant = state["variant"]
    nv = graph.num_values
    indptr, indices = graph.indptr, graph.indices

    attr_frontier = np.unique(_attr_frontiers(delta))
    affected = [_value_frontiers(delta)]
    if attr_frontier.size:
        _src, dst = frontier_edges(attr_frontier, indptr, indices)
        affected.append(dst)
    base = np.unique(np.concatenate(affected)) if affected else (
        np.empty(0, dtype=np.int64)
    )
    if variant == "value-neighbors" and base.size:
        # One more hop: values sharing an attribute with the base set.
        _s, attrs = frontier_edges(base, indptr, indices)
        attrs = np.unique(attrs)
        _s, neighbors = frontier_edges(attrs, indptr, indices)
        base = np.unique(np.concatenate([base, neighbors]))
    affected_values = base[base < nv] if base.size else base

    if nv and affected_values.size > limit * nv:
        return None

    patched = np.zeros(affected_values.size, dtype=np.float64)
    if affected_values.size:
        payloads = [
            affected_values[lo:hi]
            for lo, hi in backend.spans(affected_values.size)
        ]
        partials = backend.map_chunks(
            graph, "lcc_subset", payloads, {"variant": variant}
        )
        position = {int(v): i for i, v in enumerate(affected_values)}
        for ids, segment in partials:
            for v, score in zip(ids, segment):
                patched[position[int(v)]] = score

    affected_set = set(affected_values.tolist())
    old_scores = dict(zip(*response.ranking.columns()))
    fresh = iter(patched.tolist())
    scores: Dict[str, float] = {}
    for v, name in enumerate(graph.value_names):
        if v in affected_set:
            scores[name] = next(fresh)
        else:
            carried = old_scores.get(name)
            if carried is None:
                return None  # should be unreachable; stay safe
            scores[name] = carried
    return PatchResult(
        response=_rebuild(response, scores),
        state={"kind": "lcc", "variant": variant},
        recomputed=int(affected_values.size),
    )


def _patch_brandes(
    response: DetectResponse,
    state: Dict[str, object],
    graph: BipartiteGraph,
    delta: GraphDelta,
    mask: np.ndarray,
    backend: ExecutionBackend,
    limit: float,
) -> Optional[PatchResult]:
    """Re-run Brandes only from sources in affected components.

    A source outside every affected component has a BFS DAG identical
    (under the monotonic id map) to its pre-splice run, and its
    dependency vector is exactly zero on affected components — so the
    raw accumulator carries over bitwise and only affected sources are
    replayed, in their original order, as one chunk.
    """
    request = response.request
    if request is None:
        return None
    if state["chunks"] != 1 or state.get("strategy") != "uniform":
        return None
    n = graph.num_nodes
    nv = graph.num_values
    if n == 0:
        return None
    eligible = (
        np.arange(n, dtype=np.int64)
        if request.endpoints == "all"
        else np.arange(nv, dtype=np.int64)
    )
    sample_size = request.sample_size
    would_sample = (
        sample_size is not None and sample_size < eligible.size
    )
    if would_sample != bool(state["sampled"]):
        return None
    if would_sample:
        # Replaying the identical choice() draw needs the identical
        # population: same ids, same eligible count.
        if not delta.ids_stable or state["eligible"] != eligible.size:
            return None
        rng = np.random.default_rng(request.seed)
        sources = rng.choice(eligible, size=sample_size, replace=False)
        weights = np.full(sample_size, eligible.size / sample_size)
    else:
        sources = eligible
        weights = np.ones(eligible.size, dtype=np.float64)

    source_mask = mask[sources]
    affected_sources = sources[source_mask]
    if sources.size and affected_sources.size > limit * sources.size:
        return None

    raw_old = state["raw_values"]
    if raw_old.shape != (delta.num_values_old,):
        return None
    raw_new = np.zeros(nv, dtype=np.float64)
    value_map = delta.value_map
    survivors = np.flatnonzero(value_map >= 0)
    raw_new[value_map[survivors]] = raw_old[survivors]
    patch = backend.map_sources(
        graph, "brandes", affected_sources, weights[source_mask],
        {"endpoints": request.endpoints},
    )
    affected_values = np.flatnonzero(mask[:nv])
    raw_new[affected_values] = patch[:nv][affected_values]

    if state["normalized"]:
        pairs = (eligible.size - 1) * (eligible.size - 2)
        values = raw_new / pairs if pairs > 0 else np.zeros_like(raw_new)
    else:
        values = raw_new / 2.0
    scores = dict(zip(graph.value_names, values.tolist()))
    return PatchResult(
        response=_rebuild(response, scores),
        state={
            "kind": "brandes",
            "raw_values": raw_new,
            "chunks": 1,
            "eligible": int(eligible.size),
            "sampled": would_sample,
            "strategy": "uniform",
            "normalized": state["normalized"],
        },
        recomputed=int(affected_sources.size),
    )


def _patch_rk(
    response: DetectResponse,
    state: Dict[str, object],
    graph: BipartiteGraph,
    delta: GraphDelta,
    mask: np.ndarray,
    backend: ExecutionBackend,
    limit: float,
) -> Optional[PatchResult]:
    """Replay only the RK path samples whose pair touches the delta.

    The RNG schedule is re-derived against the new graph: the diameter
    probes consume the same number of draws, so if the derived sample
    count matches, the (u, v) pairs and per-sample walk seeds are
    identical — and a sample whose endpoints lie outside every
    affected component walks a bitwise-identical path.
    """
    if state["chunks"] != 1 or not delta.ids_stable:
        return None
    n = graph.num_nodes
    nv = graph.num_values
    if state["nodes"] != n or n < 3:
        return None
    params = response.parameters
    epsilon = float(params["epsilon"])
    confidence_delta = float(params["delta"])
    c = float(params["c"])
    max_samples = params.get("max_samples")
    seed = params.get("seed")

    rng = np.random.default_rng(seed)
    diameter = _approximate_vertex_diameter(graph, rng)
    r = sample_size_bound(epsilon, confidence_delta, diameter, c=c)
    if max_samples is not None:
        r = min(r, int(max_samples))
    if r != state["samples"] or r <= 0:
        return None
    pairs = rng.integers(0, n, size=(r, 2))
    walk_seeds = np.random.SeedSequence(seed).spawn(r)

    sample_mask = mask[pairs[:, 0]] | mask[pairs[:, 1]]
    affected_count = int(np.count_nonzero(sample_mask))
    if affected_count > limit * r:
        return None

    acc_old = state["acc_values"]
    if acc_old.shape != (nv,):
        return None
    acc_new = acc_old.copy()
    affected_values = np.flatnonzero(mask[:nv])
    if affected_count:
        seeds_subset = [
            s for s, m in zip(walk_seeds, sample_mask) if m
        ]
        partials = backend.map_chunks(
            graph, "rk", [(pairs[sample_mask], seeds_subset)],
            {"inv_r": 1.0 / r},
        )
        patch = partials[0]
        acc_new[affected_values] = patch[:nv][affected_values]
    else:
        acc_new[affected_values] = 0.0

    values = acc_new * (n / (n - 2))
    scores = dict(zip(graph.value_names, values.tolist()))
    return PatchResult(
        response=_rebuild(response, scores),
        state={
            "kind": "rk",
            "acc_values": acc_new,
            "chunks": 1,
            "samples": r,
            "nodes": n,
        },
        recomputed=affected_count,
    )
