"""Compute kernels the execution backends fan out over chunks.

A *kernel* is a pure function ``(ctx, payload, common) -> partial``
where ``ctx`` is a :class:`GraphContext` (the CSR arrays plus sizes),
``payload`` is one chunk of the work list, and ``common`` carries the
chunk-independent knobs.  Kernels are registered by name so a task can
be shipped to a worker process as ``(name, payload, common)`` without
pickling code objects.

Four kernels cover the paper's hot paths:

* ``"brandes"`` — per-source Brandes dependency accumulations
  (exact or source-sampled betweenness); partial = weighted score
  vector over all nodes, reduced by :func:`repro.perf.tree_sum`.  It
  runs the C loop of :mod:`repro.perf.native` when that loaded, else
  :func:`brandes_numpy`, bit for bit the same.
* ``"rk"`` — Riondato–Kornaropoulos shortest-path samples; each sample
  carries its own :class:`numpy.random.SeedSequence` so results are
  independent of how samples are chunked across workers.
* ``"lcc"`` — local clustering coefficients for one contiguous range
  of value nodes; partial = ``(lo, hi, segment)``, stitched by the
  caller.
* ``"lcc_subset"`` — the same math over an explicit id set; partial =
  ``(ids, segment)``.  Used by delta maintenance to recompute only the
  values a splice touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from ..core.approx import _sample_shortest_path
from ..core.betweenness import _single_source_dependency
from ..core.lcc import (
    _lcc_attribute_jaccard_ids,
    _lcc_attribute_jaccard_range,
    _lcc_value_neighbors_ids,
    _lcc_value_neighbors_range,
)


@dataclass(frozen=True)
class GraphContext:
    """The slice of a graph a kernel needs: CSR arrays and sizes.

    Workers rebuild this from shared memory; in-process execution just
    wraps the graph's own (read-only) arrays.
    """

    indptr: np.ndarray
    indices: np.ndarray
    num_nodes: int
    num_values: int

    @classmethod
    def from_graph(cls, graph) -> "GraphContext":
        """Wrap a graph's own CSR arrays (no copy) for in-process use."""
        return cls(
            indptr=graph.indptr,
            indices=graph.indices,
            num_nodes=graph.num_nodes,
            num_values=graph.num_values,
        )


Kernel = Callable[[GraphContext, object, Mapping], object]

_KERNELS: Dict[str, Kernel] = {}


def register_kernel(name: str) -> Callable[[Kernel], Kernel]:
    """Decorator registering a kernel under ``name``.

    Registered kernels can be shipped to worker processes by name;
    re-registering a name overrides it for every backend.  The
    built-in ``"brandes"`` kernel already runs native code when it can
    (:mod:`repro.perf.native`).
    """
    def _register(fn: Kernel) -> Kernel:
        _KERNELS[name] = fn
        return fn

    return _register


def get_kernel(name: str) -> Kernel:
    """Look up a kernel by name, raising ``ValueError`` if unknown."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; registered: {sorted(_KERNELS)}"
        ) from None


def _target_weight(endpoints: str, ctx: GraphContext) -> np.ndarray:
    """Per-node target weights for the chosen endpoint mode."""
    if endpoints == "all":
        return np.ones(ctx.num_nodes, dtype=np.float64)
    weight = np.zeros(ctx.num_nodes, dtype=np.float64)
    weight[: ctx.num_values] = 1.0
    return weight


@register_kernel("brandes")
def brandes_kernel(
    ctx: GraphContext,
    payload: Tuple[np.ndarray, np.ndarray],
    common: Mapping,
) -> np.ndarray:
    """Weighted sum of single-source dependency vectors for one chunk.

    Runs the native loop (:mod:`repro.perf.native`, compiled on the
    first call in a process) when it loaded, else
    :func:`brandes_numpy`; the two give the same bits.
    """
    from . import native  # imported with the first call: reads never pay

    functions = native.library()
    if functions is None:
        return brandes_numpy(ctx, payload, common)
    sources, weights = payload
    n_targets = (
        ctx.num_nodes if common["endpoints"] == "all" else ctx.num_values
    )
    return native.accumulate(functions, ctx, sources, weights, n_targets)


def brandes_numpy(
    ctx: GraphContext,
    payload: Tuple[np.ndarray, np.ndarray],
    common: Mapping,
) -> np.ndarray:
    """The numpy ``"brandes"`` loop: fallback and bit-for-bit reference."""
    sources, weights = payload
    target_weight = _target_weight(common["endpoints"], ctx)
    acc = np.zeros(ctx.num_nodes, dtype=np.float64)
    for source, weight in zip(sources, weights):
        acc += weight * _single_source_dependency(
            int(source), ctx.indptr, ctx.indices, ctx.num_nodes,
            target_weight,
        )
    return acc


@register_kernel("rk")
def rk_kernel(
    ctx: GraphContext,
    payload: Tuple[np.ndarray, list],
    common: Mapping,
) -> np.ndarray:
    """Path-sample accumulation for one chunk of (u, v, seed) draws."""
    pairs, seeds = payload
    inv_r = common["inv_r"]
    acc = np.zeros(ctx.num_nodes, dtype=np.float64)
    for (u, v), seed_seq in zip(pairs, seeds):
        u, v = int(u), int(v)
        if u == v:
            continue
        rng = np.random.default_rng(seed_seq)
        path = _sample_shortest_path(
            u, v, ctx.indptr, ctx.indices, ctx.num_nodes, rng
        )
        if path:
            acc[path] += inv_r
    return acc


@register_kernel("lcc_subset")
def lcc_subset_kernel(
    ctx: GraphContext,
    payload: np.ndarray,
    common: Mapping,
) -> Tuple[np.ndarray, np.ndarray]:
    """LCC scores for an explicit set of value-node ids.

    Delta maintenance recomputes only the values whose neighborhoods a
    splice touched; per-value independence makes the subset result
    bit-identical to the same slots of a full sweep.
    """
    ids = np.asarray(payload, dtype=np.int64)
    if common["variant"] == "attribute-jaccard":
        segment = _lcc_attribute_jaccard_ids(ctx.indptr, ctx.indices, ids)
    else:
        segment = _lcc_value_neighbors_ids(ctx.indptr, ctx.indices, ids)
    return ids, segment


@register_kernel("lcc")
def lcc_kernel(
    ctx: GraphContext,
    payload: Tuple[int, int],
    common: Mapping,
) -> Tuple[int, int, np.ndarray]:
    """LCC scores for the value-node range ``[lo, hi)``."""
    lo, hi = payload
    if common["variant"] == "attribute-jaccard":
        segment = _lcc_attribute_jaccard_range(
            ctx.indptr, ctx.indices, lo, hi
        )
    else:
        segment = _lcc_value_neighbors_range(ctx.indptr, ctx.indices, lo, hi)
    return lo, hi, segment
