"""Compact bipartite value–attribute graph.

The DomainNet representation (§3.2): one node per distinct normalized
data value, one node per attribute, and an undirected edge whenever the
value occurs in the attribute.  At data-lake scale (the NYC lake has
~1.5M value nodes and ~2.3M edges) a dict-of-sets graph is too heavy, so
adjacency is stored in CSR form on numpy arrays:

* node ids ``0 … num_values-1`` are value nodes,
* node ids ``num_values … num_nodes-1`` are attribute nodes,
* ``indptr``/``indices`` hold the symmetric adjacency.

Because the graph is bipartite, every neighbor of a value node is an
attribute node and vice versa; the 2-hop neighborhood of a value node is
its *value neighbors* ``N(v)`` from the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np


class GraphError(ValueError):
    """Raised on invalid graph construction or queries."""


@dataclass(frozen=True)
class SpliceSpec:
    """One CSR splice, expressed as vocabulary maps plus edge inserts.

    Every mutation is normalized to drops and inserts: a node whose
    adjacency row changes is *dropped* (``-1`` in its map) and
    *reinserted* with an explicit edge list, so the splice never has to
    express in-place row edits.  Both maps must be monotonic over the
    surviving ids (survivors keep their relative order) — that is what
    lets :meth:`BipartiteGraph.splice_rows` merge the carried adjacency
    with the inserted edges in one linear pass instead of a global
    re-sort, and it is what keeps per-component float summation order
    identical to a from-scratch rebuild (see docs/architecture.md,
    "Incremental maintenance").

    Attributes
    ----------
    value_names, attribute_names:
        The post-splice vocabularies, in rebuild order.
    value_map:
        ``old value id -> new value id`` (``-1`` drops the row).
    attribute_map:
        ``old attribute index -> new attribute index`` (``-1`` drops).
    new_edges:
        ``(k, 2)`` array of ``(new value id, new attribute index)``
        edges to insert; must not duplicate carried edges.
    """

    value_names: List[str]
    attribute_names: List[str]
    value_map: np.ndarray
    attribute_map: np.ndarray
    new_edges: np.ndarray


@dataclass(frozen=True)
class GraphDelta:
    """What a :meth:`BipartiteGraph.splice_rows` call touched.

    ``node_map`` maps every old node id to its new id (``-1`` =
    dropped).  ``frontier_old`` / ``frontier_new`` are the structural
    change points: old-space endpoints of removed edges and new-space
    endpoints of inserted edges.  Score maintenance seeds its
    affected-component search from the union of both frontiers (old
    side mapped forward); everything unreachable from them is
    bit-identical to the pre-splice graph.
    """

    node_map: np.ndarray
    frontier_old: np.ndarray
    frontier_new: np.ndarray
    num_values_old: int
    num_values_new: int
    num_nodes_new: int
    values_added: int
    values_removed: int
    edges_added: int
    edges_removed: int

    @property
    def value_map(self) -> np.ndarray:
        """The value-node slice of ``node_map``."""
        return self.node_map[: self.num_values_old]

    @property
    def ids_stable(self) -> bool:
        """Whether every old node kept its id (no adds, drops, shifts)."""
        return self.node_map.size == self.num_nodes_new and bool(
            np.array_equal(
                self.node_map,
                np.arange(self.node_map.size, dtype=np.int64),
            )
        )

    @property
    def delta_values(self) -> int:
        """Value rows written by the splice (drops + inserts)."""
        return self.values_added + self.values_removed

    @property
    def delta_edges(self) -> int:
        """Edges written by the splice (removed + inserted)."""
        return self.edges_added + self.edges_removed


def frontier_edges(
    frontier: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(u, neighbor)`` pairs for ``u`` in the frontier, flat.

    The shared frontier-expansion step of every level-synchronous BFS
    in the codebase (Brandes, vertex-diameter probes, connected
    components): gathers each frontier node's CSR adjacency run into
    two aligned arrays without a Python loop over nodes.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Flat positions into `indices`: for each frontier node, the run
    # [start, start+count); built without a Python loop.
    run_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offsets = np.arange(total) - np.repeat(run_starts, counts)
    flat = np.repeat(starts, counts) + offsets
    src = np.repeat(frontier, counts)
    return src, indices[flat]


def value_neighbors_csr(
    indptr: np.ndarray, indices: np.ndarray, value_node: int
) -> np.ndarray:
    """The paper's ``N(v)`` computed on raw CSR arrays.

    Union of the value sets of the attributes containing ``value_node``,
    minus the value itself; sorted.  Shared by
    :meth:`BipartiteGraph.value_neighbors` and the perf kernels (which
    hold only the arrays, not a graph object) so the neighbor
    semantics live in exactly one place.
    """
    attrs = indices[indptr[value_node]:indptr[value_node + 1]]
    if attrs.size == 0:
        return np.empty(0, dtype=np.int64)
    pieces = [indices[indptr[a]:indptr[a + 1]] for a in attrs]
    union = np.unique(np.concatenate(pieces))
    return union[union != value_node]


class BipartiteGraph:
    """Immutable CSR bipartite graph over value and attribute nodes."""

    def __init__(
        self,
        value_names: Sequence[str],
        attribute_names: Sequence[str],
        edges: Iterable[Tuple[int, int]],
    ) -> None:
        """Build the graph from (value_id, attribute_id) pairs.

        ``value_id`` indexes ``value_names``; ``attribute_id`` indexes
        ``attribute_names``.  Duplicate edges collapse; self-loops cannot
        exist by construction (the two endpoints live in different id
        spaces).
        """
        self._value_names: List[str] = list(value_names)
        self._attribute_names: List[str] = list(attribute_names)
        if len(set(self._value_names)) != len(self._value_names):
            raise GraphError("duplicate value names")
        if len(set(self._attribute_names)) != len(self._attribute_names):
            raise GraphError("duplicate attribute names")

        n_val = len(self._value_names)
        n_attr = len(self._attribute_names)
        n = n_val + n_attr

        if isinstance(edges, np.ndarray):
            edge_array = np.asarray(edges, dtype=np.int64)
        else:
            edge_array = np.asarray(list(edges), dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError("edges must be (value_id, attribute_id) pairs")
        if edge_array.size:
            if edge_array[:, 0].min() < 0 or edge_array[:, 0].max() >= n_val:
                raise GraphError("value id out of range")
            if edge_array[:, 1].min() < 0 or edge_array[:, 1].max() >= n_attr:
                raise GraphError("attribute id out of range")

        # Deduplicate, then symmetrize into global node-id space.
        if edge_array.size:
            keys = edge_array[:, 0] * n_attr + edge_array[:, 1]
            unique_keys = np.unique(keys)
            values = (unique_keys // n_attr).astype(np.int64)
            attrs = (unique_keys % n_attr).astype(np.int64) + n_val
        else:
            values = np.empty(0, dtype=np.int64)
            attrs = np.empty(0, dtype=np.int64)

        src = np.concatenate([values, attrs])
        dst = np.concatenate([attrs, values])
        # One lexsort orders by source node and, within each adjacency
        # run, by neighbor id — every adjacency list comes out sorted
        # without a per-node Python sort loop.
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]

        self._indptr = np.zeros(n + 1, dtype=np.int64)
        self._indptr[1:] = np.cumsum(np.bincount(src, minlength=n))
        self._indices = np.ascontiguousarray(dst)
        # The CSR arrays are shared across worker processes and exposed
        # through read-only properties; freeze them for real.
        self._indptr.flags.writeable = False
        self._indices.flags.writeable = False

        self._value_ids: Dict[str, int] = {
            name: i for i, name in enumerate(self._value_names)
        }
        self._attribute_ids: Dict[str, int] = {
            name: n_val + i for i, name in enumerate(self._attribute_names)
        }

    @classmethod
    def from_csr(
        cls,
        value_names: Sequence[str],
        attribute_names: Sequence[str],
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "BipartiteGraph":
        """Adopt pre-built CSR arrays without re-deriving them.

        The snapshot loader's constructor: ``indptr``/``indices`` are
        taken by reference (they may be read-only ``np.memmap`` views
        over a snapshot file), validated structurally — length,
        monotonicity, symmetric edge count, index range, strictly
        ascending rows (what :meth:`splice_rows` merges assume) — and
        frozen.  Raises :class:`GraphError` on any inconsistency.
        """
        n_val = len(value_names)
        n = n_val + len(attribute_names)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("CSR arrays must be one-dimensional")
        if indptr.shape[0] != n + 1:
            raise GraphError(
                f"indptr has {indptr.shape[0]} entries; expected "
                f"{n + 1} for {n} nodes"
            )
        if indptr.shape[0] and (
            int(indptr[0]) != 0 or int(indptr[-1]) != indices.shape[0]
        ):
            raise GraphError(
                "indptr does not span the indices array exactly"
            )
        if indptr.shape[0] > 1 and bool(np.any(np.diff(indptr) < 0)):
            raise GraphError("indptr must be non-decreasing")
        if indices.shape[0] % 2 != 0:
            raise GraphError(
                "symmetric CSR adjacency must hold an even entry count"
            )
        if indices.shape[0] and (
            int(indices.min()) < 0 or int(indices.max()) >= n
        ):
            raise GraphError("neighbor id out of range")
        # Each row strictly ascending: a non-increasing step is only
        # allowed where a row starts.
        unsorted = np.diff(indices) <= 0
        starts = indptr[1:-1]
        starts = starts[(starts > 0) & (starts < indices.shape[0])]
        unsorted[starts - 1] = False
        if bool(unsorted.any()):
            raise GraphError(
                "CSR rows must be strictly ascending (sorted, without "
                "duplicate neighbors)"
            )

        graph = cls.__new__(cls)
        graph._value_names = list(value_names)
        graph._attribute_names = list(attribute_names)
        if len(set(graph._value_names)) != len(graph._value_names):
            raise GraphError("duplicate value names")
        if len(set(graph._attribute_names)) != len(
            graph._attribute_names
        ):
            raise GraphError("duplicate attribute names")
        if indptr.dtype != np.int64 or indices.dtype != np.int64:
            raise GraphError("CSR arrays must be int64")
        # Held by reference, not via asarray: an np.memmap must keep
        # its subclass (filename/offset) so the process backend can
        # export it by file path instead of copying through /dev/shm.
        graph._indptr = indptr
        graph._indices = indices
        # Adopted arrays keep the constructor's invariant: mmap-backed
        # mode="r" arrays are already read-only, in-memory ones are
        # frozen here.
        graph._indptr.flags.writeable = False
        graph._indices.flags.writeable = False
        graph._value_ids = {
            name: i for i, name in enumerate(graph._value_names)
        }
        graph._attribute_ids = {
            name: n_val + i
            for i, name in enumerate(graph._attribute_names)
        }
        return graph

    # ------------------------------------------------------------------
    # Size and id-space queries
    # ------------------------------------------------------------------
    @property
    def num_values(self) -> int:
        return len(self._value_names)

    @property
    def num_attributes(self) -> int:
        return len(self._attribute_names)

    @property
    def num_nodes(self) -> int:
        return self.num_values + self.num_attributes

    @property
    def num_edges(self) -> int:
        return int(self._indices.size // 2)

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers (frozen: ``writeable=False`` is enforced)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices (frozen: ``writeable=False`` is enforced)."""
        return self._indices

    def is_value_node(self, node: int) -> bool:
        return 0 <= node < self.num_values

    def is_attribute_node(self, node: int) -> bool:
        return self.num_values <= node < self.num_nodes

    # ------------------------------------------------------------------
    # Name <-> id
    # ------------------------------------------------------------------
    def value_name(self, node: int) -> str:
        if not self.is_value_node(node):
            raise GraphError(f"node {node} is not a value node")
        return self._value_names[node]

    def attribute_name(self, node: int) -> str:
        if not self.is_attribute_node(node):
            raise GraphError(f"node {node} is not an attribute node")
        return self._attribute_names[node - self.num_values]

    def value_id(self, name: str) -> int:
        try:
            return self._value_ids[name]
        except KeyError:
            raise GraphError(f"no value node named {name!r}") from None

    def attribute_id(self, name: str) -> int:
        try:
            return self._attribute_ids[name]
        except KeyError:
            raise GraphError(f"no attribute node named {name!r}") from None

    def has_value(self, name: str) -> bool:
        return name in self._value_ids

    @property
    def value_names(self) -> List[str]:
        return list(self._value_names)

    @property
    def attribute_names(self) -> List[str]:
        return list(self._attribute_names)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def degree(self, node: int) -> int:
        return int(self._indptr[node + 1] - self._indptr[node])

    def degrees(self) -> np.ndarray:
        """Degree of every node, as an array indexed by node id."""
        return np.diff(self._indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of a node (read-only view)."""
        return self._indices[self._indptr[node]:self._indptr[node + 1]]

    def value_attributes(self, value_node: int) -> np.ndarray:
        """Attribute node ids containing the value (its ``A(v)``)."""
        if not self.is_value_node(value_node):
            raise GraphError(f"node {value_node} is not a value node")
        return self.neighbors(value_node)

    def attribute_values(self, attribute_node: int) -> np.ndarray:
        """Value node ids occurring in the attribute."""
        if not self.is_attribute_node(attribute_node):
            raise GraphError(f"node {attribute_node} is not an attribute node")
        return self.neighbors(attribute_node)

    def value_neighbors(self, value_node: int) -> np.ndarray:
        """The paper's ``N(v)``: values co-occurring with ``value_node``.

        Computed as the union of the value sets of the attributes that
        contain the value, minus the value itself.  Sorted array.
        """
        if not self.is_value_node(value_node):
            raise GraphError(f"node {value_node} is not a value node")
        return value_neighbors_csr(self._indptr, self._indices, value_node)

    def value_cardinality(self, value_node: int) -> int:
        """``|N(v)|`` — the paper's cardinality of a value node."""
        return int(self.value_neighbors(value_node).size)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def prune_values(self, min_degree: int = 2) -> "BipartiteGraph":
        """Drop value nodes appearing in fewer than ``min_degree`` attrs.

        The paper's preprocessing: "DomainNet pre-processes the input to
        remove data values that appear only once in the data lake", i.e.
        keep only homograph *candidates* (values in ≥ 2 attributes) as
        value nodes.  Attribute nodes always survive, even if emptied.
        """
        value_degrees = np.diff(self._indptr[: self.num_values + 1])
        keep = np.flatnonzero(value_degrees >= min_degree)
        return self.subgraph_from_values(keep)

    def subgraph_from_values(
        self, value_nodes: Sequence[int]
    ) -> "BipartiteGraph":
        """Induced subgraph on the given value nodes (all attributes kept)."""
        if not isinstance(value_nodes, np.ndarray):
            value_nodes = list(value_nodes)
        keep = np.unique(np.asarray(value_nodes, dtype=np.int64))
        if keep.size and (keep[0] < 0 or keep[-1] >= self.num_values):
            bad = keep[0] if keep[0] < 0 else keep[-1]
            raise GraphError(f"node {int(bad)} is not a value node")
        names = [self._value_names[int(v)] for v in keep]
        # Every edge incident to a kept value, in one frontier expansion;
        # new value ids are positions in the sorted ``keep`` array.
        src, attrs = frontier_edges(keep, self._indptr, self._indices)
        edges = np.column_stack(
            [np.searchsorted(keep, src), attrs - self.num_values]
        )
        return BipartiteGraph(names, self._attribute_names, edges)

    def subgraph_from_attributes(
        self, attribute_nodes: Sequence[int]
    ) -> "BipartiteGraph":
        """Subgraph induced by attributes and every value inside them.

        This is the footnote-9 extraction procedure used for the Figure 9
        scalability sweep: pick attribute nodes, pull in all their value
        nodes.  Value nodes that end up isolated are dropped.
        """
        if not isinstance(attribute_nodes, np.ndarray):
            attribute_nodes = list(attribute_nodes)
        attrs = np.unique(np.asarray(attribute_nodes, dtype=np.int64))
        if attrs.size and not (
            self.num_values <= attrs[0] and attrs[-1] < self.num_nodes
        ):
            bad = attrs[0] if attrs[0] < self.num_values else attrs[-1]
            raise GraphError(f"node {int(bad)} is not an attribute node")
        src_attr, vals = frontier_edges(attrs, self._indptr, self._indices)
        values = np.unique(vals)
        value_names = [self._value_names[int(v)] for v in values]
        attr_names = [self.attribute_name(int(a)) for a in attrs]
        edges = np.column_stack(
            [np.searchsorted(values, vals), np.searchsorted(attrs, src_attr)]
        )
        return BipartiteGraph(value_names, attr_names, edges)

    # ------------------------------------------------------------------
    # Incremental splicing
    # ------------------------------------------------------------------
    def splice_rows(
        self, spec: SpliceSpec
    ) -> Tuple["BipartiteGraph", GraphDelta]:
        """Patch the CSR arrays into a new graph without a full rebuild.

        Applies a :class:`SpliceSpec` — vocabulary maps plus explicit
        edge inserts — in O(E + delta): the surviving adjacency entries
        are carried over by one vectorized remap (their sort order is
        preserved because the maps are monotonic), the inserted
        symmetric edges are sorted on their own, and the two sorted
        runs merge with two ``searchsorted`` calls, the same
        lexsort-order invariant the constructor establishes.  The
        receiver is never modified (its arrays stay frozen, so
        concurrent readers — and snapshot-mounted ``mmap`` views — are
        safe); copy-on-write happens only for the spliced arrays.

        Returns the new graph plus a :class:`GraphDelta` describing the
        touched node ids and edge counts.  Raises :class:`GraphError`
        on non-monotonic maps, out-of-range ids, or duplicate edge
        inserts.
        """
        n_val_old = self.num_values
        n_attr_old = self.num_attributes
        n_old = self.num_nodes
        n_val_new = len(spec.value_names)
        n_attr_new = len(spec.attribute_names)
        n_new = n_val_new + n_attr_new

        value_map = np.ascontiguousarray(spec.value_map, dtype=np.int64)
        attr_map = np.ascontiguousarray(spec.attribute_map, dtype=np.int64)
        if value_map.shape != (n_val_old,) or attr_map.shape != (n_attr_old,):
            raise GraphError("splice maps must cover the old vocabularies")
        if value_map.size and int(value_map.max()) >= n_val_new:
            raise GraphError("value_map points past the new vocabulary")
        if attr_map.size and int(attr_map.max()) >= n_attr_new:
            raise GraphError("attribute_map points past the new vocabulary")
        node_map = np.concatenate([
            value_map,
            np.where(attr_map >= 0, attr_map + n_val_new, -1),
        ])

        # Carry every old adjacency entry whose endpoints both survive.
        old_src = np.repeat(
            np.arange(n_old, dtype=np.int64), np.diff(self._indptr)
        )
        mapped_src = node_map[old_src]
        mapped_dst = node_map[self._indices]
        carry = (mapped_src >= 0) & (mapped_dst >= 0)
        carried_src = mapped_src[carry]
        carried_dst = mapped_dst[carry]
        carried_key = carried_src * n_new + carried_dst
        if carried_key.size > 1 and bool(np.any(np.diff(carried_key) <= 0)):
            raise GraphError(
                "splice maps must be monotonic over surviving ids"
            )

        new_edges = np.asarray(spec.new_edges, dtype=np.int64)
        if new_edges.size == 0:
            new_edges = new_edges.reshape(0, 2)
        if new_edges.ndim != 2 or new_edges.shape[1] != 2:
            raise GraphError(
                "new_edges must be (value_id, attribute_id) pairs"
            )
        if new_edges.size:
            if new_edges[:, 0].min() < 0 or new_edges[:, 0].max() >= n_val_new:
                raise GraphError("inserted value id out of range")
            if new_edges[:, 1].min() < 0 or new_edges[:, 1].max() >= n_attr_new:
                raise GraphError("inserted attribute id out of range")

        # Symmetrize and sort the inserted edges on the same
        # (src, dst) key the carried entries are already sorted by.
        ins_v = new_edges[:, 0]
        ins_a = new_edges[:, 1] + n_val_new
        ins_src = np.concatenate([ins_v, ins_a])
        ins_dst = np.concatenate([ins_a, ins_v])
        ins_key = ins_src * n_new + ins_dst
        order = np.argsort(ins_key, kind="stable")
        ins_key = ins_key[order]
        ins_src = ins_src[order]
        ins_dst = ins_dst[order]
        if ins_key.size > 1 and bool(np.any(np.diff(ins_key) == 0)):
            raise GraphError("duplicate edge insert")
        if ins_key.size and carried_key.size:
            pos = np.searchsorted(carried_key, ins_key)
            pos_clipped = np.minimum(pos, carried_key.size - 1)
            if bool(np.any(carried_key[pos_clipped] == ins_key)):
                raise GraphError("inserted edge already present")

        # Two-way merge of the sorted runs: each element's final slot
        # is its own rank plus the count of smaller elements in the
        # other run — no global sort.
        total = carried_key.size + ins_key.size
        merged_dst = np.empty(total, dtype=np.int64)
        merged_dst[
            np.arange(carried_key.size)
            + np.searchsorted(ins_key, carried_key)
        ] = carried_dst
        merged_dst[
            np.arange(ins_key.size)
            + np.searchsorted(carried_key, ins_key)
        ] = ins_dst
        counts = (
            np.bincount(carried_src, minlength=n_new)
            + np.bincount(ins_src, minlength=n_new)
        )
        new_indptr = np.zeros(n_new + 1, dtype=np.int64)
        new_indptr[1:] = np.cumsum(counts)

        graph = BipartiteGraph.from_csr(
            spec.value_names,
            spec.attribute_names,
            new_indptr,
            np.ascontiguousarray(merged_dst),
        )

        survivors = int(np.count_nonzero(value_map >= 0))
        frontier_old = np.unique(old_src[~carry])
        frontier_new = np.unique(ins_src)
        delta = GraphDelta(
            node_map=node_map,
            frontier_old=frontier_old,
            frontier_new=frontier_new,
            num_values_old=n_val_old,
            num_values_new=n_val_new,
            num_nodes_new=n_new,
            values_added=n_val_new - survivors,
            values_removed=n_val_old - survivors,
            edges_added=int(new_edges.shape[0]),
            edges_removed=self.num_edges
            - int(carried_key.size) // 2,
        )
        return graph, delta

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a :mod:`networkx` graph for cross-checking in tests.

        Value nodes become ``("val", name)``; attribute nodes become
        ``("attr", name)``.
        """
        import networkx as nx

        graph = nx.Graph()
        for v, name in enumerate(self._value_names):
            graph.add_node(("val", name))
        for name in self._attribute_names:
            graph.add_node(("attr", name))
        for v in range(self.num_values):
            for a in self.value_attributes(v):
                graph.add_edge(
                    ("val", self._value_names[v]),
                    ("attr", self.attribute_name(int(a))),
                )
        return graph

    def connected_components(self) -> List[np.ndarray]:
        """Connected components as arrays of node ids (largest first)."""
        n = self.num_nodes
        labels = np.full(n, -1, dtype=np.int64)
        current = 0
        for start in range(n):
            if labels[start] >= 0:
                continue
            frontier = np.array([start], dtype=np.int64)
            labels[start] = current
            while frontier.size:
                _src, neighbors = frontier_edges(
                    frontier, self._indptr, self._indices
                )
                if neighbors.size == 0:
                    break
                candidates = np.unique(neighbors)
                fresh = candidates[labels[candidates] < 0]
                labels[fresh] = current
                frontier = fresh
            current += 1
        components = [
            np.flatnonzero(labels == c) for c in range(current)
        ]
        components.sort(key=len, reverse=True)
        return components

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BipartiteGraph(values={self.num_values}, "
            f"attributes={self.num_attributes}, edges={self.num_edges})"
        )
