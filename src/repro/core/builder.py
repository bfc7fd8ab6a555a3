"""Build the DomainNet bipartite graph from a data lake.

Step 1 of the pipeline in Figure 4.  The builder makes one pass over
every table, normalizes cell values, and emits a
:class:`~repro.core.graph.BipartiteGraph` with one node per distinct
normalized value and one per attribute.

Pruning: homograph candidates must appear in at least two attributes, so
the detector usually asks for ``min_value_degree=2``, which reproduces
the paper's preprocessing ("about 3% fewer nodes in the TUS benchmark and
30% fewer in SB").  Building with ``min_value_degree=1`` keeps every
value node — that is the graph used for the running-example scores in
Example 3.6.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from ..datalake.lake import DataLake
from .graph import BipartiteGraph
from .normalize import normalize_column, normalize_value


def build_graph(
    lake: DataLake,
    min_value_degree: int = 1,
    min_occurrences: int = 1,
) -> BipartiteGraph:
    """Construct the bipartite value–attribute graph of a lake.

    Parameters
    ----------
    lake:
        The data lake to represent.
    min_value_degree:
        Keep only values appearing in at least this many *attributes*.
        ``2`` keeps strict homograph candidates only.
    min_occurrences:
        Keep only values with at least this many cell occurrences
        across the whole lake (duplicates within a column count).
        ``2`` is the paper's preprocessing — "remove data values that
        appear only once in the data lake" — which keeps values that
        repeat inside a single column as graph nodes even though they
        cannot themselves be homographs.
    """
    if min_value_degree < 1:
        raise ValueError("min_value_degree must be >= 1")
    if min_occurrences < 1:
        raise ValueError("min_occurrences must be >= 1")

    value_ids: Dict[str, int] = {}
    value_names: List[str] = []
    occurrences: List[int] = []
    attribute_names: List[str] = []
    edges: List[Tuple[int, int]] = []

    for column in lake.iter_attributes():
        attr_id = len(attribute_names)
        attribute_names.append(column.qualified_name)
        counts = _occurrence_counts(column.values)
        for value, count in counts.items():
            vid = value_ids.get(value)
            if vid is None:
                vid = len(value_names)
                value_ids[value] = vid
                value_names.append(value)
                occurrences.append(0)
            occurrences[vid] += count
            edges.append((vid, attr_id))

    degree = [0] * len(value_names)
    for vid, _ in edges:
        degree[vid] += 1

    keep = [
        v
        for v in range(len(value_names))
        if degree[v] >= min_value_degree and occurrences[v] >= min_occurrences
    ]
    if len(keep) < len(value_names):
        remap = {old: new for new, old in enumerate(keep)}
        value_names = [value_names[v] for v in keep]
        edges = [
            (remap[vid], attr_id) for vid, attr_id in edges if vid in remap
        ]

    return BipartiteGraph(value_names, attribute_names, edges)


def _occurrence_counts(values) -> Dict[str, int]:
    """Occurrence count per normalized non-empty value of one column.

    Keys come in first-appearance order.  Each distinct raw cell is
    normalized once: Counter keeps first-appearance order, so the
    first raw spelling of each normalized value inserts it where a
    walk over the cells would.
    """
    counts: Dict[str, int] = {}
    for raw, count in Counter(values).items():
        value = normalize_value(raw)
        if value:
            counts[value] = counts.get(value, 0) + count
    return counts


def build_graph_from_columns(
    columns: Dict[str, List[str]],
    min_value_degree: int = 1,
) -> BipartiteGraph:
    """Convenience builder from a plain ``{attribute: values}`` mapping.

    Handy in tests and small examples where constructing full
    :class:`~repro.datalake.table.Table` objects is noise.  Attribute
    names are used verbatim as qualified names.
    """
    value_ids: Dict[str, int] = {}
    value_names: List[str] = []
    attribute_names: List[str] = []
    edges: List[Tuple[int, int]] = []

    for attr_name, raw_values in columns.items():
        attr_id = len(attribute_names)
        attribute_names.append(attr_name)
        for value in normalize_column(raw_values):
            vid = value_ids.get(value)
            if vid is None:
                vid = len(value_names)
                value_ids[value] = vid
                value_names.append(value)
            edges.append((vid, attr_id))

    graph = BipartiteGraph(value_names, attribute_names, edges)
    if min_value_degree > 1:
        graph = graph.prune_values(min_value_degree)
    return graph
