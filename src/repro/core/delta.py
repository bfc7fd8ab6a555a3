"""Delta planning: lake mutations -> CSR splice specifications.

:func:`~repro.core.builder.build_graph` assigns value ids in
first-encounter order over ``lake.iter_attributes()`` and keeps a value
iff its lake-wide occurrence count clears the threshold.  To splice a
mutation into an existing graph *bit-identically* to a from-scratch
rebuild, the planner must therefore reproduce two things the graph
alone no longer remembers:

* the occurrence count of every value (survivors of the pruning
  threshold can cross it in either direction when a table changes), and
* each value's rebuild-order key — ``(position of its first containing
  attribute, first-appearance rank within that column)`` — which
  decides where a (re)inserted value id lands.

:class:`LakeLedger` keeps both, maintained in O(delta) per mutation
after one O(lake) bootstrap pass.  :func:`plan_mutation` turns one
table-level mutation (add / remove / replace, normalized to "columns
removed + columns added") into a :class:`~repro.core.graph.SpliceSpec`,
treating every touched value as drop-plus-reinsert so the id maps stay
monotonic over untouched survivors.  It returns ``None`` when the
ledger and graph disagree (the caller falls back to a full rebuild,
which is always correct).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datalake.lake import DataLake
from ..datalake.table import Table
from .builder import _occurrence_counts
from .graph import BipartiteGraph, SpliceSpec
from .normalize import normalize_value

#: One value's per-attribute bookkeeping: ``qualified name ->
#: (occurrence count, first-appearance rank within the column)``.
ValueRecord = Dict[str, Tuple[int, int]]


class LakeLedger:
    """Per-value occurrence counts and rebuild-order ranks of a lake.

    The ledger is keyed by *normalized* value, exactly as the graph
    builder normalizes cells, and by qualified attribute name, so it
    stays valid across the attribute-position shifts a mutation
    causes.  It intentionally stores nothing derivable from the graph
    (edges, ids); only what a rebuild would need and a splice cannot
    recover: totals and within-column ranks.
    """

    def __init__(self) -> None:
        self._values: Dict[str, ValueRecord] = {}

    @classmethod
    def from_lake(cls, lake: DataLake) -> "LakeLedger":
        """Bootstrap the ledger with one pass over the lake.

        The same records as :meth:`ingest_column` of every column's
        :func:`~repro.core.builder._occurrence_counts`, built in one
        loop: each distinct raw cell of the lake is normalized once.
        """
        ledger = cls()
        values = ledger._values
        normalized: Dict[str, str] = {}
        for column in lake.iter_attributes():
            qname = column.qualified_name
            rank = 0
            for raw, count in Counter(column.values).items():
                value = normalized.get(raw)
                if value is None:
                    value = normalized[raw] = normalize_value(raw)
                if not value:
                    continue
                record = values.get(value)
                if record is None:
                    values[value] = {qname: (count, rank)}
                elif qname in record:
                    # Another raw spelling of a value this column has.
                    first_count, first_rank = record[qname]
                    record[qname] = (first_count + count, first_rank)
                    continue
                else:
                    record[qname] = (count, rank)
                rank += 1
        return ledger

    def ingest_column(
        self, qualified_name: str, counts: Dict[str, int]
    ) -> None:
        """Record one column's (ordered) occurrence counts."""
        values = self._values
        for rank, (value, count) in enumerate(counts.items()):
            record = values.get(value)
            if record is None:
                values[value] = {qualified_name: (count, rank)}
            else:
                record[qualified_name] = (count, rank)

    def drop_column(
        self, qualified_name: str, counts: Dict[str, int]
    ) -> None:
        """Forget one column's contributions (inverse of ingest)."""
        for value in counts:
            record = self._values.get(value)
            if record is None:
                continue
            record.pop(qualified_name, None)
            if not record:
                del self._values[value]

    def record(self, value: str) -> Optional[ValueRecord]:
        """The per-attribute record of a value (``None`` if absent)."""
        return self._values.get(value)

    def total(self, value: str) -> int:
        """Lake-wide occurrence count of a value (0 if absent)."""
        record = self._values.get(value)
        if not record:
            return 0
        return sum(count for count, _rank in record.values())

    def __len__(self) -> int:
        return len(self._values)


def table_column_counts(table: Table) -> List[Tuple[str, Dict[str, int]]]:
    """``(qualified name, occurrence counts)`` per column of a table."""
    return [
        (column.qualified_name, _occurrence_counts(column.values))
        for column in table.iter_columns()
    ]


def plan_mutation(
    graph: BipartiteGraph,
    ledger: LakeLedger,
    lake: DataLake,
    removed_columns: Sequence[Tuple[str, Dict[str, int]]],
    added_columns: Sequence[Tuple[str, Dict[str, int]]],
    min_occurrences: int,
) -> Optional[SpliceSpec]:
    """Plan one table mutation as a splice against the current graph.

    ``lake`` must already hold the *post-mutation* tables (its
    attribute iteration order defines the new vocabularies), while
    ``graph`` and ``ledger`` still describe the pre-mutation state.
    ``removed_columns`` / ``added_columns`` carry the mutating table's
    columns with their occurrence counts — for a replace, *all* old
    columns are removed and *all* new ones added, even same-named
    ones, since their contents may differ.

    On success the ledger is updated to the post-mutation state and
    the :class:`~repro.core.graph.SpliceSpec` is returned; ``None``
    means the planner detected an inconsistency between graph, ledger,
    and lake, and the caller must fall back to a full rebuild.
    """
    old_attr_names = graph.attribute_names
    # Column.qualified_name, without materializing any column.
    new_attr_names = [
        f"{table.name}.{header}" for table in lake for header in table.columns
    ]
    if len(set(new_attr_names)) != len(new_attr_names):
        return None
    new_attr_pos = {name: i for i, name in enumerate(new_attr_names)}
    removed_qnames = {qname for qname, _counts in removed_columns}

    # Survivor attributes must keep their relative order (dict-backed
    # lake mutations guarantee it; verify instead of assuming).
    attribute_map = np.full(len(old_attr_names), -1, dtype=np.int64)
    last = -1
    for i, qname in enumerate(old_attr_names):
        if qname in removed_qnames:
            continue
        pos = new_attr_pos.get(qname)
        if pos is None or pos <= last:
            return None
        attribute_map[i] = pos
        last = pos

    # Touched values: everything occurring in a removed or added
    # column.  Each is dropped (if present) and reinserted (if its new
    # total clears the threshold) so untouched ids never move.
    touched: Dict[str, ValueRecord] = {}
    for qname, counts in removed_columns:
        for value in counts:
            if value not in touched:
                record = ledger.record(value)
                if record is None:
                    return None
                touched[value] = dict(record)
    # Drop removed columns *before* layering added ones on top: a
    # replace re-adds same-named columns, and those fresh entries must
    # survive the pop.
    for qname, _counts in removed_columns:
        for record in touched.values():
            record.pop(qname, None)
    for qname, counts in added_columns:
        for rank, (value, count) in enumerate(counts.items()):
            if value not in touched:
                base = dict(ledger.record(value) or {})
                for removed in removed_qnames:
                    base.pop(removed, None)
                touched[value] = base
            touched[value][qname] = (count, rank)

    def rebuild_key(record: ValueRecord) -> Tuple[int, int]:
        """A value's rebuild-order key under the new attribute order."""
        return min(
            (new_attr_pos[qname], rank)
            for qname, (_count, rank) in record.items()
        )

    # Classify each touched value by its post-mutation total.
    reinserted: List[Tuple[Tuple[int, int], str, List[int]]] = []
    value_map = np.arange(graph.num_values, dtype=np.int64)
    for value, record in touched.items():
        was_kept = graph.has_value(value)
        old_total = ledger.total(value)
        if was_kept != (old_total >= min_occurrences):
            return None  # ledger out of sync with the graph
        if was_kept:
            value_map[graph.value_id(value)] = -1
        new_total = sum(count for count, _rank in record.values())
        if new_total >= min_occurrences:
            edges = sorted(new_attr_pos[q] for q in record)
            reinserted.append((rebuild_key(record), value, edges))
    reinserted.sort(key=lambda item: item[0])

    # Merge the reinserted values into the untouched survivors, whose
    # rebuild keys are already in id order: binary-search each
    # insertion point, evaluating survivor keys on demand.
    survivor_ids = np.flatnonzero(value_map >= 0)
    value_names = graph.value_names
    survivor_names = [value_names[v] for v in survivor_ids.tolist()]

    survivor_keys: Dict[int, Tuple[int, int]] = {}

    def survivor_key(index: int) -> Tuple[int, int]:
        key = survivor_keys.get(index)
        if key is None:
            record = ledger.record(survivor_names[index])
            if record is None:
                raise LookupError(survivor_names[index])
            key = survivor_keys[index] = rebuild_key(record)
        return key

    insert_points = []
    lo = 0
    try:
        for key, _value, _edges in reinserted:
            # Keys ascend, so each point lies at or after the last.
            hi = len(survivor_names)
            while lo < hi:
                mid = (lo + hi) // 2
                if survivor_key(mid) < key:
                    lo = mid + 1
                else:
                    hi = mid
            insert_points.append(lo)
    except LookupError:
        return None  # survivor missing from the ledger

    points = np.asarray(insert_points, dtype=np.int64)
    # insert_points is non-decreasing (reinserted is key-sorted), so
    # survivor j shifts by the count of insertions at or before it and
    # insertion i lands at its point plus the i earlier insertions.
    final_names: List[str] = list(survivor_names)
    new_value_map = np.full(graph.num_values, -1, dtype=np.int64)
    shift = np.searchsorted(points, np.arange(len(survivor_names)),
                            side="right")
    new_value_map[survivor_ids] = (
        np.arange(len(survivor_names), dtype=np.int64) + shift
    )
    edge_list: List[Tuple[int, int]] = []
    for i, (point, (_key, value, edges)) in enumerate(
        zip(points, reinserted)
    ):
        new_id = int(point) + i
        final_names.insert(new_id, value)
        edge_list.extend((new_id, attr) for attr in edges)

    # Commit the ledger to the post-mutation state only once the plan
    # is complete; a ``None`` return leaves it untouched.
    for qname, counts in removed_columns:
        ledger.drop_column(qname, counts)
    for qname, counts in added_columns:
        ledger.ingest_column(qname, counts)

    new_edges = (
        np.asarray(edge_list, dtype=np.int64)
        if edge_list
        else np.empty((0, 2), dtype=np.int64)
    )
    return SpliceSpec(
        value_names=final_names,
        attribute_names=new_attr_names,
        value_map=new_value_map,
        attribute_map=attribute_map,
        new_edges=new_edges,
    )
