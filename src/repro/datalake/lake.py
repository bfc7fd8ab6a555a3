"""The :class:`DataLake` container.

A data lake is nothing more than a named collection of tables — crucially
*without* any schema linking them.  All relationships DomainNet exploits
are discovered from value co-occurrence, so the container's job is to
provide uniform iteration over attributes and cheap bookkeeping (adding
and removing tables, looking up attributes by qualified name).

The lake is mutable on purpose: the paper points out that updates can
turn a homograph into an unambiguous value and vice versa, and the
incremental example (`examples/data_lake_scan.py`) exercises exactly
that by re-running detection after a table is dropped.

A lake can also be *deferred* (:meth:`DataLake.deferred`): its tables
come from a loader that runs on first use, which is how a snapshot
mount serves reads without parsing the lake it stores.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from .table import Column, Table


class LakeError(ValueError):
    """Raised on invalid lake operations (duplicate or missing tables)."""


class DataLake:
    """An ordered collection of uniquely named tables."""

    def __init__(self, tables: Optional[Iterable[Table]] = None) -> None:
        self._tables: Dict[str, Table] = {}
        # A deferred lake's loader and table count, until first use.
        self._pending: Optional[Callable[[], Iterable[Table]]] = None
        self._pending_count: Optional[int] = None
        self._load_lock = threading.Lock()
        for table in tables or []:
            self.add_table(table)

    @classmethod
    def deferred(
        cls,
        load: Callable[[], Iterable[Table]],
        count: Optional[int] = None,
    ) -> "DataLake":
        """A lake whose tables come from ``load()`` on first use.

        Any access but ``len()`` runs the loader once (thread-safe):
        a mutation, iteration, a table or attribute lookup.  ``len()``
        answers ``count`` until then (or loads, when ``count`` is
        ``None``).  If ``load`` raises, the lake stays deferred and
        the error reaches the caller that needed the tables.
        """
        lake = cls()
        lake._pending = load
        lake._pending_count = count
        return lake

    @property
    def loaded(self) -> bool:
        """``False`` while a deferred lake has not loaded its tables."""
        return self._pending is None

    def _table_map(self) -> Dict[str, Table]:
        """The tables by name, loading a deferred lake first."""
        if self._pending is not None:
            with self._load_lock:
                load = self._pending
                if load is not None:
                    tables: Dict[str, Table] = {}
                    for table in load():
                        if table.name in tables:
                            raise LakeError(
                                f"duplicate table name {table.name!r}"
                            )
                        tables[table.name] = table
                    # Tables first: a reader that sees no loader sees
                    # the loaded tables.
                    self._tables = tables
                    self._pending = None
        return self._tables

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> None:
        """Add a table; its name must not already be present."""
        tables = self._table_map()
        if table.name in tables:
            raise LakeError(f"duplicate table name {table.name!r}")
        tables[table.name] = table

    def remove_table(self, name: str) -> Table:
        """Remove and return the named table."""
        try:
            return self._table_map().pop(name)
        except KeyError:
            raise LakeError(f"no table named {name!r}") from None

    def replace_table(self, table: Table) -> None:
        """Replace the same-named table (used by homograph injection)."""
        tables = self._table_map()
        if table.name not in tables:
            raise LakeError(f"no table named {table.name!r}")
        tables[table.name] = table

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._table_map()

    def __len__(self) -> int:
        count = self._pending_count
        if self._pending is not None and count is not None:
            return count
        return len(self._table_map())

    def __iter__(self) -> Iterator[Table]:
        return iter(self._table_map().values())

    @property
    def table_names(self) -> List[str]:
        return list(self._table_map())

    def table(self, name: str) -> Table:
        try:
            return self._table_map()[name]
        except KeyError:
            raise LakeError(f"no table named {name!r}") from None

    def iter_attributes(self) -> Iterator[Column]:
        """Yield every attribute (column) of every table, in lake order."""
        for table in self._table_map().values():
            yield from table.iter_columns()

    def attribute(self, qualified_name: str) -> Column:
        """Look up an attribute by its ``table.column`` qualified name.

        Table names may themselves contain dots, so the split point is
        searched from the right until a known table name matches.
        """
        dot = len(qualified_name)
        while True:
            dot = qualified_name.rfind(".", 0, dot)
            if dot < 0:
                raise LakeError(f"no attribute {qualified_name!r}")
            table_name = qualified_name[:dot]
            tables = self._table_map()
            if table_name in tables:
                return tables[table_name].column(qualified_name[dot + 1:])

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    @property
    def num_attributes(self) -> int:
        return sum(table.num_columns for table in self)

    @property
    def num_cells(self) -> int:
        return sum(table.num_rows * table.num_columns for table in self)

    def copy(self) -> "DataLake":
        """Deep-enough copy: tables are copied, cells are shared strings."""
        clone = DataLake()
        for table in self:
            clone.add_table(
                Table(
                    name=table.name,
                    columns=list(table.columns),
                    rows=[list(row) for row in table.rows],
                )
            )
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._pending is not None:  # a repr must not load the lake
            return f"DataLake(tables={self._pending_count}, deferred)"
        return (
            f"DataLake(tables={len(self._tables)}, "
            f"attributes={self.num_attributes})"
        )
