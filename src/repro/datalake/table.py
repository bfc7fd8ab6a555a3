"""Table abstraction for data lakes.

A :class:`Table` is the unit of ingestion in a data lake: a named grid of
string cells organized into named columns.  Data lakes make almost no
promises about their tables — attribute names may be missing, duplicated,
or meaningless ("C1", "column 2"), columns may be ragged, and cell values
are raw strings.  The abstractions here embrace that: every cell is kept
as text and nothing is inferred from the header beyond a display name.

Column identity matters more than column naming for DomainNet: the
bipartite graph has one node per *attribute*, i.e. per (table, column)
pair, so :class:`Column` carries a fully qualified ``qualified_name`` that
is unique within a lake even when header names collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class TableError(ValueError):
    """Raised when a table is structurally invalid."""


@dataclass(frozen=True)
class Column:
    """A single attribute (column) of a table.

    Attributes
    ----------
    table_name:
        Name of the owning table.
    name:
        The column's header as found in the source, possibly ambiguous.
    values:
        Raw cell values, in row order.  Empty cells are empty strings.
    """

    table_name: str
    name: str
    values: Tuple[str, ...]

    @property
    def qualified_name(self) -> str:
        """Lake-unique attribute identifier, ``table.column``."""
        return f"{self.table_name}.{self.name}"

    def distinct_values(self) -> List[str]:
        """Distinct non-empty raw values, in first-appearance order."""
        seen = set()
        out = []
        for value in self.values:
            if value and value not in seen:
                seen.add(value)
                out.append(value)
        return out

    def distinct_count(self) -> int:
        """Number of distinct non-empty raw values."""
        return len({value for value in self.values if value})

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class Table:
    """A named table of string cells.

    Parameters
    ----------
    name:
        Table name, unique within a lake.
    columns:
        Header names, one per column.  Duplicate headers are disambiguated
        on construction by suffixing ``#2``, ``#3``, … so that qualified
        attribute names stay unique.
    rows:
        Cell grid, one sequence per row.  Rows shorter than the header are
        padded with empty strings; longer rows raise :class:`TableError`.
    """

    name: str
    columns: List[str]
    rows: List[List[str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise TableError("table name must be non-empty")
        if not self.columns:
            raise TableError(f"table {self.name!r} has no columns")
        self.columns = _dedupe_headers(self.columns)
        width = len(self.columns)
        fixed_rows: List[List[str]] = []
        for i, row in enumerate(self.rows):
            cells = [str(cell) if cell is not None else "" for cell in row]
            if len(cells) > width:
                raise TableError(
                    f"table {self.name!r} row {i} has {len(cells)} cells "
                    f"but only {width} columns"
                )
            if len(cells) < width:
                cells.extend([""] * (width - len(cells)))
            fixed_rows.append(cells)
        self.rows = fixed_rows

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        """Return the column with the given header name."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"table {self.name!r} has no column {name!r}"
            ) from None
        return self.column_at(idx)

    def column_at(self, index: int) -> Column:
        """Return the column at the given position."""
        if not 0 <= index < len(self.columns):
            raise IndexError(
                f"column index {index} out of range for table {self.name!r}"
            )
        values = tuple(row[index] for row in self.rows)
        return Column(self.name, self.columns[index], values)

    def iter_columns(self) -> Iterator[Column]:
        """Yield every column of the table."""
        # One transpose instead of a row walk per column; rows are
        # padded to the header width, so zip drops nothing.
        columns = zip(*self.rows) if self.rows else ((),) * len(self.columns)
        for name, values in zip(self.columns, columns):
            yield Column(self.name, name, values)

    def append_row(self, row: Sequence[str]) -> None:
        """Append a row, padding short rows with empty cells."""
        cells = [str(cell) if cell is not None else "" for cell in row]
        if len(cells) > len(self.columns):
            raise TableError(
                f"row has {len(cells)} cells but table {self.name!r} "
                f"has {len(self.columns)} columns"
            )
        cells.extend([""] * (len(self.columns) - len(cells)))
        self.rows.append(cells)

    @classmethod
    def from_columns(
        cls, name: str, columns: Dict[str, Sequence[str]]
    ) -> "Table":
        """Build a table from a mapping of header name to cell values.

        Columns may have different lengths; shorter ones are padded with
        empty strings so the table stays rectangular.
        """
        if not columns:
            raise TableError(f"table {name!r} has no columns")
        headers = list(columns)
        height = max(len(vals) for vals in columns.values())
        rows = []
        for r in range(height):
            row = []
            for header in headers:
                vals = columns[header]
                row.append(str(vals[r]) if r < len(vals) else "")
            rows.append(row)
        return cls(name=name, columns=headers, rows=rows)

    def replace_values(self, mapping: Dict[str, str]) -> "Table":
        """Return a copy with every cell equal to a mapping key replaced.

        Used by the benchmark injection machinery: replacing a value
        everywhere it occurs in selected tables is how artificial
        homographs are introduced (paper §4.3).
        """
        new_rows = [
            [mapping.get(cell, cell) for cell in row] for row in self.rows
        ]
        return Table(name=self.name, columns=list(self.columns), rows=new_rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Table(name={self.name!r}, columns={len(self.columns)}, "
            f"rows={len(self.rows)})"
        )


def _dedupe_headers(headers: Iterable[str]) -> List[str]:
    """Make header names unique by suffixing ``#k`` to repeats.

    Missing headers (empty strings) are renamed ``col_<i>`` first, since a
    data lake column must have *some* attribute identity even when the
    source file had none.
    """
    seen: Dict[str, int] = {}
    result: List[str] = []
    for i, raw in enumerate(headers):
        header = raw.strip() if raw and raw.strip() else f"col_{i}"
        count = seen.get(header, 0)
        seen[header] = count + 1
        result.append(header if count == 0 else f"{header}#{count + 1}")
    return result


def infer_column_kind(values: Sequence[str], sample_limit: int = 1000) -> str:
    """Classify a column as ``"numeric"``, ``"text"``, or ``"empty"``.

    A column is numeric when at least 80% of its non-empty cells parse as
    numbers.  D4 (and hence the baseline comparison in §5.1) only operates
    on text columns, so the lake needs a cheap, deterministic kind test.
    """
    non_empty = [v for v in values if v][:sample_limit]
    if not non_empty:
        return "empty"
    numeric = sum(1 for v in non_empty if _is_number(v))
    return "numeric" if numeric >= 0.8 * len(non_empty) else "text"


def _is_number(text: str) -> bool:
    try:
        float(text.replace(",", ""))
    except ValueError:
        return False
    return True
