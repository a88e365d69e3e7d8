"""Table storage for MiniSDB: schemas, rows, and attached spatial indexes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import TableError
from repro.geometry.model import Envelope, Geometry
from repro.engine.index.rtree import RTree

#: Column type names accepted by CREATE TABLE.
COLUMN_TYPES = ("geometry", "int", "integer", "bigint", "float", "double", "text", "varchar", "boolean")


@dataclass
class Column:
    """A column definition: name plus a coarse type tag."""

    name: str
    type_name: str

    @property
    def is_geometry(self) -> bool:
        return self.type_name.lower() == "geometry"


@dataclass
class SpatialIndex:
    """A named spatial index over one geometry column of a table.

    EMPTY geometries have no envelope, so they cannot live in the R-tree;
    a correct index keeps them in ``empty_rows`` and always returns them as
    candidates.  The injected GiST bug skips that bookkeeping, which is what
    makes index scans disagree with sequential scans (paper Listing 8).
    """

    name: str
    column: str
    tree: RTree = field(default_factory=RTree)
    #: Row ids with EMPTY geometries, always added to the candidate set.
    empty_rows: list[int] = field(default_factory=list)
    #: Row ids the index silently dropped (the EMPTY-dropping injected bug).
    skipped_rows: list[int] = field(default_factory=list)

    def candidates(self, envelope: Envelope | None) -> list[int]:
        """Candidate row ids for a query envelope (None means unbounded)."""
        if envelope is None:
            matched = self.tree.all_row_ids()
        else:
            matched = self.tree.search(envelope)
        return matched + list(self.empty_rows)


class Table:
    """A heap of rows with optional spatial indexes.

    Rows are dictionaries keyed by lower-cased column name; every row also
    carries a stable integer ``rowid`` used by the indexes.
    """

    def __init__(self, name: str, columns: Iterable[Column]):
        self.name = name.lower()
        self.columns = list(columns)
        if not self.columns:
            raise TableError(f"table {name!r} needs at least one column")
        names = [c.name.lower() for c in self.columns]
        if len(names) != len(set(names)):
            raise TableError(f"table {name!r} has duplicate column names")
        self.rows: list[dict[str, Any]] = []
        self.indexes: dict[str, SpatialIndex] = {}
        #: columnar envelope arrays for the batch executor's prefilter,
        #: memoized per geometry column until the next insert and kept
        #: strictly apart from the user-created ``indexes``: always built
        #: faithfully regardless of the fault plan, so explicitly created —
        #: possibly fault-corrupted — indexes keep their semantics.  ``None``
        #: marks an unsuitable column.
        self.envelope_blocks: dict[str, Any] = {}
        self._next_rowid = 0

    def column_names(self) -> list[str]:
        return [c.name.lower() for c in self.columns]

    def has_column(self, name: str) -> bool:
        return name.lower() in self.column_names()

    def column(self, name: str) -> Column:
        for column in self.columns:
            if column.name.lower() == name.lower():
                return column
        raise TableError(f"table {self.name!r} has no column {name!r}")

    def insert_row(self, values: dict[str, Any], drop_empty_from_index: bool = False) -> int:
        """Insert one row; returns its rowid.

        ``drop_empty_from_index`` is set by the fault layer to reproduce the
        GiST bug that silently skips EMPTY geometries during index insertion.
        """
        unknown = [key for key in values if not self.has_column(key)]
        if unknown:
            raise TableError(f"table {self.name!r} has no column {unknown[0]!r}")
        row = {name: None for name in self.column_names()}
        row.update({key.lower(): value for key, value in values.items()})
        row["__rowid__"] = self._next_rowid
        self._next_rowid += 1
        self.rows.append(row)
        self._index_row(row, drop_empty_from_index)
        # Columnar blocks are rebuilt lazily on the next probe.
        self.envelope_blocks.clear()
        return row["__rowid__"]

    def _index_row(self, row: dict[str, Any], drop_empty: bool) -> None:
        for index in self.indexes.values():
            value = row.get(index.column)
            if not isinstance(value, Geometry):
                continue
            envelope = value.envelope()
            if envelope is None:
                if drop_empty:
                    index.skipped_rows.append(row["__rowid__"])
                else:
                    index.empty_rows.append(row["__rowid__"])
                continue
            index.tree.insert(envelope, row["__rowid__"])

    def create_index(self, index_name: str, column: str, drop_empty: bool = False) -> SpatialIndex:
        """Create a spatial index over an existing geometry column."""
        if not self.has_column(column):
            raise TableError(f"table {self.name!r} has no column {column!r}")
        if not self.column(column).is_geometry:
            raise TableError(f"column {column!r} of table {self.name!r} is not a geometry column")
        index = SpatialIndex(name=index_name.lower(), column=column.lower())
        for row in self.rows:
            value = row.get(column.lower())
            if not isinstance(value, Geometry):
                continue
            envelope = value.envelope()
            if envelope is None:
                if drop_empty:
                    index.skipped_rows.append(row["__rowid__"])
                else:
                    index.empty_rows.append(row["__rowid__"])
                continue
            index.tree.insert(envelope, row["__rowid__"])
        self.indexes[index.name] = index
        return index

    def spatial_index_on(self, column: str) -> SpatialIndex | None:
        """The first *user-created* spatial index covering the column, if any."""
        for index in self.indexes.values():
            if index.column == column.lower():
                return index
        return None

    def envelope_block(self, column: str):
        """Columnar envelope arrays over a geometry column, built on first use.

        The batch executor's envelope prefilter: one outward-rounded float
        envelope per row position (see
        :class:`repro.geometry.columnar.EnvelopeBlock`), always faithful
        regardless of the fault plan — EMPTY rows stay candidates, NULL rows
        are omitted (a NULL operand makes every indexable predicate NULL).
        Returns ``None`` — memoized until the next insert — when the column
        is not a geometry column or holds a non-geometry non-NULL value.
        """
        from repro.geometry.columnar import EnvelopeBlock

        key = column.lower()
        if key in self.envelope_blocks:
            return self.envelope_blocks[key]
        block = None
        if self.has_column(key) and self.column(key).is_geometry:
            values = [row.get(key) for row in self.rows]
            if all(value is None or isinstance(value, Geometry) for value in values):
                block = EnvelopeBlock(values)
        self.envelope_blocks[key] = block
        return block

    def row_by_id(self, rowid: int) -> dict[str, Any]:
        for row in self.rows:
            if row["__rowid__"] == rowid:
                return row
        raise TableError(f"table {self.name!r} has no row with id {rowid}")

    def __len__(self) -> int:
        return len(self.rows)
