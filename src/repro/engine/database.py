"""The public database facade of MiniSDB.

:class:`SpatialDatabase` plays the role psycopg / mysql connectors play in
the paper's artifact: Spatter opens one per emulated system, sends SQL
strings, and reads back result rows.  The facade also keeps the execution
statistics (statement count, time spent inside the engine) the Figure 7
benchmark reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.engine.dialects import Dialect, default_fault_profile, get_dialect
from repro.engine.executor import Executor, ResultSet, SpatialDatabaseState
from repro.engine.faults import FaultPlan
from repro.engine.parser import parse_script
from repro.engine.prepared import PreparedGeometryCache
from repro.engine.registry import FunctionRegistry
from repro.errors import TableError


@dataclass
class ExecutionStats:
    """Aggregate statistics for one database connection."""

    statements: int = 0
    seconds_in_engine: float = 0.0
    crashes: int = 0
    errors: int = 0

    def reset(self) -> None:
        self.statements = 0
        self.seconds_in_engine = 0.0
        self.crashes = 0
        self.errors = 0


class SpatialDatabase:
    """One emulated SDBMS instance: a dialect, a fault profile, and storage."""

    def __init__(
        self,
        dialect: Dialect | str = "postgis",
        fault_plan: FaultPlan | None = None,
        use_default_faults: bool = False,
        fast_path: bool = True,
        vectorized: bool = True,
    ):
        self.dialect = get_dialect(dialect) if isinstance(dialect, str) else dialect
        if fault_plan is None and use_default_faults:
            fault_plan = FaultPlan.from_ids(default_fault_profile(self.dialect.name))
        self.fault_plan = fault_plan or FaultPlan.none()
        self.fast_path = fast_path
        self.vectorized = vectorized
        self.prepared_cache = PreparedGeometryCache(
            buggy_collection_repeat=any(
                bug.mechanism == "prepared_collection_false" for bug in self.fault_plan.active_bugs
            )
        )
        self.registry = FunctionRegistry(self.dialect, self.fault_plan, self.prepared_cache)
        self.state = SpatialDatabaseState()
        self.executor = Executor(
            self.state, self.registry, self.fault_plan, fast_path=fast_path, vectorized=vectorized
        )
        self.stats = ExecutionStats()

    # ------------------------------------------------------------------ API
    def execute(self, sql: str) -> ResultSet:
        """Execute a script of one or more statements; returns the last result."""
        statements = parse_script(sql)
        result = ResultSet(command="EMPTY")
        started = time.perf_counter()
        try:
            for statement in statements:
                self.stats.statements += 1
                result = self.executor.execute(statement)
        finally:
            self.stats.seconds_in_engine += time.perf_counter() - started
        return result

    def execute_parsed(self, statements: list) -> ResultSet:
        """Execute pre-parsed statements; returns the last result.

        The reuse layer's plan cache parses each statement shape once per
        campaign and replays the compiled AST with rebound literals; this
        entry point runs such statements with exactly :meth:`execute`'s
        accounting (statement counter, engine-seconds timer) minus the
        parse, which :meth:`execute` performs outside the timer anyway.
        """
        result = ResultSet(command="EMPTY")
        started = time.perf_counter()
        try:
            for statement in statements:
                self.stats.statements += 1
                result = self.executor.execute(statement)
        finally:
            self.stats.seconds_in_engine += time.perf_counter() - started
        return result

    def load_geometry_tables(
        self,
        tables: dict[str, list],
        geometry_column: str = "g",
        include_ids: bool = True,
    ) -> None:
        """Bulk-load already-parsed geometry tables (the reuse layer).

        Mirrors executing ``DatabaseSpec.create_statements`` statement for
        statement — same table/column names and lower-casing, same 1-based
        ``id`` values, same duplicate-table error, same statement counter
        and index behaviour (every insert carries the same
        drop-empty-from-index fault flag) — but stores the given ``Geometry``
        objects directly instead of parsing their WKT out of INSERT
        literals.  Callers guarantee each object is value-identical to the
        parse of the WKT the legacy path would have inserted.
        """
        from repro.engine.catalog import Column, Table

        started = time.perf_counter()
        try:
            drop_empty = self.executor._drop_empty_from_index()
            for name in sorted(tables):
                key = name.lower()
                self.stats.statements += 1
                if key in self.state.tables:
                    raise TableError(f"table {key!r} already exists")
                if include_ids:
                    columns = [Column("id", "int"), Column(geometry_column, "geometry")]
                else:
                    columns = [Column(geometry_column, "geometry")]
                table = Table(key, columns)
                self.state.tables[key] = table
                for row_id, geometry in enumerate(tables[name], start=1):
                    self.stats.statements += 1
                    if include_ids:
                        values = {"id": row_id, geometry_column: geometry}
                    else:
                        values = {geometry_column: geometry}
                    table.insert_row(values, drop_empty_from_index=drop_empty)
        finally:
            self.stats.seconds_in_engine += time.perf_counter() - started

    def query_value(self, sql: str) -> Any:
        """Execute a query and return its single scalar value."""
        return self.execute(sql).scalar()

    def query_rows(self, sql: str) -> list[tuple]:
        """Execute a query and return all result rows."""
        return self.execute(sql).rows

    def table_names(self) -> list[str]:
        """Names of all stored tables."""
        return sorted(self.state.tables)

    def row_count(self, table: str) -> int:
        """Number of rows currently stored in a table."""
        return len(self.state.tables[table.lower()])

    def reset(self) -> None:
        """Drop all tables, variables, and settings (a fresh database)."""
        self.state.tables.clear()
        self.state.variables.clear()
        self.state.settings.clear()
        self.state.settings["enable_seqscan"] = True
        self.prepared_cache.clear()

    def cache_stats(self) -> dict[str, int]:
        """Connection-scoped cache counters (prepared-geometry cache).

        Only true counters are exposed — the ``entries`` gauge is omitted
        because campaign aggregation sums these values across connections
        and rounds, which is meaningless for a point-in-time size.
        """
        stats = self.prepared_cache.stats()
        return {
            f"prepared_{key}": stats[key] for key in ("hits", "misses", "evictions")
        }

    def clone_empty(self) -> "SpatialDatabase":
        """A new database with the same dialect and fault profile, no data."""
        return SpatialDatabase(
            self.dialect,
            FaultPlan(self.fault_plan.active_bugs),
            fast_path=self.fast_path,
            vectorized=self.vectorized,
        )


def connect(
    dialect: str = "postgis",
    bug_ids: Iterable[str] | None = None,
    emulate_release_under_test: bool = False,
    fast_path: bool = True,
    vectorized: bool = True,
) -> SpatialDatabase:
    """Open an emulated SDBMS connection.

    ``bug_ids`` selects an explicit fault profile; passing
    ``emulate_release_under_test=True`` instead activates the default profile
    for the dialect (every catalog bug the paper reported against that
    system), which is what the testing-campaign experiments use.
    ``fast_path=False`` turns off the batch executor's envelope prefilter —
    the reference configuration for the differential self-checks and for
    the Index baseline oracle.  ``vectorized=False`` additionally routes every
    SELECT through the scalar row-at-a-time interpreter instead of the
    batch-operator pipeline.
    """
    if bug_ids is not None:
        plan = FaultPlan.from_ids(bug_ids)
        return SpatialDatabase(dialect, plan, fast_path=fast_path, vectorized=vectorized)
    return SpatialDatabase(
        dialect,
        use_default_faults=emulate_release_under_test,
        fast_path=fast_path,
        vectorized=vectorized,
    )
