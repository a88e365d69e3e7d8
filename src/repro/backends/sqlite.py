"""A real external query planner: stdlib ``sqlite3`` behind the protocol.

The adapter stores geometries as WKT ``TEXT`` and registers the repro
geometry library as deterministic scalar UDFs (WKT in, scalar/WKT out):
every ``ST_*`` function of the emulated dialect's catalog is routed through
the same :class:`~repro.engine.registry.FunctionRegistry` the in-process
engine evaluates — including, when the backend is created with a fault
profile, the injected-bug hooks — but *joins, filters, aggregation,
ordering and limits are planned and executed by SQLite itself*.  That is
the point: campaigns driving this backend fuzz an actual external query
planner rather than our own executor, and the cross-backend differential
mode can hold the two executions against each other.

Dialect quirks are *declared*, not translated: the backend's
:class:`~repro.backends.base.Capabilities` descriptor states that SQLite
takes bare ``'...'`` WKT literals (no ``::geometry`` cast), rejects
``FROM t JOIN t`` with a repeated unaliased table name, and sorts NULL keys
first on ascending ``ORDER BY`` terms — and the query-IR renderer
(:mod:`repro.core.qir`) emits dialect-exact SQL from those flags in one
pass.  The regex translation layer that used to re-derive the same rules
from already-rendered SQL strings is gone.

Exceptions raised inside a UDF surface from ``sqlite3`` as an opaque
``OperationalError``; the session stashes the original exception around
each statement so crash bugs (:class:`~repro.errors.EngineCrash`, with
their bug ids) and ignorable semantic errors keep their types across the
adapter boundary.
"""

from __future__ import annotations

import sqlite3
import time
from typing import Any

from repro.backends.base import Backend, Capabilities
from repro.backends.resultset import BackendResultSet
from repro.engine.database import ExecutionStats
from repro.engine.dialects import Dialect, get_dialect
from repro.engine.faults import FaultPlan
from repro.engine.registry import FunctionRegistry
from repro.errors import ReproError, SQLExecutionError
from repro.geometry.model import Geometry


def split_statements(sql: str) -> list[str]:
    """Split a script on ``;`` without splitting inside quoted literals."""
    statements: list[str] = []
    current: list[str] = []
    in_string = False
    for character in sql:
        if character == "'":
            in_string = not in_string
            current.append(character)
        elif character == ";" and not in_string:
            statements.append("".join(current))
            current = []
        else:
            current.append(character)
    statements.append("".join(current))
    return [statement for statement in statements if statement.strip()]


class SQLiteSession:
    """One in-memory SQLite database with the geometry library registered."""

    def __init__(self, dialect: Dialect, fault_plan: FaultPlan):
        self.dialect = dialect
        self.fault_plan = fault_plan
        self.stats = ExecutionStats()
        self.registry = FunctionRegistry(dialect, fault_plan, fast_path=False)
        self.connection = sqlite3.connect(":memory:")
        #: the original exception of the innermost failing UDF call; sqlite3
        #: flattens UDF errors to OperationalError, so execute() re-raises
        #: from here to preserve EngineCrash/SemanticGeometryError types.
        self._pending_error: BaseException | None = None
        self._register_functions()

    # ------------------------------------------------------------- plumbing
    def _register_functions(self) -> None:
        for function_name in sorted(self.dialect.functions):

            def call(*arguments: Any, _name: str = function_name) -> Any:
                try:
                    return _to_sqlite(self.registry.call(_name, list(arguments)))
                except BaseException as error:  # noqa: BLE001 - re-raised by execute()
                    self._pending_error = error
                    raise

            # NOT declared deterministic: the registry is stateful (fault
            # triggers, the prepared cache's probe-seen set), and the flag
            # would license SQLite to elide repeated constant-argument calls
            # — changing how often call-order-sensitive injected bugs fire
            # relative to the in-process engine.
            self.connection.create_function(function_name, -1, call)

    # ------------------------------------------------------------------ API
    def execute(self, sql: str) -> BackendResultSet:
        """Execute a script of one or more statements; returns the last result."""
        result = BackendResultSet(command="EMPTY")
        started = time.perf_counter()
        try:
            for statement in split_statements(sql):
                self.stats.statements += 1
                self._pending_error = None
                try:
                    cursor = self.connection.execute(statement)
                    rows = [tuple(row) for row in cursor.fetchall()]
                except sqlite3.Error as error:
                    pending, self._pending_error = self._pending_error, None
                    self.stats.errors += 1
                    if isinstance(pending, ReproError):
                        raise pending from error
                    if pending is not None:
                        raise SQLExecutionError(str(pending)) from pending
                    raise SQLExecutionError(f"sqlite: {error}") from error
                columns = (
                    [description[0] for description in cursor.description]
                    if cursor.description
                    else []
                )
                command = statement.split(None, 1)[0].upper() if statement.split() else "EMPTY"
                result = BackendResultSet(columns=columns, rows=rows, command=command)
        finally:
            self.stats.seconds_in_engine += time.perf_counter() - started
        return result

    def query_value(self, sql: str) -> Any:
        return self.execute(sql).scalar()

    def query_rows(self, sql: str) -> list[tuple]:
        return self.execute(sql).rows

    def build_auto_indexes(self) -> int:
        """SQLite plans with its own machinery; there is nothing to warm."""
        return 0

    def cache_stats(self) -> dict[str, int]:
        stats = self.registry.prepared_cache.stats()
        return {f"prepared_{key}": stats[key] for key in ("hits", "misses", "evictions")}

    def close(self) -> None:
        self.connection.close()


def _to_sqlite(value: Any) -> Any:
    """Marshal a registry result onto SQLite's scalar type system."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, Geometry):
        return value.wkt
    if value is None or isinstance(value, (int, float, str, bytes)):
        return value
    # exact rationals and anything else numeric degrade to float
    return float(value)


class SQLiteBackend(Backend):
    """The stdlib ``sqlite3`` adapter (an actual external query planner)."""

    name = "sqlite"

    def __init__(
        self,
        dialect: str = "postgis",
        bug_ids: tuple[str, ...] = (),
    ):
        self.dialect = dialect
        self.bug_ids = tuple(bug_ids)

    def capabilities(self) -> Capabilities:
        return Capabilities(
            backend=self.name,
            dialect=get_dialect(self.dialect),
            supports_fault_injection=True,
            supports_auto_indexes=False,
            supports_planner_toggles=False,
            supports_geometry_cast=False,
            supports_unaliased_self_join=False,
            orders_nulls_last=False,
            notes=(
                "geometries stored as WKT TEXT; ST_* registered as deterministic UDFs",
                "joins/aggregation/ordering planned by SQLite itself",
                "SQL rendered by the query IR's SQLite-flavoured renderer (docs/QUERY_IR.md)",
            ),
        )

    def open_session(self) -> SQLiteSession:
        return SQLiteSession(get_dialect(self.dialect), FaultPlan.from_ids(self.bug_ids))
