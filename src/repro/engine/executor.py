"""Statement execution for MiniSDB.

The executor walks the parsed AST and produces result rows.  Its planning
logic is deliberately simple but mirrors the structure of the real systems
the paper tests:

* joins are evaluated either by a nested-loop scan or, when a spatial index
  exists on the inner side and sequential scans are disabled or the planner
  prefers the index, by an *index nested-loop* join that first filters
  candidates by envelope intersection and then re-checks the exact predicate
  (the classic filter/refine pipeline of PostGIS's GiST support);
* single-table predicates against a geometry literal can also use the index;
* expressions follow SQL three-valued logic (``None`` is NULL).

Because the index and sequential paths are both available, the
``Index`` baseline oracle of the paper (toggling an index on and off) can be
reproduced faithfully, and the injected GiST bug makes the two paths
disagree exactly the way the paper's Listing 8 shows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import SQLExecutionError, TableError
from repro.geometry import load_wkt
from repro.geometry.model import Geometry
from repro.engine import ast
from repro.engine.catalog import Column, Table
from repro.engine.faults import MECH_INDEX_DROPS_EMPTY, FaultPlan
from repro.engine.prepared import INDEXABLE_PREDICATES
from repro.engine.registry import FunctionRegistry
from repro.engine.vectorized import compile_select

#: aggregate functions the projection layer evaluates itself (never routed
#: through the spatial function registry).
_AGGREGATE_FUNCTIONS = {"count", "sum"}

#: functions whose candidate set can be narrowed with an envelope filter.
_INDEXABLE_PREDICATES = INDEXABLE_PREDICATES


@dataclass
class ResultSet:
    """The outcome of one statement."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    command: str = "SELECT"

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise SQLExecutionError(
                f"expected a scalar result, got {len(self.rows)} row(s)"
            )
        return self.rows[0][0]

    def first_column(self) -> list[Any]:
        return [row[0] for row in self.rows]


class Executor:
    """Evaluates statements against a database's tables and settings."""

    def __init__(
        self,
        database: "SpatialDatabaseState",
        registry: FunctionRegistry,
        fault_plan: FaultPlan,
        fast_path: bool = True,
        vectorized: bool = True,
    ):
        self.database = database
        self.registry = registry
        self.fault_plan = fault_plan
        self.fast_path = fast_path
        self.vectorized = vectorized

    # ------------------------------------------------------------ statements
    def execute(self, statement: ast.Statement) -> ResultSet:
        # The compiled-plan cache replays one statement object many times
        # with literals rebound in place between calls; execution must
        # therefore never mutate the statement tree or memoize
        # literal-derived state on it.
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateIndex):
            return self._execute_create_index(statement)
        if isinstance(statement, ast.DropTable):
            return self._execute_drop_table(statement)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.SetStatement):
            return self._execute_set(statement)
        if isinstance(statement, ast.Select):
            return self._execute_select(statement)
        raise SQLExecutionError(f"unsupported statement type {type(statement).__name__}")

    def _execute_create_table(self, statement: ast.CreateTable) -> ResultSet:
        name = statement.name.lower()
        if name in self.database.tables:
            raise TableError(f"table {name!r} already exists")
        if statement.as_select is not None:
            result = self._execute_select(statement.as_select)
            columns = [Column(col, _infer_type(result, i)) for i, col in enumerate(result.columns)]
            table = Table(name, columns)
            for row in result.rows:
                table.insert_row(
                    dict(zip(result.columns, row)),
                    drop_empty_from_index=self._drop_empty_from_index(),
                )
            self.database.tables[name] = table
            return ResultSet(command="CREATE TABLE AS")
        columns = [Column(c.name.lower(), c.type_name.lower()) for c in statement.columns]
        self.database.tables[name] = Table(name, columns)
        return ResultSet(command="CREATE TABLE")

    def _execute_create_index(self, statement: ast.CreateIndex) -> ResultSet:
        table = self._table(statement.table)
        table.create_index(
            statement.name,
            statement.column,
            drop_empty=self._drop_empty_from_index(),
        )
        return ResultSet(command="CREATE INDEX")

    def _execute_drop_table(self, statement: ast.DropTable) -> ResultSet:
        name = statement.name.lower()
        if name not in self.database.tables:
            if statement.if_exists:
                return ResultSet(command="DROP TABLE")
            raise TableError(f"table {name!r} does not exist")
        del self.database.tables[name]
        return ResultSet(command="DROP TABLE")

    def _execute_insert(self, statement: ast.Insert) -> ResultSet:
        table = self._table(statement.table)
        columns = [c.lower() for c in statement.columns] or table.column_names()
        inserted = 0
        for row_expressions in statement.rows:
            if len(row_expressions) != len(columns):
                raise SQLExecutionError(
                    f"INSERT has {len(row_expressions)} values for {len(columns)} columns"
                )
            values = {}
            for column_name, expression in zip(columns, row_expressions):
                value = self._evaluate(expression, {})
                column = table.column(column_name)
                if column.is_geometry and isinstance(value, str):
                    value = load_wkt(value)
                values[column_name] = value
            table.insert_row(values, drop_empty_from_index=self._drop_empty_from_index())
            inserted += 1
        return ResultSet(command=f"INSERT {inserted}")

    def _execute_set(self, statement: ast.SetStatement) -> ResultSet:
        value = self._evaluate(statement.value, {})
        if statement.is_session_variable:
            self.database.variables[statement.name.lower()] = value
        else:
            self.database.settings[statement.name.lower()] = _as_setting(value)
        return ResultSet(command="SET")

    # ---------------------------------------------------------------- select
    def _execute_select(self, statement: ast.Select) -> ResultSet:
        if self.vectorized:
            plan = compile_select(self, statement)
            if plan is not None:
                return plan.execute()
        bindings_rows = self._resolve_from(statement)
        qualifying: list[dict[str, dict[str, Any]]] = []
        for environment in bindings_rows:
            if statement.where is not None:
                verdict = self._evaluate(statement.where, environment)
                if verdict is not True:
                    continue
            qualifying.append(environment)
        return self._finalize_select(statement, qualifying)

    def _finalize_select(
        self, statement: ast.Select, qualifying: list[dict[str, dict[str, Any]]]
    ) -> ResultSet:
        """Shared projection/aggregation tail of both execution paths."""
        if self._is_aggregate(statement):
            return self._project_aggregate(statement, qualifying)
        return self._project_rows(statement, qualifying)

    def _resolve_from(self, statement: ast.Select) -> list[dict[str, dict[str, Any]]]:
        """Produce the list of binding environments (alias -> row dict)."""
        if not statement.from_items and not statement.joins:
            return [{}]

        sources: list[tuple[str, list[dict[str, Any]]]] = []
        for item in statement.from_items:
            binding, rows = self._rows_for_item(item)
            rows = self._maybe_filter_with_index(statement, item, binding, rows)
            sources.append((binding, rows))

        environments: list[dict[str, dict[str, Any]]] = [{}]
        for binding, rows in sources:
            environments = [
                {**environment, binding: row} for environment in environments for row in rows
            ]

        for join in statement.joins:
            environments = self._apply_join(environments, join)
        return environments

    def _rows_for_item(self, item: ast.FromItem) -> tuple[str, list[dict[str, Any]]]:
        if isinstance(item, ast.SubqueryRef):
            result = self._execute_select(item.select)
            rows = [dict(zip(result.columns, row)) for row in result.rows]
            return item.binding, rows
        table = self._table(item.name)
        return item.binding, list(table.rows)

    def _apply_join(
        self, environments: list[dict[str, dict[str, Any]]], join: ast.Join
    ) -> list[dict[str, dict[str, Any]]]:
        binding, rows = self._rows_for_item(join.item)
        index_plan = self._index_join_plan(join, binding)
        joined: list[dict[str, dict[str, Any]]] = []
        for environment in environments:
            candidate_rows = rows
            if index_plan is not None:
                candidate_rows = self._index_candidates(environment, index_plan, rows)
            for row in candidate_rows:
                combined = {**environment, binding: row}
                if join.condition is not None:
                    verdict = self._evaluate(join.condition, combined)
                    if verdict is not True:
                        continue
                joined.append(combined)
        return joined

    # ------------------------------------------------------------ index path
    def _use_index(self) -> bool:
        return not self.database.settings.get("enable_seqscan", True)

    def _prefilter_allowed(self, name: str) -> bool:
        """True if the batch envelope prefilter may skip candidate rows for
        this predicate or operator without observable effect.

        The prefilter is only conservative when a skipped evaluation could
        neither raise (strict validation, EMPTY-element rejection,
        unsupported feature errors, crash faults) nor record a fault
        trigger the oracle's deduplication keys on — so it is gated on
        a permissive dialect and on no active bug influencing the predicate's
        *evaluation* (see :meth:`FaultPlan.influences_evaluation`; bugs whose
        mechanism can never alter an evaluation — inert placeholders and the
        user-index-only EMPTY-dropping bug — do not disable the prefilter,
        even when their ``functions`` tuple names the probe predicate).
        """
        if not self.fast_path:
            return False
        dialect = self.registry.dialect
        if dialect.strict_validation or not dialect.supports_empty_elements:
            return False
        if name.startswith("st_"):
            if not dialect.supports_function(name):
                return False
        elif not dialect.supports_operator(name):
            return False
        return not self.fault_plan.influences_evaluation(name)

    def _maybe_filter_with_index(self, statement, item, binding, rows):
        """Index-filter a single-table scan whose WHERE compares a geometry
        column against a constant geometry (the paper's Listing 8 shape),
        through a user-created index when sequential scans are disabled —
        faithful to the fault plan.
        """
        if not self._use_index() or statement.where is None:
            return rows
        if len(statement.from_items) != 1 or statement.joins:
            return rows
        if not isinstance(item, ast.TableRef):
            return rows
        probe = self._constant_probe(statement.where, binding)
        if probe is None:
            return rows
        _name, column_name, constant_expression = probe
        index = self._table(item.name).spatial_index_on(column_name)
        if index is None:
            return rows
        constant = self._evaluate(constant_expression, {})
        if not isinstance(constant, Geometry):
            return rows
        candidate_ids = set(index.candidates(constant.envelope()))
        return [row for row in rows if row["__rowid__"] in candidate_ids]

    def _constant_probe(self, where: ast.Expression, binding: str):
        """Return (predicate or operator name, column, constant expression)
        for an indexable WHERE clause."""
        if isinstance(where, ast.BinaryOp) and where.operator in ("~=", "="):
            name = where.operator
            sides = (where.left, where.right)
        elif (
            isinstance(where, ast.FunctionCall)
            and where.name.lower() in _INDEXABLE_PREDICATES
            and len(where.arguments) >= 2
        ):
            name = where.name.lower()
            sides = (where.arguments[0], where.arguments[1])
        else:
            return None
        for column_side, constant_side in (sides, tuple(reversed(sides))):
            if not isinstance(column_side, ast.ColumnRef):
                continue
            if column_side.table is not None and column_side.table != binding:
                continue
            if _is_constant_expression(constant_side):
                return name, column_side.name, constant_side
        return None

    def _drop_empty_from_index(self) -> bool:
        return self.fault_plan.has_mechanism(MECH_INDEX_DROPS_EMPTY)

    def _index_join_plan(self, join: ast.Join, inner_binding: str):
        """Return (inner table, index, outer column expr, inner column name)
        when the join can be driven by a spatial index."""
        if not self._use_index() or join.condition is None:
            return None
        if not isinstance(join.item, ast.TableRef):
            return None
        condition = join.condition
        if not isinstance(condition, ast.FunctionCall):
            return None
        if condition.name.lower() not in _INDEXABLE_PREDICATES:
            return None
        if len(condition.arguments) < 2:
            return None
        first, second = condition.arguments[0], condition.arguments[1]
        if not isinstance(first, ast.ColumnRef) or not isinstance(second, ast.ColumnRef):
            return None
        table = self._table(join.item.name)
        for outer_ref, inner_ref in ((first, second), (second, first)):
            if inner_ref.table != inner_binding:
                continue
            index = table.spatial_index_on(inner_ref.name)
            if index is None:
                continue
            return table, index, outer_ref, inner_ref.name
        return None

    def _index_candidates(self, environment, index_plan, all_rows):
        table, index, outer_ref, _inner_column = index_plan
        outer_value = self._evaluate(outer_ref, environment)
        if not isinstance(outer_value, Geometry):
            return all_rows
        envelope = outer_value.envelope()
        candidate_ids = set(index.candidates(envelope))
        return [row for row in all_rows if row["__rowid__"] in candidate_ids]

    # ------------------------------------------------------------ projection
    def _is_aggregate(self, statement: ast.Select) -> bool:
        return any(
            isinstance(item.expression, ast.FunctionCall)
            and item.expression.name.lower() in _AGGREGATE_FUNCTIONS
            for item in statement.items
        )

    def _project_aggregate(self, statement, qualifying) -> ResultSet:
        columns: list[str] = []
        values: list[Any] = []
        for item in statement.items:
            expression = item.expression
            name = (
                expression.name.lower()
                if isinstance(expression, ast.FunctionCall)
                else None
            )
            if name == "count":
                if expression.is_star:
                    count = len(qualifying)
                else:
                    count = sum(
                        1
                        for environment in qualifying
                        if self._evaluate(expression.arguments[0], environment) is not None
                    )
                columns.append(item.alias or "count")
                values.append(count)
            elif name == "sum":
                if expression.is_star or not expression.arguments:
                    raise SQLExecutionError("SUM requires an expression argument")
                addends = [
                    value
                    for environment in qualifying
                    if (value := self._evaluate(expression.arguments[0], environment))
                    is not None
                ]
                # SQL semantics: SUM over zero non-NULL inputs is NULL.
                columns.append(item.alias or "sum")
                values.append(sum(addends) if addends else None)
            else:
                raise SQLExecutionError(
                    "aggregate queries may only combine COUNT and SUM expressions"
                )
        return ResultSet(columns=columns, rows=[tuple(values)])

    def _project_rows(self, statement, qualifying) -> ResultSet:
        columns: list[str] = []
        star = any(item.is_star for item in statement.items)
        rows: list[tuple] = []
        for environment in qualifying:
            output: list[Any] = []
            for item in statement.items:
                if item.is_star:
                    for binding in sorted(environment):
                        row = environment[binding]
                        for key, value in row.items():
                            if key == "__rowid__":
                                continue
                            output.append(value)
                else:
                    output.append(self._evaluate(item.expression, environment))
            rows.append(tuple(output))

        for item in statement.items:
            if item.is_star:
                if qualifying:
                    first = qualifying[0]
                    for binding in sorted(first):
                        for key in first[binding]:
                            if key != "__rowid__":
                                columns.append(key)
                continue
            columns.append(item.alias or _expression_name(item.expression))

        if statement.order_by:
            order_values = [
                tuple(self._evaluate(e, env) for e in statement.order_by) for env in qualifying
            ]
            rows = [row for _, row in sorted(zip(order_values, rows), key=lambda pair: _sort_key(pair[0]))]
        if statement.limit is not None:
            rows = rows[: statement.limit]
        return ResultSet(columns=columns, rows=rows)

    # ----------------------------------------------------------- expressions
    def _evaluate(self, expression: ast.Expression, environment: dict[str, dict[str, Any]]) -> Any:
        if isinstance(expression, ast.Literal):
            return expression.value
        if isinstance(expression, ast.SessionVariable):
            return self.database.variables.get(expression.name.lower())
        if isinstance(expression, ast.ColumnRef):
            return self._resolve_column(expression, environment)
        if isinstance(expression, ast.Cast):
            return self._evaluate_cast(expression, environment)
        if isinstance(expression, ast.FunctionCall):
            arguments = [self._evaluate(arg, environment) for arg in expression.arguments]
            return self.registry.call(expression.name, arguments)
        if isinstance(expression, ast.IsNull):
            value = self._evaluate(expression.operand, environment)
            return (value is not None) if expression.negated else (value is None)
        if isinstance(expression, ast.UnaryOp):
            return self._evaluate_unary(expression, environment)
        if isinstance(expression, ast.BinaryOp):
            return self._evaluate_binary(expression, environment)
        raise SQLExecutionError(f"cannot evaluate expression {expression!r}")

    def _resolve_column(self, reference: ast.ColumnRef, environment) -> Any:
        if reference.table is not None:
            row = environment.get(reference.table)
            if row is None:
                raise SQLExecutionError(f"unknown table alias {reference.table!r}")
            if reference.name not in row:
                raise SQLExecutionError(
                    f"column {reference.name!r} not found in {reference.table!r}"
                )
            return row[reference.name]
        matches = [
            row[reference.name]
            for row in environment.values()
            if reference.name in row
        ]
        holders = [
            binding for binding, row in environment.items() if reference.name in row
        ]
        if not holders:
            raise SQLExecutionError(f"column {reference.name!r} not found")
        if len(holders) > 1:
            raise SQLExecutionError(f"column reference {reference.name!r} is ambiguous")
        return matches[0]

    def _evaluate_cast(self, expression: ast.Cast, environment) -> Any:
        value = self._evaluate(expression.operand, environment)
        if value is None:
            return None
        if expression.type_name == "geometry":
            if isinstance(value, Geometry):
                return value
            return load_wkt(str(value))
        if expression.type_name in ("int", "integer", "bigint"):
            return int(value)
        if expression.type_name in ("float", "double"):
            return float(value)
        if expression.type_name in ("text", "varchar"):
            return str(value)
        raise SQLExecutionError(f"unsupported cast target {expression.type_name!r}")

    def _evaluate_unary(self, expression: ast.UnaryOp, environment) -> Any:
        value = self._evaluate(expression.operand, environment)
        if expression.operator == "not":
            if value is None:
                return None
            return not value
        if expression.operator == "-":
            return None if value is None else -value
        raise SQLExecutionError(f"unsupported unary operator {expression.operator!r}")

    def _evaluate_binary(self, expression: ast.BinaryOp, environment) -> Any:
        operator = expression.operator.lower()
        if operator in ("and", "or"):
            return self._evaluate_logical(operator, expression, environment)
        left = self._evaluate(expression.left, environment)
        right = self._evaluate(expression.right, environment)
        if operator == "~=":
            return self._same_as(left, right)
        if left is None or right is None:
            return None
        if operator in ("=", "<>", "!="):
            equal = self._values_equal(left, right)
            return equal if operator == "=" else not equal
        if operator in ("<", ">", "<=", ">="):
            return _compare(left, right, operator)
        if operator in ("+", "-", "*", "/"):
            return _arithmetic(left, right, operator)
        raise SQLExecutionError(f"unsupported operator {expression.operator!r}")

    def _evaluate_logical(self, operator: str, expression: ast.BinaryOp, environment) -> Any:
        left = self._evaluate(expression.left, environment)
        right = self._evaluate(expression.right, environment)
        values = {bool(left) if left is not None else None, bool(right) if right is not None else None}
        if operator == "and":
            if False in values:
                return False
            if None in values:
                return None
            return True
        if True in values:
            return True
        if None in values:
            return None
        return False

    def _same_as(self, left: Any, right: Any) -> Any:
        """The PostGIS ``~=`` (same-as) operator: identical coordinates."""
        if not self.registry.dialect.supports_operator("~="):
            raise SQLExecutionError(
                f"{self.registry.dialect.label} does not support the ~= operator"
            )
        if left is None or right is None:
            return None
        left_geom = left if isinstance(left, Geometry) else load_wkt(str(left))
        right_geom = right if isinstance(right, Geometry) else load_wkt(str(right))
        return left_geom.wkt == right_geom.wkt

    @staticmethod
    def _values_equal(left: Any, right: Any) -> bool:
        if isinstance(left, Geometry) and isinstance(right, Geometry):
            return left.wkt == right.wkt
        if isinstance(left, bool) or isinstance(right, bool):
            return bool(left) == bool(right)
        return left == right

    # -------------------------------------------------------------- internal
    def _table(self, name: str) -> Table:
        key = name.lower()
        if key not in self.database.tables:
            raise TableError(f"table {name!r} does not exist")
        return self.database.tables[key]


@dataclass
class SpatialDatabaseState:
    """Mutable engine state shared by the executor and the database facade."""

    tables: dict[str, Table] = field(default_factory=dict)
    settings: dict[str, Any] = field(default_factory=lambda: {"enable_seqscan": True})
    variables: dict[str, Any] = field(default_factory=dict)


def _infer_type(result: ResultSet, column_index: int) -> str:
    for row in result.rows:
        value = row[column_index]
        if isinstance(value, Geometry):
            return "geometry"
        if isinstance(value, bool):
            return "boolean"
        if isinstance(value, int):
            return "int"
        if isinstance(value, float):
            return "float"
        if isinstance(value, str):
            return "text"
    return "text"


def _as_setting(value: Any) -> Any:
    if isinstance(value, str):
        lowered = value.lower()
        if lowered in ("true", "on", "1"):
            return True
        if lowered in ("false", "off", "0"):
            return False
    return value


def _is_constant_expression(expression: ast.Expression) -> bool:
    """True if the expression references no columns (safe to pre-evaluate)."""
    if isinstance(expression, ast.Literal):
        return True
    if isinstance(expression, ast.SessionVariable):
        return True
    if isinstance(expression, ast.Cast):
        return _is_constant_expression(expression.operand)
    if isinstance(expression, ast.FunctionCall):
        return all(_is_constant_expression(arg) for arg in expression.arguments)
    if isinstance(expression, ast.UnaryOp):
        return _is_constant_expression(expression.operand)
    return False


def _expression_name(expression: ast.Expression | None) -> str:
    if isinstance(expression, ast.FunctionCall):
        return expression.name.lower()
    if isinstance(expression, ast.ColumnRef):
        return expression.name
    return "column"


def _sort_key(values: tuple) -> tuple:
    return tuple((value is None, value) for value in values)


def _compare(left: Any, right: Any, operator: str) -> bool:
    if operator == "<":
        return left < right
    if operator == ">":
        return left > right
    if operator == "<=":
        return left <= right
    return left >= right


def _arithmetic(left: Any, right: Any, operator: str) -> Any:
    if operator == "+":
        return left + right
    if operator == "-":
        return left - right
    if operator == "*":
        return left * right
    if right == 0 and operator == "/":
        raise SQLExecutionError("division by zero")
    return left / right
