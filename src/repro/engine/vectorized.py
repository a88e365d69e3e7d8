"""Plan-level batch compiler for MiniSDB's vectorized execution core.

``compile_select`` lowers a parsed ``Select`` — the engine-side form of the
typed query IR (every ``qir.Select`` a campaign emits is rendered to dialect
SQL and parsed back into exactly this shape) — into a pipeline of batch
operators instead of the executor's per-row AST interpretation:

    scan  →  batch prefilter  →  residual exact predicate  →  project/aggregate

The stages are deliberately asymmetric in how much they may change:

* **scan** materializes the same row blocks the scalar path would
  (subqueries are executed once, exactly like ``_rows_for_item``);
* **batch prefilter** narrows candidate rows with the columnar
  :class:`~repro.geometry.columnar.EnvelopeBlock` kernels — vectorized
  envelope intersection for the indexable predicates and a bbox-distance
  prescreen for ``ST_DWithin`` — under the observability gate
  :meth:`Executor._prefilter_allowed`: a row may be skipped only when its
  evaluation provably returns non-TRUE and can neither raise nor record a
  fault trigger;
* **residual exact predicate** re-checks every surviving row with the
  ordinary ``Executor._evaluate`` in unchanged nested-loop order, so every
  fault hook fires on exactly the rows (and in exactly the order) the
  scalar path would evaluate;
* **project/aggregate** is the executor's own ``_finalize_select``.

User-created spatial indexes keep their scalar semantics: when the planner
would use one (``enable_seqscan`` off), the compiler delegates candidate
generation to the scalar index helpers so fault-corrupted indexes (the
paper's Listing 8 GiST bug) stay observable bit-for-bit.  Any shape the
batch operators do not accelerate degrades to the identical scalar logic —
the pipeline is a superset, never a fork, of the reference semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.engine import ast
from repro.engine.prepared import INDEXABLE_PREDICATES
from repro.geometry.columnar import vectorized_kernels_enabled
from repro.geometry.model import Geometry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import Executor, ResultSet


def compile_select(executor: "Executor", statement: ast.Select) -> "BatchSelectPlan | None":
    """Lower a ``Select`` into a batch plan, or ``None`` to run scalar.

    Compilation is refused when the batch kernels are switched off (a
    test's scalar reference run) and for the degenerate FROM-less select,
    where there is nothing to batch.

    The reuse layer's compiled-plan cache replays the *same* ``statement``
    object across executions with its literal values rebound in place
    between runs, so nothing derived from a literal's value may be
    memoized on (or keyed by) the statement — every threshold and constant
    below is re-read per execution.
    """
    if not vectorized_kernels_enabled():
        return None
    if not statement.from_items and not statement.joins:
        return None
    return BatchSelectPlan(executor, statement)


@dataclass
class _BatchJoinPrefilter:
    """A compiled batch-prefilter operator for one join's inner side.

    ``threshold`` is ``None`` for envelope-intersection predicates and the
    (literal, non-negative) distance bound for ``ST_DWithin``.
    """

    block: Any
    outer_ref: ast.ColumnRef
    threshold: float | int | None

    def candidates(
        self,
        executor: "Executor",
        environment: dict[str, dict[str, Any]],
        rows: list[dict[str, Any]],
    ) -> list[dict[str, Any]]:
        outer_value = executor._evaluate(self.outer_ref, environment)
        if not isinstance(outer_value, Geometry):
            return rows
        envelope = outer_value.envelope()
        if self.threshold is None:
            positions = self.block.intersecting(envelope)
        else:
            positions = self.block.within_distance(envelope, self.threshold)
        return [rows[position] for position in positions]


class BatchSelectPlan:
    """The operator pipeline for one ``Select``."""

    def __init__(self, executor: "Executor", statement: ast.Select):
        self.executor = executor
        self.statement = statement

    def execute(self) -> "ResultSet":
        executor = self.executor
        statement = self.statement
        environments = self._scan_and_join()
        qualifying: list[dict[str, dict[str, Any]]] = []
        for environment in environments:
            if statement.where is not None:
                verdict = executor._evaluate(statement.where, environment)
                if verdict is not True:
                    continue
            qualifying.append(environment)
        return executor._finalize_select(statement, qualifying)

    # -------------------------------------------------------------- pipeline
    def _scan_and_join(self) -> list[dict[str, dict[str, Any]]]:
        executor = self.executor
        statement = self.statement
        sources: list[tuple[str, list[dict[str, Any]]]] = []
        for item in statement.from_items:
            binding, rows = executor._rows_for_item(item)
            if executor._use_index():
                # A user-created index must keep the scalar code path's
                # exact semantics, so a fault-corrupted index stays
                # observable.
                rows = executor._maybe_filter_with_index(statement, item, binding, rows)
            else:
                rows = self._batch_scan_filter(item, binding, rows)
            sources.append((binding, rows))

        environments: list[dict[str, dict[str, Any]]] = [{}]
        for binding, rows in sources:
            environments = [
                {**environment, binding: row} for environment in environments for row in rows
            ]

        for join in statement.joins:
            environments = self._join_stage(environments, join)
        return environments

    def _batch_scan_filter(self, item, binding, rows):
        """Columnar prescreen for the single-table constant probe.

        Returns the filtered row block.  Besides the indexable predicates,
        an ``ST_DWithin`` probe with a literal distance gets the
        bbox-distance prescreen.
        """
        executor = self.executor
        statement = self.statement
        if statement.where is None:
            return rows
        if len(statement.from_items) != 1 or statement.joins:
            return rows
        if not isinstance(item, ast.TableRef):
            return rows
        if not executor.fast_path or not rows:
            return rows
        threshold = None
        probe = executor._constant_probe(statement.where, binding)
        if probe is None:
            dwithin = _dwithin_constant_probe(statement.where, binding)
            if dwithin is None:
                return rows
            probe_name, column_name, constant_expression, threshold = dwithin
        else:
            probe_name, column_name, constant_expression = probe
        if not executor._prefilter_allowed(probe_name):
            return rows
        block = executor._table(item.name).envelope_block(column_name)
        if block is None:
            return rows
        constant = executor._evaluate(constant_expression, {})
        if not isinstance(constant, Geometry):
            return rows
        if threshold is None:
            positions = block.intersecting(constant.envelope())
        else:
            positions = block.within_distance(constant.envelope(), threshold)
        return [rows[position] for position in positions]

    def _join_stage(self, environments, join: ast.Join):
        """One join: batch prefilter where provably safe, scalar residual.

        The inner row block is materialized once (subqueries run exactly
        once, like the scalar path), candidate generation goes through the
        columnar kernels when the plan compiles, and the residual predicate
        is evaluated per combined row in unchanged nested-loop order so the
        fault-trigger stream is identical to the reference executor's.
        """
        executor = self.executor
        binding, rows = executor._rows_for_item(join.item)
        index_plan = executor._index_join_plan(join, binding)
        batch_plan = None
        if index_plan is None:
            batch_plan = self._batch_join_plan(join, binding)
        joined: list[dict[str, dict[str, Any]]] = []
        for environment in environments:
            candidate_rows = rows
            if batch_plan is not None:
                candidate_rows = batch_plan.candidates(executor, environment, rows)
            elif index_plan is not None:
                candidate_rows = executor._index_candidates(environment, index_plan, rows)
            for row in candidate_rows:
                combined = {**environment, binding: row}
                if join.condition is not None:
                    verdict = executor._evaluate(join.condition, combined)
                    if verdict is not True:
                        continue
                joined.append(combined)
        return joined

    def _batch_join_plan(self, join: ast.Join, inner_binding: str) -> _BatchJoinPrefilter | None:
        """Compile a columnar prefilter for a join, or ``None``.

        The condition must be an indexable predicate over an outer and an
        inner column, or ``ST_DWithin(outer.g, inner.g, <literal>)``, which
        compiles to the bbox-distance prescreen (sound because the
        box-to-box gap lower-bounds the geometry distance).
        """
        executor = self.executor
        if not executor.fast_path or join.condition is None:
            return None
        if not isinstance(join.item, ast.TableRef):
            return None
        condition = join.condition
        if not isinstance(condition, ast.FunctionCall):
            return None
        name = condition.name.lower()
        threshold = None
        if name == "st_dwithin":
            if len(condition.arguments) != 3:
                return None
            threshold = _literal_threshold(condition.arguments[2])
            if threshold is None:
                return None
        elif name not in INDEXABLE_PREDICATES or len(condition.arguments) < 2:
            return None
        if not executor._prefilter_allowed(name):
            return None
        first, second = condition.arguments[0], condition.arguments[1]
        if not isinstance(first, ast.ColumnRef) or not isinstance(second, ast.ColumnRef):
            return None
        table = executor._table(join.item.name)
        for outer_ref, inner_ref in ((first, second), (second, first)):
            if inner_ref.table != inner_binding:
                continue
            if outer_ref.table is None or outer_ref.table == inner_binding:
                # The probe must be resolvable against the *outer*
                # environment alone and keep exact nested-loop semantics.
                # An unqualified reference may resolve differently (or not
                # at all) there than in the joined row, and ON p(t.g, t.g) —
                # a self-referential condition under a repeated binding — is
                # evaluated on the *inner* row by the nested loop, so
                # prefiltering with the outer row's envelope would drop
                # qualifying rows.  The opt-in user-index path
                # (``_index_join_plan``) keeps the seed's behaviour for these
                # shapes; the always-on prefilter stays inert instead.
                continue
            block = table.envelope_block(inner_ref.name)
            if block is None:
                continue
            return _BatchJoinPrefilter(block, outer_ref, threshold)
        return None


def _dwithin_constant_probe(where: ast.Expression, binding: str):
    """Match ``ST_DWithin(<column>, <constant geometry>, <literal>)``.

    Returns ``(name, column, constant expression, threshold)`` or ``None``.
    The threshold must be a plain non-negative numeric literal so the
    prescreen never evaluates an expression the scalar path would not.
    """
    from repro.engine.executor import _is_constant_expression

    if not isinstance(where, ast.FunctionCall) or where.name.lower() != "st_dwithin":
        return None
    if len(where.arguments) != 3:
        return None
    threshold = _literal_threshold(where.arguments[2])
    if threshold is None:
        return None
    sides = (where.arguments[0], where.arguments[1])
    for column_side, constant_side in (sides, tuple(reversed(sides))):
        if not isinstance(column_side, ast.ColumnRef):
            continue
        if column_side.table is not None and column_side.table != binding:
            continue
        if _is_constant_expression(constant_side):
            return "st_dwithin", column_side.name, constant_side, threshold
    return None


def _literal_threshold(expression: ast.Expression) -> float | int | None:
    """A non-negative numeric literal distance bound, else ``None``."""
    if not isinstance(expression, ast.Literal):
        return None
    value = expression.value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if value < 0:
        return None
    return value
