"""The PQS pivot oracle: Pivoted Query Synthesis over the spatial IR.

PQS (Rigger & Su, "Testing Database Engines via Pivoted Query Synthesis",
OSDI 2020) tests one row at a time: pick a *pivot* row from a table,
evaluate a randomly generated predicate on the pivot with the tester's own
expression interpreter, *rectify* the predicate so the pivot must satisfy
it (wrap in ``NOT`` when it evaluated false, in ``IS NULL`` when it
evaluated to the SQL NULL), and flag any query whose result omits the
pivot.  The adaptation here builds predicates from the typed query IR
(:mod:`repro.core.qir`) over the spatial function catalog, and its
reference interpreter is the *shared* :class:`~repro.engine.registry.
FunctionRegistry` constructed with a clean fault plan: the pivot verdict
comes from exactly the code the fixed engine runs, so on a clean engine the
rectified query provably admits the pivot (zero false positives — the
property suite pins the interpreter to the executor row for row), while an
engine whose injected fault perturbs the predicate drops the pivot and is
reported with ground-truth attribution.

Unlike the AEI scenarios, no transformation is involved, so the predicate
pool carries no affine-invariance restriction: distance predicates
(``ST_DWithin``/``ST_DFullyWithin``) participate directly — which is what
lets PQS reach fault classes the topological-join scenario provably cannot
(its predicate pool excludes them by admissibility).
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.backends.base import Capabilities
from repro.core.generator import DatabaseSpec
from repro.core.oracle import CrashReport
from repro.core.qir import (
    Column,
    Expression,
    FunctionCall,
    GeometryLiteral,
    IntLiteral,
    IsNull,
    Not,
    Select,
    TableRef,
    render,
)
from repro.core.queries import DISTANCE_PREDICATES
from repro.engine.faults import FaultPlan
from repro.engine.registry import FunctionRegistry
from repro.errors import EngineCrash, ReproError, SemanticGeometryError
from repro.oracles.base import CampaignOracle, OracleFinding, OracleRoundOutcome, geometry_types_of

#: the geometry column every generated table carries.
GEOMETRY_COLUMN = "g"


def evaluate_on_pivot(expression: Expression, pivot_wkt: str, registry: FunctionRegistry) -> Any:
    """Evaluate a predicate expression on one pivot row, bottom-up.

    The interpreter mirrors :meth:`repro.engine.executor.Executor._evaluate`
    for the node kinds PQS generates — the same function registry, the same
    three-valued ``NOT`` (NULL stays NULL), the same ``IS NULL`` semantics —
    so a verdict computed here is exactly the verdict the engine's WHERE
    clause computes for the pivot row.  ``Column`` references resolve to the
    pivot's geometry (the only column PQS predicates mention).
    """
    if isinstance(expression, Column):
        return pivot_wkt
    if isinstance(expression, GeometryLiteral):
        return expression.wkt
    if isinstance(expression, IntLiteral):
        return expression.value
    if isinstance(expression, FunctionCall):
        arguments = [
            evaluate_on_pivot(argument, pivot_wkt, registry) for argument in expression.args
        ]
        return registry.call(expression.name, arguments)
    if isinstance(expression, Not):
        value = evaluate_on_pivot(expression.operand, pivot_wkt, registry)
        return None if value is None else not value
    if isinstance(expression, IsNull):
        return evaluate_on_pivot(expression.operand, pivot_wkt, registry) is None
    raise TypeError(f"PQS cannot evaluate IR node {expression!r} on a pivot")


def rectify(expression: Expression, verdict: Any) -> Expression:
    """Wrap a predicate so a row with this verdict must satisfy the WHERE.

    The WHERE clause admits a row exactly when the predicate is *true* (SQL
    three-valued logic: both false and NULL exclude), so a true verdict
    passes through, a false verdict is negated, and a NULL verdict becomes
    an ``IS NULL`` test — after which the pivot's verdict is true by
    construction.
    """
    if verdict is True:
        return expression
    if verdict is False:
        return Not(expression)
    if verdict is None:
        return IsNull(expression)
    raise ValueError(f"predicate evaluated to a non-boolean pivot verdict: {verdict!r}")


class PivotedQueryOracle(CampaignOracle):
    """Reports queries whose result omits a pivot row that must appear."""

    name = "pqs"
    title = "pivoted query synthesis: rectified predicates must return the pivot"
    paper_anchor = "Rigger & Su, Pivoted Query Synthesis (OSDI 2020)"

    #: probability of wrapping the base predicate in NOT / IS NULL, which
    #: exercises the false- and null-verdict rectification arms.
    wrap_not_probability = 0.2
    wrap_isnull_probability = 0.1

    # ------------------------------------------------------------------ run
    def check(
        self,
        spec: DatabaseSpec,
        session_factory: Callable[[], Any],
        capabilities: Capabilities,
        rng: random.Random,
        count: int,
    ) -> OracleRoundOutcome:
        outcome = OracleRoundOutcome()
        tables = [table for table in spec.table_names() if spec.tables[table]]
        predicates = capabilities.topological_predicates()
        wkt_pool = [wkt for table in tables for wkt in spec.tables[table]]
        if not tables or not predicates or not wkt_pool:
            return outcome
        session = self.materialise(spec, session_factory, outcome)
        if session is None:
            return outcome
        registry = self.reference_registry(capabilities)
        for _ in range(max(0, count)):
            table = rng.choice(tables)
            pivot_index = rng.randrange(len(spec.tables[table]))
            expression = self.random_predicate(rng, predicates, wkt_pool)
            self.check_pivot(
                outcome,
                session,
                capabilities,
                spec,
                table,
                pivot_index + 1,
                spec.tables[table][pivot_index],
                expression,
                registry,
            )
        return outcome

    # ------------------------------------------------------------ plumbing
    @staticmethod
    def reference_registry(capabilities: Capabilities) -> FunctionRegistry:
        """The pivot interpreter's function registry: the *fixed* engine.

        Built over the same dialect catalog with an empty fault plan, so
        pivot verdicts are what the clean engine computes — the oracle's
        entire bug-finding signal is the system under test disagreeing with
        its own fixed evaluation semantics.
        """
        return FunctionRegistry(capabilities.dialect, FaultPlan.none())

    def random_predicate(
        self,
        rng: random.Random,
        predicates: list[str],
        wkt_pool: list[str],
    ) -> Expression:
        """One random predicate over the pivot's geometry column."""
        predicate = rng.choice(predicates)
        arguments: tuple[Expression, ...] = (
            Column(GEOMETRY_COLUMN),
            GeometryLiteral(rng.choice(wkt_pool)),
        )
        if predicate in DISTANCE_PREDICATES:
            arguments = arguments + (IntLiteral(rng.randint(1, 20)),)
        expression: Expression = FunctionCall(predicate, arguments)
        roll = rng.random()
        if roll < self.wrap_not_probability:
            expression = Not(expression)
        elif roll < self.wrap_not_probability + self.wrap_isnull_probability:
            expression = IsNull(expression)
        return expression

    # ------------------------------------------------------------ one check
    def check_pivot(
        self,
        outcome: OracleRoundOutcome,
        session: Any,
        capabilities: Capabilities,
        spec: DatabaseSpec,
        table: str,
        pivot_id: int,
        pivot_wkt: str,
        expression: Expression,
        registry: FunctionRegistry | None = None,
    ) -> None:
        """Evaluate, rectify, and run one pivot query; report an omission."""
        if registry is None:
            registry = self.reference_registry(capabilities)
        try:
            verdict = evaluate_on_pivot(expression, pivot_wkt, registry)
            rectified = rectify(expression, verdict)
        except (SemanticGeometryError, ReproError, ValueError):
            # the fixed engine itself rejects the inputs (or the predicate
            # is not boolean): nothing sound to assert about the pivot.
            outcome.errors_ignored += 1
            return
        query_ir = Select(
            projection=(Column("id"),), sources=(TableRef(table),), where=rectified
        )
        before = len(session.fault_plan.triggered)
        outcome.queries_run += 1
        try:
            rows = session.query_rows(render(query_ir, capabilities))
        except EngineCrash as crash:
            outcome.crashes.append(
                CrashReport(statement=render(query_ir), message=str(crash), bug_id=crash.bug_id)
            )
            return
        except (SemanticGeometryError, ReproError):
            outcome.errors_ignored += 1
            return
        if any(row[0] == pivot_id for row in rows):
            return
        label = _expression_label(expression)
        outcome.findings.append(
            OracleFinding(
                oracle=self.name,
                label=label,
                sql=render(query_ir),
                detail=(
                    f"pivot row {pivot_id} of {table} ({pivot_wkt}) satisfies the "
                    f"rectified predicate but the result omits it"
                ),
                ir=query_ir,
                triggered_bug_ids=tuple(dict.fromkeys(session.fault_plan.triggered[before:])),
                geometry_types=geometry_types_of(spec, (table,)),
            )
        )


def _expression_label(expression: Expression) -> str:
    """The signature-relevant label: the innermost predicate's name."""
    if isinstance(expression, (Not, IsNull)):
        return _expression_label(expression.operand)
    if isinstance(expression, FunctionCall):
        return expression.name
    return type(expression).__name__.lower()
