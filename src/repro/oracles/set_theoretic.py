"""The set-theoretic join oracle: algebra over a join and its scans.

Inner joins obey algebraic laws that need no second engine and no database
pair to check: the join result is a subset of the cross product of its
single-table scans, its cardinality is bounded by the product of theirs,
projecting the join onto one side yields a semijoin contained in that
side's scan, and partitioning the cross product by the join predicate's
three-valued verdict (``p`` / ``NOT p`` / ``p IS NULL`` — the TLP
decomposition) must account for every pair exactly once.  A correct,
deterministic engine cannot violate any of these relations, whatever the
predicate computes — which is the family's soundness argument — while an
engine whose predicate evaluation is *inconsistent across queries* (the
paper's Listing 7 prepared-geometry bug: a repeated GEOMETRYCOLLECTION
probe silently flips to ``False``) breaks the cross-query counts even
though every individual answer looks plausible.

For each check the oracle instantiates one join over the generated tables
(full predicate pool, distance predicates included — no affine-invariance
restriction applies because nothing is transformed), derives the underlying
scans from the join plan via :func:`repro.scenarios.scan_subplans`, and
executes the battery on one session *in a fixed order*, join rows first:
any predicate-evaluation state the engine builds up (prepared caches,
planner statistics) is thereby exercised across queries exactly the way a
real workload would exercise it.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.backends.base import Capabilities
from repro.backends.resultset import normalize_rows, normalize_value
from repro.core.generator import DatabaseSpec
from repro.core.oracle import CrashReport
from repro.core.qir import (
    Column,
    IsNull,
    Not,
    Select,
    TableRef,
    count_query,
    predicate_call,
    render,
)
from repro.core.queries import DISTANCE_PREDICATES
from repro.errors import EngineCrash, ReproError, SemanticGeometryError
from repro.oracles.base import CampaignOracle, OracleFinding, OracleRoundOutcome, geometry_types_of
from repro.scenarios import scan_subplans


class SetTheoreticJoinOracle(CampaignOracle):
    """Checks containment/cardinality algebra over generated joins."""

    name = "set-theoretic"
    title = "set-theoretic containment and cardinality relations over inner joins"
    paper_anchor = "set-theoretic inner-join algebra; TLP partitioning (Rigger & Su 2020)"

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
        tables = spec.table_names()
        predicates = capabilities.topological_predicates()
        if not tables or not predicates:
            return outcome
        session = self.materialise(spec, session_factory, outcome)
        if session is None:
            return outcome
        for _ in range(max(0, count)):
            predicate = rng.choice(predicates)
            table_a = rng.choice(tables)
            table_b = rng.choice(tables)
            distance = rng.randint(1, 20) if predicate in DISTANCE_PREDICATES else None
            self.check_join(
                outcome, session, capabilities, spec, table_a, table_b, predicate, distance
            )
        return outcome

    # ------------------------------------------------------------ one check
    def check_join(
        self,
        outcome: OracleRoundOutcome,
        session: Any,
        capabilities: Capabilities,
        spec: DatabaseSpec,
        table_a: str,
        table_b: str,
        predicate: str,
        distance: int | None = None,
    ) -> None:
        """Run the full relation battery for one join instantiation.

        Sources are always aliased (``a``/``b``) so self-joins render
        identically on backends without unaliased-self-join support.  The
        join-pairs query runs *first*: every later count/projection query
        re-evaluates the same predicate on the same pairs, so a stateful
        evaluation inconsistency surfaces as a relation violation.
        """
        condition = predicate_call(predicate, "a", "b", distance=distance)
        sources = (TableRef(table_a, alias="a"), TableRef(table_b, alias="b"))
        join_ir = Select(
            projection=(Column("id", "a"), Column("id", "b")),
            sources=sources,
            where=condition,
        )
        semijoin_ir = Select(
            projection=(Column("id", "a"),), sources=sources, where=condition
        )
        count_ir = count_query(sources, where=condition)
        not_count_ir = count_query(sources, where=Not(condition))
        null_count_ir = count_query(sources, where=IsNull(condition))
        scan_a_ir, scan_b_ir = scan_subplans(join_ir)

        before = len(session.fault_plan.triggered)
        try:
            join_rows = self._rows(outcome, session, capabilities, join_ir)
            scan_a = self._rows(outcome, session, capabilities, scan_a_ir)
            scan_b = self._rows(outcome, session, capabilities, scan_b_ir)
            join_count = self._value(outcome, session, capabilities, count_ir)
            not_count = self._value(outcome, session, capabilities, not_count_ir)
            null_count = self._value(outcome, session, capabilities, null_count_ir)
            semijoin = self._rows(outcome, session, capabilities, semijoin_ir)
        except EngineCrash as crash:
            outcome.crashes.append(
                CrashReport(statement=render(join_ir), message=str(crash), bug_id=crash.bug_id)
            )
            return
        except (SemanticGeometryError, ReproError):
            outcome.errors_ignored += 1
            return

        triggered = tuple(dict.fromkeys(session.fault_plan.triggered[before:]))
        types = geometry_types_of(spec, (table_a, table_b))

        def report(relation: str, detail: str) -> None:
            outcome.findings.append(
                OracleFinding(
                    oracle=self.name,
                    label=f"{predicate}:{relation}",
                    sql=render(join_ir),
                    detail=detail,
                    ir=join_ir,
                    triggered_bug_ids=triggered,
                    geometry_types=types,
                )
            )

        left_ids = {row[0] for row in scan_a}
        right_ids = {row[0] for row in scan_b}
        cross_cardinality = len(scan_a) * len(scan_b)

        # R1: the join result is contained in the scans' cross product.
        escaped = [
            pair for pair in join_rows if pair[0] not in left_ids or pair[1] not in right_ids
        ]
        if escaped:
            report(
                "cross-product-containment",
                f"join returned pair {escaped[0]} outside the scans' cross product",
            )
        # R2: keyed cross-product pairs are distinct, so the join cannot
        # duplicate them, and |A join B| <= |A| * |B|.
        if len(join_rows) != len(set(join_rows)):
            report("duplicate-pairs", "join returned a duplicated (a.id, b.id) pair")
        if len(join_rows) > cross_cardinality:
            report(
                "cardinality-bound",
                f"join returned {len(join_rows)} pairs from a cross product of "
                f"{cross_cardinality}",
            )
        # R3: COUNT(*) under the same predicate agrees with the row list.
        if join_count != len(join_rows):
            report(
                "count-vs-rows",
                f"COUNT(*) said {join_count} but the join returned "
                f"{len(join_rows)} pairs",
            )
        # R4: the three-valued partition of the cross product is exhaustive
        # and disjoint (the TLP sum, anchored to the scans' cardinalities).
        partition_sum = sum(int(part or 0) for part in (join_count, not_count, null_count))
        if partition_sum != cross_cardinality:
            report(
                "partition-sum",
                f"predicate partitions sum to {partition_sum} over a cross "
                f"product of {cross_cardinality} "
                f"(true={join_count}, false={not_count}, null={null_count})",
            )
        # R5: projecting the join onto its left side is the semijoin — same
        # multiset as the pairs' first components, contained in the scan.
        if sorted(row[0] for row in semijoin) != sorted(pair[0] for pair in join_rows):
            report(
                "semijoin-projection",
                f"left projection returned {len(semijoin)} ids for "
                f"{len(join_rows)} join pairs",
            )
        if any(row[0] not in left_ids for row in semijoin):
            report(
                "semijoin-containment",
                "semijoin returned an id missing from the left scan",
            )

    # -------------------------------------------------------------- helpers
    @staticmethod
    def _rows(
        outcome: OracleRoundOutcome, session: Any, capabilities: Capabilities, ir: Select
    ) -> list[tuple]:
        outcome.queries_run += 1
        return normalize_rows(session.query_rows(render(ir, capabilities)), ordered=True)

    @staticmethod
    def _value(
        outcome: OracleRoundOutcome, session: Any, capabilities: Capabilities, ir: Select
    ) -> Any:
        outcome.queries_run += 1
        return normalize_value(session.query_value(render(ir, capabilities)))
