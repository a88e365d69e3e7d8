"""Yield of the single-database oracle families: bugs the AEI scenarios miss.

Two fault classes anchor the claim that the new families widen coverage
rather than duplicating it:

* the wrong-definition ``ST_DFullyWithin`` fault never surfaces through the
  topological-join scenario — distance predicates are inadmissible under
  general affine maps, so that scenario *provably* never issues one — but
  PQS rectifies distance predicates directly and reports the dropped pivot;
* the prepared-geometry collection fault (the paper's Listing 7 shape) only
  fires on a *repeated* probe, so every single query it perturbs looks
  plausible in isolation; the set-theoretic battery re-evaluates the same
  join predicate across several queries and catches the cross-query count
  inconsistency on both execution backends.

The final class pins the parallel contract: a sharded campaign whose
findings come from the new families merges finding-for-finding into the
serial result, through the same dedup signature space AEI uses.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.backends import create_backend
from repro.core.affine import AffineTransformation
from repro.core.campaign import CampaignConfig, TestingCampaign
from repro.core.generator import DatabaseSpec
from repro.core.oracle import AEIOracle
from repro.core.parallel import ParallelCampaign
from repro.core.qir import Column, FunctionCall, GeometryLiteral, IntLiteral
from repro.engine.database import connect
from repro.oracles import OracleRoundOutcome, PivotedQueryOracle, SetTheoreticJoinOracle

#: the buggy release path computes "within distance but NOT intersecting",
#: so any pivot pair that intersects is wrongly rejected.
DFULLYWITHIN_BUG = "postgis-dfullywithin-wrong-definition"
DFULLYWITHIN_SPEC = DatabaseSpec(tables={"t1": ["POINT(1 1)", "POINT(6 1)"]})

#: the prepared-cache fault: a repeated GEOMETRYCOLLECTION probe against a
#: prepared non-collection silently flips ``st_contains`` to False.
PREPARED_BUG = "geos-prepared-contains-collection"
PREPARED_SPEC = DatabaseSpec(
    tables={
        "ta": ["POLYGON((0 0, 10 0, 10 10, 0 10, 0 0))"],
        "tb": ["GEOMETRYCOLLECTION(POINT(5 5))"],
    }
)


class TestPQSSeesWhatTheJoinScenarioCannot:
    def test_topological_join_provably_never_issues_distance_predicates(self):
        from repro.core.queries import DISTANCE_PREDICATES, invariant_predicates

        # the scenario draws its predicate pool from invariant_predicates,
        # which excludes the distance family by admissibility.
        admissible = invariant_predicates(connect("postgis").dialect)
        assert admissible
        assert not set(admissible) & set(DISTANCE_PREDICATES)

    def test_topological_join_cannot_see_the_dfullywithin_bug(self):
        for seed in range(5):
            oracle = AEIOracle(
                lambda: connect("postgis", bug_ids=[DFULLYWITHIN_BUG]),
                random.Random(seed),
            )
            outcome = oracle.check(
                DFULLYWITHIN_SPEC,
                query_count=20,
                transformation=AffineTransformation.identity(),
                scenarios=["topological-join"],
            )
            assert outcome.discrepancies == []
            assert outcome.queries_run == 20

    def _directed_pivot(self, bug_ids) -> OracleRoundOutcome:
        backend = create_backend("inprocess", dialect="postgis", bug_ids=bug_ids)
        oracle = PivotedQueryOracle()
        outcome = OracleRoundOutcome()
        session = oracle.materialise(DFULLYWITHIN_SPEC, backend.open_session, outcome)
        # POINT(1 1) is fully within distance 5 of itself and intersects it,
        # which is exactly the shape the buggy definition rejects.
        expression = FunctionCall(
            "st_dfullywithin",
            (Column("g"), GeometryLiteral("POINT(1 1)"), IntLiteral(5)),
        )
        oracle.check_pivot(
            outcome,
            session,
            backend.capabilities(),
            DFULLYWITHIN_SPEC,
            "t1",
            1,
            "POINT(1 1)",
            expression,
        )
        return outcome

    def test_pqs_detects_it_with_ground_truth_attribution(self):
        outcome = self._directed_pivot((DFULLYWITHIN_BUG,))
        assert len(outcome.findings) == 1
        finding = outcome.findings[0]
        assert DFULLYWITHIN_BUG in finding.triggered_bug_ids
        assert finding.label == "st_dfullywithin"
        assert finding.signature().startswith("pqs|st_dfullywithin|")

    def test_pqs_random_checks_find_it_too(self):
        backend = create_backend("inprocess", dialect="postgis", bug_ids=(DFULLYWITHIN_BUG,))
        outcome = PivotedQueryOracle().check(
            DFULLYWITHIN_SPEC, backend.open_session, backend.capabilities(), random.Random(2), 20
        )
        assert any(DFULLYWITHIN_BUG in f.triggered_bug_ids for f in outcome.findings)

    def test_the_clean_engine_passes_the_same_directed_pivot(self):
        outcome = self._directed_pivot(())
        assert outcome.findings == []


class TestSetTheoreticSeesThePreparedCacheFault:
    def _directed_join(self, backend_name: str, bug_ids) -> OracleRoundOutcome:
        backend = create_backend(backend_name, dialect="postgis", bug_ids=bug_ids)
        oracle = SetTheoreticJoinOracle()
        outcome = OracleRoundOutcome()
        session = oracle.materialise(PREPARED_SPEC, backend.open_session, outcome)
        oracle.check_join(
            outcome, session, backend.capabilities(), PREPARED_SPEC, "ta", "tb", "st_contains"
        )
        return outcome

    @pytest.mark.parametrize("backend_name", ("inprocess", "sqlite"))
    def test_the_repeated_probe_breaks_the_cross_query_counts(self, backend_name):
        outcome = self._directed_join(backend_name, (PREPARED_BUG,))
        assert outcome.findings
        labels = {finding.label for finding in outcome.findings}
        assert "st_contains:count-vs-rows" in labels
        for finding in outcome.findings:
            assert PREPARED_BUG in finding.triggered_bug_ids

    @pytest.mark.parametrize("backend_name", ("inprocess", "sqlite"))
    def test_the_clean_engine_passes_the_same_battery(self, backend_name):
        outcome = self._directed_join(backend_name, ())
        assert outcome.findings == []
        assert outcome.crashes == []


class TestOracleFindingsMergeAcrossShards:
    #: a campaign whose only findings come from the set-theoretic family
    #: (seed chosen so the generated joins hit the prepared-cache fault).
    CONFIG = CampaignConfig(
        dialect="postgis",
        bug_ids=(PREPARED_BUG,),
        oracles=("set-theoretic",),
        geometry_count=8,
        queries_per_round=12,
        seed=0,
    )

    @pytest.fixture(scope="class")
    def serial_result(self):
        return TestingCampaign(self.CONFIG).run(rounds=3)

    def test_the_serial_campaign_finds_the_fault(self, serial_result):
        assert serial_result.oracle_findings
        assert serial_result.unique_bug_ids == [PREPARED_BUG]
        assert set(serial_result.queries_by_oracle) == {"set-theoretic"}

    def test_sharded_findings_merge_identically(self, serial_result):
        parallel = ParallelCampaign(replace(self.CONFIG, shards=3)).run(rounds=3)
        assert sorted(f.describe() for f in parallel.oracle_findings) == sorted(
            f.describe() for f in serial_result.oracle_findings
        )
        assert sorted(f.signature() for f in parallel.oracle_findings) == sorted(
            f.signature() for f in serial_result.oracle_findings
        )
        assert set(parallel.unique_bug_ids) == set(serial_result.unique_bug_ids)
        assert parallel.queries_by_oracle == serial_result.queries_by_oracle
