"""The prefilter observability gate distinguishes evaluation faults.

Historically the envelope prefilter disengaged whenever
``FaultPlan.influences_function`` matched the predicate — including for
bugs that can never perturb a predicate *evaluation*: ``MECH_NONE``
placeholders (catalogue entries excluded from Table 3) and
``MECH_INDEX_DROPS_EMPTY`` bugs that corrupt only user-created GiST
indexes (the batch prefilter's envelope blocks always retain EMPTY rows).
Refusing the prefilter for those forfeited the fast path without buying
any observability.  ``FaultPlan.influences_evaluation`` is the fixed
gate; these tests pin its semantics and the finding-level equivalence of
the prefilter under an unaffected fault.
"""

from __future__ import annotations

from repro.engine.database import connect
from repro.engine.faults import NON_EVALUATION_MECHANISMS, FaultPlan, bug_by_id
from repro.geometry.columnar import clear_kernel_stats, kernel_stats


class TestInfluencesEvaluation:
    """Unit semantics of the fixed gate predicate."""

    def test_inert_placeholder_no_longer_blocks_its_predicate(self):
        # MECH_NONE: recorded in the catalogue, no behaviour hook anywhere.
        plan = FaultPlan.from_ids(["jts-boundary-last-one-wins"])
        assert plan.influences_function("st_within")  # the old gate refused
        assert not plan.influences_evaluation("st_within")  # the fix engages

    def test_index_corruption_bug_no_longer_blocks_its_operator(self):
        # MECH_INDEX_DROPS_EMPTY only corrupts user-created indexes; the
        # evaluation of ~= itself is untouched.
        plan = FaultPlan.from_ids(["postgis-seqscan-empty-equality"])
        assert plan.influences_function("~=")
        assert not plan.influences_evaluation("~=")

    def test_evaluation_bugs_still_block_their_predicates(self):
        plan = FaultPlan.from_ids(["geos-empty-element-intersects"])
        assert plan.influences_evaluation("st_intersects")
        assert not plan.influences_evaluation("st_overlaps")

    def test_crash_bugs_still_block_their_predicates(self):
        plan = FaultPlan.from_ids(["geos-crash-touches-empty-collection"])
        assert plan.influences_evaluation("st_touches")
        assert not plan.influences_evaluation("st_intersects")

    def test_empty_plan_influences_nothing(self):
        plan = FaultPlan.none()
        assert not plan.influences_evaluation("st_intersects")

    def test_gate_never_widens(self):
        """The fix only *opens* the gate: every predicate the new gate
        blocks, the old gate blocked too."""
        profile = FaultPlan.from_ids(
            ["geos-mixed-boundary-last-one-wins", "postgis-seqscan-empty-equality"]
        )
        for name in ("st_within", "st_contains", "st_intersects", "~=", "st_distance"):
            if profile.influences_evaluation(name):
                assert profile.influences_function(name)

    def test_catalogue_mechanism_classification_is_exhaustive(self):
        """Every non-evaluation mechanism in the catalogue is one of the two
        vetted classes — a new inert mechanism must be reviewed before it is
        added to NON_EVALUATION_MECHANISMS."""
        assert set(NON_EVALUATION_MECHANISMS) == {"no_behaviour", "index_drops_empty"}
        for bug_id in ("jts-boundary-last-one-wins", "postgis-seqscan-empty-equality"):
            assert bug_by_id(bug_id).mechanism in NON_EVALUATION_MECHANISMS


class TestPrefilterEngagesUnderUnaffectedFaults:
    """Executor-level: the gate opens for non-evaluation faults and the
    findings are identical with the prefilter on and off."""

    def test_gate_open_for_inert_fault_closed_for_real_fault(self):
        inert = connect("postgis", bug_ids=["jts-boundary-last-one-wins"])
        assert inert.executor._prefilter_allowed("st_within")
        real = connect("postgis", bug_ids=["geos-mixed-boundary-last-one-wins"])
        assert not real.executor._prefilter_allowed("st_within")

    def test_gate_open_for_index_corruption_fault(self):
        database = connect("postgis", bug_ids=["postgis-gist-index-drops-empty"])
        assert database.executor._prefilter_allowed("st_intersects")

    STATEMENTS = (
        "CREATE TABLE t (id int, geom geometry);"
        "INSERT INTO t (id, geom) VALUES "
        "(1, 'POLYGON((0 0,4 0,4 4,0 4,0 0))'::geometry),"
        "(2, 'POINT(1 1)'::geometry),"
        "(3, 'POINT EMPTY'::geometry),"
        "(4, 'POINT(90 90)'::geometry),"
        "(5, 'GEOMETRYCOLLECTION(POINT(2 2),LINESTRING EMPTY)'::geometry);"
    )
    QUERY = (
        "SELECT a.id, b.id FROM t AS a JOIN t AS b ON ST_Within(b.geom, a.geom) "
        "ORDER BY a.id, b.id"
    )

    def _findings(self, fast_path, vectorized):
        database = connect(
            "postgis",
            bug_ids=["jts-boundary-last-one-wins"],
            fast_path=fast_path,
            vectorized=vectorized,
        )
        database.execute(self.STATEMENTS)
        rows = database.query_rows(self.QUERY)
        return rows, list(database.fault_plan.triggered)

    def test_identical_findings_with_the_prefilter_on_and_off(self):
        """Regression for the gate fix: under a fault that matches the join
        predicate but cannot touch its evaluation, the prefiltered batch
        plan (gate now open), the batch plan without the prefilter (the old
        gate's behaviour) and the scalar plan all report the same rows and
        the same trigger stream — EMPTY and collection rows included."""
        clear_kernel_stats()
        prefiltered = self._findings(fast_path=True, vectorized=True)
        assert kernel_stats()["envelope_queries"] > 0  # the prefilter ran
        unprefiltered = self._findings(fast_path=False, vectorized=True)
        scalar = self._findings(fast_path=True, vectorized=False)
        assert prefiltered == unprefiltered == scalar
        rows, triggered = prefiltered
        assert (1, 2) in rows and (1, 5) in rows  # real containments found
        assert triggered == []  # the inert fault has no behaviour to fire
