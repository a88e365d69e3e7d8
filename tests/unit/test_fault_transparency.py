"""Fault transparency: the fast-path caches never mask an injected bug.

Every injected fault that perturbs query evaluation must still fire — same
wrong result, same ``bug_fired``/trigger bookkeeping — when every fast-path
layer (interned parsing, prepared-predicate LRU, relate memos, the batch
executor's envelope prefilter) is enabled, including under LRU eviction
pressure.  A cache
that "fixed" an injected bug would silently destroy the campaign's ground
truth.
"""

from __future__ import annotations

import pytest

from repro.engine.database import connect
from repro.engine.prepared import PreparedGeometryCache
from repro.geometry import load_wkt


def _fresh(bug_ids, fast_path=True):
    return connect("postgis", bug_ids=bug_ids, fast_path=fast_path)


class TestPreparedContainsCollectionBug:
    """geos-prepared-contains-collection (Listing 7) through the full stack."""

    STATEMENTS = (
        "CREATE table t (id int, geom geometry);"
        "INSERT INTO t (id, geom) VALUES "
        "(1,'GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))'::geometry),"
        "(2,'GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))'::geometry),"
        "(3,'MULTIPOLYGON(((0 0,5 0,0 5,0 0)))'::geometry);"
    )
    QUERY = "SELECT a1.id, a2.id FROM t As a1, t As a2 WHERE ST_Contains(a1.geom, a2.geom)"

    def test_bug_fires_with_fast_path_enabled(self):
        database = _fresh(["geos-prepared-contains-collection"], fast_path=True)
        database.execute(self.STATEMENTS)
        rows = sorted(database.query_rows(self.QUERY))
        assert (3, 2) not in rows  # the missing pair of Listing 7
        assert database.prepared_cache.bug_fired

    def test_bug_fires_identically_without_fast_path(self):
        fast = _fresh(["geos-prepared-contains-collection"], fast_path=True)
        slow = _fresh(["geos-prepared-contains-collection"], fast_path=False)
        for database in (fast, slow):
            database.execute(self.STATEMENTS)
        assert sorted(fast.query_rows(self.QUERY)) == sorted(slow.query_rows(self.QUERY))

    def test_bug_survives_lru_eviction(self):
        """Evicting the first probe's cached result must not reset the
        repeated-probe trigger condition."""
        cache = PreparedGeometryCache(buggy_collection_repeat=True, capacity=1)
        prepared = load_wkt("MULTIPOLYGON(((0 0,5 0,0 5,0 0)))")
        probe = load_wkt("GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))")
        assert cache.evaluate("st_contains", prepared, probe, lambda: True) is True
        # Push the entry out of the bounded store with unrelated traffic.
        other = load_wkt("POINT(9 9)")
        cache.evaluate("st_intersects", other, other, lambda: True)
        assert cache.evictions >= 1
        # The repeated collection probe must still misbehave.
        assert cache.evaluate("st_contains", prepared, probe, lambda: True) is False
        assert cache.bug_fired


class TestIndexDropsEmptyBug:
    """postgis-gist-index-drops-empty (Listing 8) with the fast path on."""

    STATEMENTS = (
        "CREATE TABLE t AS SELECT 1 AS id, 'POINT EMPTY'::geometry AS geom;"
        "CREATE INDEX idx ON t USING GIST (geom);"
        "SET enable_seqscan = false;"
    )
    QUERY = "SELECT COUNT(*) FROM t WHERE geom ~= 'POINT EMPTY'::geometry"

    def test_index_scan_still_loses_the_empty_row(self):
        database = _fresh(["postgis-gist-index-drops-empty"], fast_path=True)
        database.execute(self.STATEMENTS)
        assert database.query_value(self.QUERY) == 0

    def test_seqscan_still_finds_the_empty_row(self):
        database = _fresh(["postgis-gist-index-drops-empty"], fast_path=True)
        database.execute(self.STATEMENTS)
        database.execute("SET enable_seqscan = true")
        assert database.query_value(self.QUERY) == 1

    def test_envelope_block_never_mimics_the_corrupted_user_index(self):
        """The batch prefilter's envelope block is built faithfully even when
        the fault plan corrupts user-created indexes, so it cannot convert
        the pure prefilter into a bug of its own."""
        database = _fresh(["postgis-gist-index-drops-empty"], fast_path=True)
        database.execute("CREATE TABLE t AS SELECT 1 AS id, 'POINT EMPTY'::geometry AS geom")
        block = database.state.tables["t"].envelope_block("geom")
        assert block is not None
        assert block.empty_positions == [0]
        assert block.intersecting(load_wkt("POINT(5 5)").envelope()) == [0]


class TestDistanceAndCollectionFaults:
    """Distance-recursion and collection-semantics faults through warm caches."""

    def test_distance_empty_recursion_fires_through_caches(self):
        # The EMPTY element triggers the fault; the first element is *not*
        # the nearest one, so recursing only into it yields a wrong distance.
        query = (
            "SELECT ST_Distance("
            "'MULTILINESTRING((10 10,12 12),(1 1,2 2),EMPTY)'::geometry,"
            "'POINT(0 0)'::geometry)"
        )
        buggy = _fresh(["geos-distance-empty-recursion"], fast_path=True)
        clean = _fresh([], fast_path=True)
        # Run twice so the second evaluation goes through every warm cache.
        first = buggy.query_value(query)
        second = buggy.query_value(query)
        assert first == second
        assert first != clean.query_value(query)
        assert "geos-distance-empty-recursion" in buggy.fault_plan.triggered

    def test_empty_element_intersects_fires_repeatedly(self):
        query = (
            "SELECT ST_Intersects('MULTIPOINT((1 1),EMPTY)'::geometry,"
            "'POINT(1 1)'::geometry)"
        )
        buggy = _fresh(["geos-empty-element-intersects"], fast_path=True)
        assert buggy.query_value(query) is False
        assert buggy.query_value(query) is False  # cached path, same lie
        # The trigger is recorded per evaluation, cache hit or not — the
        # oracle's per-query trigger windows depend on that.
        assert buggy.fault_plan.triggered.count("geos-empty-element-intersects") == 2

    def test_last_one_wins_boundary_fires_through_caches(self):
        query = (
            "SELECT ST_Within('POINT(1 1)'::geometry,"
            "'GEOMETRYCOLLECTION(POLYGON((0 0,4 0,4 4,0 4,0 0)),LINESTRING(1 1,1 0))'"
            "::geometry)"
        )
        buggy = _fresh(["geos-mixed-boundary-last-one-wins"], fast_path=True)
        clean = _fresh([], fast_path=True)
        buggy_first = buggy.query_value(query)
        assert buggy.query_value(query) == buggy_first
        assert buggy_first != clean.query_value(query)
        assert "geos-mixed-boundary-last-one-wins" in buggy.fault_plan.triggered

    def test_crash_fault_fires_on_every_evaluation(self):
        from repro.errors import EngineCrash

        buggy = _fresh(["geos-crash-touches-empty-collection"], fast_path=True)
        query = (
            "SELECT ST_Touches('GEOMETRYCOLLECTION(POINT(0 0))'::geometry,"
            "'GEOMETRYCOLLECTION(POINT EMPTY)'::geometry)"
        )
        for _ in range(2):
            with pytest.raises(EngineCrash):
                buggy.query_value(query)


class TestFaultedPredicatesDisableThePrefilter:
    """The envelope prefilter must disengage for any predicate an active bug
    can influence — skipping a candidate pair would skip its fault hooks."""

    def test_prefilter_gate(self):
        buggy = _fresh(["geos-empty-element-intersects"], fast_path=True)
        assert not buggy.executor._prefilter_allowed("st_intersects")
        assert buggy.executor._prefilter_allowed("st_overlaps")
        clean = _fresh([], fast_path=True)
        assert clean.executor._prefilter_allowed("st_intersects")
        slow = _fresh([], fast_path=False)
        assert not slow.executor._prefilter_allowed("st_intersects")

    def test_strict_dialects_never_prefilter(self):
        database = connect("duckdb_spatial", bug_ids=[], fast_path=True)
        assert not database.executor._prefilter_allowed("st_intersects")

    def test_self_referential_join_condition_is_not_prefiltered(self):
        """``ON p(t.g, t.g)`` has no probe resolvable in the outer
        environment; the auto planner must fall back to the nested loop
        instead of raising or filtering by the wrong row (regression for a
        fast-path-only divergence found in review)."""
        results = {}
        for fast_path in (True, False):
            database = connect("postgis", bug_ids=[], fast_path=fast_path)
            database.execute("CREATE TABLE a (g geometry)")
            database.execute("CREATE TABLE t (g geometry)")
            database.execute("INSERT INTO a (g) VALUES ('POINT(0 0)')")
            database.execute("INSERT INTO t (g) VALUES ('POINT(1 1)'), ('POINT(2 2)')")
            results[fast_path] = database.query_value(
                "SELECT COUNT(*) FROM a JOIN t ON ST_Intersects(t.g, t.g)"
            )
        assert results[True] == results[False] == 2
