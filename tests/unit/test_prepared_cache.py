"""Unit tests for the bounded prepared-geometry cache.

The seed cache grew without bound across long campaigns; it is now a strict
LRU.  These tests pin the eviction policy, the hit/miss/eviction counters,
and — most importantly — that the Listing 7 bug semantics survive eviction
(the repeated-collection-probe trigger state is tracked outside the bounded
store).
"""

from __future__ import annotations

import pytest

from repro.engine.database import connect
from repro.engine.dialects import get_dialect
from repro.engine.prepared import (
    DEFAULT_CAPACITY,
    INDEXABLE_PREDICATES,
    PreparedGeometryCache,
)
from repro.geometry import load_wkt


def geometry(index: int):
    return load_wkt(f"POINT({index} {index})")


class TestLRUBehaviour:
    def test_capacity_is_enforced(self):
        cache = PreparedGeometryCache(capacity=3)
        for index in range(10):
            cache.evaluate("st_intersects", geometry(index), geometry(index), lambda: True)
        assert cache.stats()["entries"] == 3
        assert cache.evictions == 7
        assert cache.misses == 10
        assert cache.hits == 0

    def test_least_recently_used_entry_is_evicted_first(self):
        cache = PreparedGeometryCache(capacity=2)
        calls = []

        def compute(tag):
            def run():
                calls.append(tag)
                return True

            return run

        a, b, c = geometry(1), geometry(2), geometry(3)
        cache.evaluate("st_intersects", a, a, compute("a"))
        cache.evaluate("st_intersects", b, b, compute("b"))
        cache.evaluate("st_intersects", a, a, compute("a"))  # refresh a
        cache.evaluate("st_intersects", c, c, compute("c"))  # evicts b
        cache.evaluate("st_intersects", a, a, compute("a"))  # still cached
        assert calls == ["a", "b", "c"]
        cache.evaluate("st_intersects", b, b, compute("b"))  # recompute
        assert calls == ["a", "b", "c", "b"]

    def test_counters_stay_consistent_across_eviction(self):
        cache = PreparedGeometryCache(capacity=2)
        for index in range(6):
            cache.evaluate("st_within", geometry(index), geometry(index), lambda: False)
        for index in (4, 5):  # survivors
            cache.evaluate("st_within", geometry(index), geometry(index), lambda: False)
        stats = cache.stats()
        assert stats == {"hits": 2, "misses": 6, "evictions": 4, "entries": 2}

    def test_false_results_are_cached_too(self):
        cache = PreparedGeometryCache(capacity=4)
        calls = []

        def compute():
            calls.append(1)
            return False

        a = geometry(1)
        assert cache.evaluate("st_touches", a, a, compute) is False
        assert cache.evaluate("st_touches", a, a, compute) is False
        assert len(calls) == 1
        assert cache.hits == 1

    def test_distinct_predicates_do_not_collide(self):
        cache = PreparedGeometryCache(capacity=8)
        a, b = geometry(1), geometry(2)
        assert cache.evaluate("st_intersects", a, b, lambda: True) is True
        assert cache.evaluate("st_touches", a, b, lambda: False) is False
        assert cache.misses == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PreparedGeometryCache(capacity=0)

    def test_default_capacity_bounds_long_campaign_growth(self):
        cache = PreparedGeometryCache()
        for index in range(DEFAULT_CAPACITY + 100):
            cache.evaluate("st_intersects", geometry(index), geometry(index), lambda: True)
        assert cache.stats()["entries"] == DEFAULT_CAPACITY
        assert cache.evictions == 100

    def test_clear_resets_everything(self):
        cache = PreparedGeometryCache(buggy_collection_repeat=True, capacity=2)
        prepared = load_wkt("MULTIPOLYGON(((0 0,5 0,0 5,0 0)))")
        probe = load_wkt("GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))")
        cache.evaluate("st_contains", prepared, probe, lambda: True)
        cache.evaluate("st_contains", prepared, probe, lambda: True)
        assert cache.bug_fired
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
        assert not cache.bug_fired
        # after clear, the probe history is gone: the first probe is fresh
        assert cache.evaluate("st_contains", prepared, probe, lambda: True) is True


class TestBugSemanticsUnderEviction:
    def _pair(self):
        prepared = load_wkt("MULTIPOLYGON(((0 0,5 0,0 5,0 0)))")
        probe = load_wkt("GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))")
        return prepared, probe

    def test_repeat_probe_fires_even_after_eviction(self):
        cache = PreparedGeometryCache(buggy_collection_repeat=True, capacity=1)
        prepared, probe = self._pair()
        assert cache.evaluate("st_contains", prepared, probe, lambda: True) is True
        filler = geometry(9)
        cache.evaluate("st_intersects", filler, filler, lambda: True)
        assert cache.evictions >= 1
        assert cache.evaluate("st_contains", prepared, probe, lambda: True) is False
        assert cache.bug_fired

    def test_bug_is_contains_specific(self):
        """Results the cache holds under any other predicate name are pure
        memoization — Listing 7 lives in prepared containment only."""
        cache = PreparedGeometryCache(buggy_collection_repeat=True, capacity=8)
        prepared, probe = self._pair()
        for name in sorted(INDEXABLE_PREDICATES - {"st_contains"}):
            assert cache.evaluate(name, prepared, probe, lambda: True) is True
            assert cache.evaluate(name, prepared, probe, lambda: True) is True
        assert not cache.bug_fired

    def test_collection_prepared_side_is_unaffected(self):
        cache = PreparedGeometryCache(buggy_collection_repeat=True, capacity=8)
        prepared, probe = self._pair()
        # collection-vs-collection probes take the correct path (Listing 7
        # needs a prepared basic/MULTI geometry).
        assert cache.evaluate("st_contains", probe, probe, lambda: True) is True
        assert cache.evaluate("st_contains", probe, probe, lambda: True) is True
        assert not cache.bug_fired

    def test_clean_cache_never_perturbs(self):
        cache = PreparedGeometryCache(buggy_collection_repeat=False, capacity=1)
        prepared, probe = self._pair()
        for _ in range(3):
            assert cache.evaluate("st_contains", prepared, probe, lambda: True) is True
        assert not cache.bug_fired


#: (dialect, predicate) for every indexable predicate each dialect supports:
#: all nine on GEOS-backed ``postgis``, seven on ``mysql`` (no ST_Covers or
#: ST_CoveredBy).
_ROUTED = [
    (dialect, name)
    for dialect in ("postgis", "mysql")
    for name in sorted(INDEXABLE_PREDICATES)
    if get_dialect(dialect).supports_function(name)
]


class TestRegistryRouting:
    """Only ``ST_Contains`` on a GEOS-backed dialect evaluates through the
    prepared cache (the Listing 7 component); every other predicate is
    computed directly, and the relate identity memo answers its repeats."""

    @pytest.mark.parametrize("dialect, name", _ROUTED)
    def test_only_geos_contains_moves_the_prepared_counters(self, dialect, name):
        database = connect(dialect)
        # Two overlapping squares: equal dimensions, so every predicate
        # (ST_Overlaps and ST_Crosses included) reaches its final evaluation.
        sql = (
            f"SELECT {name}('POLYGON((0 0,4 0,4 4,0 4,0 0))', "
            "'POLYGON((2 2,6 2,6 6,2 6,2 2))')"
        )
        before = database.cache_stats()
        first = database.query_value(sql)
        assert database.query_value(sql) == first
        moved = database.cache_stats() != before
        assert moved == (name == "st_contains" and dialect == "postgis")
