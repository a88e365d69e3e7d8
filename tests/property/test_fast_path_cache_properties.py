"""Randomized equivalence of cached and direct predicate evaluation.

Seeded stdlib-``random`` sweeps (no hypothesis dependency, deterministic by
construction) over every geometry type — GEOMETRYCOLLECTION and EMPTY
variants included — asserting that

* ``topology.relate`` returns the same matrix through the identity memo as
  a direct ``relate_descriptors`` computation, and for a re-parsed copy of
  the pair;
* every prepared-cache-routed predicate equals its direct
  ``topology.predicates`` counterpart, hit or miss, under both collection
  strategies;
* the integer clearance kernel agrees with the Fraction reference kernel on
  the arrangements those relate calls induce.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.engine.database import connect
from repro.engine.prepared import PreparedGeometryCache
from repro.geometry import load_wkt
from repro.geometry.model import (
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)
from repro.topology import predicates
from repro.topology.labels import LAST_ONE_WINS_STRATEGY, TopologyDescriptor
from repro.topology.relate import (
    RelateOptions,
    clear_relate_cache,
    relate,
    relate_descriptors,
)

CASES = 200

#: direct implementations of every prepared-cache-routed predicate.
_DIRECT = {
    "st_intersects": predicates.intersects,
    "st_equals": predicates.equals,
    "st_touches": predicates.touches,
    "st_within": predicates.within,
    "st_contains": predicates.contains,
    "st_covers": predicates.covers,
    "st_coveredby": predicates.covered_by,
    "st_overlaps": predicates.overlaps,
    "st_crosses": predicates.crosses,
}


def _coordinate(rng: random.Random):
    return (
        Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3))),
        Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3))),
    )


def _point(rng, allow_empty=True):
    if allow_empty and rng.random() < 0.15:
        return Point.empty()
    return Point(_coordinate(rng))


def _linestring(rng, allow_empty=True):
    if allow_empty and rng.random() < 0.1:
        return LineString.empty()
    count = rng.randint(2, 4)
    points = [_coordinate(rng) for _ in range(count)]
    while points[0] == points[1]:
        points[1] = _coordinate(rng)
    return LineString(points)


def _polygon(rng, allow_empty=True):
    if allow_empty and rng.random() < 0.1:
        return Polygon.empty()
    x, y = rng.randint(-8, 8), rng.randint(-8, 8)
    width = rng.randint(1, 5)
    height = rng.randint(1, 5)
    return Polygon([(x, y), (x + width, y), (x + width, y + height), (x, y + height)])


def _geometry(rng, depth=0):
    choice = rng.randrange(7 if depth == 0 else 3)
    if choice == 0:
        return _point(rng)
    if choice == 1:
        return _linestring(rng)
    if choice == 2:
        return _polygon(rng)
    if choice == 3:
        return MultiPoint([_point(rng) for _ in range(rng.randint(0, 3))])
    if choice == 4:
        return MultiLineString([_linestring(rng) for _ in range(rng.randint(0, 2))])
    if choice == 5:
        return MultiPolygon([_polygon(rng, allow_empty=False) for _ in range(rng.randint(0, 2))])
    return GeometryCollection([_geometry(rng, depth + 1) for _ in range(rng.randint(0, 3))])


def test_cached_relate_equals_direct_computation():
    rng = random.Random(20250728)
    clear_relate_cache()
    for case in range(CASES):
        a = _geometry(rng)
        b = _geometry(rng)
        strategy = (
            LAST_ONE_WINS_STRATEGY if case % 5 == 0 else RelateOptions().collection_strategy
        )
        options = RelateOptions(collection_strategy=strategy)
        direct = relate_descriptors(
            TopologyDescriptor(a, strategy), TopologyDescriptor(b, strategy)
        )
        via_cache_cold = relate(a, b, options)
        via_cache_warm = relate(a, b, options)  # identity-memo hit
        reparsed = relate(load_wkt(a.wkt), load_wkt(b.wkt), options)
        assert str(direct) == str(via_cache_cold) == str(via_cache_warm) == str(reparsed)


def test_prepared_cached_predicates_equal_direct_evaluation():
    rng = random.Random(424242)
    cache = PreparedGeometryCache(buggy_collection_repeat=False, capacity=64)
    for _ in range(CASES):
        a = _geometry(rng)
        b = _geometry(rng)
        name = rng.choice(sorted(_DIRECT))
        direct = _DIRECT[name]
        expected = bool(direct(a, b))
        cold = cache.evaluate(name, a, b, lambda: direct(a, b))
        warm = cache.evaluate(name, a, b, lambda: direct(a, b))
        assert cold == warm == expected, (name, a.wkt, b.wkt)
    assert cache.hits >= CASES  # every case re-probed once
    assert cache.evictions > 0  # the tiny capacity forced eviction traffic


def test_registry_fast_path_matches_direct_predicates():
    """End to end through the clean engine: SQL-level results with every
    cache warm equal the direct topology evaluation."""
    rng = random.Random(1797)
    database = connect("postgis", bug_ids=[], fast_path=True)
    for _ in range(60):
        a = _geometry(rng)
        b = _geometry(rng)
        name = rng.choice(sorted(_DIRECT))
        sql = (
            f"SELECT {name}('{a.wkt}'::geometry, '{b.wkt}'::geometry)"
        )
        expected = bool(_DIRECT[name](a, b))
        assert database.query_value(sql) == expected, sql
        assert database.query_value(sql) == expected, sql  # warm repeat


def test_fast_clearance_kernel_matches_reference():
    from repro.topology import noding

    rng = random.Random(97)
    for _ in range(CASES):
        count = rng.randint(2, 8)
        points = [
            noding.Coordinate(Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
                              Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
            for _ in range(count)
        ]
        segments = [
            (points[i], points[i + 1])
            for i in range(count - 1)
            if points[i] != points[i + 1]
        ]
        if not segments:
            continue
        noded = noding.node_segments(segments)
        nodes = set()
        for start, end in noded:
            nodes.add(start)
            nodes.add(end)
        context = noding.OffsetContext(noded, nodes)
        for segment in noded:
            mid = noding.midpoint(segment[0], segment[1])
            reference = noding._min_clearance_sq_reference(mid, noded, nodes)
            fast = context.min_clearance_sq(segment[0], segment[1])
            assert reference == fast, segment
            with_context = noding.side_offsets(segment, noded, nodes, context=context)
            previous = noding.set_fast_clearance(False)
            try:
                without_fast_path = noding.side_offsets(segment, noded, nodes)
            finally:
                noding.set_fast_clearance(previous)
            assert with_context == without_fast_path


def test_interned_parser_returns_equal_shared_objects():
    from repro.geometry.wkt import load_wkt as raw_parse

    rng = random.Random(5151)
    for _ in range(CASES):
        geometry = _geometry(rng)
        text = geometry.wkt
        first = load_wkt(text)
        second = load_wkt(text)
        assert first is second  # interned
        # The interned result is indistinguishable from an un-interned parse
        # of the same text (WKT itself may round rationals to float repr,
        # which is the serializer's documented behaviour, not the cache's).
        reference = raw_parse(text)
        assert first is not reference
        assert first.wkt == reference.wkt
        assert first.envelope() == reference.envelope()
