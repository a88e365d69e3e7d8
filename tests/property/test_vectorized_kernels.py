"""Randomized batch-vs-scalar equivalence of every vectorized kernel.

Seeded stdlib-``random`` sweeps (no hypothesis dependency, deterministic by
construction, ≥200 generated cases per kernel) asserting that each batch
kernel of :mod:`repro.geometry.columnar` agrees with its scalar
counterpart on mixed, EMPTY and collection geometries:

* ``RingLocator.locate_many`` returns exactly ``point_in_ring`` strings,
  including on ring vertices, edge midpoints and horizontal-line
  degeneracies;
* ``SegmentsLocator.contains_many`` equals the scalar
  ``point_on_segment`` loop;
* the exact fallback ``point_on_segment``, which clears the query point's
  denominators, equals the orientation-plus-``min``/``max`` formula it
  replaced on random rational points and segments;
* ``segment_pair_candidates`` never prunes a pair that
  ``segment_intersection`` reports as intersecting, and its
  ``certainly_proper`` certificates are genuinely proper crossings;
  ``segment_block_candidates`` gives the same answers over the block of
  pairs between two segment lists;
* ``ClearanceFilter`` keep-lists preserve the exact rational minimum
  positive clearance and never drop a zero-distance incidence;
* ``EnvelopeBlock.intersecting`` has no false negatives against exact
  Fraction envelope intersection, and ``within_distance`` never prunes a
  row that ``measures.dwithin`` accepts (EMPTY rows always survive, NULL
  rows never appear);
* batch relate dispatch: ``relate_descriptors`` with the kernels on (the
  prepared edge-label construction, with node and piece classes read from
  the operands' own labels where they lie on them) equals the scalar path
  with the kernels off (per-pair witnesses) on adversarial pairs, under
  all three collection strategies;
* Listing-7-style fault transparency: with injected GEOS/PostGIS
  collection bugs active, SQL predicate results *and the triggered-bug
  stream* are identical with the kernels on and off — the float kernels
  only prune work, they never hide (or invent) a fault firing.
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro.core.canonical import clear_canonical_cache
from repro.engine.database import connect
from repro.geometry.cache import clear_geometry_cache
from repro.geometry.columnar import (
    ClearanceFilter,
    EdgeTable,
    EnvelopeBlock,
    RingLocator,
    SegmentsLocator,
    clear_kernel_stats,
    kernel_stats,
    segment_block_candidates,
    segment_pair_candidates,
    set_vectorized_kernels,
)
from repro.geometry.model import (
    Coordinate,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)
from repro.geometry.primitives import (
    COLLINEAR,
    orientation,
    point_in_ring,
    point_on_segment,
    segment_intersection,
)
from repro.topology import measures
from repro.topology.labels import (
    BOUNDARY_PRIORITY_STRATEGY,
    LAST_ONE_WINS_STRATEGY,
    UNION_STRATEGY,
    TopologyDescriptor,
)
from repro.topology.relate import clear_relate_cache, relate_descriptors

CASES = 200


# ---------------------------------------------------------------------------
# Generators (the seeded-random idiom of test_fast_path_cache_properties).
# ---------------------------------------------------------------------------


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3)))


def _coordinate(rng: random.Random) -> Coordinate:
    return Coordinate(_fraction(rng), _fraction(rng))


def _pair(rng: random.Random):
    return (_fraction(rng), _fraction(rng))


def _point(rng, allow_empty=True):
    if allow_empty and rng.random() < 0.15:
        return Point.empty()
    return Point(_pair(rng))


def _linestring(rng, allow_empty=True):
    if allow_empty and rng.random() < 0.1:
        return LineString.empty()
    count = rng.randint(2, 4)
    points = [_pair(rng) for _ in range(count)]
    while points[0] == points[1]:
        points[1] = _pair(rng)
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


def _ring(rng: random.Random) -> list[Coordinate]:
    """An arbitrary closed ring (possibly self-intersecting: the parity
    semantics of ``point_in_ring`` are defined for those too, and the batch
    locator must reproduce them bit for bit)."""
    count = rng.randint(3, 7)
    points = [_coordinate(rng)]
    while len(points) < count:
        candidate = _coordinate(rng)
        if candidate != points[-1]:
            points.append(candidate)
    return points


def _segments(rng: random.Random, count: int) -> list[tuple[Coordinate, Coordinate]]:
    segments = []
    for _ in range(count):
        a = _coordinate(rng)
        b = _coordinate(rng)
        while b == a:
            b = _coordinate(rng)
        segments.append((a, b))
    return segments


def _midpoint(a: Coordinate, b: Coordinate) -> Coordinate:
    return Coordinate(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))


def _adversarial_points(rng, ring_or_segments, edges):
    """Query points biased toward the degeneracies: vertices, edge
    midpoints, and points sharing a y with a vertex (horizontal-line
    crossings)."""
    points = [_coordinate(rng) for _ in range(4)]
    for a, b in edges:
        points.append(a)
        points.append(_midpoint(a, b))
        points.append(Coordinate(_fraction(rng), a.y))
    rng.shuffle(points)
    return points


def _with_kernels(enabled: bool, action):
    previous = set_vectorized_kernels(enabled)
    try:
        return action()
    finally:
        set_vectorized_kernels(previous)


# ---------------------------------------------------------------------------
# Ring / segment locators.
# ---------------------------------------------------------------------------


def test_ring_locator_matches_point_in_ring():
    rng = random.Random(60401)
    clear_kernel_stats()
    for _ in range(CASES):
        ring = _ring(rng)
        closed = ring + [ring[0]]
        points = _adversarial_points(rng, ring, list(zip(closed, closed[1:])))
        batch = _with_kernels(True, lambda: RingLocator(ring).locate_many(points))
        scalar = [point_in_ring(p, ring) for p in points]
        assert batch == scalar, (ring, points)
    assert kernel_stats()["ring_batches"] >= CASES  # the sweep took the batch path


def test_segments_locator_matches_point_on_segment_loop():
    rng = random.Random(60402)
    clear_kernel_stats()
    for _ in range(CASES):
        segments = _segments(rng, rng.randint(1, 5))
        points = _adversarial_points(rng, segments, segments)
        batch = _with_kernels(True, lambda: SegmentsLocator(segments).contains_many(points))
        scalar = [
            any(point_on_segment(p, a, b) for a, b in segments) for p in points
        ]
        assert batch == scalar, (segments, points)
    assert kernel_stats()["segment_batches"] >= CASES


def _point_on_segment_reference(p: Coordinate, a: Coordinate, b: Coordinate) -> bool:
    """The orientation-plus-``min``/``max`` formula ``point_on_segment``
    used before it cleared the query point's denominators."""
    if a == b:
        return p == a
    if orientation(a, b, p) != COLLINEAR:
        return False
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)


def test_denominator_cleared_point_on_segment_matches_reference():
    rng = random.Random(60409)
    hits = misses = 0
    for case in range(CASES * 5):
        a = _coordinate(rng)
        b = a if case % 17 == 0 else _coordinate(rng)
        # Rational points on the supporting line (inside and beyond the
        # segment), segment vertices, and random rational points.
        t = Fraction(rng.randint(-4, 12), rng.choice((1, 2, 3, 7, 8)))
        on_line = Coordinate(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        queries = [on_line, a, b, _coordinate(rng)]
        queries.append(Coordinate(on_line.x, on_line.y + Fraction(1, rng.choice((5, 9)))))
        for p in queries:
            expected = _point_on_segment_reference(p, a, b)
            assert point_on_segment(p, a, b) == expected, (p, a, b)
            hits += expected
            misses += not expected
    assert hits > CASES and misses > CASES  # both outcomes were exercised


# ---------------------------------------------------------------------------
# Noding pair prescreen.
# ---------------------------------------------------------------------------


def test_segment_pair_candidates_never_prunes_an_intersecting_pair():
    rng = random.Random(60403)
    checked_pairs = 0
    proper_pairs = 0
    for _ in range(CASES):
        segments = _segments(rng, rng.randint(2, 6))
        if rng.random() < 0.3:
            # Force shared endpoints: genuine cut points must stay candidates.
            a, b = segments[0]
            segments.append((b, _coordinate(rng)))
        candidates = _with_kernels(True, lambda: segment_pair_candidates(segments))
        assert candidates is not None
        for i, row in enumerate(candidates):
            partners = {j for j, _ in row}
            for j in range(len(segments)):
                if j == i:
                    continue
                meet = segment_intersection(*segments[i], *segments[j])
                if meet:
                    checked_pairs += 1
                    assert j in partners, (segments[i], segments[j])
            for j, certainly_proper in row:
                if certainly_proper:
                    proper_pairs += 1
                    meet = segment_intersection(*segments[i], *segments[j])
                    endpoints = {*segments[i], *segments[j]}
                    # A certified proper crossing: exactly one intersection
                    # point, strictly interior to both segments.
                    assert len(meet) == 1 and meet[0] not in endpoints
    assert checked_pairs > 200  # the generator produced real intersections
    assert proper_pairs > 100  # and the certificate path was exercised
    assert _with_kernels(False, lambda: segment_pair_candidates(_segments(rng, 4))) is None


def test_segment_block_candidates_equal_the_pairwise_prescreen_block():
    """The two-table prescreen of a relate pair's cross cut gives, pair
    for pair, the candidates and certificates that the pairwise prescreen
    over both segment lists gives for the pairs taking one segment from
    each list."""
    rng = random.Random(60404)
    candidates_seen = 0
    for _ in range(CASES):
        first = _segments(rng, rng.randint(1, 5))
        second = _segments(rng, rng.randint(1, 5))
        if rng.random() < 0.3:
            # shared endpoints and a shared segment, reversed
            second.append((first[0][1], _coordinate(rng)))
            second.append((first[-1][1], first[-1][0]))
        split = len(first)
        pairwise = _with_kernels(True, lambda: segment_pair_candidates(first + second))
        block = _with_kernels(
            True, lambda: segment_block_candidates(EdgeTable(first), EdgeTable(second))
        )
        assert block == [
            [(j - split, proper) for j, proper in row if j >= split] for row in pairwise[:split]
        ]
        candidates_seen += sum(len(row) for row in block)
    assert candidates_seen > CASES
    assert _with_kernels(
        False, lambda: segment_block_candidates(EdgeTable(first), EdgeTable(second))
    ) is None


# ---------------------------------------------------------------------------
# Clearance prescreen.
# ---------------------------------------------------------------------------


def _point_segment_squared(p: Coordinate, a: Coordinate, b: Coordinate) -> Fraction:
    """Exact rational squared distance from a point to a closed segment."""
    if a == b:
        return (p.x - a.x) ** 2 + (p.y - a.y) ** 2
    ex, ey = b.x - a.x, b.y - a.y
    t = Fraction((p.x - a.x) * ex + (p.y - a.y) * ey, ex * ex + ey * ey)
    t = min(max(t, Fraction(0)), Fraction(1))
    return (p.x - (a.x + t * ex)) ** 2 + (p.y - (a.y + t * ey)) ** 2


def test_clearance_filter_preserves_the_minimum_positive_clearance():
    rng = random.Random(60404)
    nonempty_runs = 0
    for _ in range(CASES):
        nodes = [_coordinate(rng) for _ in range(rng.randint(0, 6))]
        segments = _segments(rng, rng.randint(0, 6))
        queries = _segments(rng, rng.randint(1, 4))
        if rng.random() < 0.3 and nodes and queries:
            # Force a zero-distance incidence: a query whose midpoint is a node.
            node = rng.choice(nodes)
            other = _coordinate(rng)
            mirror = Coordinate(2 * node.x - other.x, 2 * node.y - other.y)
            if mirror != other:
                queries.append((other, mirror))
        batches = _with_kernels(
            True, lambda: ClearanceFilter(segments, nodes).candidates_many(queries)
        )
        if batches is None:
            assert not nodes and not segments
            continue
        nonempty_runs += 1
        for (a, b), (keep_nodes, keep_segments) in zip(queries, batches):
            m = _midpoint(a, b)
            node_d = [(p.x - m.x) ** 2 + (p.y - m.y) ** 2 for p in nodes]
            seg_d = [_point_segment_squared(m, s, t) for s, t in segments]
            # Zero-distance incidences are always kept (the exact kernel
            # decides whether they are excluded incidences or true minima).
            for index, squared in enumerate(node_d):
                if squared == 0:
                    assert index in keep_nodes
            for index, squared in enumerate(seg_d):
                if squared == 0:
                    assert index in keep_segments
            # The minimum positive clearance survives the pruning.
            positive = [d for d in node_d + seg_d if d > 0]
            if positive:
                kept = [node_d[i] for i in keep_nodes] + [seg_d[i] for i in keep_segments]
                kept_positive = [d for d in kept if d > 0]
                assert min(kept_positive) == min(positive)
    assert nonempty_runs > CASES // 2


# ---------------------------------------------------------------------------
# Columnar envelopes (the engine batch prefilter).
# ---------------------------------------------------------------------------


def _column(rng: random.Random) -> list:
    values = []
    for _ in range(rng.randint(0, 8)):
        values.append(None if rng.random() < 0.15 else _geometry(rng))
    return values


def test_envelope_block_intersecting_has_no_false_negatives():
    rng = random.Random(60405)
    empties_seen = 0
    nulls_seen = 0
    for _ in range(CASES):
        values = _column(rng)
        probe = _geometry(rng)
        block = EnvelopeBlock(values)
        hits = set(block.intersecting(probe.envelope()))
        probe_envelope = probe.envelope()
        for position, value in enumerate(values):
            if value is None:
                nulls_seen += 1
                assert position not in hits  # NULL rows are never candidates
                continue
            envelope = value.envelope()
            if envelope is None:
                empties_seen += 1
                assert position in hits  # EMPTY rows are always candidates
                continue
            if probe_envelope is None:
                assert position in hits  # EMPTY probe: every non-NULL row
                continue
            disjoint = (
                envelope.min_x > probe_envelope.max_x
                or probe_envelope.min_x > envelope.max_x
                or envelope.min_y > probe_envelope.max_y
                or probe_envelope.min_y > envelope.max_y
            )
            if not disjoint:
                assert position in hits, (value.wkt, probe.wkt)
        # The no-envelope probe contract mirrors SpatialIndex.candidates(None).
        assert block.intersecting(None) == sorted(
            p for p, v in enumerate(values) if v is not None
        )
    assert empties_seen > 20 and nulls_seen > 20


def test_envelope_block_within_distance_has_no_false_negatives():
    rng = random.Random(60406)
    accepted = 0
    for _ in range(CASES):
        values = _column(rng)
        probe = _geometry(rng)
        threshold = Fraction(rng.randint(0, 24), rng.choice((1, 2, 3)))
        block = EnvelopeBlock(values)
        hits = set(block.within_distance(probe.envelope(), threshold))
        for position, value in enumerate(values):
            if value is None:
                assert position not in hits
                continue
            if value.envelope() is None:
                assert position in hits  # EMPTY rows are never pruned
                continue
            if measures.dwithin(value, probe, threshold):
                accepted += 1
                assert position in hits, (value.wkt, probe.wkt, threshold)
    assert accepted > 100  # the sweep produced real within-distance pairs


# ---------------------------------------------------------------------------
# Batch relate dispatch, clean and under injected faults.
# ---------------------------------------------------------------------------


def _near(rng: random.Random) -> Fraction:
    """A rational ordinate from a small range, so shapes meet often."""
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))


def _near_pair(rng: random.Random):
    return (_near(rng), _near(rng))


def _holed_polygon(rng: random.Random) -> Polygon:
    """A rectangle with a hole: strictly inside, or touching the shell at
    its lower-left vertex."""
    x, y = rng.randint(-4, 1), rng.randint(-4, 1)
    width, height = rng.randint(3, 5), rng.randint(3, 5)
    shell = [(x, y), (x + width, y), (x + width, y + height), (x, y + height)]
    if rng.random() < 0.5:
        hole = [(x, y), (x + 1, y + 2), (x + 2, y + 1)]
    else:
        hole = [(x + 1, y + 1), (x + 2, y + 1), (x + 1, y + 2)]
    return Polygon(shell, [hole])


def _self_intersecting_polygon(rng: random.Random) -> Polygon:
    """A bowtie, or an arbitrary (usually self-intersecting) ring."""
    if rng.random() < 0.5:
        x, y = _near(rng), _near(rng)
        width, height = rng.randint(1, 4), rng.randint(1, 4)
        return Polygon([(x, y), (x + width, y + height), (x + width, y), (x, y + height)])
    ring = list(dict.fromkeys(_near_pair(rng) for _ in range(rng.randint(3, 6))))
    return Polygon(ring) if len(ring) >= 3 else _holed_polygon(rng)


def _crossing_lines(rng: random.Random) -> MultiLineString:
    """Elements that usually cross each other at rational points."""
    return MultiLineString(
        [LineString([_near_pair(rng), _near_pair(rng)]) for _ in range(rng.randint(2, 3))]
    )


def _adversarial(rng: random.Random, depth: int = 0):
    choice = rng.randrange(8 if depth == 0 else 7)
    if choice == 0:
        return _holed_polygon(rng)
    if choice == 1:
        return _self_intersecting_polygon(rng)
    if choice == 2:
        return _crossing_lines(rng)
    if choice == 3:
        return LineString([_near_pair(rng) for _ in range(rng.randint(2, 4))])
    if choice == 4:
        point = _near_pair(rng)
        return LineString([point, point])  # collapsed to a point
    if choice == 5:
        return MultiPoint([Point(_near_pair(rng)) for _ in range(rng.randint(1, 3))])
    if choice == 6:
        return _geometry(rng)
    return GeometryCollection(
        [_adversarial(rng, depth + 1) for _ in range(rng.randint(1, 3))]
        + [GeometryCollection([_adversarial(rng, depth + 1)])]
    )


def _from_vertices(rng: random.Random, a) -> object:
    """A geometry on ``a``'s vertices: shared vertices and edges, collinear
    overlaps along ``a``'s edges, and points on them."""
    vertices = list(dict.fromkeys(a.coordinates()))
    if len(vertices) < 2:
        return _adversarial(rng)
    picked = [rng.choice(vertices) for _ in range(rng.randint(2, 4))]
    choice = rng.randrange(5)
    if choice == 4:
        # Isolated points at vertices and edge midpoints of a.
        start = rng.randrange(len(vertices) - 1)
        on_edge = _midpoint(vertices[start], vertices[start + 1])
        return MultiPoint([Point(on_edge), Point(rng.choice(vertices))])
    ring = list(dict.fromkeys(picked))
    if choice == 0 and len(ring) >= 3:
        return Polygon(ring)
    if choice == 1:
        # Along an edge of a, from one vertex past the edge's midpoint.
        start = rng.randrange(len(vertices) - 1)
        p, q = vertices[start], vertices[start + 1]
        t = Fraction(rng.choice((1, 3, 5)), 4)
        return LineString([p, (p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))])
    if choice == 2:
        shared = LineString(picked) if picked[0] != picked[1] else Point(picked[0])
        return GeometryCollection([shared, _adversarial(rng, 1)])
    return LineString(picked)


_STRATEGIES = (UNION_STRATEGY, LAST_ONE_WINS_STRATEGY, BOUNDARY_PRIORITY_STRATEGY)
RELATE_CASES = 1000


def _relate_case(rng: random.Random, case: int):
    if case % 4 == 0:
        a, b = _geometry(rng), _geometry(rng)
    else:
        a = _adversarial(rng)
        b = _from_vertices(rng, a) if case % 4 == 1 else _adversarial(rng)
    if rng.random() < 0.5:
        a, b = b, a
    return a, b, _STRATEGIES[case % 3]


def test_batch_relate_dispatch_matches_scalar_relate():
    """The prepared construction (kernels on) equals the per-pair witness
    construction (kernels off) on adversarial pairs: holes touching their
    shell, bowties and other self-intersecting rings, shared vertices and
    edges, collinear overlaps, crossing multilines with rational cut
    points, collapsed lines and nested collections, under every collection
    strategy."""
    rng = random.Random(60407)
    clear_kernel_stats()
    linear_overlaps = 0
    for case in range(RELATE_CASES):
        a, b, strategy = _relate_case(rng, case)
        batch = _with_kernels(
            True,
            lambda: relate_descriptors(
                TopologyDescriptor(a, strategy), TopologyDescriptor(b, strategy)
            ),
        )
        scalar = _with_kernels(
            False,
            lambda: relate_descriptors(
                TopologyDescriptor(a, strategy), TopologyDescriptor(b, strategy)
            ),
        )
        assert str(batch) == str(scalar), (a.wkt, b.wkt, strategy)
        if batch.get("I", "I") == 1 or batch.get("B", "B") == 1:
            linear_overlaps += 1
    # Non-vacuity: many pairs share a curve, where both label triples meet.
    assert linear_overlaps >= RELATE_CASES // 10, linear_overlaps
    stats = kernel_stats()
    assert stats["prepared_descriptors"] > RELATE_CASES
    assert stats["ring_batches"] > 0
    # ... and every source of a node or piece class was exercised: a view's
    # own node table, an edge's on label, a free endpoint of a one-operand
    # piece, and a located midpoint where both endpoints lie on the other
    # operand.
    for source in (
        "relate_nodes_from_view",
        "relate_nodes_from_edge",
        "relate_pieces_from_endpoint",
        "relate_pieces_from_midpoint",
    ):
        assert stats[source] >= 100, (source, stats[source])


#: The collection-focused injected faults of the paper's listings: the
#: prepared-contains Listing 7 bug, the last-one-wins boundary Listing 6
#: bug, and an EMPTY-element intersects bug.
_FAULT_IDS = (
    "geos-prepared-contains-collection",
    "geos-mixed-boundary-last-one-wins",
    "geos-empty-element-intersects",
)
_FAULT_PREDICATES = ("st_contains", "st_within", "st_covers", "st_intersects", "st_touches")


def _fault_sweep(vectorized: bool):
    # Cold process-global caches per mode: a warm relate/canonical cache
    # would let the second sweep coast on the first one's evaluations.
    clear_relate_cache()
    clear_canonical_cache()
    clear_geometry_cache()
    rng = random.Random(60408)
    database = connect("postgis", bug_ids=list(_FAULT_IDS), vectorized=vectorized)
    values = []

    def run():
        for _ in range(CASES):
            a = _geometry(rng)
            b = _geometry(rng)
            name = rng.choice(_FAULT_PREDICATES)
            sql = f"SELECT {name}('{a.wkt}'::geometry, '{b.wkt}'::geometry)"
            values.append((sql, database.query_value(sql)))

    _with_kernels(vectorized, run)
    return values, list(database.fault_plan.triggered)


def test_injected_faults_are_transparent_to_the_batch_kernels():
    """Listing-7-style fault cases: with the collection bugs active, every
    predicate result and the *ordered stream* of fault triggers must be
    identical with the kernels on and off — the prescreens may only skip
    work whose outcome (including its fault hooks) is already decided."""
    batch_values, batch_triggered = _fault_sweep(True)
    scalar_values, scalar_triggered = _fault_sweep(False)
    assert batch_values == scalar_values
    assert batch_triggered == scalar_triggered
    assert batch_triggered  # the faults genuinely fired during the sweep
    assert set(batch_triggered) == set(_FAULT_IDS)  # ... all three of them
