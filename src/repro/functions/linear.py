"""Line-based editing functions: merge, simplify, segmentize, snap, closest point.

These extend the derivative strategy's Table 1 line-based category.  All of
them keep coordinates rational (no square roots leak into output
coordinates), so geometries derived through them remain safe for the AEI
oracle's exact-arithmetic expectations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from repro.errors import GeometryTypeError
from repro.geometry.model import (
    Coordinate,
    Geometry,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    flatten,
)
from repro.geometry.primitives import (
    segment_point_squared_distance,
    squared_distance,
)
from repro.topology.labels import EXTERIOR, TopologyDescriptor

Numeric = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# Projections and closest points (exact).
# ---------------------------------------------------------------------------
def project_point_on_segment(p: Coordinate, a: Coordinate, b: Coordinate) -> Coordinate:
    """Closest point to ``p`` on the closed segment ``a``–``b`` (exact)."""
    if a == b:
        return a
    ab_x = b.x - a.x
    ab_y = b.y - a.y
    ap_x = p.x - a.x
    ap_y = p.y - a.y
    denom = ab_x * ab_x + ab_y * ab_y
    t = Fraction(ap_x * ab_x + ap_y * ab_y, denom)
    if t <= 0:
        return a
    if t >= 1:
        return b
    return Coordinate(a.x + t * ab_x, a.y + t * ab_y)


def _vertices_and_segments(geometry: Geometry) -> tuple[list[Coordinate], list[tuple[Coordinate, Coordinate]]]:
    """Vertices and segments of a geometry's linework (points count as vertices)."""
    vertices: list[Coordinate] = []
    segments: list[tuple[Coordinate, Coordinate]] = []
    for element in flatten(geometry):
        if element.is_empty:
            continue
        if isinstance(element, Point):
            vertices.append(element.coordinate)
        elif isinstance(element, LineString):
            vertices.extend(element.points)
            segments.extend(element.segments())
        elif isinstance(element, Polygon):
            for ring in element.rings():
                vertices.extend(ring)
                segments.extend(zip(ring, ring[1:]))
    return vertices, segments


def closest_pair(a: Geometry, b: Geometry) -> tuple[Coordinate, Coordinate] | None:
    """Exact closest pair of points ``(on a, on b)``, or None for EMPTY inputs.

    The minimum distance between two disjoint piecewise-linear sets is always
    attained at a vertex of one set and its projection onto a segment (or a
    vertex) of the other.  Sets that meet are answered first: crossing
    linework at a crossing point, and an operand nested in a polygon of the
    other (which no vertex projection reaches) at its first vertex located
    inside, as ``measures.distance`` decides containment.
    """
    vertices_a, segments_a = _vertices_and_segments(a)
    vertices_b, segments_b = _vertices_and_segments(b)
    if not vertices_a or not vertices_b:
        return None

    best: tuple[Fraction, Coordinate, Coordinate] | None = None

    def consider(pa: Coordinate, pb: Coordinate) -> None:
        nonlocal best
        d = squared_distance(pa, pb)
        if best is None or d < best[0]:
            best = (d, pa, pb)

    # Crossing segments: the distance is zero at the crossing point.
    from repro.geometry.primitives import segment_intersection

    for sa in segments_a:
        for sb in segments_b:
            shared = segment_intersection(sa[0], sa[1], sb[0], sb[1])
            if shared:
                return shared[0], shared[0]

    # Nested operands: a vertex of one inside the other is a zero-distance pair.
    descriptor_b = TopologyDescriptor(b)
    for va in vertices_a:
        if descriptor_b.locate(va) != EXTERIOR:
            return va, va
    descriptor_a = TopologyDescriptor(a)
    for vb in vertices_b:
        if descriptor_a.locate(vb) != EXTERIOR:
            return vb, vb

    for va in vertices_a:
        for vb in vertices_b:
            consider(va, vb)
        for sb in segments_b:
            consider(va, project_point_on_segment(va, sb[0], sb[1]))
    for vb in vertices_b:
        for sa in segments_a:
            consider(project_point_on_segment(vb, sa[0], sa[1]), vb)

    if best is None:
        return None
    return best[1], best[2]


def closest_point(a: Geometry, b: Geometry) -> Geometry:
    """The point on ``a`` closest to ``b`` (PostGIS ``ST_ClosestPoint``)."""
    pair = closest_pair(a, b)
    if pair is None:
        return Point.empty()
    return Point(pair[0])


def shortest_line(a: Geometry, b: Geometry) -> Geometry:
    """The shortest connecting LINESTRING between two geometries."""
    pair = closest_pair(a, b)
    if pair is None:
        return LineString.empty()
    start, end = pair
    # When the geometries touch the result is a zero-length line, which is
    # what PostGIS returns as well.
    return LineString([start, end])


def longest_line(a: Geometry, b: Geometry) -> Geometry:
    """The longest vertex-to-vertex LINESTRING between two geometries."""
    vertices_a, _ = _vertices_and_segments(a)
    vertices_b, _ = _vertices_and_segments(b)
    if not vertices_a or not vertices_b:
        return LineString.empty()
    best: tuple[Fraction, Coordinate, Coordinate] | None = None
    for va in vertices_a:
        for vb in vertices_b:
            d = squared_distance(va, vb)
            if best is None or d > best[0]:
                best = (d, va, vb)
    assert best is not None
    return LineString([best[1], best[2]])


# ---------------------------------------------------------------------------
# Line merging.
# ---------------------------------------------------------------------------
def line_merge(geometry: Geometry) -> Geometry:
    """Merge the linework of a (MULTI)LINESTRING into maximal linestrings.

    Chains are joined at nodes of degree exactly two, matching the behaviour
    of PostGIS ``ST_LineMerge``.  Non-linear inputs raise, EMPTY inputs
    return an EMPTY result.
    """
    lines = [
        element
        for element in flatten(geometry)
        if isinstance(element, LineString) and not element.is_empty
    ]
    if not isinstance(geometry, (LineString, MultiLineString, GeometryCollection)):
        raise GeometryTypeError("ST_LineMerge requires linear input")
    if not lines:
        return (
            geometry
            if isinstance(geometry, LineString)
            else MultiLineString.empty()
        )

    remaining = [list(line.points) for line in lines]
    # Degree of each endpoint over the whole collection.
    degree: dict[Coordinate, int] = {}
    for chain in remaining:
        for endpoint in (chain[0], chain[-1]):
            degree[endpoint] = degree.get(endpoint, 0) + 1

    merged: list[list[Coordinate]] = []
    while remaining:
        chain = remaining.pop()
        changed = True
        while changed:
            changed = False
            for index, other in enumerate(remaining):
                joined = _join_chains(chain, other, degree)
                if joined is not None:
                    chain = joined
                    remaining.pop(index)
                    changed = True
                    break
        merged.append(chain)

    if len(merged) == 1:
        return LineString(merged[0])
    return MultiLineString([LineString(chain) for chain in merged])


def _join_chains(
    chain: list[Coordinate], other: list[Coordinate], degree: dict[Coordinate, int]
) -> list[Coordinate] | None:
    """Join two chains sharing an endpoint of degree two, or return None."""
    def joinable(endpoint: Coordinate) -> bool:
        return degree.get(endpoint, 0) == 2

    if chain[-1] == other[0] and joinable(chain[-1]):
        return chain + other[1:]
    if chain[-1] == other[-1] and joinable(chain[-1]):
        return chain + list(reversed(other[:-1]))
    if chain[0] == other[-1] and joinable(chain[0]):
        return other + chain[1:]
    if chain[0] == other[0] and joinable(chain[0]):
        return list(reversed(other)) + chain[1:]
    return None


# ---------------------------------------------------------------------------
# Simplification and densification.
# ---------------------------------------------------------------------------
def simplify(geometry: Geometry, tolerance: Numeric) -> Geometry:
    """Douglas–Peucker simplification with an exact squared-distance test.

    Rings keep at least four coordinates so polygons stay structurally valid;
    if simplification would collapse a ring, the original ring is kept.
    """
    limit = Fraction(tolerance)
    if limit < 0:
        raise GeometryTypeError("ST_Simplify tolerance must be non-negative")
    squared_limit = limit * limit

    def simplify_line(points: list[Coordinate]) -> list[Coordinate]:
        if len(points) <= 2:
            return list(points)
        return _douglas_peucker(points, squared_limit)

    def simplify_ring(ring: list[Coordinate]) -> list[Coordinate]:
        simplified = simplify_line(ring)
        if len(simplified) < 4 or simplified[0] != simplified[-1]:
            return list(ring)
        return simplified

    if isinstance(geometry, Point) or geometry.is_empty:
        return geometry
    if isinstance(geometry, LineString):
        return LineString(simplify_line(geometry.points))
    if isinstance(geometry, Polygon):
        return Polygon(
            simplify_ring(geometry.exterior),
            [simplify_ring(hole) for hole in geometry.holes],
        )
    if isinstance(geometry, (MultiPoint, MultiLineString, MultiPolygon, GeometryCollection)):
        return type(geometry)([simplify(element, tolerance) for element in geometry.geoms])
    raise GeometryTypeError(f"cannot simplify {geometry.geom_type}")


def _douglas_peucker(points: list[Coordinate], squared_limit: Fraction) -> list[Coordinate]:
    keep = [False] * len(points)
    keep[0] = keep[-1] = True
    stack = [(0, len(points) - 1)]
    while stack:
        start, end = stack.pop()
        if end - start < 2:
            continue
        best_index = -1
        best_distance = squared_limit
        for index in range(start + 1, end):
            d = segment_point_squared_distance(points[index], points[start], points[end])
            if d > best_distance:
                best_distance = d
                best_index = index
        if best_index >= 0:
            keep[best_index] = True
            stack.append((start, best_index))
            stack.append((best_index, end))
    return [point for point, kept in zip(points, keep) if kept]


def segmentize(geometry: Geometry, max_length: Numeric) -> Geometry:
    """Insert vertices so no segment is longer than ``max_length``.

    Subdivision points are placed at equal rational fractions of each
    segment, so coordinates stay exact.
    """
    limit = Fraction(max_length)
    if limit <= 0:
        raise GeometryTypeError("ST_Segmentize max length must be positive")

    def densify(points: list[Coordinate]) -> list[Coordinate]:
        if len(points) < 2:
            return list(points)
        result = [points[0]]
        for a, b in zip(points, points[1:]):
            segment_length = math.sqrt(float(squared_distance(a, b)))
            pieces = max(1, math.ceil(segment_length / float(limit)))
            for step in range(1, pieces):
                t = Fraction(step, pieces)
                result.append(Coordinate(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
            result.append(b)
        return result

    if isinstance(geometry, Point) or geometry.is_empty:
        return geometry
    if isinstance(geometry, LineString):
        return LineString(densify(geometry.points))
    if isinstance(geometry, Polygon):
        return Polygon(densify(geometry.exterior), [densify(hole) for hole in geometry.holes])
    if isinstance(geometry, (MultiPoint, MultiLineString, MultiPolygon, GeometryCollection)):
        return type(geometry)([segmentize(element, max_length) for element in geometry.geoms])
    raise GeometryTypeError(f"cannot segmentize {geometry.geom_type}")


# ---------------------------------------------------------------------------
# Vertex editing.
# ---------------------------------------------------------------------------
def add_point(line: Geometry, point: Geometry, position: int = -1) -> Geometry:
    """Insert a POINT into a LINESTRING (PostGIS ``ST_AddPoint``).

    ``position`` is the 0-based index the new vertex takes; ``-1`` appends.
    """
    if not isinstance(line, LineString):
        raise GeometryTypeError("ST_AddPoint requires a LINESTRING")
    if not isinstance(point, Point) or point.is_empty:
        raise GeometryTypeError("ST_AddPoint requires a non-empty POINT")
    points = list(line.points)
    if position == -1 or position == len(points):
        points.append(point.coordinate)
    elif 0 <= position < len(points):
        points.insert(position, point.coordinate)
    else:
        raise GeometryTypeError("ST_AddPoint position out of range")
    return LineString(points)


def remove_point(line: Geometry, position: int) -> Geometry:
    """Remove the ``position``-th (0-based) vertex of a LINESTRING."""
    if not isinstance(line, LineString) or line.is_empty:
        raise GeometryTypeError("ST_RemovePoint requires a non-empty LINESTRING")
    points = list(line.points)
    if not 0 <= position < len(points):
        raise GeometryTypeError("ST_RemovePoint position out of range")
    if len(points) <= 2:
        raise GeometryTypeError("ST_RemovePoint cannot reduce a LINESTRING below two points")
    del points[position]
    return LineString(points)


def snap(geometry: Geometry, reference: Geometry, tolerance: Numeric) -> Geometry:
    """Snap vertices of ``geometry`` to nearby vertices of ``reference``.

    A vertex moves to the closest reference vertex within ``tolerance``
    (exclusive of ties, which keep the first-found vertex); everything else
    is untouched.  This mirrors the vertex-snapping half of PostGIS
    ``ST_Snap`` and is what the derivative strategy needs to create
    *touching* topologies on purpose.
    """
    limit = Fraction(tolerance)
    if limit < 0:
        raise GeometryTypeError("ST_Snap tolerance must be non-negative")
    squared_limit = limit * limit
    reference_vertices, _ = _vertices_and_segments(reference)
    if not reference_vertices:
        return geometry

    def snap_coordinate(coordinate: Coordinate) -> Coordinate:
        best: tuple[Fraction, Coordinate] | None = None
        for vertex in reference_vertices:
            d = squared_distance(coordinate, vertex)
            if d <= squared_limit and (best is None or d < best[0]):
                best = (d, vertex)
        return best[1] if best is not None else coordinate

    try:
        return geometry.transform(snap_coordinate)
    except GeometryTypeError:
        # Snapping may collapse a ring/line below its minimum vertex count.
        return geometry
