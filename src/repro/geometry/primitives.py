"""Exact low-level geometric predicates and constructions.

Everything in this module operates on :class:`~repro.geometry.model.Coordinate`
values whose ordinates are exact — an ``int`` when integral, a
:class:`fractions.Fraction` otherwise — so every predicate is decided
exactly; there is no epsilon anywhere.  Every division over ordinates goes
through ``Fraction`` (``int / int`` would round through a float), and the
hot predicates clear denominators instead of dividing, so integral input
stays in ``int`` arithmetic.  The topology engine (:mod:`repro.topology`) is
built entirely on these primitives.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from repro.geometry.model import Coordinate

#: Return values of :func:`orientation`.
CLOCKWISE = -1
COLLINEAR = 0
COUNTERCLOCKWISE = 1


def cross(o: Coordinate, a: Coordinate, b: Coordinate) -> Fraction:
    """Cross product of vectors ``o->a`` and ``o->b``."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def orientation(o: Coordinate, a: Coordinate, b: Coordinate) -> int:
    """Orientation of the ordered triple (o, a, b).

    Returns :data:`COUNTERCLOCKWISE`, :data:`CLOCKWISE`, or :data:`COLLINEAR`.
    """
    value = cross(o, a, b)
    if value > 0:
        return COUNTERCLOCKWISE
    if value < 0:
        return CLOCKWISE
    return COLLINEAR


def dot(o: Coordinate, a: Coordinate, b: Coordinate) -> Fraction:
    """Dot product of vectors ``o->a`` and ``o->b``."""
    return (a.x - o.x) * (b.x - o.x) + (a.y - o.y) * (b.y - o.y)


def squared_distance(a: Coordinate, b: Coordinate) -> Fraction:
    """Exact squared Euclidean distance between two coordinates."""
    return (a.x - b.x) ** 2 + (a.y - b.y) ** 2


def point_on_segment(p: Coordinate, a: Coordinate, b: Coordinate) -> bool:
    """True if point ``p`` lies on the closed segment ``a``–``b``.

    Degenerate segments (``a == b``) are handled: the test reduces to
    ``p == a``.

    The test clears ``p``'s denominators: with ``p = (nx/dx, ny/dy)`` the
    collinearity test ``cross(a, b, p) == 0`` scaled by ``dx·dy > 0`` reads
    ``(b.x-a.x)·(ny-a.y·dy)·dx == (b.y-a.y)·(nx-a.x·dx)·dy`` and the
    bounding-box test reads ``lo·dx <= nx <= hi·dx``.  One formula: pure
    ``int`` arithmetic for integral segments, still exact for rational ones.
    """
    if a == b:
        return p == a
    px, py = p.x, p.y
    nx, dx = px.numerator, px.denominator
    ny, dy = py.numerator, py.denominator
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    if (bx - ax) * (ny - ay * dy) * dx != (by - ay) * (nx - ax * dx) * dy:
        return False
    lo_x, hi_x = (ax, bx) if ax <= bx else (bx, ax)
    lo_y, hi_y = (ay, by) if ay <= by else (by, ay)
    return lo_x * dx <= nx <= hi_x * dx and lo_y * dy <= ny <= hi_y * dy


def segment_point_squared_distance(p: Coordinate, a: Coordinate, b: Coordinate) -> Fraction:
    """Exact squared distance from point ``p`` to the closed segment ``a``–``b``."""
    if a == b:
        return squared_distance(p, a)
    length_sq = squared_distance(a, b)
    t = Fraction(dot(a, b, p), length_sq)
    if t <= 0:
        return squared_distance(p, a)
    if t >= 1:
        return squared_distance(p, b)
    projection = Coordinate(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    return squared_distance(p, projection)


def segments_squared_distance(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> Fraction:
    """Exact squared distance between two closed segments."""
    if segments_intersect(a1, a2, b1, b2):
        return Fraction(0)
    candidates = (
        segment_point_squared_distance(a1, b1, b2),
        segment_point_squared_distance(a2, b1, b2),
        segment_point_squared_distance(b1, a1, a2),
        segment_point_squared_distance(b2, a1, a2),
    )
    return min(candidates)


def segments_intersect(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> bool:
    """True if the two closed segments share at least one point."""
    return bool(segment_intersection(a1, a2, b1, b2))


def segment_intersection(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> list[Coordinate]:
    """Intersection of two closed segments as a list of coordinates.

    * ``[]`` — the segments do not intersect.
    * ``[p]`` — the segments meet in a single point ``p``.
    * ``[p, q]`` — the segments overlap along the collinear segment ``p``–``q``
      (``p`` and ``q`` are the endpoints of the shared portion and are
      distinct).

    Degenerate (zero-length) segments are supported.
    """
    # Degenerate cases first.
    if a1 == a2 and b1 == b2:
        return [a1] if a1 == b1 else []
    if a1 == a2:
        return [a1] if point_on_segment(a1, b1, b2) else []
    if b1 == b2:
        return [b1] if point_on_segment(b1, a1, a2) else []

    d1 = orientation(b1, b2, a1)
    d2 = orientation(b1, b2, a2)
    d3 = orientation(a1, a2, b1)
    d4 = orientation(a1, a2, b2)

    if d1 == COLLINEAR and d2 == COLLINEAR and d3 == COLLINEAR and d4 == COLLINEAR:
        return _collinear_overlap(a1, a2, b1, b2)

    if d1 != d2 and d3 != d4:
        # Proper or touching crossing with a unique intersection point.
        point = _line_intersection_point(a1, a2, b1, b2)
        if point is not None:
            return [point]

    # Endpoint-touching cases (one endpoint lies on the other segment).
    touches = []
    for p in (a1, a2):
        if point_on_segment(p, b1, b2) and p not in touches:
            touches.append(p)
    for p in (b1, b2):
        if point_on_segment(p, a1, a2) and p not in touches:
            touches.append(p)
    if len(touches) >= 2:
        # Shared endpoints on collinear portions were handled above; two
        # distinct touch points can only happen when endpoints coincide.
        return touches[:2] if touches[0] != touches[1] else [touches[0]]
    return touches


def _line_intersection_point(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> Coordinate | None:
    """Unique intersection point of two segments known to cross, or None."""
    r_x, r_y = a2.x - a1.x, a2.y - a1.y
    s_x, s_y = b2.x - b1.x, b2.y - b1.y
    denominator = r_x * s_y - r_y * s_x
    if denominator == 0:
        return None
    t = Fraction((b1.x - a1.x) * s_y - (b1.y - a1.y) * s_x, denominator)
    u = Fraction((b1.x - a1.x) * r_y - (b1.y - a1.y) * r_x, denominator)
    if not (0 <= t <= 1 and 0 <= u <= 1):
        return None
    return Coordinate(a1.x + t * r_x, a1.y + t * r_y)


def _collinear_overlap(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> list[Coordinate]:
    """Overlap of two collinear segments as 0, 1, or 2 coordinates."""
    def key(c: Coordinate) -> tuple[Fraction, Fraction]:
        return (c.x, c.y)

    a_lo, a_hi = sorted((a1, a2), key=key)
    b_lo, b_hi = sorted((b1, b2), key=key)
    lo = max(a_lo, b_lo, key=key)
    hi = min(a_hi, b_hi, key=key)
    if key(lo) > key(hi):
        return []
    if lo == hi:
        return [lo]
    return [lo, hi]


def ring_signed_area(ring: Sequence[Coordinate]) -> Fraction:
    """Twice-signed-free signed area of a closed ring (shoelace formula).

    Positive for counter-clockwise rings, negative for clockwise rings.  The
    first and last coordinates may or may not coincide; both forms are
    handled.
    """
    if len(ring) < 3:
        return Fraction(0)
    points = list(ring)
    if points[0] == points[-1]:
        points = points[:-1]
    total = Fraction(0)
    for i, current in enumerate(points):
        nxt = points[(i + 1) % len(points)]
        total += current.x * nxt.y - nxt.x * current.y
    return total / 2


def ring_is_clockwise(ring: Sequence[Coordinate]) -> bool:
    """True if the ring winds clockwise (negative signed area)."""
    return ring_signed_area(ring) < 0


def point_in_ring(p: Coordinate, ring: Sequence[Coordinate]) -> str:
    """Locate a point relative to a simple closed ring.

    Returns ``"interior"``, ``"boundary"``, or ``"exterior"``.  Uses an exact
    crossing-number walk that treats vertices and horizontal edges carefully,
    so no perturbation is needed.
    """
    points = list(ring)
    if not points:
        return "exterior"
    if points[0] != points[-1]:
        points = points + [points[0]]

    # Boundary test first.
    for a, b in zip(points, points[1:]):
        if point_on_segment(p, a, b):
            return "boundary"

    # Crossing number with the standard half-open rule on the y interval.
    inside = False
    for a, b in zip(points, points[1:]):
        if (a.y > p.y) != (b.y > p.y):
            # x coordinate of the edge at height p.y
            t = Fraction(p.y - a.y, b.y - a.y)
            x_cross = a.x + t * (b.x - a.x)
            if x_cross > p.x:
                inside = not inside
    return "interior" if inside else "exterior"


def convex_hull(points: Iterable[Coordinate]) -> list[Coordinate]:
    """Convex hull of a point set (Andrew's monotone chain), CCW order.

    Returns the hull vertices without repeating the first point at the end.
    Collinear input collapses to the two extreme points; a single distinct
    point collapses to one coordinate.
    """
    unique = sorted(set(points), key=lambda c: (c.x, c.y))
    if len(unique) <= 2:
        return unique

    def build(seq: list[Coordinate]) -> list[Coordinate]:
        hull: list[Coordinate] = []
        for point in seq:
            while len(hull) >= 2 and cross(hull[-2], hull[-1], point) <= 0:
                hull.pop()
            hull.append(point)
        return hull

    lower = build(unique)
    upper = build(list(reversed(unique)))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # Fully collinear input.
        return [unique[0], unique[-1]]
    return hull


def centroid_of_points(points: Sequence[Coordinate]) -> Coordinate | None:
    """Arithmetic mean of a coordinate sequence (None for empty input)."""
    points = list(points)
    if not points:
        return None
    n = len(points)
    sx = sum((p.x for p in points), Fraction(0))
    sy = sum((p.y for p in points), Fraction(0))
    return Coordinate(sx / n, sy / n)
