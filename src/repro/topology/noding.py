"""Full noding of segment sets and arrangement sampling support.

The relate engine (:mod:`repro.topology.relate`) computes DE-9IM entries by
sampling witness points of the planar arrangement induced by *all* segments
of both geometries.  For that to be sound, every segment must be split at
every point where it meets any other segment (including collinear overlaps)
— after splitting, the classification of a point with respect to either
geometry is constant along the open interior of every sub-segment and on the
interior of every face.

The implementation is an O(n²) pairwise noder.  The paper's generator
produces geometries with a handful of vertices, so quadratic noding is far
from the bottleneck (the paper's own Figure 7 shows SDBMS execution time
dominating for the same reason).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from repro.geometry.columnar import (
    ClearanceFilter,
    segment_pair_candidates,
    vectorized_kernels_enabled,
)
from repro.geometry.model import Coordinate
from repro.geometry.primitives import (
    COLLINEAR,
    _line_intersection_point,
    orientation,
    point_on_segment,
    segment_intersection,
    segment_point_squared_distance,
    squared_distance,
)

Segment = tuple[Coordinate, Coordinate]


def node_segments(
    segments: Sequence[Segment], extra_points: Iterable[Coordinate] = ()
) -> list[Segment]:
    """Split every segment at every intersection with any other segment.

    ``extra_points`` (isolated point primitives) are also used as split
    points when they lie on a segment.  Zero-length input segments are
    dropped; the output contains only non-degenerate sub-segments whose open
    interiors are pairwise disjoint.
    """
    segments = [s for s in segments if s[0] != s[1]]
    extra = list(extra_points)
    # Float prescreen (vectorized kernels only): pairs that certainly have
    # no intersection point skip the exact test.  ``None`` keeps the full
    # pairwise loop, so the reference configuration is untouched.
    candidates = segment_pair_candidates(segments)
    # Intersections are symmetric in the pair: in vectorized mode each
    # unordered pair computes its exact cut points once and the partner
    # reuses them (the reference loop recomputes, matching history).
    pair_cache: dict[tuple[int, int], tuple[Coordinate, ...]] = {}
    result: list[Segment] = []
    for index, (a, b) in enumerate(segments):
        cut_points: set[Coordinate] = {a, b}
        partner_indices = (
            ((other, False) for other in range(len(segments)) if other != index)
            if candidates is None
            else candidates[index]
        )
        for other_index, certainly_proper in partner_indices:
            c, d = segments[other_index]
            pair_key = (
                (index, other_index) if index < other_index else (other_index, index)
            )
            if certainly_proper:
                cached = pair_cache.get(pair_key)
                if cached is None:
                    # The prescreen certified a single interior crossing;
                    # the exact orientation preamble of segment_intersection
                    # would only re-derive that before computing the point.
                    point = _line_intersection_point(a, b, c, d)
                    cached = () if point is None else (point,)
                    pair_cache[pair_key] = cached
                cut_points.update(cached)
                continue
            # Exact shared-endpoint fast paths (ring adjacency dominates the
            # candidate pairs): segments with identical endpoint sets overlap
            # exactly along themselves, and two non-collinear segments with
            # one common endpoint meet only there — in both cases every cut
            # point is already an endpoint of this segment.  Applied only in
            # vectorized mode so the reference configuration keeps the
            # historical code path step for step.
            if candidates is not None:
                a_shared = a == c or a == d
                b_shared = b == c or b == d
                if a_shared and b_shared:
                    continue
                if a_shared or b_shared:
                    shared, other_own = (a, b) if a_shared else (b, a)
                    other_partner = d if shared == c else c
                    if orientation(shared, other_own, other_partner) != COLLINEAR:
                        continue
                cached = pair_cache.get(pair_key)
                if cached is None:
                    cached = tuple(segment_intersection(a, b, c, d))
                    pair_cache[pair_key] = cached
                cut_points.update(cached)
                continue
            for point in segment_intersection(a, b, c, d):
                cut_points.add(point)
        for point in extra:
            if point_on_segment(point, a, b):
                cut_points.add(point)
        ordered = _order_along_segment(a, b, cut_points, fast=candidates is not None)
        for start, end in zip(ordered, ordered[1:]):
            if start != end:
                result.append((start, end))
    return result


def _order_along_segment(
    a: Coordinate, b: Coordinate, points: set[Coordinate], fast: bool = False
) -> list[Coordinate]:
    """Order split points along the segment from ``a`` to ``b``.

    All points are collinear with the segment, so the affine parameter is a
    strictly monotone function of ``x`` (of ``y`` for vertical segments):
    the ``fast`` ordering (vectorized mode) sorts by the ordinate itself —
    the identical order without a Fraction division per point — while the
    reference configuration keeps the historical parameter sort.
    """
    if fast:
        if b.x != a.x:
            return sorted(points, key=lambda p: p.x, reverse=b.x < a.x)
        return sorted(points, key=lambda p: p.y, reverse=b.y < a.y)

    def parameter(p: Coordinate) -> Fraction:
        if b.x != a.x:
            return Fraction(p.x - a.x, b.x - a.x)
        return Fraction(p.y - a.y, b.y - a.y)

    return sorted(points, key=parameter)


def midpoint(a: Coordinate, b: Coordinate) -> Coordinate:
    """Exact midpoint of a segment."""
    return Coordinate(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))


#: process-wide switch for the integer-rescaled clearance kernel.  The two
#: kernels are exactly equivalent (same rationals, hence identical witness
#: points); production always runs the integer kernel, and the flag only
#: exists as the test seam that selects the ``Fraction`` reference kernel.
_FAST_CLEARANCE = True


def set_fast_clearance(enabled: bool) -> bool:
    """Toggle the integer clearance kernel; returns the previous setting.

    Only tests call this: ``False`` selects the ``Fraction`` reference
    kernel for a differential run, and the caller restores the previous
    setting in ``finally``.  Production code never switches it off.
    """
    global _FAST_CLEARANCE
    previous = _FAST_CLEARANCE
    _FAST_CLEARANCE = bool(enabled)
    return previous


def fast_clearance_enabled() -> bool:
    """Whether the integer clearance kernel is active.

    Callers that precompute an :class:`OffsetContext` for a batch of
    ``side_offsets`` queries should skip the construction when this is off
    — the reference kernel would never consult it.
    """
    return _FAST_CLEARANCE


class _ScaleMismatch(Exception):
    """A query coordinate is not representable on the context's integer grid."""


class OffsetContext:
    """Precomputed integer view of one arrangement for clearance queries.

    ``side_offsets`` needs, per sub-segment, the minimum squared distance
    from the sub-segment's midpoint to every node and every non-incident
    sub-segment.  Ordinates are ``int`` or ``Fraction``, but that query
    divides (the midpoint halves, a point-to-segment distance divides by
    the segment's length), and every division over ordinates goes through
    ``Fraction``: computed naively that is O(n) ``Fraction`` operations per
    call, each paying a gcd normalisation — the single hottest cost of the
    relate engine.  This context rescales every coordinate once onto a
    common integer grid (twice the lcm of all coordinate denominators, so
    midpoints are integral too) and answers the same clearance queries with
    pure big-integer arithmetic.  The result is the *identical* rational
    minimum — no epsilon, no rounding — just computed without per-operation
    normalisation.
    """

    def __init__(self, segments: Sequence[Segment], nodes: Iterable[Coordinate]):
        node_list = list(nodes)
        # Float prescreen narrowing each clearance query to the few
        # candidates that can decide the minimum (vectorized kernels only;
        # the exact kernel below still produces the identical rational).
        self._filter = (
            ClearanceFilter(segments, node_list) if vectorized_kernels_enabled() else None
        )
        self._prescreened: dict[Segment, tuple[list[int], list[int]]] = {}
        denominators = set()
        for point in node_list:
            denominators.add(point.x.denominator)
            denominators.add(point.y.denominator)
        for start, end in segments:
            denominators.add(start.x.denominator)
            denominators.add(start.y.denominator)
            denominators.add(end.x.denominator)
            denominators.add(end.y.denominator)
        self.scale = 2 * (math.lcm(*denominators) if denominators else 1)
        self._scale_sq = self.scale * self.scale
        self.nodes = [self._scaled(point) for point in node_list]
        self.segments = []
        for start, end in segments:
            sx, sy = self._scaled(start)
            ex, ey = self._scaled(end)
            wx, wy = ex - sx, ey - sy
            self.segments.append((sx, sy, ex, ey, wx, wy, wx * wx + wy * wy))

    def _scaled(self, point: Coordinate) -> tuple[int, int]:
        x, y = point.x, point.y
        if self.scale % x.denominator or self.scale % y.denominator:
            raise _ScaleMismatch(point)
        return (
            x.numerator * (self.scale // x.denominator),
            y.numerator * (self.scale // y.denominator),
        )

    def prescreen(self, query_segments: Sequence[Segment]) -> None:
        """Run the float clearance prescreen for a known query batch.

        One numpy pass replaces a per-``min_clearance_sq``-call dispatch;
        the per-query filter stays as the fallback for segments outside the
        batch.  No-op when the vectorized kernels are off.
        """
        if self._filter is None or not query_segments:
            return
        batched = self._filter.candidates_many(query_segments)
        if batched is None:
            return
        for segment, kept in zip(query_segments, batched):
            self._prescreened[segment] = kept

    def min_clearance_sq(self, a: Coordinate, b: Coordinate) -> Fraction | None:
        """Minimum positive squared clearance of segment ``a``–``b``'s
        midpoint, as the exact Fraction the reference loop would produce."""
        parts = self._min_clearance_parts(a, b)
        if parts is None:
            return None
        return Fraction(*parts)

    def side_offset_points(
        self, a: Coordinate, b: Coordinate
    ) -> tuple[Coordinate, Coordinate]:
        """Exact side-offset witnesses of segment ``a``–``b``, rational-for-
        rational identical to :func:`side_offsets`' construction but with the
        epsilon and offset arithmetic done on the integer grid (one Fraction
        normalisation per produced ordinate instead of a chain of Fraction
        operations on tiny-epsilon rationals)."""
        ax, ay = self._scaled(a)
        bx, by = self._scaled(b)
        mx, my = (ax + bx) // 2, (ay + by) // 2
        # length_sq = len_int / scale², exactly.
        wx, wy = bx - ax, by - ay
        len_int = wx * wx + wy * wy
        parts = self._min_clearance_parts(a, b)
        if parts is None:
            # min_clearance_sq falls back to 1 in the reference construction.
            parts = (1, 1)
        clear_num, clear_den = parts
        # bound = (clear_num/clear_den) / (4 * len_int / scale²).
        bound_num = clear_num * self._scale_sq
        bound_den = 4 * clear_den * len_int
        if bound_num >= bound_den:
            eps_num, eps_den = 1, 2
        else:
            eps_num, eps_den = bound_num, bound_den * 2
        # normal = (-(b.y - a.y), b.x - a.x) scales to (-wy, wx); offsets are
        # (mid ± epsilon * normal) / scale with every term on a common
        # integer denominator.
        den = eps_den * self.scale
        left = Coordinate(
            Fraction(mx * eps_den - eps_num * wy, den),
            Fraction(my * eps_den + eps_num * wx, den),
        )
        right = Coordinate(
            Fraction(mx * eps_den + eps_num * wy, den),
            Fraction(my * eps_den - eps_num * wx, den),
        )
        return left, right

    def _min_clearance_parts(
        self, a: Coordinate, b: Coordinate
    ) -> tuple[int, int] | None:
        """Minimum positive squared clearance as an unnormalised (num, den)."""
        ax, ay = self._scaled(a)
        bx, by = self._scaled(b)
        # Both endpoints are even multiples of the base lcm (scale = 2*lcm),
        # so the midpoint is integral on the same grid.
        mx, my = (ax + bx) // 2, (ay + by) // 2

        # Track the minimum as an unnormalised rational (num, den); compare
        # candidates by cross-multiplication to avoid gcd work.
        best_num: int | None = None
        best_den = 1

        node_pool = self.nodes
        segment_pool = self.segments
        if self._filter is not None:
            prescreen = self._prescreened.get((a, b))
            if prescreen is None:
                prescreen = self._filter.candidates(a, b)
            if prescreen is not None:
                node_indices, segment_indices = prescreen
                node_pool = [self.nodes[i] for i in node_indices]
                segment_pool = [self.segments[i] for i in segment_indices]

        for nx, ny in node_pool:
            dx, dy = mx - nx, my - ny
            num = dx * dx + dy * dy
            if num and (best_num is None or num * best_den < best_num * self._scale_sq):
                best_num, best_den = num, self._scale_sq

        for sx, sy, ex, ey, wx, wy, len_sq in segment_pool:
            vx, vy = mx - sx, my - sy
            if len_sq == 0:
                # Degenerate (zero-length) input segment: it "contains" the
                # midpoint only if it coincides with it; otherwise it is a
                # point at distance |v|.
                num = vx * vx + vy * vy
                if num and (best_num is None or num * best_den < best_num * self._scale_sq):
                    best_num, best_den = num, self._scale_sq
                continue
            cross = vx * wy - vy * wx
            dotv = vx * wx + vy * wy
            if cross == 0 and 0 <= dotv <= len_sq:
                continue  # the segment passes through the midpoint
            if dotv <= 0:
                num, den = vx * vx + vy * vy, self._scale_sq
            elif dotv >= len_sq:
                ux, uy = mx - ex, my - ey
                num, den = ux * ux + uy * uy, self._scale_sq
            else:
                num, den = cross * cross, len_sq * self._scale_sq
            if num and (best_num is None or num * best_den < best_num * den):
                best_num, best_den = num, den

        if best_num is None:
            return None
        return best_num, best_den


def _min_clearance_sq_reference(
    mid: Coordinate,
    all_segments: Sequence[Segment],
    all_nodes: Iterable[Coordinate],
) -> Fraction | None:
    """The original Fraction-arithmetic clearance loop (reference kernel)."""
    min_clearance_sq: Fraction | None = None
    for node in all_nodes:
        d_sq = squared_distance(mid, node)
        if d_sq > 0 and (min_clearance_sq is None or d_sq < min_clearance_sq):
            min_clearance_sq = d_sq
    for other in all_segments:
        if point_on_segment(mid, other[0], other[1]):
            continue
        d_sq = segment_point_squared_distance(mid, other[0], other[1])
        if d_sq > 0 and (min_clearance_sq is None or d_sq < min_clearance_sq):
            min_clearance_sq = d_sq
    return min_clearance_sq


def side_offsets(
    segment: Segment,
    all_segments: Sequence[Segment],
    all_nodes: Iterable[Coordinate],
    context: OffsetContext | None = None,
) -> tuple[Coordinate, Coordinate]:
    """Two face-witness points just either side of a sub-segment's midpoint.

    The offset distance is chosen exactly (as a Fraction) to be smaller than
    half the distance from the midpoint to every node and to every other
    sub-segment that does not pass through the midpoint, so each returned
    point lies strictly inside one of the two arrangement faces adjacent to
    the segment at its midpoint.

    Callers looping over many sub-segments of one arrangement should build
    an :class:`OffsetContext` once and pass it in; the clearance minimum is
    then computed with integer arithmetic (identical value, far cheaper).
    """
    a, b = segment
    if _FAST_CLEARANCE and context is None:
        context = OffsetContext(all_segments, all_nodes)
    if _FAST_CLEARANCE and vectorized_kernels_enabled():
        # Vectorized kernels: the whole construction (clearance, epsilon,
        # offset coordinates) stays on the integer grid — rational-for-
        # rational the same witness points as the Fraction arithmetic below.
        try:
            return context.side_offset_points(a, b)
        except _ScaleMismatch:
            pass
    mid = midpoint(a, b)
    length_sq = squared_distance(a, b)

    min_clearance_sq: Fraction | None = None
    if _FAST_CLEARANCE:
        try:
            min_clearance_sq = context.min_clearance_sq(a, b)
        except _ScaleMismatch:
            min_clearance_sq = _min_clearance_sq_reference(mid, all_segments, all_nodes)
    else:
        min_clearance_sq = _min_clearance_sq_reference(mid, all_segments, all_nodes)

    if min_clearance_sq is None:
        min_clearance_sq = Fraction(1)

    # Choose epsilon so that epsilon^2 * |segment|^2 < min_clearance_sq / 4.
    bound = Fraction(min_clearance_sq, 4 * length_sq)
    if bound >= 1:
        epsilon = Fraction(1, 2)
    else:
        epsilon = bound / 2

    normal_x = -(b.y - a.y)
    normal_y = b.x - a.x
    left = Coordinate(mid.x + epsilon * normal_x, mid.y + epsilon * normal_y)
    right = Coordinate(mid.x - epsilon * normal_x, mid.y - epsilon * normal_y)
    return left, right
