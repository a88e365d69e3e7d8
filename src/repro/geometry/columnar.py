"""Float-filtered columnar kernels for the vectorized batch execution core.

The topology engine (:mod:`repro.topology`) decides every predicate exactly
over exact ordinates: ``int`` when integral, :class:`fractions.Fraction`
otherwise, with every division over ordinates going through ``Fraction``.
That exactness is the whole point of the reproduction — the oracle must
never blame a rounding artefact on the engine under test — but exact
arithmetic still costs far more than a float operation (big-integer
products, and a gcd normalisation per ``Fraction`` operation), and
profiling shows point location and pairwise segment screening dominating
campaign time.

This module speeds those paths up with the classic *filter-and-fallback*
discipline of exact computational geometry (the semi-static filters of
Shewchuk-style predicates):

* every coordinate is mirrored into a float with a certified error bound;
* batch kernels evaluate the predicate expression over numpy arrays while
  propagating error bounds alongside the values;
* a sign is trusted only when the magnitude *certainly* exceeds the
  accumulated bound; every uncertain entry falls back to the original exact
  predicate.

The kernels therefore return results **identical** to their scalar
counterparts — the float layer only prunes work, it never decides a close
call.  NaN/inf propagation is safe by construction: any non-finite value
fails the certainty comparison and takes the exact fallback.

The batch kernels always run in production (numpy is a runtime
dependency).  A process-wide switch
(:func:`set_vectorized_kernels`, like the fast-clearance switch in
:mod:`repro.topology.noding`) is the test seam that selects the scalar
reference kernels, so tests can run batch-vs-scalar differentially.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.model import Coordinate
from repro.geometry.primitives import point_in_ring, point_on_segment

#: one float rounding step per operation is < 2**-53 relative; the bounds
#: below charge 2**-52 so the error arithmetic (itself computed in floats)
#: keeps a factor-two margin over the true accumulated error.
_EPS = 2.220446049250313e-16
#: absolute floor added to every bound: protects certainty decisions against
#: subnormal underflow of the relative term near zero.
_TINY = 1e-300

Segment = tuple[Coordinate, Coordinate]

# ---------------------------------------------------------------------------
# Process-wide switch: the test seam that selects the scalar reference kernels
# ---------------------------------------------------------------------------

_VECTORIZED = True


def set_vectorized_kernels(enabled: bool) -> bool:
    """Toggle the batch kernels; returns the previous setting.

    Only tests call this: ``False`` selects the scalar reference kernels
    for a differential run, and the caller restores the previous setting
    in ``finally``.  Production code never switches the kernels off.
    """
    global _VECTORIZED
    previous = _VECTORIZED
    _VECTORIZED = bool(enabled)
    return previous


def vectorized_kernels_enabled() -> bool:
    """Whether the float-filtered batch kernels are active (False only
    while a test has toggled them off)."""
    return _VECTORIZED


_KERNEL_STATS = {
    "ring_batches": 0,
    "ring_points": 0,
    "ring_exact_boundary_checks": 0,
    "ring_exact_crossing_checks": 0,
    "segment_batches": 0,
    "segment_exact_checks": 0,
    "noding_prescreens": 0,
    "noding_pairs_total": 0,
    "noding_pairs_pruned": 0,
    "envelope_blocks": 0,
    "envelope_queries": 0,
    "distance_queries": 0,
    "prepared_descriptors": 0,
    "relate_nodes_from_view": 0,
    "relate_nodes_from_edge": 0,
    "relate_nodes_located": 0,
    "relate_pieces_from_endpoint": 0,
    "relate_pieces_from_midpoint": 0,
}


def kernel_stats() -> dict[str, int]:
    """Counters proving the batch kernels actually engaged (for tests)."""
    return dict(_KERNEL_STATS)


def clear_kernel_stats() -> None:
    for key in _KERNEL_STATS:
        _KERNEL_STATS[key] = 0


def count_prepared_descriptor() -> None:
    """Count one per-geometry prepared view
    (:class:`repro.topology.labels.PreparedTopology`)."""
    _KERNEL_STATS["prepared_descriptors"] += 1


def count_class_sources(
    view_nodes: int,
    edge_nodes: int,
    located_nodes: int,
    endpoint_pieces: int,
    midpoint_pieces: int,
) -> None:
    """Count where the prepared relate path took one operand's classes
    from: pair nodes from the operand's node table, from an edge's ``on``
    label or by location; the other operand's one-operand pieces from a
    free endpoint or a located midpoint."""
    _KERNEL_STATS["relate_nodes_from_view"] += view_nodes
    _KERNEL_STATS["relate_nodes_from_edge"] += edge_nodes
    _KERNEL_STATS["relate_nodes_located"] += located_nodes
    _KERNEL_STATS["relate_pieces_from_endpoint"] += endpoint_pieces
    _KERNEL_STATS["relate_pieces_from_midpoint"] += midpoint_pieces


# ---------------------------------------------------------------------------
# Error-tracked float arithmetic
# ---------------------------------------------------------------------------


def _to_float(value: Fraction) -> float:
    """Nearest float to an exact rational; overflow saturates to ±inf.

    A saturated value poisons every certainty test downstream (inf/NaN never
    exceed an inf bound), which routes the computation to the exact path —
    exactly the safe behaviour.
    """
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def _conversion_error(values):
    """Certified bound on ``|float(x) - x|`` for converted values/arrays."""
    return _EPS * abs(values) + _TINY


def _sub(av, ae, bv, be):
    """(value, bound) of ``a - b`` for error-tracked floats or arrays."""
    v = av - bv
    return v, ae + be + _EPS * abs(v) + _TINY


def _add(av, ae, bv, be):
    """(value, bound) of ``a + b`` for error-tracked floats or arrays."""
    v = av + bv
    return v, ae + be + _EPS * abs(v) + _TINY


def _mul(av, ae, bv, be):
    """(value, bound) of ``a * b`` for error-tracked floats or arrays."""
    v = av * bv
    return v, ae * abs(bv) + be * abs(av) + ae * be + _EPS * abs(v) + _TINY


def _certain(values, bounds):
    """Boolean mask: the sign of each value is certain (NaN-safe)."""
    return abs(values) > bounds


def _hits(mask):
    """``(row, column)`` of every true entry of a 2D mask, row-major.

    One ``np.nonzero`` per matrix instead of one per row; row-major order
    keeps each row's columns ascending, the order a per-row scan visits.
    """
    rows, columns = np.nonzero(mask)
    return zip(rows.tolist(), columns.tolist())


def _hits_by_row(mask) -> list[list[int]]:
    """Column indices of the true entries of a 2D mask, one list per row."""
    grouped: list[list[int]] = [[] for _ in range(mask.shape[0])]
    for row, column in _hits(mask):
        grouped[row].append(column)
    return grouped


# ---------------------------------------------------------------------------
# Edge tables (shared by the ring and segment locators)
# ---------------------------------------------------------------------------


class EdgeTable:
    """Per-edge float mirrors (with bounds) of a fixed segment list.

    Built once per segment list: each locator keeps its own, and a
    prepared relate operand keeps one over all its segments for the
    pair prescreen (:func:`segment_block_candidates`)."""

    def __init__(self, edges: Sequence[Segment]):
        self.edges = list(edges)
        n = len(self.edges)
        axv = np.empty(n)
        ayv = np.empty(n)
        bxv = np.empty(n)
        byv = np.empty(n)
        for i, (a, b) in enumerate(self.edges):
            axv[i] = _to_float(a.x)
            ayv[i] = _to_float(a.y)
            bxv[i] = _to_float(b.x)
            byv[i] = _to_float(b.y)
        self.axv, self.axe = axv, _conversion_error(axv)
        self.ayv, self.aye = ayv, _conversion_error(ayv)
        self.bxv, self.bxe = bxv, _conversion_error(bxv)
        self.byv, self.bye = byv, _conversion_error(byv)
        # Edge direction vector b - a.
        self.exv, self.exe = _sub(bxv, self.bxe, axv, self.axe)
        self.eyv, self.eye = _sub(byv, self.bye, ayv, self.aye)
        # Outward-rounded edge bounding boxes.
        self.minx_lo = np.minimum(axv - self.axe, bxv - self.bxe)
        self.maxx_hi = np.maximum(axv + self.axe, bxv + self.bxe)
        self.miny_lo = np.minimum(ayv - self.aye, byv - self.bye)
        self.maxy_hi = np.maximum(ayv + self.aye, byv + self.bye)

    def point_columns(self, points: Sequence[Coordinate]):
        n = len(points)
        pxv = np.empty(n)
        pyv = np.empty(n)
        for i, p in enumerate(points):
            pxv[i] = _to_float(p.x)
            pyv[i] = _to_float(p.y)
        return pxv, _conversion_error(pxv), pyv, _conversion_error(pyv)

    def resolve_columns(self, points: Sequence[Coordinate], columns):
        """Point columns for ``points``, reusing a prepared conversion."""
        if columns is not None:
            return columns.arrays
        return self.point_columns(points)

    def cross_matrix(self, pxv, pxe, pyv, pye):
        """Error-tracked ``cross(a, b, p)`` for every (point, edge) pair.

        ``cross(a, b, p) = (b.x-a.x)(p.y-a.y) - (b.y-a.y)(p.x-a.x)`` — zero
        exactly when ``p`` is collinear with the edge, and simultaneously
        the numerator of the ray-crossing abscissa test (see
        :meth:`RingLocator.locate_many`), so one matrix serves both passes.
        """
        qxv, qxe = _sub(pxv[:, None], pxe[:, None], self.axv[None, :], self.axe[None, :])
        qyv, qye = _sub(pyv[:, None], pye[:, None], self.ayv[None, :], self.aye[None, :])
        t1v, t1e = _mul(self.exv[None, :], self.exe[None, :], qyv, qye)
        t2v, t2e = _mul(self.eyv[None, :], self.eye[None, :], qxv, qxe)
        return _sub(t1v, t1e, t2v, t2e)

    def outside_bbox(self, pxv, pxe, pyv, pye):
        """Mask: the point is *certainly* outside the edge's bounding box."""
        return (
            (pxv[:, None] - pxe[:, None] > self.maxx_hi[None, :])
            | (pxv[:, None] + pxe[:, None] < self.minx_lo[None, :])
            | (pyv[:, None] - pye[:, None] > self.maxy_hi[None, :])
            | (pyv[:, None] + pye[:, None] < self.miny_lo[None, :])
        )


# ---------------------------------------------------------------------------
# Shared query-point conversions
# ---------------------------------------------------------------------------


class PointColumns:
    """One float conversion of a query-point batch, shared by every locator
    classifying the batch (a relate arrangement probes the same witness
    points against many rings and segment sets).

    ``face_interior`` optionally marks points the *caller* certifies to lie
    strictly inside an arrangement face covering every locator's segments
    and nodes (the side-offset witnesses behind a geometry's prepared edge
    labels, :class:`repro.topology.labels.PreparedTopology`, carry that
    certificate).  Such points are on no segment and equal to no
    vertex, so locators skip their boundary confirmations entirely — the
    decisions the certificate forecloses, nothing else.
    """

    def __init__(
        self,
        points: Sequence[Coordinate],
        face_interior: Sequence[bool] | None = None,
    ):
        self.points = list(points)
        n = len(self.points)
        pxv = np.empty(n)
        pyv = np.empty(n)
        for i, p in enumerate(self.points):
            pxv[i] = _to_float(p.x)
            pyv[i] = _to_float(p.y)
        self.arrays = (pxv, _conversion_error(pxv), pyv, _conversion_error(pyv))
        self.face_interior = (
            np.asarray(face_interior, dtype=bool) if face_interior is not None else None
        )

    def subset(self, indices: Sequence[int]) -> "PointColumns":
        """Columns for a positional subset (no re-conversion)."""
        sub = PointColumns.__new__(PointColumns)
        sub.points = [self.points[i] for i in indices]
        idx = np.asarray(indices, dtype=np.intp)
        pxv, pxe, pyv, pye = self.arrays
        sub.arrays = (pxv[idx], pxe[idx], pyv[idx], pye[idx])
        sub.face_interior = (
            self.face_interior[idx] if self.face_interior is not None else None
        )
        return sub


# ---------------------------------------------------------------------------
# Batch point-in-ring
# ---------------------------------------------------------------------------


def _exact_crossing(p: Coordinate, a: Coordinate, b: Coordinate) -> bool:
    """One edge's exact contribution to the ray-crossing parity.

    Equivalent to the crossing step of
    :func:`repro.geometry.primitives.point_in_ring` with the division
    cleared: there ``x_cross > p.x`` with
    ``x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x)``, and
    ``x_cross - p.x = cross(a, b, p) / (b.y - a.y)``, so under the straddle
    (which makes the denominator nonzero) the comparison is a sign match —
    the same bit without a Fraction division.
    """
    if (a.y > p.y) != (b.y > p.y):
        numerator = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
        if numerator == 0:
            return False
        return (numerator > 0) == (b.y > a.y)
    return False


class RingLocator:
    """Batch replacement for :func:`point_in_ring` over one fixed ring.

    ``locate_many`` returns, for each query point, exactly the string
    :func:`point_in_ring` would return.  Float arithmetic only prunes:

    * **boundary pass** — an edge whose point/edge cross product is
      certainly nonzero (or whose bounding box certainly excludes the
      point) cannot contain the point; every surviving edge is re-checked
      with the exact :func:`point_on_segment`;
    * **parity pass** — for an edge that certainly straddles the query's
      horizontal line, the crossing test ``x_cross > p.x`` reduces to
      ``sign(cross) == sign(b.y - a.y)`` (clear denominators in the
      abscissa comparison and the same cross product appears as the
      numerator); straddle-uncertain or sign-uncertain edges contribute
      their exact :func:`_exact_crossing` bit instead.
    """

    def __init__(self, ring: Sequence[Coordinate]):
        points = list(ring)
        self._ring = list(points)
        if points and points[0] != points[-1]:
            points = points + [points[0]]
        edges = list(zip(points, points[1:]))
        self._table = EdgeTable(edges) if edges else None

    def locate_many(
        self, points: Sequence[Coordinate], columns: "PointColumns | None" = None
    ) -> list[str]:
        table = self._table
        if table is None or not points:
            return [point_in_ring(p, self._ring) for p in points]
        _KERNEL_STATS["ring_batches"] += 1
        _KERNEL_STATS["ring_points"] += len(points)

        pxv, pxe, pyv, pye = table.resolve_columns(points, columns)
        crossv, crosse = table.cross_matrix(pxv, pxe, pyv, pye)
        cross_certain = _certain(crossv, crosse)
        boundary_candidate = ~cross_certain & ~table.outside_bbox(pxv, pxe, pyv, pye)
        face_interior = columns.face_interior if columns is not None else None
        if face_interior is not None:
            # Certified face-interior points cannot lie on the ring: drop
            # their boundary confirmations (their ε-offset construction makes
            # them ε-close to their own edge, i.e. always cross-uncertain).
            boundary_candidate &= ~face_interior[:, None]

        # Straddle test: does the edge cross the horizontal line through p?
        d1v, d1e = _sub(table.ayv[None, :], table.aye[None, :], pyv[:, None], pye[:, None])
        d2v, d2e = _sub(table.byv[None, :], table.bye[None, :], pyv[:, None], pye[:, None])
        straddle_known = _certain(d1v, d1e) & _certain(d2v, d2e)
        straddle = (d1v > 0) != (d2v > 0)
        counted = straddle_known & straddle & cross_certain
        # Under a certain straddle, b.y - a.y has the sign of d2 (= b.y - p.y).
        contributions = counted & ((crossv > 0) == (d2v > 0))
        parity_uncertain = ~straddle_known | (straddle_known & straddle & ~cross_certain)
        parities = (contributions.sum(axis=1) & 1).tolist()

        # Exact confirmations walk the hits of one np.nonzero per matrix in
        # row-major order: per point, its candidate edges in ascending order.
        edges = table.edges
        on_boundary: set[int] = set()
        for i, j in _hits(boundary_candidate):
            if i in on_boundary:
                continue
            _KERNEL_STATS["ring_exact_boundary_checks"] += 1
            p = points[i]
            a, b = edges[j]
            # Nodes frequently coincide with ring vertices: two exact
            # equality tests are far cheaper than the orientation test.
            if p == a or p == b or point_on_segment(p, a, b):
                on_boundary.add(i)
        for i, j in _hits(parity_uncertain):
            if i in on_boundary:
                continue
            _KERNEL_STATS["ring_exact_crossing_checks"] += 1
            a, b = edges[j]
            if _exact_crossing(points[i], a, b):
                parities[i] ^= 1
        return [
            "boundary" if i in on_boundary else "interior" if inside else "exterior"
            for i, inside in enumerate(parities)
        ]


# ---------------------------------------------------------------------------
# Batch point-on-any-segment
# ---------------------------------------------------------------------------


class SegmentsLocator:
    """Batch replacement for the ``point_on_segment`` loop over a fixed
    segment set (line-component interiors)."""

    def __init__(self, segments: Sequence[Segment]):
        self._segments = list(segments)
        self._table = EdgeTable(self._segments) if self._segments else None

    def contains_many(
        self, points: Sequence[Coordinate], columns: "PointColumns | None" = None
    ) -> list[bool]:
        table = self._table
        if table is None or not points:
            return [
                any(point_on_segment(p, a, b) for a, b in self._segments) for p in points
            ]
        _KERNEL_STATS["segment_batches"] += 1
        pxv, pxe, pyv, pye = table.resolve_columns(points, columns)
        crossv, crosse = table.cross_matrix(pxv, pxe, pyv, pye)
        candidate = ~_certain(crossv, crosse) & ~table.outside_bbox(pxv, pxe, pyv, pye)
        face_interior = columns.face_interior if columns is not None else None
        if face_interior is not None:
            # Certified face-interior points lie on no segment; skip their
            # exact confirmations.
            candidate &= ~face_interior[:, None]
        segments = self._segments
        results = [False] * len(points)
        for i, j in _hits(candidate):
            if results[i]:
                continue
            _KERNEL_STATS["segment_exact_checks"] += 1
            p = points[i]
            a, b = segments[j]
            if p == a or p == b or point_on_segment(p, a, b):
                results[i] = True
        return results


# ---------------------------------------------------------------------------
# Pairwise segment prescreen (noding)
# ---------------------------------------------------------------------------


def segment_pair_candidates(
    segments: Sequence[Segment],
) -> list[list[tuple[int, bool]]] | None:
    """Per-segment candidate partners ``(index, certainly_proper)`` for the
    exact intersection tests of the noder.

    Returns ``None`` when the kernels are off (caller keeps the full
    pairwise loop).  A pair may be pruned only when it *certainly* has no
    intersection point:

    * the outward-rounded bounding boxes are certainly disjoint (every
      intersection point lies in both boxes), or
    * both endpoints of one segment are certainly strictly on the same side
      of the other's supporting line (the whole segment then avoids that
      line, and every intersection point would have to lie on it).

    ``certainly_proper`` marks pairs whose endpoint orientations are all
    certainly strict with both segments straddling the other's line: such a
    pair has exactly one intersection point, strictly interior to both
    segments, and the caller may skip the exact orientation preamble and
    compute that point directly.  Segments sharing an endpoint always
    overlap in bbox and therefore stay (non-proper) candidates — their
    shared endpoints are genuine cut points.
    """
    if not vectorized_kernels_enabled() or len(segments) < 2:
        return None
    _KERNEL_STATS["noding_prescreens"] += 1
    n = len(segments)
    _KERNEL_STATS["noding_pairs_total"] += n * (n - 1)
    table = EdgeTable(segments)
    disjoint = _boxes_apart(table, table)
    same_side, straddles = _endpoint_sides(table, table)
    reject = disjoint | disjoint.T | same_side | same_side.T
    np.fill_diagonal(reject, True)
    _KERNEL_STATS["noding_pairs_pruned"] += int(reject.sum()) - n
    return _candidate_rows(reject, straddles & straddles.T)


def segment_block_candidates(
    first: EdgeTable | None, second: EdgeTable | None
) -> list[list[tuple[int, bool]]] | None:
    """:func:`segment_pair_candidates` for the pairs that take one segment
    from each of two tables: per segment of ``first``, its candidate
    partners ``(index in second, certainly_proper)``.

    Each test reads only the ``len(first) × len(second)`` block — the
    first table's endpoints against the second's lines and the second's
    endpoints against the first's — and gives the same candidates and
    certificates as the pairwise prescreen over both lists would for
    those pairs.  ``None`` when the kernels are off or a table is
    missing (an operand with no segments: there are no pairs).
    """
    if not vectorized_kernels_enabled() or first is None or second is None:
        return None
    _KERNEL_STATS["noding_prescreens"] += 1
    _KERNEL_STATS["noding_pairs_total"] += len(first.edges) * len(second.edges)
    first_sides, first_straddles = _endpoint_sides(first, second)
    second_sides, second_straddles = _endpoint_sides(second, first)
    reject = (
        _boxes_apart(first, second)
        | _boxes_apart(second, first).T
        | first_sides
        | second_sides.T
    )
    _KERNEL_STATS["noding_pairs_pruned"] += int(reject.sum())
    return _candidate_rows(reject, first_straddles & second_straddles.T)


def _boxes_apart(first: EdgeTable, second: EdgeTable):
    """Mask ``[i, j]``: edge ``i`` of ``first`` lies certainly left of or
    below edge ``j`` of ``second`` (one half of bounding-box disjointness)."""
    return (first.minx_lo[:, None] > second.maxx_hi[None, :]) | (
        first.miny_lo[:, None] > second.maxy_hi[None, :]
    )


def _endpoint_sides(segments: EdgeTable, lines: EdgeTable):
    """``(same_side, straddles)`` masks ``[i, j]``: both endpoints of
    segment ``i`` lie certainly strictly on one side of line ``j``'s
    supporting line, or certainly on opposite sides (the d1/d2 of
    segment_intersection)."""
    m1v, m1e = lines.cross_matrix(segments.axv, segments.axe, segments.ayv, segments.aye)
    m2v, m2e = lines.cross_matrix(segments.bxv, segments.bxe, segments.byv, segments.bye)
    pos1, neg1 = m1v > m1e, m1v < -m1e
    pos2, neg2 = m2v > m2e, m2v < -m2e
    return (pos1 & pos2) | (neg1 & neg2), (pos1 & neg2) | (neg1 & pos2)


def _candidate_rows(reject, proper) -> list[list[tuple[int, bool]]]:
    """Per row, the ``(column, proper)`` pairs a prescreen did not reject."""
    proper_rows = proper.tolist()
    return [
        [(j, proper_rows[i][j]) for j in row] for i, row in enumerate(_hits_by_row(~reject))
    ]


# ---------------------------------------------------------------------------
# Clearance prescreen (side-offset witness construction)
# ---------------------------------------------------------------------------


class ClearanceFilter:
    """Float prescreen for ``OffsetContext.min_clearance_sq``.

    The exact clearance kernel scans every node and every segment of an
    arrangement per midpoint query.  This filter computes, per candidate, a
    certified interval for its squared distance to the query midpoint and
    returns only the candidates whose interval can still reach the minimum
    positive clearance; the caller evaluates exactly those with the exact
    kernel, producing the identical rational minimum.

    Intervals are deliberately loose where case analysis would be needed:
    a segment's squared distance is bracketed by ``[distance-to-supporting-
    line, min(distance to either endpoint)]``, which holds for every
    position of the projection foot.  Candidates whose interval reaches
    zero are always kept — the exact kernel is what decides whether they
    are the excluded zero-distance incidences or a tiny positive minimum.
    """

    def __init__(self, segments: Sequence[Segment], nodes: Sequence[Coordinate]):
        self._ok = len(segments) > 0 or len(nodes) > 0
        if not self._ok:
            return
        nxv = np.array([_to_float(p.x) for p in nodes])
        nyv = np.array([_to_float(p.y) for p in nodes])
        self._nxv, self._nxe = nxv, _conversion_error(nxv)
        self._nyv, self._nye = nyv, _conversion_error(nyv)
        saxv = np.array([_to_float(s[0].x) for s in segments])
        sayv = np.array([_to_float(s[0].y) for s in segments])
        sbxv = np.array([_to_float(s[1].x) for s in segments])
        sbyv = np.array([_to_float(s[1].y) for s in segments])
        self._saxv, self._saxe = saxv, _conversion_error(saxv)
        self._sayv, self._saye = sayv, _conversion_error(sayv)
        self._sbxv, self._sbxe = sbxv, _conversion_error(sbxv)
        self._sbyv, self._sbye = sbyv, _conversion_error(sbyv)
        self._sexv, self._sexe = _sub(sbxv, self._sbxe, saxv, self._saxe)
        self._seyv, self._seye = _sub(sbyv, self._sbye, sayv, self._saye)
        ex2 = _mul(self._sexv, self._sexe, self._sexv, self._sexe)
        ey2 = _mul(self._seyv, self._seye, self._seyv, self._seye)
        self._slen2v, self._slen2e = _add(*ex2, *ey2)

    @staticmethod
    def _squared_gap(dxv, dxe, dyv, dye):
        x2 = _mul(dxv, dxe, dxv, dxe)
        y2 = _mul(dyv, dye, dyv, dye)
        return _add(*x2, *y2)

    def candidates(
        self, a: Coordinate, b: Coordinate
    ) -> tuple[list[int], list[int]] | None:
        """Node / segment indices that may decide the minimum positive
        clearance of segment ``a``–``b``'s midpoint (``None``: scan all)."""
        batch = self.candidates_many([(a, b)])
        return None if batch is None else batch[0]

    def candidates_many(
        self, queries: Sequence[Segment]
    ) -> list[tuple[list[int], list[int]]] | None:
        """Batch :meth:`candidates` for many query segments at once.

        One numpy dispatch covers every midpoint query of an arrangement
        (the per-query path pays ~30 array-op dispatches each), broadcasting
        the candidate intervals to ``(queries, nodes)`` / ``(queries,
        segments)`` matrices.  Row ``i`` is exactly what :meth:`candidates`
        returns for ``queries[i]``.
        """
        if not self._ok or not queries:
            return None
        axv = np.array([_to_float(q[0].x) for q in queries])
        ayv = np.array([_to_float(q[0].y) for q in queries])
        bxv = np.array([_to_float(q[1].x) for q in queries])
        byv = np.array([_to_float(q[1].y) for q in queries])
        axe, aye = _conversion_error(axv), _conversion_error(ayv)
        bxe, bye = _conversion_error(bxv), _conversion_error(byv)
        sxv, sxe = _add(axv, axe, bxv, bxe)
        syv, sye = _add(ayv, aye, byv, bye)
        mxv, mxe = (sxv * 0.5)[:, None], (sxe * 0.5)[:, None]
        myv, mye = (syv * 0.5)[:, None], (sye * 0.5)[:, None]

        # Node intervals, (queries, nodes).
        ndxv, ndxe = _sub(mxv, mxe, self._nxv[None, :], self._nxe[None, :])
        ndyv, ndye = _sub(myv, mye, self._nyv[None, :], self._nye[None, :])
        nd2v, nd2e = self._squared_gap(ndxv, ndxe, ndyv, ndye)
        node_lo = nd2v - nd2e
        node_hi = nd2v + nd2e

        # Segment intervals, (queries, segments): [line distance,
        # min(endpoint distances)].
        vdxv, vdxe = _sub(mxv, mxe, self._saxv[None, :], self._saxe[None, :])
        vdyv, vdye = _sub(myv, mye, self._sayv[None, :], self._saye[None, :])
        da2v, da2e = self._squared_gap(vdxv, vdxe, vdyv, vdye)
        wdxv, wdxe = _sub(mxv, mxe, self._sbxv[None, :], self._sbxe[None, :])
        wdyv, wdye = _sub(myv, mye, self._sbyv[None, :], self._sbye[None, :])
        db2v, db2e = self._squared_gap(wdxv, wdxe, wdyv, wdye)
        t1v, t1e = _mul(vdxv, vdxe, self._seyv[None, :], self._seye[None, :])
        t2v, t2e = _mul(vdyv, vdye, self._sexv[None, :], self._sexe[None, :])
        crossv, crosse = _sub(t1v, t1e, t2v, t2e)
        cross_lo = np.maximum(np.abs(crossv) - crosse, 0.0)
        len2_hi = (self._slen2v + self._slen2e)[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            line_lo = (cross_lo * cross_lo) / len2_hi
        seg_lo = np.where(np.isfinite(line_lo), np.maximum(line_lo, 0.0), 0.0)
        seg_hi = np.minimum(da2v + da2e, db2v + db2e)

        # Per-query upper bound on the minimum positive clearance: the
        # smallest hi of any certainly-positive candidate.  Candidates above
        # it cannot be the minimum; everything else (including possible
        # zero-distance incidences) goes to the exact kernel.
        bound = np.full(len(queries), np.inf)
        if node_lo.shape[1]:
            positive_node_hi = np.where(node_lo > 0.0, node_hi, np.inf)
            bound = np.minimum(bound, positive_node_hi.min(axis=1))
        if seg_lo.shape[1]:
            positive_seg_hi = np.where(
                (seg_lo > 0.0) & np.isfinite(seg_hi), seg_hi, np.inf
            )
            bound = np.minimum(bound, positive_seg_hi.min(axis=1))

        limit = bound[:, None]
        return list(zip(_hits_by_row(~(node_lo > limit)), _hits_by_row(~(seg_lo > limit))))


# ---------------------------------------------------------------------------
# Columnar envelopes (engine batch prefilter)
# ---------------------------------------------------------------------------


def envelope_float_box(envelope) -> tuple[float, float, float, float]:
    """Outward-rounded float box of an exact envelope, memoized per instance.

    ``(min_x_lo, min_y_lo, max_x_hi, max_y_hi)`` with each bound pushed
    outward by the certified conversion error, so a float comparison can
    only ever *keep* a candidate the exact bounds would keep.  Envelopes
    are immutable, and the reuse layer's geometry interner shares geometry
    instances — and therefore their envelope memos — across campaign
    rounds, so the four Fraction→float conversions happen once per
    distinct envelope rather than once per block build or probe.
    """
    memo = envelope._float_box
    if memo is None:
        minx = _to_float(envelope.min_x)
        miny = _to_float(envelope.min_y)
        maxx = _to_float(envelope.max_x)
        maxy = _to_float(envelope.max_y)
        memo = (
            minx - _conversion_error(minx),
            miny - _conversion_error(miny),
            maxx + _conversion_error(maxx),
            maxy + _conversion_error(maxy),
        )
        envelope._float_box = memo
    return memo


class EnvelopeBlock:
    """Outward-rounded float envelopes for a positional sequence of rows.

    The batch executor's analogue of
    :meth:`repro.engine.catalog.SpatialIndex.candidates`: built from the
    geometry column of a scanned row block, queried with an outer row's
    exact envelope, returns the positions that *may* satisfy an
    envelope-based prefilter.  The contract mirrors the R-tree exactly:

    * NULL rows are never candidates (every indexable predicate coerces its
      arguments before any fault hook can fire, so a NULL row's condition
      is never true and triggers nothing);
    * EMPTY geometries are *always* candidates (the index keeps its
      ``empty_rows`` alongside every tree hit);
    * everything else is pruned only on a *certain* reject.
    """

    def __init__(self, values: Sequence[object]):
        _KERNEL_STATS["envelope_blocks"] += 1
        self.positions: list[int] = []
        self.empty_positions: list[int] = []
        boxes: list[tuple[float, float, float, float]] = []
        for position, value in enumerate(values):
            if value is None:
                continue
            envelope = value.envelope()  # type: ignore[attr-defined]
            if envelope is None:
                self.empty_positions.append(position)
                continue
            self.positions.append(position)
            boxes.append(envelope_float_box(envelope))
        if boxes:
            array = np.array(boxes)
            self.minx_lo = array[:, 0]
            self.miny_lo = array[:, 1]
            self.maxx_hi = array[:, 2]
            self.maxy_hi = array[:, 3]
            self._positions_array = np.array(self.positions, dtype=np.intp)
        else:
            self._positions_array = None

    def all_positions(self) -> list[int]:
        """Every non-NULL position (the no-envelope / non-geometry probe)."""
        return sorted(self.positions + self.empty_positions)

    def _query_box(self, envelope) -> tuple[float, float, float, float]:
        return envelope_float_box(envelope)

    def intersecting(self, envelope) -> list[int]:
        """Positions whose envelope may intersect ``envelope`` (plus empties).

        ``envelope=None`` (an EMPTY probe geometry) returns every non-NULL
        position, mirroring ``SpatialIndex.candidates(None)``.
        """
        _KERNEL_STATS["envelope_queries"] += 1
        if envelope is None:
            return self.all_positions()
        if self._positions_array is None:
            return self.all_positions()
        q_minx_lo, q_miny_lo, q_maxx_hi, q_maxy_hi = self._query_box(envelope)
        disjoint = (
            (self.minx_lo > q_maxx_hi)
            | (q_minx_lo > self.maxx_hi)
            | (self.miny_lo > q_maxy_hi)
            | (q_miny_lo > self.maxy_hi)
        )
        hits = self._positions_array[~disjoint].tolist()
        return sorted(hits + self.empty_positions)

    def within_distance(self, envelope, threshold: int) -> list[int]:
        """Positions whose bbox gap to ``envelope`` may be ≤ ``threshold``.

        The box-to-box gap lower-bounds the geometry distance, so a row may
        be pruned only when the gap is certainly larger than the threshold;
        the squared comparison keeps a 1e-9 relative margin over the few
        ulps the gap arithmetic can lose.  EMPTY rows are never pruned.
        """
        _KERNEL_STATS["distance_queries"] += 1
        if envelope is None or self._positions_array is None:
            return self.all_positions()
        q_minx_lo, q_miny_lo, q_maxx_hi, q_maxy_hi = self._query_box(envelope)
        zero = 0.0
        dx = np.maximum(zero, np.maximum(self.minx_lo - q_maxx_hi, q_minx_lo - self.maxx_hi))
        dy = np.maximum(zero, np.maximum(self.miny_lo - q_maxy_hi, q_miny_lo - self.maxy_hi))
        gap_sq = (dx * dx + dy * dy) * (1.0 - 1e-9)
        limit = float(threshold) * float(threshold)
        hits = self._positions_array[~(gap_sq > limit)].tolist()
        return sorted(hits + self.empty_positions)
