"""Labelled decomposition of geometries into topological components.

The DE-9IM (Definition 2.3 of the paper) partitions the plane, for each
geometry, into *interior*, *boundary* and *exterior* point sets.  This module
turns a :class:`~repro.geometry.model.Geometry` into a
:class:`TopologyDescriptor` — a list of components, each of which can locate
an arbitrary point into one of the three classes:

* point components (POINT / MULTIPOINT): the coordinates are interior, the
  boundary is empty;
* line components (LINESTRING / MULTILINESTRING): the curve is interior
  except for the *mod-2* boundary endpoints (endpoints that belong to an odd
  number of elements); closed curves have an empty boundary;
* area components (POLYGON / MULTIPOLYGON): the open area is interior, the
  rings are the boundary.

GEOMETRYCOLLECTION components are combined with a configurable strategy.  The
default, ``"union"``, gives interior priority (a point interior to any
element is interior to the collection), which is the behaviour the paper's
Listing 6 treats as expected.  The ``"last_one_wins"`` and
``"boundary_priority"`` strategies reproduce the buggy and the
developer-proposed alternatives discussed in the paper and are selected by
the fault-injection layer, never by default.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

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
)
from repro.geometry.columnar import (
    EdgeTable,
    PointColumns,
    RingLocator,
    SegmentsLocator,
    count_prepared_descriptor,
    vectorized_kernels_enabled,
)
from repro.geometry.primitives import point_in_ring, point_on_segment
from repro.topology.noding import (
    OffsetContext,
    fast_clearance_enabled,
    midpoint,
    refine_split,
    side_offsets,
    split_points,
)

INTERIOR = "I"
BOUNDARY = "B"
EXTERIOR = "E"

#: Strategies for combining element classes inside a GEOMETRYCOLLECTION.
UNION_STRATEGY = "union"
LAST_ONE_WINS_STRATEGY = "last_one_wins"
BOUNDARY_PRIORITY_STRATEGY = "boundary_priority"

VALID_STRATEGIES = (
    UNION_STRATEGY,
    LAST_ONE_WINS_STRATEGY,
    BOUNDARY_PRIORITY_STRATEGY,
)

Segment = tuple[Coordinate, Coordinate]
#: a noded edge's classes (left of it, on it, right of it), oriented along
#: the edge.
EdgeLabel = tuple[str, str, str]


class _Component:
    """A homogeneous topological component with its own point locator."""

    dimension: int = 0

    def locate(self, point: Coordinate) -> str:
        raise NotImplementedError

    def locate_many(
        self, points: Sequence[Coordinate], columns: PointColumns | None = None
    ) -> list[str]:
        """Batch :meth:`locate`; subclasses may vectorize (reusing the shared
        float ``columns`` of the batch), results must be point-for-point
        identical to the scalar locator."""
        return [self.locate(point) for point in points]

    def segments(self) -> list[Segment]:
        """Line segments contributed to the noding step (may be empty)."""
        return []

    def isolated_points(self) -> list[Coordinate]:
        """0-dimensional coordinates contributed to the noding step."""
        return []

    @property
    def is_empty(self) -> bool:
        raise NotImplementedError


class PointsComponent(_Component):
    """POINT / MULTIPOINT component: coordinates are interior points."""

    dimension = 0

    def __init__(self, coordinates: Iterable[Coordinate]):
        self.coordinates = set(coordinates)

    @property
    def is_empty(self) -> bool:
        return not self.coordinates

    def locate(self, point: Coordinate) -> str:
        return INTERIOR if point in self.coordinates else EXTERIOR

    def locate_many(
        self, points: Sequence[Coordinate], columns: PointColumns | None = None
    ) -> list[str]:
        mask = columns.face_interior if columns is not None else None
        if mask is None:
            return [self.locate(point) for point in points]
        # Face-interior points coincide with no arrangement node, hence with
        # none of these coordinates (they are isolated points of the noding).
        return [
            EXTERIOR if mask[i] else self.locate(point)
            for i, point in enumerate(points)
        ]

    def isolated_points(self) -> list[Coordinate]:
        return list(self.coordinates)


class LinesComponent(_Component):
    """LINESTRING / MULTILINESTRING component with mod-2 boundary."""

    dimension = 1

    def __init__(self, elements: Sequence[LineString]):
        self.elements = [e for e in elements if not e.is_empty]
        self._segments: list[Segment] = []
        self._degenerate_points: list[Coordinate] = []
        for element in self.elements:
            has_real_segment = False
            for a, b in element.segments():
                if a == b:
                    continue
                self._segments.append((a, b))
                has_real_segment = True
            if not has_real_segment and element.points:
                # A line collapsed to a single location behaves like a point.
                self._degenerate_points.append(element.points[0])
        self.boundary_points = self._mod2_boundary(self.elements)
        self._segments_locator: SegmentsLocator | None = None

    @staticmethod
    def _mod2_boundary(elements: Sequence[LineString]) -> set[Coordinate]:
        counts: Counter[Coordinate] = Counter()
        for element in elements:
            if not element.points:
                continue
            if len(set(element.points)) < 2:
                continue
            counts[element.points[0]] += 1
            counts[element.points[-1]] += 1
        return {coord for coord, count in counts.items() if count % 2 == 1}

    @property
    def is_empty(self) -> bool:
        return not self._segments and not self._degenerate_points

    def locate(self, point: Coordinate) -> str:
        if point in self.boundary_points:
            return BOUNDARY
        if point in self._degenerate_points:
            return INTERIOR
        for a, b in self._segments:
            if point_on_segment(point, a, b):
                return INTERIOR
        return EXTERIOR

    def locate_many(
        self, points: Sequence[Coordinate], columns: PointColumns | None = None
    ) -> list[str]:
        if not vectorized_kernels_enabled() or not self._segments:
            return [self.locate(point) for point in points]
        if self._segments_locator is None:
            self._segments_locator = SegmentsLocator(self._segments)
        on_segment = self._segments_locator.contains_many(points, columns)
        mask = columns.face_interior if columns is not None else None
        results = []
        for i, (point, hit) in enumerate(zip(points, on_segment)):
            if mask is not None and mask[i]:
                # Face-interior: on no segment, equal to no boundary or
                # degenerate point (all of them are arrangement nodes).
                results.append(EXTERIOR)
            elif point in self.boundary_points:
                results.append(BOUNDARY)
            elif point in self._degenerate_points:
                results.append(INTERIOR)
            elif hit:
                results.append(INTERIOR)
            else:
                results.append(EXTERIOR)
        return results

    def segments(self) -> list[Segment]:
        return list(self._segments)

    def isolated_points(self) -> list[Coordinate]:
        return list(self._degenerate_points)


class AreasComponent(_Component):
    """POLYGON / MULTIPOLYGON component: open area interior, rings boundary."""

    dimension = 2

    def __init__(self, polygons: Sequence[Polygon]):
        self.polygons = [p for p in polygons if not p.is_empty]
        self._ring_segments: list[Segment] = []
        for polygon in self.polygons:
            for ring in polygon.rings():
                for a, b in zip(ring, ring[1:]):
                    if a != b:
                        self._ring_segments.append((a, b))
        self._ring_locators: list[tuple[RingLocator, list[RingLocator]]] | None = None

    @property
    def is_empty(self) -> bool:
        return not self.polygons

    def locate(self, point: Coordinate) -> str:
        found_interior = False
        for polygon in self.polygons:
            location = self._locate_in_polygon(point, polygon)
            if location == BOUNDARY:
                return BOUNDARY
            if location == INTERIOR:
                found_interior = True
        return INTERIOR if found_interior else EXTERIOR

    @staticmethod
    def _locate_in_polygon(point: Coordinate, polygon: Polygon) -> str:
        exterior_location = point_in_ring(point, polygon.exterior)
        if exterior_location == "boundary":
            return BOUNDARY
        if exterior_location == "exterior":
            return EXTERIOR
        for hole in polygon.holes:
            hole_location = point_in_ring(point, hole)
            if hole_location == "boundary":
                return BOUNDARY
            if hole_location == "interior":
                return EXTERIOR
        return INTERIOR

    def locate_many(
        self, points: Sequence[Coordinate], columns: PointColumns | None = None
    ) -> list[str]:
        if not vectorized_kernels_enabled() or not self.polygons:
            return [self.locate(point) for point in points]
        if self._ring_locators is None:
            self._ring_locators = [
                (RingLocator(p.exterior), [RingLocator(h) for h in p.holes])
                for p in self.polygons
            ]
        if columns is None:
            columns = PointColumns(points)
        results = [EXTERIOR] * len(points)
        # A BOUNDARY from any polygon is final; an INTERIOR keeps the point
        # in play because a later polygon's boundary still takes priority
        # (matching the scalar locator's early return on BOUNDARY only).
        active = list(range(len(points)))
        for exterior_locator, hole_locators in self._ring_locators:
            if not active:
                break
            active_columns = columns.subset(active)
            located = exterior_locator.locate_many(active_columns.points, active_columns)
            still_active: list[int] = []
            in_exterior_ring: list[int] = []
            for index, location in zip(active, located):
                if location == "boundary":
                    results[index] = BOUNDARY
                elif location == "interior":
                    in_exterior_ring.append(index)
                else:
                    still_active.append(index)
            for hole_locator in hole_locators:
                if not in_exterior_ring:
                    break
                hole_columns = columns.subset(in_exterior_ring)
                located = hole_locator.locate_many(hole_columns.points, hole_columns)
                remaining: list[int] = []
                for index, location in zip(in_exterior_ring, located):
                    if location == "boundary":
                        results[index] = BOUNDARY
                    elif location == "interior":
                        # Inside a hole: exterior of this polygon.
                        still_active.append(index)
                    else:
                        remaining.append(index)
                in_exterior_ring = remaining
            for index in in_exterior_ring:
                results[index] = INTERIOR
                still_active.append(index)
            active = [i for i in still_active if results[i] != BOUNDARY]
        return results

    def segments(self) -> list[Segment]:
        return list(self._ring_segments)


class TopologyDescriptor:
    """A geometry decomposed into locatable components."""

    def __init__(self, geometry: Geometry, collection_strategy: str = UNION_STRATEGY):
        if collection_strategy not in VALID_STRATEGIES:
            raise ValueError(f"unknown collection strategy {collection_strategy!r}")
        self.geometry = geometry
        self.collection_strategy = collection_strategy
        self.components: list[_Component] = []
        self._decompose(geometry)
        self.components = [c for c in self.components if not c.is_empty]
        self._prepared: PreparedTopology | None = None

    def _decompose(self, geometry: Geometry) -> None:
        if isinstance(geometry, Point):
            if not geometry.is_empty:
                self.components.append(PointsComponent([geometry.coordinate]))
        elif isinstance(geometry, MultiPoint):
            coords = [p.coordinate for p in geometry.geoms if not p.is_empty]
            if coords:
                self.components.append(PointsComponent(coords))
        elif isinstance(geometry, LineString):
            if not geometry.is_empty:
                self.components.append(LinesComponent([geometry]))
        elif isinstance(geometry, MultiLineString):
            elements = [line for line in geometry.geoms if not line.is_empty]
            if elements:
                self.components.append(LinesComponent(elements))
        elif isinstance(geometry, Polygon):
            if not geometry.is_empty:
                self.components.append(AreasComponent([geometry]))
        elif isinstance(geometry, MultiPolygon):
            polygons = [p for p in geometry.geoms if not p.is_empty]
            if polygons:
                self.components.append(AreasComponent(polygons))
        elif isinstance(geometry, GeometryCollection):
            for element in geometry.geoms:
                self._decompose(element)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot decompose geometry type {type(geometry).__name__}")

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def dimension(self) -> int:
        """Topological dimension of the non-empty content (0 when empty)."""
        if self.is_empty:
            return 0
        return max(component.dimension for component in self.components)

    def locate(self, point: Coordinate) -> str:
        """Locate a point into interior / boundary / exterior of the geometry."""
        classes = [component.locate(point) for component in self.components]
        return combine_classes(classes, self.collection_strategy)

    def locate_many(
        self,
        points: Sequence[Coordinate],
        face_interior: Sequence[bool] | None = None,
    ) -> list[str]:
        """Batch :meth:`locate` over many points (identical classifications).

        Components dispatch to their float-filtered batch locators when the
        vectorized kernels are enabled; otherwise this is the scalar locator
        in a loop.  ``face_interior`` optionally certifies points as strictly
        interior to an arrangement face spanning this geometry's segments
        and nodes (see :class:`~repro.geometry.columnar.PointColumns`); it
        is consulted only on the vectorized path.
        """
        points = list(points)
        if not points:
            return []
        if not self.components:
            return [EXTERIOR] * len(points)
        shared = (
            PointColumns(points, face_interior)
            if vectorized_kernels_enabled()
            else None
        )
        per_component = [
            component.locate_many(points, shared) for component in self.components
        ]
        return [
            combine_classes(
                [column[i] for column in per_component], self.collection_strategy
            )
            for i in range(len(points))
        ]

    def segments(self) -> list[Segment]:
        """All line segments (line elements and polygon rings) for noding."""
        result: list[Segment] = []
        for component in self.components:
            result.extend(component.segments())
        return result

    def isolated_points(self) -> list[Coordinate]:
        """All 0-dimensional coordinates for noding."""
        result: list[Coordinate] = []
        for component in self.components:
            result.extend(component.isolated_points())
        return result

    def has_area(self) -> bool:
        """True if any component is 2-dimensional."""
        return any(component.dimension == 2 for component in self.components)

    def prepared(self) -> "PreparedTopology":
        """The geometry's edge labels, built on first use."""
        view = self._prepared
        if view is None:
            # Built completely before the one assignment that publishes it:
            # a thread sharing this descriptor sees no view or a whole one.
            view = PreparedTopology(self)
            self._prepared = view
        return view


class PreparedTopology:
    """One geometry's own noded arrangement, labelled once for every pair
    it takes part in (the per-input edge labels of JTS/GEOS relate).

    * ``segments`` / ``points`` — the descriptor's segments and isolated
      points, as :meth:`TopologyDescriptor.segments` and
      :meth:`~TopologyDescriptor.isolated_points` return them;
    * ``splits[i]`` — segment ``i``'s self-cut points (where the
      geometry's other segments and points meet it) from its start to its
      end, endpoints included;
    * ``labels[i][k]`` — the ``(left, on, right)`` classes of the
      self-noded edge ``splits[i][k]``–``splits[i][k + 1]``, oriented along
      segment ``i``;
    * ``node_classes`` — the class of every node of the arrangement (each
      split point and isolated point), located once;
    * ``edge_table`` — the float edge table over ``segments`` that the
      pair prescreen reads (``None`` without segments).

    The locator is constant on the open edges and faces of the geometry's
    own arrangement, so the labels hold along the whole edge: ``on`` is
    located at the edge's midpoint and ``left``/``right`` at the existing
    side-offset witnesses of that arrangement, which lie strictly inside
    its faces (the locators' face-interior certificate).  A node has no
    such certificate: it is located itself, and its class need not be any
    adjacent edge's ``on`` (a line's mod-2 boundary endpoint, a
    collection's line ending on its polygon's edge).
    """

    def __init__(self, descriptor: TopologyDescriptor):
        count_prepared_descriptor()
        self.segments = descriptor.segments()
        self.points = descriptor.isolated_points()
        self.splits = split_points(self.segments, self.points)
        nodes = set(self.points)
        unique: dict[Segment, None] = {}
        for ordered in self.splits:
            nodes.update(ordered)
            for start, end in zip(ordered, ordered[1:]):
                if (end, start) not in unique:
                    unique[(start, end)] = None
        edges = list(unique)
        context = OffsetContext(edges, nodes) if fast_clearance_enabled() else None
        if context is not None:
            context.prescreen(edges)
        witnesses: list[Coordinate] = []
        for edge in edges:
            witnesses.extend(side_offsets(edge, edges, nodes, context=context))
        witnesses.extend(midpoint(start, end) for start, end in edges)
        node_list = list(nodes)
        witnesses.extend(node_list)
        count = len(edges)
        classes = descriptor.locate_many(
            witnesses, [True] * (2 * count) + [False] * (count + len(node_list))
        )
        oriented: dict[Segment, EdgeLabel] = {}
        for index, (start, end) in enumerate(edges):
            left, right = classes[2 * index], classes[2 * index + 1]
            on = classes[2 * count + index]
            oriented[(start, end)] = (left, on, right)
            oriented[(end, start)] = (right, on, left)
        self.labels = [
            [oriented[edge] for edge in zip(ordered, ordered[1:])]
            for ordered in self.splits
        ]
        self.node_classes = dict(zip(node_list, classes[3 * count :]))
        self.edge_table = EdgeTable(self.segments) if self.segments else None

    def pieces(
        self, cuts: Sequence[set[Coordinate]]
    ) -> tuple[dict[Segment, EdgeLabel], dict[Coordinate, str]]:
        """The self-noded edges cut further at ``cuts[i]`` along segment
        ``i``: every piece, oriented along its segment, with the labels of
        the edge that contains it.  A piece two segments share is kept
        once, in the orientation met first.

        Also returns the class of each cut point that falls inside an edge
        (not on a node): that edge's ``on`` label."""
        result: dict[Segment, EdgeLabel] = {}
        inside: dict[Coordinate, str] = {}
        for (a, b), ordered, labels, extra in zip(
            self.segments, self.splits, self.labels, cuts
        ):
            for start, end, k in refine_split(a, b, ordered, extra):
                if (end, start) not in result:
                    result.setdefault((start, end), labels[k])
                if extra and end != ordered[k + 1]:
                    inside[end] = labels[k][1]
        return result, inside


def combine_classes(classes: Sequence[str], strategy: str) -> str:
    """Combine per-component classes of one point into a single class.

    ``"union"`` gives interior priority, ``"boundary_priority"`` gives
    boundary priority, and ``"last_one_wins"`` keeps the class of the last
    component that contains the point (the GEOS bug discussed around the
    paper's Listing 6).
    """
    containing = [cls for cls in classes if cls != EXTERIOR]
    if not containing:
        return EXTERIOR
    if strategy == UNION_STRATEGY:
        return INTERIOR if INTERIOR in containing else BOUNDARY
    if strategy == BOUNDARY_PRIORITY_STRATEGY:
        return BOUNDARY if BOUNDARY in containing else INTERIOR
    if strategy == LAST_ONE_WINS_STRATEGY:
        return containing[-1]
    raise ValueError(f"unknown collection strategy {strategy!r}")
