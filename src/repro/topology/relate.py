"""DE-9IM intersection-matrix computation (the paper's Definition 2.3).

The matrix is computed by *arrangement sampling*: each cell of the planar
arrangement of both geometries — every node (dimension 0), every noded
sub-segment (dimension 1) and the faces beside each sub-segment
(dimension 2) — contributes its dimension to the matrix entry addressed by
its (class in A, class in B) pair; entries keep the maximum contribution,
exactly the dimension semantics of the DE-9IM dimension calculator D.

1. Decompose both geometries into labelled components
   (:class:`~repro.topology.labels.TopologyDescriptor`).
2. Prepare each operand once (:meth:`TopologyDescriptor.prepared`): node
   its own segments, and label every self-noded edge with its oriented
   (left, on, right) classes, located at the edge's midpoint and at
   side-offset witnesses of that arrangement.  A descriptor memoised in
   ``_DESCRIPTOR_CACHE`` carries its prepared view to every pair the
   geometry takes part in.
3. Cut A's original segments at B's segments and isolated points, and B's
   at A's (:func:`~repro.topology.noding.cross_cut_points`).  Together
   with the self-cut points these are the nodes and sub-segments of the
   full noding of both geometries.
4. Read the classes of every cell.  A geometry's locator is constant on
   the open cells of its own noded arrangement, so for a sub-segment s and
   an operand X:

   (a) if s does not lie on X, X's class on both sides of s equals X's
       class at s's midpoint — the open s lies in one open face of X's
       arrangement;
   (b) if s lies on X, X's classes on its two sides equal the side labels
       of the X edge that contains s, with the directions aligned;
   (c) a node n of the pair that lies on X takes its class there from
       X's own arrangement: a node of that arrangement (a split point or
       an isolated point) the class the prepared view located for it, a
       cut point inside an X edge that edge's ``on`` label.  The cross cut
       puts every point where the other operand meets X's segments into
       X's cut set, so a node found in neither table is off X and is
       located;
   (d) if s lies on the other operand only, its open interior meets none
       of X's segments or points, so an endpoint of s that is off X lies
       in the same open face of X's arrangement and gives X's class for
       s, as its midpoint would in (a).

   Only the nodes off X, and the midpoints of one-operand sub-segments
   with both endpoints on X, are located in X; every dimension-1 and
   dimension-2 entry comes from edge labels, and no side-offset point is
   built per pair.

The scalar reference path (``set_vectorized_kernels(False)``) keeps the
per-pair witness construction: node the union of both geometries' segments
(:func:`~repro.topology.noding.node_segments`), build two side-offset
witnesses next to every sub-segment midpoint, and locate every node,
midpoint and witness in both operands.  Both constructions visit the same
nodes and sub-segments, so their matrices are equal by construction; the
reference-equivalence harness and ``tests/property/test_vectorized_kernels.py``
compare them.

Because both geometries are bounded and the plane is not, the
exterior/exterior entry is always 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.geometry.columnar import count_class_sources, vectorized_kernels_enabled
from repro.geometry.model import Coordinate, Geometry
from repro.topology.labels import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    UNION_STRATEGY,
    EdgeLabel,
    PreparedTopology,
    Segment,
    TopologyDescriptor,
)
from repro.topology.noding import (
    OffsetContext,
    cross_cut_points,
    fast_clearance_enabled,
    midpoint,
    node_segments,
    side_offsets,
)

_CLASS_INDEX = {INTERIOR: 0, BOUNDARY: 1, EXTERIOR: 2}
_DIM_SYMBOLS = {-1: "F", 0: "0", 1: "1", 2: "2"}


@dataclass(frozen=True)
class RelateOptions:
    """Semantic switches for the relate engine.

    ``collection_strategy`` selects how GEOMETRYCOLLECTION interiors and
    boundaries are combined (see :mod:`repro.topology.labels`); the default
    matches the semantics the paper treats as correct.
    """

    collection_strategy: str = UNION_STRATEGY


DEFAULT_OPTIONS = RelateOptions()


class IntersectionMatrix:
    """A DE-9IM matrix with dimension values in {F, 0, 1, 2}."""

    def __init__(self, dimensions: Iterable[Iterable[int]] | None = None):
        if dimensions is None:
            self._dims = [[-1, -1, -1], [-1, -1, -1], [-1, -1, -1]]
        else:
            self._dims = [list(row) for row in dimensions]

    @classmethod
    def from_string(cls, text: str) -> "IntersectionMatrix":
        """Build a matrix from a nine-character DE-9IM string like 'FF2101102'."""
        if len(text) != 9:
            raise ValueError(f"a DE-9IM string must have nine characters, got {text!r}")
        values = []
        for char in text.upper():
            if char == "F":
                values.append(-1)
            elif char in "012":
                values.append(int(char))
            else:
                raise ValueError(f"invalid DE-9IM character {char!r}")
        return cls([values[0:3], values[3:6], values[6:9]])

    def get(self, row_class: str, column_class: str) -> int:
        """Dimension for (class of A, class of B); -1 encodes F."""
        return self._dims[_CLASS_INDEX[row_class]][_CLASS_INDEX[column_class]]

    def set(self, row_class: str, column_class: str, dimension: int) -> None:
        """Set an entry, keeping the maximum of old and new dimension."""
        row = _CLASS_INDEX[row_class]
        column = _CLASS_INDEX[column_class]
        if dimension > self._dims[row][column]:
            self._dims[row][column] = dimension

    def transposed(self) -> "IntersectionMatrix":
        """Matrix with the roles of the two geometries swapped."""
        return IntersectionMatrix(
            [[self._dims[c][r] for c in range(3)] for r in range(3)]
        )

    def __str__(self) -> str:
        return "".join(
            _DIM_SYMBOLS[self._dims[row][column]]
            for row in range(3)
            for column in range(3)
        )

    def __repr__(self) -> str:
        return f"IntersectionMatrix('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntersectionMatrix):
            return self._dims == other._dims
        if isinstance(other, str):
            return str(self) == other.upper()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(str(self))

    def matches(self, pattern: str) -> bool:
        """Match against a DE-9IM pattern with T / F / * / 0 / 1 / 2 symbols."""
        if len(pattern) != 9:
            raise ValueError(f"a DE-9IM pattern must have nine characters, got {pattern!r}")
        flat = [self._dims[row][column] for row in range(3) for column in range(3)]
        for value, symbol in zip(flat, pattern.upper()):
            if symbol == "*":
                continue
            if symbol == "T":
                if value < 0:
                    return False
            elif symbol == "F":
                if value >= 0:
                    return False
            else:
                if value != int(symbol):
                    return False
        return True


#: identity-keyed memo of relate results: spatial joins evaluate the same
#: geometry pair under many predicates, the nine derived named predicates
#: (within/contains/covers/...) all call ``relate`` on the *same object
#: pair*, and the interned parser (:mod:`repro.geometry.cache`) makes
#: repeated evaluations of one literal hand back the same objects.  The
#: values pin the geometry objects so their ids cannot be recycled while the
#: entry lives.
_RELATE_ID_CACHE: dict[
    tuple[int, int, str], tuple[Geometry, Geometry, IntersectionMatrix]
] = {}
_RELATE_ID_CACHE_LIMIT = 16384

_RELATE_STATS = {"hits": 0, "misses": 0}

#: identity-keyed descriptor memo used by the vectorized kernels: a geometry
#: participating in many relate pairs reuses one decomposition, and with it
#: the prepared edge labels and float edge tables the descriptor builds
#: lazily.  Values pin the geometry so ids cannot be recycled while the
#: entry lives.
_DESCRIPTOR_CACHE: dict[tuple[int, str], tuple[Geometry, TopologyDescriptor]] = {}
_DESCRIPTOR_CACHE_LIMIT = 8192


def clear_relate_cache() -> None:
    """Drop all memoised relate results (used by benchmarks and tests)."""
    _RELATE_ID_CACHE.clear()
    _DESCRIPTOR_CACHE.clear()
    _RELATE_STATS["hits"] = 0
    _RELATE_STATS["misses"] = 0


def relate_cache_stats() -> dict[str, int]:
    """Hit/miss counters plus the identity memo's current size."""
    return {
        "hits": _RELATE_STATS["hits"],
        "misses": _RELATE_STATS["misses"],
        "entries": len(_RELATE_ID_CACHE),
    }


def relate(
    a: Geometry, b: Geometry, options: RelateOptions = DEFAULT_OPTIONS
) -> IntersectionMatrix:
    """Compute the DE-9IM matrix R(a, b)."""
    strategy = options.collection_strategy
    identity_key = (id(a), id(b), strategy)
    identity_hit = _RELATE_ID_CACHE.get(identity_key)
    if identity_hit is not None and identity_hit[0] is a and identity_hit[1] is b:
        _RELATE_STATS["hits"] += 1
        return identity_hit[2]
    _RELATE_STATS["misses"] += 1
    descriptor_a = _descriptor_for(a, strategy)
    descriptor_b = _descriptor_for(b, strategy)
    matrix = relate_descriptors(descriptor_a, descriptor_b)
    if len(_RELATE_ID_CACHE) >= _RELATE_ID_CACHE_LIMIT:
        _RELATE_ID_CACHE.clear()
    _RELATE_ID_CACHE[identity_key] = (a, b, matrix)
    return matrix


def _descriptor_for(geometry: Geometry, strategy: str) -> TopologyDescriptor:
    """A (possibly memoised) descriptor for one relate operand.

    Memoisation only runs with the vectorized kernels on: the payoff is
    reusing the prepared edge labels and float edge tables a descriptor
    builds lazily, and keeping the reference configuration
    allocation-for-allocation identical to the historical behaviour.
    """
    if not vectorized_kernels_enabled():
        return TopologyDescriptor(geometry, strategy)
    key = (id(geometry), strategy)
    hit = _DESCRIPTOR_CACHE.get(key)
    if hit is not None and hit[0] is geometry:
        return hit[1]
    descriptor = TopologyDescriptor(geometry, strategy)
    if len(_DESCRIPTOR_CACHE) >= _DESCRIPTOR_CACHE_LIMIT:
        _DESCRIPTOR_CACHE.clear()
    _DESCRIPTOR_CACHE[key] = (geometry, descriptor)
    return descriptor


def relate_descriptors(
    descriptor_a: TopologyDescriptor, descriptor_b: TopologyDescriptor
) -> IntersectionMatrix:
    """Compute the DE-9IM matrix from two descriptors."""
    fast = _envelope_disjoint_matrix(descriptor_a, descriptor_b)
    if fast is not None:
        return fast
    if vectorized_kernels_enabled():
        return _relate_prepared(descriptor_a, descriptor_b)
    return _relate_by_witnesses(descriptor_a, descriptor_b)


def _relate_prepared(
    descriptor_a: TopologyDescriptor, descriptor_b: TopologyDescriptor
) -> IntersectionMatrix:
    """The matrix from both operands' edge labels (batch kernels)."""
    view_a = descriptor_a.prepared()
    view_b = descriptor_b.prepared()
    # Each operand's segments already hold their own cut points; cutting
    # them at the other operand's segments and points completes the
    # noding of the pair arrangement.
    cuts_a, cuts_b = cross_cut_points(view_a, view_b)
    pieces_a, inside_a = view_a.pieces(cuts_a)
    pieces_b, inside_b = view_b.pieces(cuts_b)

    nodes: set[Coordinate] = set(view_a.points)
    nodes.update(view_b.points)
    for start, end in pieces_a:
        nodes.add(start)
        nodes.add(end)
    for start, end in pieces_b:
        nodes.add(start)
        nodes.add(end)

    matrix = IntersectionMatrix()
    matrix.set(EXTERIOR, EXTERIOR, 2)
    # A piece on both operands reads both label triples, A's reversed when
    # its piece runs against B's; what stays in pieces_a lies on A only.
    only_b: dict[Segment, EdgeLabel] = {}
    for piece, label_b in pieces_b.items():
        label_a = pieces_a.pop(piece, None)
        if label_a is None:
            label_a = pieces_a.pop((piece[1], piece[0]), None)
            if label_a is None:
                only_b[piece] = label_b
                continue
            label_a = label_a[::-1]
        left_a, on_a, right_a = label_a
        left_b, on_b, right_b = label_b
        matrix.set(on_a, on_b, 1)
        matrix.set(left_a, left_b, 2)
        matrix.set(right_a, right_b, 2)

    # A one-operand piece's class in the other operand holds on both of
    # its sides.
    node_list = list(nodes)
    nodes_in_a, only_b_in_a = _classes_in(descriptor_a, view_a, inside_a, node_list, only_b)
    nodes_in_b, only_a_in_b = _classes_in(descriptor_b, view_b, inside_b, node_list, pieces_a)
    for class_a, class_b in zip(nodes_in_a, nodes_in_b):
        matrix.set(class_a, class_b, 0)
    for (left, on, right), class_b in zip(pieces_a.values(), only_a_in_b):
        matrix.set(on, class_b, 1)
        matrix.set(left, class_b, 2)
        matrix.set(right, class_b, 2)
    for (left, on, right), class_a in zip(only_b.values(), only_b_in_a):
        matrix.set(class_a, on, 1)
        matrix.set(class_a, left, 2)
        matrix.set(class_a, right, 2)
    return matrix


def _classes_in(
    descriptor: TopologyDescriptor,
    view: PreparedTopology,
    inside: dict[Coordinate, str],
    nodes: list[Coordinate],
    pieces: Iterable[Segment],
) -> tuple[list[str], list[str]]:
    """Operand X's classes of the pair's ``nodes`` and of the other
    operand's one-operand ``pieces``, by (c) and (d) of the module
    docstring; ``inside`` maps the cut points inside X's edges to their
    edges' ``on`` labels.  One batch locates what is left."""
    own = view.node_classes
    classes: dict[Coordinate, str] = {}
    off: list[Coordinate] = []
    from_view = 0
    for node in nodes:
        found = own.get(node)
        if found is not None:
            from_view += 1
        else:
            found = inside.get(node)
            if found is None:
                off.append(node)
                continue
        classes[node] = found
    # Until the batch below, ``classes`` holds exactly the nodes on X.
    free: list[Coordinate | None] = []
    midpoints: list[Coordinate] = []
    for start, end in pieces:
        if start not in classes:
            free.append(start)
        elif end not in classes:
            free.append(end)
        else:
            free.append(None)
            midpoints.append(midpoint(start, end))
    located = descriptor.locate_many(off + midpoints)
    classes.update(zip(off, located))
    located_midpoints = iter(located[len(off) :])
    count_class_sources(
        from_view,
        len(nodes) - len(off) - from_view,
        len(off),
        len(free) - len(midpoints),
        len(midpoints),
    )
    return (
        [classes[node] for node in nodes],
        [next(located_midpoints) if point is None else classes[point] for point in free],
    )


def _relate_by_witnesses(
    descriptor_a: TopologyDescriptor, descriptor_b: TopologyDescriptor
) -> IntersectionMatrix:
    """The matrix from witnesses of the pair's arrangement (scalar
    kernels): the reference construction the prepared one must match."""
    matrix = IntersectionMatrix()
    matrix.set(EXTERIOR, EXTERIOR, 2)

    segments_a = descriptor_a.segments()
    segments_b = descriptor_b.segments()
    all_points = descriptor_a.isolated_points() + descriptor_b.isolated_points()

    # Node the union of both geometries' segments so classifications are
    # constant along the open interior of every resulting sub-segment.
    noded_union = node_segments(segments_a + segments_b, all_points)

    nodes: set[Coordinate] = set(all_points)
    for start, end in noded_union:
        nodes.add(start)
        nodes.add(end)

    # Collect every witness point with its cell dimension, then classify
    # them in one batch per descriptor.  Matrix entries keep the maximum
    # contribution, so the accumulation order is immaterial.
    witness_points: list[Coordinate] = list(nodes)
    witness_dimensions: list[int] = [0] * len(witness_points)

    # One integer-grid clearance context shared by every side-offset query of
    # this arrangement (identical rationals, computed without per-operation
    # Fraction normalisation); skipped entirely when the kernel is off.
    offset_context = OffsetContext(noded_union, nodes) if fast_clearance_enabled() else None
    seen_midpoints: set[Coordinate] = set()
    for segment in noded_union:
        mid = midpoint(segment[0], segment[1])
        if mid in seen_midpoints:
            continue
        seen_midpoints.add(mid)
        witness_points.append(mid)
        witness_dimensions.append(1)
        left, right = side_offsets(segment, noded_union, nodes, context=offset_context)
        witness_points.append(left)
        witness_points.append(right)
        witness_dimensions.append(2)
        witness_dimensions.append(2)

    classes_a = descriptor_a.locate_many(witness_points)
    classes_b = descriptor_b.locate_many(witness_points)
    for class_a, class_b, cell_dimension in zip(classes_a, classes_b, witness_dimensions):
        matrix.set(class_a, class_b, cell_dimension)

    return matrix


def _boundary_dimension(descriptor: TopologyDescriptor) -> int:
    """Dimension of a geometry's boundary set (-1 when the boundary is empty)."""
    from repro.topology.labels import AreasComponent, LinesComponent

    dimension = -1
    for component in descriptor.components:
        if isinstance(component, AreasComponent):
            dimension = max(dimension, 1)
        elif isinstance(component, LinesComponent) and component.boundary_points:
            dimension = max(dimension, 0)
    return dimension


def _envelope_disjoint_matrix(
    descriptor_a: TopologyDescriptor, descriptor_b: TopologyDescriptor
) -> IntersectionMatrix | None:
    """Fast path: when the envelopes do not intersect the geometries are
    disjoint and the matrix only depends on each side's own dimensions."""
    if descriptor_a.is_empty or descriptor_b.is_empty:
        return None
    envelope_a = descriptor_a.geometry.envelope()
    envelope_b = descriptor_b.geometry.envelope()
    if envelope_a is None or envelope_b is None or envelope_a.intersects(envelope_b):
        return None
    matrix = IntersectionMatrix()
    matrix.set(EXTERIOR, EXTERIOR, 2)
    matrix.set(INTERIOR, EXTERIOR, descriptor_a.dimension)
    matrix.set(BOUNDARY, EXTERIOR, _boundary_dimension(descriptor_a))
    matrix.set(EXTERIOR, INTERIOR, descriptor_b.dimension)
    matrix.set(EXTERIOR, BOUNDARY, _boundary_dimension(descriptor_b))
    return matrix
