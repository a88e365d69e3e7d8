"""OGC simple-feature geometry model with exact coordinates.

The model covers the seven 2D geometry types the paper targets (Figure 2):
POINT, LINESTRING, POLYGON, MULTIPOINT, MULTILINESTRING, MULTIPOLYGON and
GEOMETRYCOLLECTION, including EMPTY variants of each.

Every ordinate is exact: an ``int`` when the value is integral, otherwise a
:class:`fractions.Fraction` (see :func:`_to_ordinate`).  Every topological
decision made downstream (DE-9IM relate, predicates) is therefore exact, and
every division over ordinates goes through ``Fraction`` so ``int / int``
never rounds through a float.  Integral ordinates are the common case — the
generator emits integers and the paper's affine maps are integer matrices —
and ``int`` arithmetic skips the gcd normalisation ``Fraction`` pays per
operation.  Floats are accepted on input and converted exactly; WKT output
renders integral values without a decimal point, matching the style of the
paper's listings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from repro.errors import GeometryTypeError

Numeric = Union[int, float, Fraction, str]
#: an exact ordinate: ``int`` when integral, ``Fraction`` otherwise.
Ordinate = Union[int, Fraction]


def _to_ordinate(value: Numeric) -> Ordinate:
    """Convert a numeric value to an exact ordinate.

    Integral values (an ``int``, a ``Fraction`` with denominator 1, an
    integral float or numeric string) become ``int``; every other value
    becomes the exact ``Fraction``.
    """
    kind = type(value)
    if kind is int:
        return value
    if kind is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise GeometryTypeError("boolean is not a valid coordinate value")
    if isinstance(value, (int, float, str, Fraction)):
        exact = Fraction(value)
        return exact.numerator if exact.denominator == 1 else exact
    raise GeometryTypeError(f"cannot interpret {value!r} as a coordinate value")


class Coordinate:
    """An exact 2D coordinate whose ordinates are ``int`` or ``Fraction``.

    Coordinates are immutable and hashable, so they can be used as keys in
    the topology engine's node maps.  The hash is memoized: hashing a
    ``Fraction`` costs a modular inverse, and node maps hash the same
    coordinate many times.
    """

    __slots__ = ("x", "y", "_hash")

    def __init__(self, x: Numeric, y: Numeric):
        object.__setattr__(self, "x", _to_ordinate(x))
        object.__setattr__(self, "y", _to_ordinate(y))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Coordinate is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coordinate):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.x, self.y))
            object.__setattr__(self, "_hash", value)
            return value

    def __lt__(self, other: "Coordinate") -> bool:
        return (self.x, self.y) < (other.x, other.y)

    def __le__(self, other: "Coordinate") -> bool:
        return (self.x, self.y) <= (other.x, other.y)

    def __repr__(self) -> str:
        return f"Coordinate({format_number(self.x)}, {format_number(self.y)})"

    def as_floats(self) -> tuple[float, float]:
        """Return the coordinate as a (float, float) pair."""
        return float(self.x), float(self.y)

    def translated(self, dx: Numeric, dy: Numeric) -> "Coordinate":
        """Return a new coordinate shifted by (dx, dy)."""
        return Coordinate(self.x + _to_ordinate(dx), self.y + _to_ordinate(dy))


def format_number(value: Ordinate) -> str:
    """Render an ordinate the way SDBMSs render coordinates in WKT."""
    if value.denominator == 1:
        return str(value.numerator)
    as_float = float(value)
    text = repr(as_float)
    if text.endswith(".0"):
        text = text[:-2]
    return text


CoordinateInput = Union[Coordinate, Sequence[Numeric]]


def as_coordinate(value: CoordinateInput) -> Coordinate:
    """Coerce a coordinate-like value (Coordinate or 2-sequence) to Coordinate."""
    if isinstance(value, Coordinate):
        return value
    seq = list(value)
    if len(seq) != 2:
        raise GeometryTypeError(f"expected an (x, y) pair, got {value!r}")
    return Coordinate(seq[0], seq[1])


#: sentinel distinguishing "envelope not computed yet" from "empty geometry".
_ENVELOPE_UNSET = object()


class Geometry:
    """Base class for every geometry.

    Subclasses implement the OGC accessors used throughout the library:
    ``geom_type``, ``dimension``, ``is_empty``, ``coordinates`` and
    ``wkt``.

    Geometries are immutable after construction; the ``wkt`` and
    ``envelope`` accessors rely on that to memoize their results.
    """

    #: OGC type name, e.g. ``"POINT"``; set on every subclass.
    geom_type: str = "GEOMETRY"

    @property
    def is_empty(self) -> bool:
        """True if the geometry contains no coordinates at all."""
        raise NotImplementedError

    @property
    def dimension(self) -> int:
        """Topological dimension: 0 for points, 1 for lines, 2 for areas.

        Empty geometries report the dimension of their declared type, the
        convention PostGIS follows (``ST_Dimension('POINT EMPTY') = 0``).
        """
        raise NotImplementedError

    def coordinates(self) -> Iterator[Coordinate]:
        """Yield every coordinate of the geometry in definition order."""
        raise NotImplementedError

    def transform(self, func) -> "Geometry":
        """Return a copy with ``func`` applied to every coordinate.

        ``func`` receives a :class:`Coordinate` and must return one.  The
        structure of the geometry (types, nesting, ring order) is preserved.
        """
        raise NotImplementedError

    @property
    def wkt(self) -> str:
        """Well-Known Text representation of the geometry.

        Memoized per instance: geometries are immutable after construction,
        and ``wkt`` is the identity every cache in the engine keys on
        (relate memo, prepared-geometry cache, ``__eq__``/``__hash__``), so
        serialising once per object instead of once per comparison is one of
        the fast-path layer's main savings.
        """
        memo = getattr(self, "_wkt_memo", None)
        if memo is None:
            from repro.geometry.wkt import dump_wkt

            memo = dump_wkt(self)
            self._wkt_memo = memo
        return memo

    def num_coordinates(self) -> int:
        """Total number of coordinates in the geometry."""
        return sum(1 for _ in self.coordinates())

    def envelope(self) -> "Envelope | None":
        """Axis-aligned bounding box, or None for an empty geometry.

        Memoized per instance (geometries are immutable); the envelope is
        probed on every index filter and relate fast-reject.
        """
        memo = getattr(self, "_envelope_memo", _ENVELOPE_UNSET)
        if memo is _ENVELOPE_UNSET:
            coords = list(self.coordinates())
            if not coords:
                memo = None
            else:
                xs = [c.x for c in coords]
                ys = [c.y for c in coords]
                memo = Envelope(min(xs), min(ys), max(xs), max(ys))
            self._envelope_memo = memo
        return memo

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Geometry):
            return NotImplemented
        return self.wkt == other.wkt

    def __hash__(self) -> int:
        return hash(self.wkt)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.wkt}>"


class Envelope:
    """Axis-aligned bounding box used by the R-tree index and fast rejects."""

    #: ``_float_box`` memoizes the outward-rounded float box the columnar
    #: kernels derive from the exact bounds (see
    #: :func:`repro.geometry.columnar.envelope_float_box`); envelopes are
    #: immutable, and the reuse layer shares interned geometry instances —
    #: and therefore their envelope memos — across campaign rounds.
    __slots__ = ("min_x", "min_y", "max_x", "max_y", "_float_box")

    def __init__(self, min_x: Ordinate, min_y: Ordinate, max_x: Ordinate, max_y: Ordinate):
        self.min_x = min_x
        self.min_y = min_y
        self.max_x = max_x
        self.max_y = max_y
        self._float_box = None

    def intersects(self, other: "Envelope") -> bool:
        """True if the two boxes share at least one point."""
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )

    def contains(self, other: "Envelope") -> bool:
        """True if ``other`` lies entirely inside this box (borders allowed)."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def expanded(self, other: "Envelope") -> "Envelope":
        """Smallest envelope covering both boxes."""
        return Envelope(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def area(self) -> Ordinate:
        """Area of the box (zero for degenerate boxes)."""
        return (self.max_x - self.min_x) * (self.max_y - self.min_y)

    def margin(self) -> Ordinate:
        """Half-perimeter, used by R-tree split heuristics."""
        return (self.max_x - self.min_x) + (self.max_y - self.min_y)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Envelope):
            return NotImplemented
        return (
            self.min_x == other.min_x
            and self.min_y == other.min_y
            and self.max_x == other.max_x
            and self.max_y == other.max_y
        )

    def __repr__(self) -> str:
        return (
            f"Envelope({format_number(self.min_x)}, {format_number(self.min_y)}, "
            f"{format_number(self.max_x)}, {format_number(self.max_y)})"
        )


class Point(Geometry):
    """A 0-dimensional geometry: a single coordinate or EMPTY."""

    geom_type = "POINT"

    def __init__(self, coordinate: CoordinateInput | None = None):
        self.coordinate = as_coordinate(coordinate) if coordinate is not None else None

    @classmethod
    def empty(cls) -> "Point":
        """Construct POINT EMPTY."""
        return cls(None)

    @property
    def is_empty(self) -> bool:
        return self.coordinate is None

    @property
    def dimension(self) -> int:
        return 0

    def coordinates(self) -> Iterator[Coordinate]:
        if self.coordinate is not None:
            yield self.coordinate

    def transform(self, func) -> "Point":
        if self.coordinate is None:
            return Point.empty()
        return Point(func(self.coordinate))

    @property
    def x(self) -> Ordinate:
        """X ordinate; raises on EMPTY."""
        if self.coordinate is None:
            raise GeometryTypeError("POINT EMPTY has no x ordinate")
        return self.coordinate.x

    @property
    def y(self) -> Ordinate:
        """Y ordinate; raises on EMPTY."""
        if self.coordinate is None:
            raise GeometryTypeError("POINT EMPTY has no y ordinate")
        return self.coordinate.y


class LineString(Geometry):
    """A 1-dimensional geometry: an ordered sequence of coordinates."""

    geom_type = "LINESTRING"

    def __init__(self, coordinates: Iterable[CoordinateInput] = ()):
        self.points: list[Coordinate] = [as_coordinate(c) for c in coordinates]
        if len(self.points) == 1:
            raise GeometryTypeError("a LINESTRING needs zero or at least two points")

    @classmethod
    def empty(cls) -> "LineString":
        """Construct LINESTRING EMPTY."""
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.points

    @property
    def dimension(self) -> int:
        return 1

    def coordinates(self) -> Iterator[Coordinate]:
        yield from self.points

    def transform(self, func) -> "LineString":
        return LineString([func(p) for p in self.points])

    @property
    def is_closed(self) -> bool:
        """True if the first and last coordinates coincide (and non-empty)."""
        return bool(self.points) and self.points[0] == self.points[-1]

    def segments(self) -> Iterator[tuple[Coordinate, Coordinate]]:
        """Yield consecutive coordinate pairs (possibly degenerate)."""
        for a, b in zip(self.points, self.points[1:]):
            yield a, b

    def reversed(self) -> "LineString":
        """Return the linestring with coordinate order reversed."""
        return LineString(list(reversed(self.points)))


class Polygon(Geometry):
    """A 2-dimensional geometry: an exterior ring plus optional holes.

    Rings are stored as closed coordinate lists (first == last).  Rings given
    unclosed are closed automatically, matching the leniency of SDBMS WKT
    readers.
    """

    geom_type = "POLYGON"

    def __init__(
        self,
        exterior: Iterable[CoordinateInput] = (),
        holes: Iterable[Iterable[CoordinateInput]] = (),
    ):
        self.exterior: list[Coordinate] = self._close_ring([as_coordinate(c) for c in exterior])
        self.holes: list[list[Coordinate]] = [
            self._close_ring([as_coordinate(c) for c in hole]) for hole in holes
        ]

    @staticmethod
    def _close_ring(ring: list[Coordinate]) -> list[Coordinate]:
        if not ring:
            return ring
        if len(ring) < 3:
            raise GeometryTypeError("a polygon ring needs at least three distinct points")
        if ring[0] != ring[-1]:
            ring = ring + [ring[0]]
        if len(ring) < 4:
            raise GeometryTypeError("a closed polygon ring needs at least four coordinates")
        return ring

    @classmethod
    def empty(cls) -> "Polygon":
        """Construct POLYGON EMPTY."""
        return cls((), ())

    @property
    def is_empty(self) -> bool:
        return not self.exterior

    @property
    def dimension(self) -> int:
        return 2

    def rings(self) -> Iterator[list[Coordinate]]:
        """Yield the exterior ring then each hole."""
        if self.exterior:
            yield self.exterior
        yield from self.holes

    def coordinates(self) -> Iterator[Coordinate]:
        for ring in self.rings():
            yield from ring

    def transform(self, func) -> "Polygon":
        if self.is_empty:
            return Polygon.empty()
        return Polygon(
            [func(p) for p in self.exterior],
            [[func(p) for p in hole] for hole in self.holes],
        )


class _MultiGeometry(Geometry):
    """Shared behaviour for MULTI* and GEOMETRYCOLLECTION."""

    #: class of allowed elements; ``Geometry`` means any type is allowed.
    element_type: type = Geometry

    def __init__(self, geometries: Iterable[Geometry] = ()):
        self.geoms: list[Geometry] = list(geometries)
        for geom in self.geoms:
            if not isinstance(geom, self.element_type):
                raise GeometryTypeError(
                    f"{self.geom_type} cannot contain a {geom.geom_type}"
                )

    @classmethod
    def empty(cls):
        """Construct an EMPTY collection of this type."""
        return cls(())

    @property
    def is_empty(self) -> bool:
        return all(g.is_empty for g in self.geoms)

    def coordinates(self) -> Iterator[Coordinate]:
        for geom in self.geoms:
            yield from geom.coordinates()

    def transform(self, func) -> "Geometry":
        return type(self)([g.transform(func) for g in self.geoms])

    def __len__(self) -> int:
        return len(self.geoms)

    def __iter__(self) -> Iterator[Geometry]:
        return iter(self.geoms)

    @property
    def dimension(self) -> int:
        dims = [g.dimension for g in self.geoms if not g.is_empty]
        if dims:
            return max(dims)
        dims = [g.dimension for g in self.geoms]
        return max(dims) if dims else 0


class MultiPoint(_MultiGeometry):
    """A collection of POINT elements."""

    geom_type = "MULTIPOINT"
    element_type = Point

    @property
    def dimension(self) -> int:
        return 0


class MultiLineString(_MultiGeometry):
    """A collection of LINESTRING elements."""

    geom_type = "MULTILINESTRING"
    element_type = LineString

    @property
    def dimension(self) -> int:
        return 1


class MultiPolygon(_MultiGeometry):
    """A collection of POLYGON elements."""

    geom_type = "MULTIPOLYGON"
    element_type = Polygon

    @property
    def dimension(self) -> int:
        return 2


class GeometryCollection(_MultiGeometry):
    """A heterogeneous collection of geometries (the paper's MIXED type)."""

    geom_type = "GEOMETRYCOLLECTION"
    element_type = Geometry


MULTI_TYPES = {
    "MULTIPOINT": (MultiPoint, Point),
    "MULTILINESTRING": (MultiLineString, LineString),
    "MULTIPOLYGON": (MultiPolygon, Polygon),
}

BASIC_TYPES = {"POINT": Point, "LINESTRING": LineString, "POLYGON": Polygon}

ALL_TYPE_NAMES = (
    "POINT",
    "LINESTRING",
    "POLYGON",
    "MULTIPOINT",
    "MULTILINESTRING",
    "MULTIPOLYGON",
    "GEOMETRYCOLLECTION",
)


def flatten(geometry: Geometry) -> Iterator[Geometry]:
    """Yield the basic (non-collection) geometries contained in ``geometry``.

    Nested collections are traversed recursively.  Empty basic geometries are
    still yielded so callers can decide how to treat them.
    """
    if isinstance(geometry, _MultiGeometry):
        for element in geometry.geoms:
            yield from flatten(element)
    else:
        yield geometry


def empty_of_type(type_name: str) -> Geometry:
    """Return the EMPTY geometry of the requested OGC type name."""
    name = type_name.upper()
    if name in BASIC_TYPES:
        return BASIC_TYPES[name].empty()
    if name in MULTI_TYPES:
        return MULTI_TYPES[name][0].empty()
    if name == "GEOMETRYCOLLECTION":
        return GeometryCollection.empty()
    raise GeometryTypeError(f"unknown geometry type {type_name!r}")
