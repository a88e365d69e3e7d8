"""Well-Known Text (WKT) reader and writer.

The reader accepts the WKT subset used throughout the paper: the seven 2D
geometry types, EMPTY variants both at the top level (``POINT EMPTY``) and as
collection elements (``MULTILINESTRING((0 2,1 0), EMPTY)``), and optional
parentheses around MULTIPOINT members (both ``MULTIPOINT(0 0, 1 1)`` and
``MULTIPOINT((0 0),(1 1))``).

The writer emits the canonical uppercase form the paper's listings use, with
integral ordinates rendered without a decimal point.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import GeometryTypeError, WKTParseError
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
    format_number,
)

_TOKEN_RE = re.compile(
    r"""
    \s*(
        [A-Za-z][A-Za-z0-9_]* |          # keywords / type names
        -?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)? |  # numbers
        \( | \) | ,
    )
    """,
    re.VERBOSE,
)

#: group 1 matches integer literals, which parse with ``int()``.
_NUMBER_RE = re.compile(r"(-?\d+)$|-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?$")


class _TokenStream:
    """A small pull-based token stream over a WKT string."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = self._tokenize(text)
        self.position = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                remainder = text[pos:].strip()
                if not remainder:
                    break
                raise WKTParseError(f"unexpected character near {remainder[:20]!r}")
            tokens.append(match.group(1))
            pos = match.end()
        return tokens

    def peek(self) -> str | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise WKTParseError(f"unexpected end of WKT in {self.text!r}")
        self.position += 1
        return token

    def expect(self, expected: str) -> str:
        token = self.next()
        if token.upper() != expected.upper():
            raise WKTParseError(
                f"expected {expected!r} but found {token!r} in {self.text!r}"
            )
        return token

    def at_end(self) -> bool:
        return self.position >= len(self.tokens)


def load_wkt(text: str) -> Geometry:
    """Parse a WKT string into a :class:`Geometry`.

    Raises :class:`~repro.errors.WKTParseError` on malformed input.
    """
    if not isinstance(text, str):
        raise WKTParseError(f"WKT must be a string, got {type(text).__name__}")
    stream = _TokenStream(text)
    try:
        geometry = _parse_geometry(stream)
    except GeometryTypeError as error:
        # Structurally impossible geometries (e.g. a two-point polygon ring)
        # surface as parse errors, the way SDBMS WKT readers report them.
        raise WKTParseError(str(error)) from error
    if not stream.at_end():
        raise WKTParseError(f"trailing content after geometry in {text!r}")
    return geometry


def _parse_geometry(stream: _TokenStream) -> Geometry:
    type_name = stream.next().upper()
    parsers = {
        "POINT": _parse_point,
        "LINESTRING": _parse_linestring,
        "POLYGON": _parse_polygon,
        "MULTIPOINT": _parse_multipoint,
        "MULTILINESTRING": _parse_multilinestring,
        "MULTIPOLYGON": _parse_multipolygon,
        "GEOMETRYCOLLECTION": _parse_collection,
    }
    if type_name not in parsers:
        raise WKTParseError(f"unknown geometry type {type_name!r}")
    return parsers[type_name](stream)


def _is_empty(stream: _TokenStream) -> bool:
    token = stream.peek()
    if token is not None and token.upper() == "EMPTY":
        stream.next()
        return True
    return False


def _parse_number(stream: _TokenStream) -> int | str:
    """The next number token: an ``int`` for an integer literal, else the
    text, which :class:`Coordinate` converts to its exact value."""
    token = stream.next()
    match = _NUMBER_RE.match(token)
    if match is None:
        raise WKTParseError(f"expected a number, found {token!r}")
    return int(token) if match.group(1) is not None else token


def _parse_coordinate(stream: _TokenStream) -> Coordinate:
    x = _parse_number(stream)
    y = _parse_number(stream)
    return Coordinate(x, y)


def _parse_coordinate_list(stream: _TokenStream) -> list[Coordinate]:
    stream.expect("(")
    coords = [_parse_coordinate(stream)]
    while stream.peek() == ",":
        stream.next()
        coords.append(_parse_coordinate(stream))
    stream.expect(")")
    return coords


def _parse_point(stream: _TokenStream) -> Point:
    if _is_empty(stream):
        return Point.empty()
    stream.expect("(")
    coord = _parse_coordinate(stream)
    stream.expect(")")
    return Point(coord)


def _parse_linestring(stream: _TokenStream) -> LineString:
    if _is_empty(stream):
        return LineString.empty()
    return LineString(_parse_coordinate_list(stream))


def _parse_polygon(stream: _TokenStream) -> Polygon:
    if _is_empty(stream):
        return Polygon.empty()
    stream.expect("(")
    rings = [_parse_coordinate_list(stream)]
    while stream.peek() == ",":
        stream.next()
        rings.append(_parse_coordinate_list(stream))
    stream.expect(")")
    return Polygon(rings[0], rings[1:])


def _parse_multi_elements(stream: _TokenStream, parse_element) -> Iterator:
    """Parse a parenthesised, comma-separated element list with EMPTY members."""
    stream.expect("(")
    while True:
        token = stream.peek()
        if token is not None and token.upper() == "EMPTY":
            stream.next()
            yield None
        else:
            yield parse_element(stream)
        if stream.peek() == ",":
            stream.next()
            continue
        break
    stream.expect(")")


def _parse_multipoint(stream: _TokenStream) -> MultiPoint:
    if _is_empty(stream):
        return MultiPoint.empty()

    def parse_element(inner: _TokenStream) -> Point:
        if inner.peek() == "(":
            inner.next()
            coord = _parse_coordinate(inner)
            inner.expect(")")
            return Point(coord)
        return Point(_parse_coordinate(inner))

    elements = [
        Point.empty() if element is None else element
        for element in _parse_multi_elements(stream, parse_element)
    ]
    return MultiPoint(elements)


def _parse_multilinestring(stream: _TokenStream) -> MultiLineString:
    if _is_empty(stream):
        return MultiLineString.empty()
    elements = [
        LineString.empty() if element is None else element
        for element in _parse_multi_elements(
            stream, lambda inner: LineString(_parse_coordinate_list(inner))
        )
    ]
    return MultiLineString(elements)


def _parse_multipolygon(stream: _TokenStream) -> MultiPolygon:
    if _is_empty(stream):
        return MultiPolygon.empty()

    def parse_element(inner: _TokenStream) -> Polygon:
        inner.expect("(")
        rings = [_parse_coordinate_list(inner)]
        while inner.peek() == ",":
            inner.next()
            rings.append(_parse_coordinate_list(inner))
        inner.expect(")")
        return Polygon(rings[0], rings[1:])

    elements = [
        Polygon.empty() if element is None else element
        for element in _parse_multi_elements(stream, parse_element)
    ]
    return MultiPolygon(elements)


def _parse_collection(stream: _TokenStream) -> GeometryCollection:
    if _is_empty(stream):
        return GeometryCollection.empty()
    stream.expect("(")
    elements = [_parse_geometry(stream)]
    while stream.peek() == ",":
        stream.next()
        elements.append(_parse_geometry(stream))
    stream.expect(")")
    return GeometryCollection(elements)


def dump_wkt(geometry: Geometry) -> str:
    """Serialise a geometry to canonical uppercase WKT."""
    if isinstance(geometry, Point):
        if geometry.is_empty:
            return "POINT EMPTY"
        return f"POINT({_coord(geometry.coordinate)})"
    if isinstance(geometry, LineString):
        if geometry.is_empty:
            return "LINESTRING EMPTY"
        return f"LINESTRING({_coords(geometry.points)})"
    if isinstance(geometry, Polygon):
        if geometry.is_empty:
            return "POLYGON EMPTY"
        rings = ",".join(f"({_coords(ring)})" for ring in geometry.rings())
        return f"POLYGON({rings})"
    if isinstance(geometry, MultiPoint):
        if not geometry.geoms:
            return "MULTIPOINT EMPTY"
        parts = [
            "EMPTY" if p.is_empty else f"({_coord(p.coordinate)})" for p in geometry.geoms
        ]
        return f"MULTIPOINT({','.join(parts)})"
    if isinstance(geometry, MultiLineString):
        if not geometry.geoms:
            return "MULTILINESTRING EMPTY"
        parts = [
            "EMPTY" if line.is_empty else f"({_coords(line.points)})"
            for line in geometry.geoms
        ]
        return f"MULTILINESTRING({','.join(parts)})"
    if isinstance(geometry, MultiPolygon):
        if not geometry.geoms:
            return "MULTIPOLYGON EMPTY"
        parts = []
        for polygon in geometry.geoms:
            if polygon.is_empty:
                parts.append("EMPTY")
            else:
                rings = ",".join(f"({_coords(ring)})" for ring in polygon.rings())
                parts.append(f"({rings})")
        return f"MULTIPOLYGON({','.join(parts)})"
    if isinstance(geometry, GeometryCollection):
        if not geometry.geoms:
            return "GEOMETRYCOLLECTION EMPTY"
        parts = [dump_wkt(g) for g in geometry.geoms]
        return f"GEOMETRYCOLLECTION({','.join(parts)})"
    raise WKTParseError(f"cannot serialise object of type {type(geometry).__name__}")


def _coord(coordinate) -> str:
    return f"{format_number(coordinate.x)} {format_number(coordinate.y)}"


def _coords(coordinates) -> str:
    return ",".join(_coord(c) for c in coordinates)
