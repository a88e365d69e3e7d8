"""Exact ordinates: ``int`` when integral, ``Fraction`` otherwise.

Two contracts are pinned here:

* **normalisation** — every way a coordinate value enters the model (the
  constructor, WKT, affine maps) yields an ``int`` for an integral value
  and the exact ``Fraction`` for any other;
* **division safety** — every true division over ordinates goes through
  ``Fraction``.  With ``int`` ordinates a bare ``int / int`` would round
  through a float; the ordinates below exceed 2**53, where that rounding is
  visible, so a missing ``Fraction`` wrap fails these exact-value tests.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.errors import GeometryTypeError
from repro.functions.affine_ops import affine_transform
from repro.functions.linear import project_point_on_segment
from repro.geometry import load_wkt
from repro.geometry.model import Coordinate, Point, _to_ordinate
from repro.geometry.primitives import (
    _line_intersection_point,
    cross,
    dot,
    point_in_ring,
    segment_point_squared_distance,
)
from repro.topology.noding import (
    OffsetContext,
    _order_along_segment,
    midpoint,
    set_fast_clearance,
    side_offsets,
)

#: an odd ordinate far beyond the 53-bit float mantissa.
BIG = 2**60 + 1


def _exact_types(coordinate: Coordinate) -> tuple[type, type]:
    return type(coordinate.x), type(coordinate.y)


class TestOrdinateNormalisation:
    def test_integral_fraction_becomes_int(self):
        value = _to_ordinate(Fraction(4, 2))
        assert value == 2 and type(value) is int

    def test_integral_float_becomes_int(self):
        value = _to_ordinate(2.0)
        assert value == 2 and type(value) is int

    def test_decimal_string_becomes_fraction(self):
        value = _to_ordinate("2.50")
        assert value == Fraction(5, 2) and type(value) is Fraction

    def test_integral_string_becomes_int(self):
        assert type(_to_ordinate("-7")) is int
        assert _to_ordinate("1e3") == 1000 and type(_to_ordinate("1e3")) is int

    def test_non_integral_float_is_exact(self):
        assert _to_ordinate(0.1) == Fraction(0.1)
        assert type(_to_ordinate(0.1)) is Fraction

    def test_boolean_is_rejected(self):
        with pytest.raises(GeometryTypeError):
            _to_ordinate(True)

    def test_unknown_type_is_rejected(self):
        with pytest.raises(GeometryTypeError):
            _to_ordinate(None)

    def test_equal_values_give_equal_coordinates_and_hashes(self):
        normalised = Coordinate(Fraction(4, 2), 1)
        assert normalised == Coordinate(2, 1)
        assert hash(normalised) == hash(Coordinate(2, 1))
        assert _exact_types(normalised) == (int, int)

    def test_hash_is_stable_across_calls(self):
        coordinate = Coordinate(Fraction(1, 3), BIG)
        assert hash(coordinate) == hash(coordinate) == hash((Fraction(1, 3), BIG))

    def test_wkt_integers_parse_to_int(self):
        point = load_wkt("POINT(1 2)")
        assert _exact_types(point.coordinate) == (int, int)
        big = load_wkt(f"POINT(-{BIG} {BIG})")
        assert (big.x, big.y) == (-BIG, BIG)

    def test_wkt_decimals_parse_to_exact_fractions(self):
        point = load_wkt("POINT(0.5 -2.0)")
        assert point.x == Fraction(1, 2) and type(point.x) is Fraction
        assert point.y == -2 and type(point.y) is int

    def test_integer_affine_map_keeps_int_ordinates(self):
        polygon = load_wkt("POLYGON((0 0,4 0,4 3,0 0))")
        mapped = affine_transform(polygon, 2, -1, 3, Fraction(5, 5), 7, -4)
        assert mapped.wkt == "POLYGON((7 -4,15 8,12 11,7 -4))"
        for coordinate in mapped.coordinates():
            assert _exact_types(coordinate) == (int, int)

    def test_rational_affine_map_stays_exact(self):
        mapped = affine_transform(Point((3, 1)), Fraction(1, 2), 0, 0, 1, 0, Fraction(1, 3))
        assert (mapped.x, mapped.y) == (Fraction(3, 2), Fraction(4, 3))
        assert _exact_types(mapped.coordinate) == (Fraction, Fraction)


class TestDivisionSafety:
    def test_midpoint(self):
        mid = midpoint(Coordinate(BIG, 1), Coordinate(0, 0))
        assert (mid.x, mid.y) == (Fraction(BIG, 2), Fraction(1, 2))

    def test_order_along_segment_parameter(self):
        # Parameters (2**54 + k) / 2**60 collapse to a few floats; the
        # exact parameters order every point.
        a, b = Coordinate(0, 0), Coordinate(2**60, 0)
        points = {Coordinate(2**54 + k, 0) for k in range(24)}
        ordered = _order_along_segment(a, b, points)
        assert ordered == sorted(points, key=lambda p: p.x)
        reverse = _order_along_segment(b, a, points)
        assert reverse == sorted(points, key=lambda p: p.x, reverse=True)

    def test_side_offsets_bound(self):
        # The reference clearance path divides the clearance by the length;
        # it must build the same rationals as the integer-grid construction.
        # An integral midpoint and node make both operands ints.
        segment = (Coordinate(0, 0), Coordinate(BIG + 1, 2))
        node = Coordinate(4, 2**55 + 1)
        nodes = {segment[0], segment[1], node}
        expected = OffsetContext([segment], nodes).side_offset_points(*segment)
        previous = set_fast_clearance(False)
        try:
            assert side_offsets(segment, [segment], nodes) == expected
        finally:
            set_fast_clearance(previous)

    def test_segment_point_squared_distance(self):
        a, b, p = Coordinate(0, 0), Coordinate(BIG, 3), Coordinate(1, 1)
        # The projection falls inside the segment: the squared distance is
        # cross² / |ab|² exactly.
        assert 0 < dot(a, b, p) < dot(a, b, b)
        expected = Fraction(cross(a, b, p) ** 2, dot(a, b, b))
        assert segment_point_squared_distance(p, a, b) == expected

    def test_line_intersection_point_lies_on_both_lines(self):
        a1, a2 = Coordinate(0, 0), Coordinate(BIG, BIG + 2)
        b1, b2 = Coordinate(0, BIG), Coordinate(BIG, 0)
        point = _line_intersection_point(a1, a2, b1, b2)
        assert point is not None
        assert cross(a1, a2, point) == 0
        assert cross(b1, b2, point) == 0

    def test_line_intersection_parameters_reject_a_near_miss(self):
        # Segment b stops 1/(2**60 - 1) of its length short of segment a:
        # u = 1 + 2**-60 rounds to 1.0 as a float.
        a1, a2 = Coordinate(0, -2), Coordinate(0, 2)
        b1, b2 = Coordinate(-(2**60), 0), Coordinate(-1, 1)
        assert _line_intersection_point(a1, a2, b1, b2) is None  # u > 1
        assert _line_intersection_point(b1, b2, a1, a2) is None  # t > 1

    def test_point_in_ring_crossing_abscissa(self):
        # The edge (0, 0)-(BIG, 3) crosses y = 1 at x = BIG/3, where the
        # float spacing is 64: a float abscissa cannot separate the points
        # a few units either side of the crossing.
        ring = [Coordinate(0, 0), Coordinate(BIG, 3), Coordinate(0, 3)]
        centre = BIG // 3
        for x in range(centre - 80, centre + 80):
            expected = "interior" if 3 * x < BIG else "exterior"
            assert point_in_ring(Coordinate(x, 1), ring) == expected, x

    def test_project_point_on_segment(self):
        a, b, p = Coordinate(0, 0), Coordinate(BIG, 1), Coordinate(5, 7)
        projected = project_point_on_segment(p, a, b)
        # On the segment's line, and p - projected is perpendicular to it.
        assert cross(a, b, projected) == 0
        assert dot(projected, p, b) == 0
