"""Unit tests for linear editing functions (merge, simplify, snap, closest point)."""

import numbers
from fractions import Fraction

import pytest

from repro.errors import GeometryTypeError
from repro.functions import linear, metrics
from repro.geometry import load_wkt
from repro.geometry.model import Coordinate, LineString, MultiLineString, Point
from repro.topology import predicates


class TestProjection:
    def test_projection_inside_segment(self):
        p = Coordinate(1, 1)
        projected = linear.project_point_on_segment(p, Coordinate(0, 0), Coordinate(2, 0))
        assert projected == Coordinate(1, 0)

    def test_projection_clamps_to_endpoints(self):
        p = Coordinate(-5, 3)
        projected = linear.project_point_on_segment(p, Coordinate(0, 0), Coordinate(2, 0))
        assert projected == Coordinate(0, 0)

    def test_projection_is_exact(self):
        p = Coordinate(1, 1)
        projected = linear.project_point_on_segment(p, Coordinate(0, 0), Coordinate(3, 1))
        # Projection factor is t = (3 + 1) / 10 = 2/5.
        assert projected == Coordinate(Fraction(6, 5), Fraction(2, 5))

    def test_degenerate_segment(self):
        projected = linear.project_point_on_segment(
            Coordinate(5, 5), Coordinate(1, 1), Coordinate(1, 1)
        )
        assert projected == Coordinate(1, 1)


class TestClosestPointAndLines:
    def test_closest_point_on_line(self):
        line = load_wkt("LINESTRING(0 0,10 0)")
        point = load_wkt("POINT(3 4)")
        assert linear.closest_point(line, point).wkt == "POINT(3 0)"

    def test_closest_point_between_polygons(self):
        a = load_wkt("POLYGON((0 0,1 0,1 1,0 1,0 0))")
        b = load_wkt("POLYGON((3 0,4 0,4 1,3 1,3 0))")
        assert linear.closest_point(a, b).wkt == "POINT(1 0)"

    def test_shortest_line_endpoints_lie_on_inputs(self):
        a = load_wkt("LINESTRING(0 0,0 10)")
        b = load_wkt("POINT(4 5)")
        connector = linear.shortest_line(a, b)
        assert connector.wkt == "LINESTRING(0 5,4 5)"
        assert metrics.length(connector) == pytest.approx(4.0)

    def test_shortest_line_of_intersecting_geometries_is_degenerate(self):
        a = load_wkt("LINESTRING(0 0,10 10)")
        b = load_wkt("LINESTRING(0 10,10 0)")
        connector = linear.shortest_line(a, b)
        assert metrics.length(connector) == 0.0

    def test_longest_line_between_squares(self):
        a = load_wkt("POLYGON((0 0,1 0,1 1,0 1,0 0))")
        b = load_wkt("POLYGON((3 0,4 0,4 1,3 1,3 0))")
        connector = linear.longest_line(a, b)
        assert metrics.length(connector) == pytest.approx((4 ** 2 + 1) ** 0.5)

    def test_empty_inputs_give_empty_results(self):
        assert linear.closest_point(load_wkt("POINT EMPTY"), load_wkt("POINT(0 0)")).is_empty
        assert linear.shortest_line(load_wkt("POINT EMPTY"), load_wkt("POINT(0 0)")).is_empty
        assert linear.longest_line(load_wkt("POINT EMPTY"), load_wkt("POINT(0 0)")).is_empty

    def test_closest_pair_matches_distance(self):
        from repro.topology import measures

        a = load_wkt("LINESTRING(0 0,5 0,5 5)")
        b = load_wkt("POLYGON((8 8,9 8,9 9,8 9,8 8))")
        pair = linear.closest_pair(a, b)
        assert pair is not None
        start, end = pair
        connector = LineString([start, end])
        assert metrics.length(connector) == pytest.approx(measures.distance(a, b))

    def test_nested_operands_meet_at_a_vertex_of_the_inner_one(self):
        outer = load_wkt("POLYGON((0 0,3 0,3 3,0 3,0 0))")
        inner = load_wkt("POLYGON((1 1,2 1,2 2,1 2,1 1))")
        assert linear.closest_pair(outer, inner) == (Coordinate(1, 1), Coordinate(1, 1))
        assert linear.closest_pair(inner, outer) == (Coordinate(1, 1), Coordinate(1, 1))
        assert linear.closest_point(outer, load_wkt("POINT(2 1)")).wkt == "POINT(2 1)"
        assert metrics.length(linear.shortest_line(inner, outer)) == 0.0

    def test_operand_in_a_hole_is_not_nested(self):
        holed = load_wkt("POLYGON((0 0,9 0,9 9,0 9,0 0),(3 3,7 3,7 7,3 7,3 3))")
        point = load_wkt("POINT(4 5)")
        assert linear.shortest_line(holed, point).wkt == "LINESTRING(3 5,4 5)"


class TestLineMerge:
    def test_merges_two_chains_sharing_an_endpoint(self):
        multi = load_wkt("MULTILINESTRING((0 0,1 1),(1 1,2 2))")
        merged = linear.line_merge(multi)
        assert merged.geom_type == "LINESTRING"
        assert merged.num_coordinates() == 3

    def test_does_not_merge_through_degree_three_node(self):
        multi = load_wkt("MULTILINESTRING((0 0,1 1),(1 1,2 2),(1 1,1 5))")
        merged = linear.line_merge(multi)
        assert merged.geom_type == "MULTILINESTRING"
        assert len(merged.geoms) == 3

    def test_merges_reversed_chains(self):
        multi = load_wkt("MULTILINESTRING((2 2,1 1),(0 0,1 1))")
        merged = linear.line_merge(multi)
        assert merged.geom_type == "LINESTRING"
        assert merged.num_coordinates() == 3

    def test_single_linestring_passes_through(self):
        line = load_wkt("LINESTRING(0 0,5 5)")
        assert linear.line_merge(line).wkt == line.wkt

    def test_empty_multilinestring(self):
        assert linear.line_merge(load_wkt("MULTILINESTRING EMPTY")).is_empty

    def test_rejects_polygon_input(self):
        with pytest.raises(GeometryTypeError):
            linear.line_merge(load_wkt("POLYGON((0 0,1 0,1 1,0 1,0 0))"))

    def test_merge_preserves_total_length(self):
        multi = load_wkt("MULTILINESTRING((0 0,0 2),(0 2,3 2),(5 5,6 6))")
        merged = linear.line_merge(multi)
        assert metrics.length(merged) == pytest.approx(metrics.length(multi))


class TestSimplify:
    def test_collinear_vertex_is_removed(self):
        line = load_wkt("LINESTRING(0 0,1 0,2 0)")
        assert linear.simplify(line, 0).wkt == "LINESTRING(0 0,2 0)"

    def test_vertex_within_tolerance_is_removed(self):
        line = load_wkt("LINESTRING(0 0,5 1,10 0)")
        assert linear.simplify(line, 2).wkt == "LINESTRING(0 0,10 0)"

    def test_vertex_beyond_tolerance_is_kept(self):
        line = load_wkt("LINESTRING(0 0,5 4,10 0)")
        assert linear.simplify(line, 2).wkt == line.wkt

    def test_ring_never_collapses(self):
        polygon = load_wkt("POLYGON((0 0,1 0,1 1,0 1,0 0))")
        simplified = linear.simplify(polygon, 100)
        assert not simplified.is_empty
        assert metrics.area(simplified) == metrics.area(polygon)

    def test_simplify_preserves_topology_of_far_vertices(self):
        polygon = load_wkt("POLYGON((0 0,5 0,10 0,10 10,0 10,0 0))")
        simplified = linear.simplify(polygon, 0)
        assert simplified.num_coordinates() < polygon.num_coordinates()
        assert predicates.intersects(simplified, load_wkt("POINT(5 5)"))

    def test_negative_tolerance_raises(self):
        with pytest.raises(GeometryTypeError):
            linear.simplify(load_wkt("LINESTRING(0 0,1 1)"), -1)

    def test_point_and_empty_pass_through(self):
        assert linear.simplify(load_wkt("POINT(1 1)"), 5).wkt == "POINT(1 1)"
        assert linear.simplify(load_wkt("LINESTRING EMPTY"), 5).is_empty

    def test_collection_simplifies_elements(self):
        mixed = load_wkt("GEOMETRYCOLLECTION(LINESTRING(0 0,1 0,2 0),POINT(5 5))")
        simplified = linear.simplify(mixed, 0)
        assert simplified.geoms[0].num_coordinates() == 2


class TestSegmentize:
    def test_inserts_midpoints(self):
        line = load_wkt("LINESTRING(0 0,10 0)")
        densified = linear.segmentize(line, 5)
        assert densified.wkt == "LINESTRING(0 0,5 0,10 0)"

    def test_segments_never_exceed_max_length(self):
        line = load_wkt("LINESTRING(0 0,7 0,7 9)")
        densified = linear.segmentize(line, 2)
        for a, b in densified.segments():
            assert float((b.x - a.x) ** 2 + (b.y - a.y) ** 2) <= 4.0 + 1e-9

    def test_length_is_preserved(self):
        line = load_wkt("LINESTRING(0 0,3 4,10 4)")
        densified = linear.segmentize(line, 1)
        assert metrics.length(densified) == pytest.approx(metrics.length(line))

    def test_polygon_rings_are_densified(self):
        polygon = load_wkt("POLYGON((0 0,4 0,4 4,0 4,0 0))")
        densified = linear.segmentize(polygon, 2)
        assert densified.num_coordinates() > polygon.num_coordinates()
        assert metrics.area(densified) == metrics.area(polygon)

    def test_non_positive_length_raises(self):
        with pytest.raises(GeometryTypeError):
            linear.segmentize(load_wkt("LINESTRING(0 0,1 1)"), 0)

    def test_coordinates_stay_rational(self):
        line = load_wkt("LINESTRING(0 0,1 0)")
        densified = linear.segmentize(line, 0.3)
        for coordinate in densified.coordinates():
            assert isinstance(coordinate.x, numbers.Rational)


class TestVertexEditing:
    def test_add_point_appends_by_default(self):
        line = load_wkt("LINESTRING(0 0,1 1)")
        extended = linear.add_point(line, load_wkt("POINT(2 2)"))
        assert extended.wkt == "LINESTRING(0 0,1 1,2 2)"

    def test_add_point_at_position(self):
        line = load_wkt("LINESTRING(0 0,2 2)")
        extended = linear.add_point(line, load_wkt("POINT(1 1)"), 1)
        assert extended.wkt == "LINESTRING(0 0,1 1,2 2)"

    def test_add_point_position_out_of_range(self):
        with pytest.raises(GeometryTypeError):
            linear.add_point(load_wkt("LINESTRING(0 0,1 1)"), load_wkt("POINT(9 9)"), 7)

    def test_add_point_rejects_non_line(self):
        with pytest.raises(GeometryTypeError):
            linear.add_point(load_wkt("POINT(0 0)"), load_wkt("POINT(1 1)"))

    def test_remove_point(self):
        line = load_wkt("LINESTRING(0 0,1 1,2 2)")
        assert linear.remove_point(line, 1).wkt == "LINESTRING(0 0,2 2)"

    def test_remove_point_cannot_drop_below_two_points(self):
        with pytest.raises(GeometryTypeError):
            linear.remove_point(load_wkt("LINESTRING(0 0,1 1)"), 0)

    def test_remove_point_out_of_range(self):
        with pytest.raises(GeometryTypeError):
            linear.remove_point(load_wkt("LINESTRING(0 0,1 1,2 2)"), 5)


class TestSnap:
    def test_vertex_within_tolerance_moves(self):
        line = load_wkt("LINESTRING(0 0,10 1)")
        reference = load_wkt("POINT(10 0)")
        snapped = linear.snap(line, reference, 2)
        assert snapped.wkt == "LINESTRING(0 0,10 0)"

    def test_vertex_outside_tolerance_stays(self):
        line = load_wkt("LINESTRING(0 0,10 5)")
        reference = load_wkt("POINT(10 0)")
        assert linear.snap(line, reference, 2).wkt == line.wkt

    def test_snapping_creates_touching_topology(self):
        a = load_wkt("LINESTRING(0 0,9 1)")
        b = load_wkt("LINESTRING(9 0,20 0)")
        snapped = linear.snap(a, b, 2)
        assert predicates.touches(snapped, b) or predicates.intersects(snapped, b)

    def test_snap_to_empty_reference_is_identity(self):
        line = load_wkt("LINESTRING(0 0,1 1)")
        assert linear.snap(line, load_wkt("POINT EMPTY"), 5).wkt == line.wkt

    def test_negative_tolerance_raises(self):
        with pytest.raises(GeometryTypeError):
            linear.snap(load_wkt("POINT(0 0)"), load_wkt("POINT(1 1)"), -1)

    def test_snap_picks_nearest_reference_vertex(self):
        point = load_wkt("POINT(5 0)")
        reference = load_wkt("MULTIPOINT((4 0),(7 0))")
        assert linear.snap(point, reference, 3).wkt == "POINT(4 0)"
