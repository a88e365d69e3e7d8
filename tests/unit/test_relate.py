"""Unit tests for the DE-9IM relate engine."""

from __future__ import annotations

import pytest

from repro.geometry import load_wkt
from repro.geometry.columnar import clear_kernel_stats, kernel_stats, set_vectorized_kernels
from repro.topology.labels import (
    BOUNDARY,
    BOUNDARY_PRIORITY_STRATEGY,
    EXTERIOR,
    INTERIOR,
    LAST_ONE_WINS_STRATEGY,
    UNION_STRATEGY,
    TopologyDescriptor,
    combine_classes,
)
from repro.geometry.wkt import load_wkt as parse_wkt
from repro.topology.relate import (
    IntersectionMatrix,
    RelateOptions,
    clear_relate_cache,
    relate,
    relate_cache_stats,
    relate_descriptors,
)


def matrix_of(wkt_a: str, wkt_b: str) -> str:
    return str(relate(load_wkt(wkt_a), load_wkt(wkt_b)))


class TestIntersectionMatrix:
    def test_from_string_round_trip(self):
        assert str(IntersectionMatrix.from_string("FF2101102")) == "FF2101102"

    def test_from_string_rejects_bad_input(self):
        with pytest.raises(ValueError):
            IntersectionMatrix.from_string("FF21")
        with pytest.raises(ValueError):
            IntersectionMatrix.from_string("XXXXXXXXX")

    def test_set_keeps_maximum(self):
        matrix = IntersectionMatrix()
        matrix.set("I", "I", 0)
        matrix.set("I", "I", 2)
        matrix.set("I", "I", 1)
        assert matrix.get("I", "I") == 2

    def test_pattern_matching(self):
        matrix = IntersectionMatrix.from_string("212101212")
        assert matrix.matches("T*T***T**")
        assert matrix.matches("212101212")
        assert not matrix.matches("FF*FF****")
        with pytest.raises(ValueError):
            matrix.matches("T*")

    def test_transposed(self):
        matrix = IntersectionMatrix.from_string("012F1F2F1")
        assert str(matrix.transposed()) == "0F211F2F1"

    def test_equality_with_string(self):
        assert IntersectionMatrix.from_string("FF2101102") == "ff2101102"


class TestRelateBasicPairs:
    """Ground truth matches the values PostGIS/GEOS produce for these pairs."""

    def test_disjoint_point_polygon(self):
        assert matrix_of("POINT(5 5)", "POLYGON((0 0,1 0,1 1,0 1,0 0))") == "FF0FFF212"

    def test_point_in_polygon_interior(self):
        assert matrix_of("POINT(1 1)", "POLYGON((0 0,4 0,4 4,0 4,0 0))") == "0FFFFF212"

    def test_point_on_polygon_boundary(self):
        assert matrix_of("POINT(0 2)", "POLYGON((0 0,4 0,4 4,0 4,0 0))") == "F0FFFF212"

    def test_point_on_line_interior(self):
        assert matrix_of("POINT(1 1)", "LINESTRING(0 0,2 2)") == "0FFFFF102"

    def test_point_on_line_endpoint(self):
        assert matrix_of("POINT(0 0)", "LINESTRING(0 0,2 2)") == "F0FFFF102"

    def test_crossing_lines(self):
        assert matrix_of("LINESTRING(0 0,2 2)", "LINESTRING(0 2,2 0)") == "0F1FF0102"

    def test_overlapping_collinear_lines(self):
        assert matrix_of("LINESTRING(0 0,2 0)", "LINESTRING(1 0,3 0)") == "1010F0102"

    def test_touching_lines_at_endpoint(self):
        assert matrix_of("LINESTRING(0 0,1 1)", "LINESTRING(1 1,2 0)") == "FF1F00102"

    def test_equal_polygons(self):
        square = "POLYGON((0 0,2 0,2 2,0 2,0 0))"
        assert matrix_of(square, square) == "2FFF1FFF2"

    def test_overlapping_polygons(self):
        assert (
            matrix_of(
                "POLYGON((0 0,2 0,2 2,0 2,0 0))", "POLYGON((1 1,3 1,3 3,1 3,1 1))"
            )
            == "212101212"
        )

    def test_polygon_contains_polygon(self):
        assert (
            matrix_of(
                "POLYGON((0 0,4 0,4 4,0 4,0 0))", "POLYGON((1 1,3 1,3 3,1 3,1 1))"
            )
            == "212FF1FF2"
        )

    def test_touching_polygons_share_edge(self):
        assert (
            matrix_of(
                "POLYGON((0 0,1 0,1 1,0 1,0 0))", "POLYGON((1 0,2 0,2 1,1 1,1 0))"
            )
            == "FF2F11212"
        )

    def test_line_inside_polygon(self):
        assert (
            matrix_of("LINESTRING(1 1,2 2)", "POLYGON((0 0,4 0,4 4,0 4,0 0))")
            == "1FF0FF212"
        )

    def test_line_on_polygon_boundary(self):
        assert (
            matrix_of("POLYGON((0 0,4 0,4 4,0 4,0 0))", "LINESTRING(0 0,4 0)")
            == "FF2101FF2"
        )

    def test_line_crossing_polygon(self):
        assert (
            matrix_of("LINESTRING(-1 2,5 2)", "POLYGON((0 0,4 0,4 4,0 4,0 0))")
            == "101FF0212"
        )

    def test_polygon_with_hole_and_point_in_hole(self):
        donut = "POLYGON((0 0,6 0,6 6,0 6,0 0),(2 2,4 2,4 4,2 4,2 2))"
        assert matrix_of("POINT(3 3)", donut) == "FF0FFF212"


class TestRelateEmptyGeometries:
    def test_both_empty(self):
        assert matrix_of("POINT EMPTY", "LINESTRING EMPTY") == "FFFFFFFF2"

    def test_empty_versus_polygon(self):
        assert matrix_of("POINT EMPTY", "POLYGON((0 0,1 0,1 1,0 1,0 0))") == "FFFFFF212"

    def test_polygon_versus_empty(self):
        assert matrix_of("POLYGON((0 0,1 0,1 1,0 1,0 0))", "GEOMETRYCOLLECTION EMPTY") == "FF2FF1FF2"

    def test_multi_with_only_empty_elements(self):
        assert matrix_of("MULTIPOINT(EMPTY)", "POINT(1 1)") == "FFFFFF0F2"


class TestRelateCollections:
    def test_point_within_collection_interior(self):
        # Listing 6: the point is interior to the collection under the
        # (correct) union semantics.
        assert (
            matrix_of(
                "POINT(0 0)", "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))"
            )
            == "0FFFFF102"
        )

    def test_last_one_wins_strategy_changes_the_matrix(self):
        point = load_wkt("POINT(0 0)")
        collection = load_wkt("GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))")
        correct = relate(point, collection)
        buggy = relate(
            point, collection, RelateOptions(collection_strategy=LAST_ONE_WINS_STRATEGY)
        )
        assert str(correct) != str(buggy)
        assert correct.get("I", "I") == 0
        assert buggy.get("I", "I") == -1

    def test_collection_against_multipolygon(self):
        # One point sits in the triangle's interior, the other on its
        # boundary; the point collection itself has no boundary.
        assert (
            matrix_of(
                "GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))",
                "MULTIPOLYGON(((0 0,5 0,0 5,0 0)))",
            )
            == "00FFFF212"
        )


class TestDescriptor:
    def test_mod2_boundary_of_multilinestring(self):
        descriptor = TopologyDescriptor(
            load_wkt("MULTILINESTRING((0 0,1 0),(1 0,2 0))")
        )
        # The shared endpoint (1 0) appears twice -> interior (mod-2 rule).
        from repro.geometry.model import Coordinate

        assert descriptor.locate(Coordinate(1, 0)) == INTERIOR
        assert descriptor.locate(Coordinate(0, 0)) == BOUNDARY
        assert descriptor.locate(Coordinate(2, 0)) == BOUNDARY

    def test_closed_line_has_empty_boundary(self):
        descriptor = TopologyDescriptor(load_wkt("LINESTRING(0 0,1 0,1 1,0 0)"))
        from repro.geometry.model import Coordinate

        assert descriptor.locate(Coordinate(0, 0)) == INTERIOR

    def test_combine_classes_strategies(self):
        assert combine_classes([EXTERIOR, INTERIOR, BOUNDARY], "union") == INTERIOR
        assert combine_classes([EXTERIOR, INTERIOR, BOUNDARY], "boundary_priority") == BOUNDARY
        assert combine_classes([EXTERIOR, INTERIOR, BOUNDARY], "last_one_wins") == BOUNDARY
        assert combine_classes([EXTERIOR, EXTERIOR], "union") == EXTERIOR

    def test_combine_classes_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            combine_classes([INTERIOR], "majority")

    def test_descriptor_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            TopologyDescriptor(load_wkt("POINT(0 0)"), "majority")

    def test_dimension_of_mixed_collection(self):
        descriptor = TopologyDescriptor(
            load_wkt("GEOMETRYCOLLECTION(POINT(0 0),POLYGON((0 0,1 0,0 1,0 0)))")
        )
        assert descriptor.dimension == 2


def node_classes(wkt: str, strategy: str = UNION_STRATEGY) -> dict[tuple, str]:
    """``{(x, y): class}`` over the nodes of a geometry's own arrangement."""
    view = TopologyDescriptor(load_wkt(wkt), strategy).prepared()
    return {(node.x, node.y): cls for node, cls in view.node_classes.items()}


def edge_labels(wkt: str, strategy: str = UNION_STRATEGY) -> dict[tuple, tuple[str, str, str]]:
    """``{((x0, y0), (x1, y1)): (left, on, right)}`` over a geometry's
    self-noded edges, each oriented along its segment."""
    view = TopologyDescriptor(load_wkt(wkt), strategy).prepared()
    labels = {}
    for ordered, segment_labels in zip(view.splits, view.labels):
        for start, end, label in zip(ordered, ordered[1:], segment_labels):
            labels[((start.x, start.y), (end.x, end.y))] = label
    return labels


class TestPreparedTopology:
    def test_ccw_ring_edges_read_interior_on_the_left(self):
        labels = edge_labels("POLYGON((0 0,2 0,2 2,0 2,0 0))")
        assert labels == {
            edge: (INTERIOR, BOUNDARY, EXTERIOR)
            for edge in (((0, 0), (2, 0)), ((2, 0), (2, 2)), ((2, 2), (0, 2)), ((0, 2), (0, 0)))
        }

    def test_linestring_edge_has_exterior_on_both_sides(self):
        assert edge_labels("LINESTRING(0 0,2 1)") == {
            ((0, 0), (2, 1)): (EXTERIOR, INTERIOR, EXTERIOR)
        }

    def test_bowtie_half_edges_alternate_sides(self):
        labels = edge_labels("POLYGON((0 0,2 2,2 0,0 2,0 0))")
        # The crossing segments are cut at (1, 1) into four half-edges;
        # each borders one lobe of the bowtie and the gap between them.
        assert labels[((0, 0), (1, 1))] == (INTERIOR, BOUNDARY, EXTERIOR)
        assert labels[((1, 1), (2, 2))] == (EXTERIOR, BOUNDARY, INTERIOR)
        assert labels[((2, 0), (1, 1))] == (EXTERIOR, BOUNDARY, INTERIOR)
        assert labels[((1, 1), (0, 2))] == (INTERIOR, BOUNDARY, EXTERIOR)
        assert len(labels) == 6

    @pytest.mark.parametrize(
        "strategy, on_both",
        [
            (UNION_STRATEGY, INTERIOR),
            (LAST_ONE_WINS_STRATEGY, INTERIOR),
            (BOUNDARY_PRIORITY_STRATEGY, BOUNDARY),
        ],
    )
    def test_collection_line_on_its_polygon_edge(self, strategy, on_both):
        wkt = "GEOMETRYCOLLECTION(POLYGON((0 0,4 0,4 4,0 4,0 0)),LINESTRING(1 0,3 0))"
        labels = edge_labels(wkt, strategy)
        # The line cuts the polygon's bottom edge; where both lie, the
        # strategy decides the class on the edge, not beside it.
        assert labels[((0, 0), (1, 0))] == (INTERIOR, BOUNDARY, EXTERIOR)
        assert labels[((1, 0), (3, 0))] == (INTERIOR, on_both, EXTERIOR)
        assert labels[((3, 0), (4, 0))] == (INTERIOR, BOUNDARY, EXTERIOR)
        # The line's ends are boundary of both elements, so of the
        # collection under every strategy, whatever the edge between them
        # reads: a node keeps its own located class.
        classes = node_classes(wkt, strategy)
        assert classes[(1, 0)] == classes[(3, 0)] == BOUNDARY
        assert classes[(0, 0)] == classes[(4, 4)] == BOUNDARY

    def test_line_endpoints_keep_their_mod2_class(self):
        classes = node_classes("MULTILINESTRING((0 0,1 0),(1 0,2 0),(1 0,1 1))")
        # (1 0) ends three elements: boundary under the mod-2 rule, though
        # every edge at it is interior.
        assert classes[(1, 0)] == BOUNDARY
        assert classes[(0, 0)] == classes[(2, 0)] == classes[(1, 1)] == BOUNDARY
        assert set(edge_labels("MULTILINESTRING((0 0,1 0),(1 0,2 0),(1 0,1 1))").values()) == {
            (EXTERIOR, INTERIOR, EXTERIOR)
        }

    def test_view_is_built_once_per_descriptor(self):
        descriptor = TopologyDescriptor(load_wkt("POLYGON((0 0,2 0,2 2,0 2,0 0))"))
        clear_kernel_stats()
        assert descriptor.prepared() is descriptor.prepared()
        assert kernel_stats()["prepared_descriptors"] == 1


class TestLabelPropagation:
    """Pair nodes on an operand read their class from its own labels, and a
    one-operand piece reads its class in the other operand at an endpoint
    off it; only the rest is located (the counters say which source)."""

    @staticmethod
    def relate_counting(wkt_a: str, wkt_b: str) -> tuple[str, dict[str, int]]:
        a, b = load_wkt(wkt_a), load_wkt(wkt_b)
        clear_relate_cache()
        clear_kernel_stats()
        matrix = relate(a, b)
        stats = kernel_stats()
        return str(matrix), {
            key[len("relate_") :]: value
            for key, value in stats.items()
            if key.startswith("relate_")
        }

    def test_overlapping_squares_locate_only_the_other_corners(self):
        matrix, sources = self.relate_counting(
            "POLYGON((0 0,2 0,2 2,0 2,0 0))", "POLYGON((1 1,3 1,3 3,1 3,1 1))"
        )
        assert matrix == "212101212"
        # 10 nodes in each operand: its own 4 corners from the view, the
        # two crossings (2 1) and (1 2) from its edges' on labels, the
        # other square's 4 corners located.  Every piece has a corner
        # endpoint off the other square.
        assert sources == {
            "nodes_from_view": 8,
            "nodes_from_edge": 4,
            "nodes_located": 8,
            "pieces_from_endpoint": 12,
            "pieces_from_midpoint": 0,
        }

    def test_chord_locates_its_midpoint_only(self):
        matrix, sources = self.relate_counting(
            "LINESTRING(0 1,2 1)", "POLYGON((0 0,2 0,2 2,0 2,0 0))"
        )
        assert matrix == "1FFF0F212"
        # Both chord ends lie on the square, so the chord's class in it is
        # read at its located midpoint; the square's corners are located
        # in the chord; the square's six pieces each have a corner off it.
        assert sources == {
            "nodes_from_view": 6,
            "nodes_from_edge": 2,
            "nodes_located": 4,
            "pieces_from_endpoint": 6,
            "pieces_from_midpoint": 1,
        }

    @pytest.mark.parametrize(
        "strategy", [UNION_STRATEGY, LAST_ONE_WINS_STRATEGY, BOUNDARY_PRIORITY_STRATEGY]
    )
    def test_collection_line_on_its_polygon_edge_matches_the_witnesses(self, strategy):
        collection = load_wkt(
            "GEOMETRYCOLLECTION(POLYGON((0 0,4 0,4 4,0 4,0 0)),LINESTRING(1 0,3 0))"
        )
        for other in ("POINT(1 0)", "LINESTRING(0 0,2 0)", "POLYGON((1 -1,3 -1,3 0,1 0,1 -1))"):
            geometry = load_wkt(other)

            def matrix():
                return str(
                    relate_descriptors(
                        TopologyDescriptor(collection, strategy),
                        TopologyDescriptor(geometry, strategy),
                    )
                )

            prepared = matrix()
            previous = set_vectorized_kernels(False)
            try:
                assert prepared == matrix(), (other, strategy)
            finally:
                set_vectorized_kernels(previous)


class TestRelateMemo:
    def test_memo_is_keyed_by_identity_not_by_wkt(self):
        """Distinct objects with equal WKT are computed apart: the interner,
        not the relate memo, is what makes repeated literals share one
        entry."""
        a_wkt, b_wkt = "POLYGON((0 0,4 0,4 4,0 4,0 0))", "LINESTRING(1 1,5 5)"
        clear_relate_cache()
        first = relate(parse_wkt(a_wkt), parse_wkt(b_wkt))
        second = relate(parse_wkt(a_wkt), parse_wkt(b_wkt))
        assert first == second
        stats = relate_cache_stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 2, 2)
