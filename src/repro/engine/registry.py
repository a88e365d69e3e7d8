"""SQL spatial function registry.

Every ``ST_*`` function callable from SQL is implemented here, backed by the
exact geometry/topology substrate.  The registry is also where the
fault-injection mechanisms of :mod:`repro.engine.faults` hook into query
evaluation: before the correct implementation runs, the active
:class:`~repro.engine.faults.FaultPlan` is consulted and, when a bug's
trigger condition holds, the buggy result is produced (or
:class:`~repro.errors.EngineCrash` is raised for crash bugs).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable

from repro.errors import (
    EngineCrash,
    SemanticGeometryError,
    SQLExecutionError,
    UnknownFunctionError,
)
from repro.geometry import load_wkt
from repro.geometry.model import (
    Geometry,
    GeometryCollection,
    Point,
    Polygon,
    _MultiGeometry,
    flatten,
)
from repro.geometry.validity import is_valid
from repro.engine import faults
from repro.engine.dialects import Dialect
from repro.engine.faults import FaultPlan
from repro.engine.prepared import PreparedGeometryCache
from repro.functions import accessors, affine_ops, constructive, linear, metrics
from repro import overlay
from repro.topology import measures, predicates
from repro.topology.labels import LAST_ONE_WINS_STRATEGY, TopologyDescriptor
from repro.topology.relate import RelateOptions, relate


# ---------------------------------------------------------------------------
# Helper predicates on geometries used by fault trigger conditions.
# ---------------------------------------------------------------------------
def has_empty_element(geometry: Geometry) -> bool:
    """True if a MULTI or MIXED geometry contains an EMPTY element."""
    if not isinstance(geometry, _MultiGeometry):
        return False
    return any(element.is_empty for element in flatten(geometry))


def has_nested_collection(geometry: Geometry) -> bool:
    """True if a GEOMETRYCOLLECTION directly contains another collection."""
    if not isinstance(geometry, GeometryCollection):
        return False
    return any(isinstance(element, _MultiGeometry) for element in geometry.geoms)


def max_absolute_coordinate(geometry: Geometry) -> Fraction:
    """Largest |ordinate| appearing in the geometry (0 for EMPTY)."""
    best = Fraction(0)
    for coordinate in geometry.coordinates():
        best = max(best, abs(coordinate.x), abs(coordinate.y))
    return best


def _first_element(geometry: Geometry) -> Geometry:
    if isinstance(geometry, _MultiGeometry) and geometry.geoms:
        return geometry.geoms[0]
    return geometry


class FunctionRegistry:
    """Resolves and evaluates SQL function calls for one engine instance."""

    def __init__(
        self,
        dialect: Dialect,
        fault_plan: FaultPlan | None = None,
        prepared_cache: PreparedGeometryCache | None = None,
    ):
        self.dialect = dialect
        self.fault_plan = fault_plan or FaultPlan.none()
        self.prepared_cache = prepared_cache or PreparedGeometryCache(
            buggy_collection_repeat=self.fault_plan.has_mechanism(
                faults.MECH_PREPARED_COLLECTION_FALSE
            )
        )
        self._implementations: dict[str, Callable[..., Any]] = self._build_table()

    # ------------------------------------------------------------------ API
    def supports(self, name: str) -> bool:
        """True if the dialect exposes the function."""
        return self.dialect.supports_function(name)

    def call(self, name: str, arguments: list[Any]) -> Any:
        """Evaluate a SQL function call with already-evaluated arguments."""
        key = name.lower()
        if key == "count":
            raise SQLExecutionError("COUNT is an aggregate and is handled by the executor")
        if not self.dialect.supports_function(key):
            raise UnknownFunctionError(
                f"{self.dialect.label} does not implement function {name}"
            )
        implementation = self._implementations.get(key)
        if implementation is None:
            raise UnknownFunctionError(f"function {name} is not implemented")
        return implementation(*arguments)

    # ----------------------------------------------------------- conversions
    def _coerce_geometry(self, value: Any, argument: str = "geometry") -> Geometry | None:
        if value is None:
            return None
        if isinstance(value, Geometry):
            geometry = value
        elif isinstance(value, str):
            geometry = load_wkt(value)
        else:
            raise SQLExecutionError(f"cannot interpret {value!r} as a {argument}")
        if self.dialect.strict_validation and not is_valid(geometry):
            raise SemanticGeometryError(
                f"{self.dialect.label} rejects the semantically invalid geometry {geometry.wkt}"
            )
        if not self.dialect.supports_empty_elements and has_empty_element(geometry):
            raise SemanticGeometryError(
                f"{self.dialect.label} does not accept EMPTY elements inside MULTI geometries"
            )
        return geometry

    def _relate_options(self, function_name: str, *geometries: Geometry) -> RelateOptions:
        """Relate options, switching to last-one-wins when that bug is active."""
        if self.fault_plan.has_mechanism(faults.MECH_LAST_ONE_WINS_BOUNDARY, function_name):
            if any(isinstance(g, GeometryCollection) for g in geometries if g is not None):
                self.fault_plan.record_trigger(faults.MECH_LAST_ONE_WINS_BOUNDARY, function_name)
                return RelateOptions(collection_strategy=LAST_ONE_WINS_STRATEGY)
        return RelateOptions()

    # --------------------------------------------------------- fault helpers
    def _maybe_crash(self, function_name: str, *geometries: Geometry | None) -> None:
        """Raise EngineCrash if an active crash bug's trigger condition holds."""
        plan = self.fault_plan
        name = function_name.lower()
        present = [g for g in geometries if g is not None]

        def crash(bug_id: str) -> None:
            plan.triggered.append(bug_id)
            raise EngineCrash(
                f"{self.dialect.label} terminated while evaluating {function_name}",
                bug_id=bug_id,
            )

        for bug in plan.active_bugs:
            if bug.kind != faults.CRASH:
                continue
            if bug.functions and name not in bug.functions:
                continue
            if bug.bug_id == "geos-crash-relate-nested-empty-collection":
                if any(has_nested_collection(g) and has_empty_element(g) for g in present):
                    crash(bug.bug_id)
            elif bug.bug_id == "geos-crash-touches-empty-collection":
                if (
                    len(present) == 2
                    and all(isinstance(g, GeometryCollection) for g in present)
                    and any(has_empty_element(g) for g in present)
                ):
                    crash(bug.bug_id)
            elif bug.bug_id == "geos-crash-convexhull-empty-collection":
                if any(
                    isinstance(g, _MultiGeometry) and g.geoms and g.is_empty for g in present
                ):
                    crash(bug.bug_id)
            elif bug.bug_id == "postgis-crash-dumprings-empty":
                if any(isinstance(g, Polygon) and g.is_empty for g in present):
                    crash(bug.bug_id)
            elif bug.bug_id == "duckdb-crash-collectionextract-mixed":
                if any(has_nested_collection(g) for g in present):
                    crash(bug.bug_id)
            elif bug.bug_id == "duckdb-crash-boundary-nested-collection":
                if any(has_nested_collection(g) for g in present):
                    crash(bug.bug_id)
            elif bug.bug_id == "duckdb-crash-polygonize-degenerate-ring":
                if any(self._has_degenerate_closed_ring(g) for g in present):
                    crash(bug.bug_id)
            elif bug.bug_id == "duckdb-crash-forcepolygoncw-collection":
                if any(isinstance(g, GeometryCollection) for g in present):
                    crash(bug.bug_id)
            elif bug.bug_id == "duckdb-crash-geometryn-empty":
                if any(isinstance(g, _MultiGeometry) and not g.geoms for g in present):
                    crash(bug.bug_id)

    @staticmethod
    def _has_degenerate_closed_ring(geometry: Geometry) -> bool:
        from repro.geometry.model import LineString
        from repro.geometry.primitives import ring_signed_area

        for element in flatten(geometry):
            if (
                isinstance(element, LineString)
                and element.is_closed
                and len(element.points) >= 4
                and ring_signed_area(element.points) == 0
            ):
                return True
        return False

    def _empty_element_override(self, function_name: str, *geometries: Geometry) -> bool | None:
        """Buggy result for the EMPTY-element mechanism, or None if inactive."""
        if not self.fault_plan.has_mechanism(faults.MECH_EMPTY_ELEMENT_FALSE, function_name):
            return None
        if not any(has_empty_element(g) for g in geometries if g is not None):
            return None
        self.fault_plan.record_trigger(faults.MECH_EMPTY_ELEMENT_FALSE, function_name)
        return function_name.lower() == "st_disjoint"

    # -------------------------------------------------------- implementation
    def _build_table(self) -> dict[str, Callable[..., Any]]:
        return {
            # constructors / serialisation
            "st_geomfromtext": self._st_geomfromtext,
            "st_astext": self._st_astext,
            "st_asbinary": self._st_asbinary,
            "st_geomfromwkb": self._st_geomfromwkb,
            "st_isempty": self._st_isempty,
            "st_isvalid": self._st_isvalid,
            "st_dimension": self._st_dimension,
            "st_geometrytype": self._st_geometrytype,
            # accessors
            "st_numgeometries": self._st_numgeometries,
            "st_geometryn": self._st_geometryn,
            "st_numpoints": self._st_numpoints,
            "st_pointn": self._st_pointn,
            "st_x": self._st_x,
            "st_y": self._st_y,
            # named predicates
            "st_intersects": self._predicate(predicates.intersects, "st_intersects"),
            "st_disjoint": self._predicate(predicates.disjoint, "st_disjoint"),
            "st_equals": self._predicate(predicates.equals, "st_equals"),
            "st_touches": self._predicate(predicates.touches, "st_touches"),
            "st_within": self._st_within,
            "st_contains": self._st_contains,
            "st_crosses": self._st_crosses,
            "st_overlaps": self._st_overlaps,
            "st_covers": self._st_covers,
            "st_coveredby": self._st_coveredby,
            "st_relate": self._st_relate,
            # measures
            "st_distance": self._st_distance,
            "st_dwithin": self._st_dwithin,
            "st_dfullywithin": self._st_dfullywithin,
            # editing / constructive
            "st_boundary": self._unary_constructive(constructive.boundary, "st_boundary"),
            "st_convexhull": self._unary_constructive(constructive.convex_hull, "st_convexhull"),
            "st_envelope": self._unary_constructive(constructive.envelope, "st_envelope"),
            "st_centroid": self._unary_constructive(constructive.centroid, "st_centroid"),
            "st_reverse": self._unary_constructive(constructive.reverse, "st_reverse"),
            "st_dumprings": self._unary_constructive(constructive.dump_rings, "st_dumprings"),
            "st_polygonize": self._unary_constructive(constructive.polygonize, "st_polygonize"),
            "st_forcepolygoncw": self._unary_constructive(
                constructive.force_polygon_cw, "st_forcepolygoncw"
            ),
            "st_forcepolygonccw": self._unary_constructive(
                constructive.force_polygon_ccw, "st_forcepolygonccw"
            ),
            "st_setpoint": self._st_setpoint,
            "st_collectionextract": self._st_collectionextract,
            "st_collect": self._st_collect,
            "st_swapxy": self._unary_constructive(affine_ops.swap_xy, "st_swapxy"),
            "st_translate": self._st_translate,
            "st_scale": self._st_scale,
            "st_affine": self._st_affine,
            "st_makeenvelope": self._st_makeenvelope,
            # ring / line accessors
            "st_exteriorring": self._simple_unary(accessors.exterior_ring),
            "st_numinteriorrings": self._simple_unary(accessors.num_interior_rings),
            "st_interiorringn": self._st_interiorringn,
            "st_startpoint": self._simple_unary(accessors.start_point),
            "st_endpoint": self._simple_unary(accessors.end_point),
            "st_isclosed": self._simple_unary(accessors.is_closed),
            "st_isring": self._simple_unary(accessors.is_ring),
            "st_npoints": self._simple_unary(metrics.num_coordinates),
            # scalar measures
            "st_area": self._st_area,
            "st_length": self._st_length,
            "st_perimeter": self._st_perimeter,
            "st_azimuth": self._st_azimuth,
            "st_maxdistance": self._st_maxdistance,
            # linear editing
            "st_linemerge": self._unary_constructive(linear.line_merge, "st_linemerge"),
            "st_simplify": self._st_simplify,
            "st_segmentize": self._st_segmentize,
            "st_addpoint": self._st_addpoint,
            "st_removepoint": self._st_removepoint,
            "st_closestpoint": self._binary_constructive(linear.closest_point, "st_closestpoint"),
            "st_shortestline": self._binary_constructive(linear.shortest_line, "st_shortestline"),
            "st_longestline": self._binary_constructive(linear.longest_line, "st_longestline"),
            "st_snap": self._st_snap,
            # GeoJSON conversion
            "st_asgeojson": self._st_asgeojson,
            "st_geomfromgeojson": self._st_geomfromgeojson,
            # overlay operations
            "st_intersection": self._binary_constructive(overlay.intersection, "st_intersection"),
            "st_union": self._binary_constructive(overlay.union, "st_union"),
            "st_difference": self._binary_constructive(overlay.difference, "st_difference"),
            "st_symdifference": self._binary_constructive(
                overlay.sym_difference, "st_symdifference"
            ),
        }

    # -- constructors ---------------------------------------------------------
    def _st_geomfromtext(self, text: Any) -> Geometry | None:
        if text is None:
            return None
        return self._coerce_geometry(str(text))

    def _st_astext(self, geometry: Any) -> str | None:
        geom = self._coerce_geometry(geometry)
        return None if geom is None else geom.wkt

    def _st_asbinary(self, geometry: Any) -> str | None:
        """WKB of a geometry, returned as a hexadecimal string."""
        from repro.geometry.wkb import dump_hex_wkb

        geom = self._coerce_geometry(geometry)
        return None if geom is None else dump_hex_wkb(geom)

    def _st_geomfromwkb(self, data: Any) -> Geometry | None:
        """Decode hexadecimal WKB (or raw bytes) into a geometry."""
        from repro.geometry.cache import load_hex_wkb_interned
        from repro.geometry.wkb import load_wkb

        if data is None:
            return None
        if isinstance(data, (bytes, bytearray)):
            return load_wkb(bytes(data))
        return load_hex_wkb_interned(str(data))

    def _st_isempty(self, geometry: Any) -> bool | None:
        geom = self._coerce_geometry(geometry)
        return None if geom is None else geom.is_empty

    def _st_isvalid(self, geometry: Any) -> bool | None:
        if geometry is None:
            return None
        geom = geometry if isinstance(geometry, Geometry) else load_wkt(str(geometry))
        return is_valid(geom)

    def _st_dimension(self, geometry: Any) -> int | None:
        geom = self._coerce_geometry(geometry)
        if geom is None:
            return None
        return TopologyDescriptor(geom).dimension if not geom.is_empty else geom.dimension

    def _st_geometrytype(self, geometry: Any) -> str | None:
        geom = self._coerce_geometry(geometry)
        return None if geom is None else geom.geom_type

    # -- accessors ------------------------------------------------------------
    def _st_numgeometries(self, geometry: Any) -> int | None:
        geom = self._coerce_geometry(geometry)
        return None if geom is None else accessors.num_geometries(geom)

    def _st_geometryn(self, geometry: Any, index: Any) -> Geometry | None:
        geom = self._coerce_geometry(geometry)
        if geom is None or index is None:
            return None
        self._maybe_crash("st_geometryn", geom)
        return accessors.geometry_n(geom, int(index))

    def _st_numpoints(self, geometry: Any) -> int | None:
        geom = self._coerce_geometry(geometry)
        return None if geom is None else accessors.num_points(geom)

    def _st_pointn(self, geometry: Any, index: Any) -> Geometry | None:
        geom = self._coerce_geometry(geometry)
        if geom is None or index is None:
            return None
        return accessors.point_n(geom, int(index))

    def _st_x(self, geometry: Any):
        geom = self._coerce_geometry(geometry)
        if geom is None:
            return None
        value = accessors.x_of(geom)
        return None if value is None else float(value)

    def _st_y(self, geometry: Any):
        geom = self._coerce_geometry(geometry)
        if geom is None:
            return None
        value = accessors.y_of(geom)
        return None if value is None else float(value)

    # -- named predicates -------------------------------------------------------
    def _predicate(self, implementation, function_name: str):
        def evaluate(a: Any, b: Any) -> bool | None:
            geom_a = self._coerce_geometry(a)
            geom_b = self._coerce_geometry(b)
            if geom_a is None or geom_b is None:
                return None
            self._maybe_crash(function_name, geom_a, geom_b)
            override = self._empty_element_override(function_name, geom_a, geom_b)
            if override is not None:
                return override
            options = self._relate_options(function_name, geom_a, geom_b)
            return implementation(geom_a, geom_b, options)

        return evaluate

    def _st_within(self, a: Any, b: Any) -> bool | None:
        geom_a = self._coerce_geometry(a)
        geom_b = self._coerce_geometry(b)
        if geom_a is None or geom_b is None:
            return None
        self._maybe_crash("st_within", geom_a, geom_b)
        override = self._empty_element_override("st_within", geom_a, geom_b)
        if override is not None:
            return override
        options = self._relate_options("st_within", geom_a, geom_b)
        if self.fault_plan.has_mechanism(faults.MECH_WITHIN_LARGE_COORDS, "st_within"):
            if max(max_absolute_coordinate(geom_a), max_absolute_coordinate(geom_b)) >= 1000:
                self.fault_plan.record_trigger(faults.MECH_WITHIN_LARGE_COORDS, "st_within")
                return predicates.covered_by(geom_a, geom_b, options)
        return predicates.within(geom_a, geom_b, options)

    def _st_contains(self, a: Any, b: Any) -> bool | None:
        geom_a = self._coerce_geometry(a)
        geom_b = self._coerce_geometry(b)
        if geom_a is None or geom_b is None:
            return None
        self._maybe_crash("st_contains", geom_a, geom_b)
        override = self._empty_element_override("st_contains", geom_a, geom_b)
        if override is not None:
            return override
        options = self._relate_options("st_contains", geom_a, geom_b)
        if not self.dialect.geos_backed:
            return predicates.contains(geom_a, geom_b, options)
        # GEOS-backed systems evaluate containment through the prepared
        # geometry cache, the component of the Listing 7 bug.  Every fault
        # hook above runs before it on every evaluation, so the cache never
        # changes which injected bugs fire or how often they are recorded.
        if self.prepared_cache.buggy_collection_repeat:
            self.fault_plan.record_trigger(faults.MECH_PREPARED_COLLECTION_FALSE, "st_contains")
        return self.prepared_cache.evaluate(
            "st_contains",
            geom_a,
            geom_b,
            lambda: predicates.contains(geom_a, geom_b, options),
        )

    def _dimension_for(self, function_name: str, geometry: Geometry) -> int:
        if self.fault_plan.has_mechanism(faults.MECH_DIMENSION_FIRST_ELEMENT, function_name):
            if isinstance(geometry, GeometryCollection) and geometry.geoms:
                self.fault_plan.record_trigger(faults.MECH_DIMENSION_FIRST_ELEMENT, function_name)
                return TopologyDescriptor(_first_element(geometry)).dimension
        return TopologyDescriptor(geometry).dimension

    def _st_crosses(self, a: Any, b: Any) -> bool | None:
        geom_a = self._coerce_geometry(a)
        geom_b = self._coerce_geometry(b)
        if geom_a is None or geom_b is None:
            return None
        self._maybe_crash("st_crosses", geom_a, geom_b)
        override = self._empty_element_override("st_crosses", geom_a, geom_b)
        if override is not None:
            return override
        options = self._relate_options("st_crosses", geom_a, geom_b)
        if self.fault_plan.has_mechanism(faults.MECH_CROSSES_LARGE_COORDS, "st_crosses"):
            largest = max(max_absolute_coordinate(geom_a), max_absolute_coordinate(geom_b))
            if largest >= 100:
                self.fault_plan.record_trigger(faults.MECH_CROSSES_LARGE_COORDS, "st_crosses")
                return predicates.intersects(geom_a, geom_b, options)

        # The dimension lookup is a fault hook (it records the first-element
        # dimension bug).
        dim_a = self._dimension_for("st_crosses", geom_a)
        dim_b = self._dimension_for("st_crosses", geom_b)
        matrix = relate(geom_a, geom_b, options)
        if dim_a < dim_b:
            return matrix.matches("T*T******")
        if dim_a > dim_b:
            return matrix.matches("T*****T**")
        if dim_a == 1 and dim_b == 1:
            return matrix.matches("0********")
        return False

    def _st_overlaps(self, a: Any, b: Any) -> bool | None:
        geom_a = self._coerce_geometry(a)
        geom_b = self._coerce_geometry(b)
        if geom_a is None or geom_b is None:
            return None
        self._maybe_crash("st_overlaps", geom_a, geom_b)
        override = self._empty_element_override("st_overlaps", geom_a, geom_b)
        if override is not None:
            return override
        options = self._relate_options("st_overlaps", geom_a, geom_b)
        if self.fault_plan.has_mechanism(faults.MECH_OVERLAPS_ORIENTATION, "st_overlaps"):
            if self._landscape_extent(geom_a, geom_b):
                self.fault_plan.record_trigger(faults.MECH_OVERLAPS_ORIENTATION, "st_overlaps")
                return predicates.intersects(geom_a, geom_b, options) and not (
                    predicates.equals(geom_a, geom_b, options)
                )
        # Fault hook (dimension bug recording).
        dim_a = self._dimension_for("st_overlaps", geom_a)
        dim_b = self._dimension_for("st_overlaps", geom_b)
        if dim_a != dim_b:
            return False
        matrix = relate(geom_a, geom_b, options)
        if dim_a == 1:
            return matrix.matches("1*T***T**")
        return matrix.matches("T*T***T**")

    @staticmethod
    def _landscape_extent(a: Geometry, b: Geometry) -> bool:
        """True if the combined envelope is wider than it is tall.

        The buggy ST_Overlaps code path depends on the axis order of its
        internal sweep, so swapping X and Y (paper Listing 4) moves the same
        pair of geometries in or out of the buggy branch.
        """
        env_a = a.envelope()
        env_b = b.envelope()
        if env_a is None or env_b is None:
            return False
        combined = env_a.expanded(env_b)
        return (combined.max_x - combined.min_x) > (combined.max_y - combined.min_y)

    def _st_covers(self, a: Any, b: Any) -> bool | None:
        return self._covers_impl(a, b, swapped=False)

    def _st_coveredby(self, a: Any, b: Any) -> bool | None:
        return self._covers_impl(b, a, swapped=True)

    def _covers_impl(self, covering: Any, covered: Any, swapped: bool) -> bool | None:
        function_name = "st_coveredby" if swapped else "st_covers"
        geom_covering = self._coerce_geometry(covering)
        geom_covered = self._coerce_geometry(covered)
        if geom_covering is None or geom_covered is None:
            return None
        self._maybe_crash(function_name, geom_covering, geom_covered)
        override = self._empty_element_override(function_name, geom_covering, geom_covered)
        if override is not None:
            return override
        options = self._relate_options(function_name, geom_covering, geom_covered)
        if self.fault_plan.has_mechanism(faults.MECH_COVERS_PRECISION_LOSS, function_name):
            buggy = self._covers_float_path(geom_covering, geom_covered)
            if buggy is not None:
                self.fault_plan.record_trigger(faults.MECH_COVERS_PRECISION_LOSS, function_name)
                return buggy
        return predicates.covers(geom_covering, geom_covered, options)

    @staticmethod
    def _covers_float_path(covering: Geometry, covered: Geometry) -> bool | None:
        """The precision-losing fast path for line-covers-point (Listing 1).

        Returns None when the fast path does not apply (the correct code path
        is used instead), mirroring how the real bug only affects a specific
        argument shape.
        """
        descriptor = TopologyDescriptor(covering)
        if descriptor.dimension != 1 or not isinstance(covered, Point) or covered.is_empty:
            return None
        px, py = float(covered.x), float(covered.y)
        for start, end in descriptor.segments():
            ax, ay = float(start.x), float(start.y)
            bx, by = float(end.x), float(end.y)
            # Normalisation: displace the segment (and the point) to the origin.
            dx, dy = bx - ax, by - ay
            qx, qy = px - ax, py - ay
            cross = dx * qy - dy * qx
            if cross != 0.0:
                continue
            if min(0.0, dx) <= qx <= max(0.0, dx) and min(0.0, dy) <= qy <= max(0.0, dy):
                return True
        for point in descriptor.isolated_points():
            if float(point.x) == px and float(point.y) == py:
                return True
        return False

    def _st_relate(self, a: Any, b: Any, pattern: Any = None):
        geom_a = self._coerce_geometry(a)
        geom_b = self._coerce_geometry(b)
        if geom_a is None or geom_b is None:
            return None
        self._maybe_crash("st_relate", geom_a, geom_b)
        options = self._relate_options("st_relate", geom_a, geom_b)
        matrix = relate(geom_a, geom_b, options)
        if pattern is None:
            return str(matrix)
        return matrix.matches(str(pattern))

    # -- measures -----------------------------------------------------------
    def _distance_inputs(self, function_name: str, a: Geometry, b: Geometry):
        """Apply the EMPTY-element recursion bug to distance inputs."""
        if self.fault_plan.has_mechanism(faults.MECH_DISTANCE_EMPTY_RECURSION, function_name):
            if has_empty_element(a) or has_empty_element(b):
                self.fault_plan.record_trigger(faults.MECH_DISTANCE_EMPTY_RECURSION, function_name)
                return _first_element(a), _first_element(b)
        return a, b

    def _st_distance(self, a: Any, b: Any) -> float | None:
        geom_a = self._coerce_geometry(a)
        geom_b = self._coerce_geometry(b)
        if geom_a is None or geom_b is None:
            return None
        self._maybe_crash("st_distance", geom_a, geom_b)
        geom_a, geom_b = self._distance_inputs("st_distance", geom_a, geom_b)
        return measures.distance(geom_a, geom_b)

    def _st_dwithin(self, a: Any, b: Any, threshold: Any) -> bool | None:
        geom_a = self._coerce_geometry(a)
        geom_b = self._coerce_geometry(b)
        if geom_a is None or geom_b is None or threshold is None:
            return None
        self._maybe_crash("st_dwithin", geom_a, geom_b)
        geom_a, geom_b = self._distance_inputs("st_dwithin", geom_a, geom_b)
        return measures.dwithin(geom_a, geom_b, threshold)

    def _st_dfullywithin(self, a: Any, b: Any, threshold: Any) -> bool | None:
        geom_a = self._coerce_geometry(a)
        geom_b = self._coerce_geometry(b)
        if geom_a is None or geom_b is None or threshold is None:
            return None
        self._maybe_crash("st_dfullywithin", geom_a, geom_b)
        if self.fault_plan.has_mechanism(
            faults.MECH_DFULLYWITHIN_WRONG_DEFINITION, "st_dfullywithin"
        ):
            self.fault_plan.record_trigger(
                faults.MECH_DFULLYWITHIN_WRONG_DEFINITION, "st_dfullywithin"
            )
            near = measures.dwithin(geom_a, geom_b, threshold)
            if near is None:
                return None
            return near and not predicates.intersects(geom_a, geom_b)
        return measures.dfullywithin(geom_a, geom_b, threshold)

    # -- editing / constructive ----------------------------------------------
    def _unary_constructive(self, implementation, function_name: str):
        def evaluate(geometry: Any) -> Geometry | None:
            geom = self._coerce_geometry(geometry)
            if geom is None:
                return None
            self._maybe_crash(function_name, geom)
            return implementation(geom)

        return evaluate

    def _st_setpoint(self, geometry: Any, index: Any, point: Any) -> Geometry | None:
        geom = self._coerce_geometry(geometry)
        new_point = self._coerce_geometry(point)
        if geom is None or index is None or new_point is None:
            return None
        index_value = int(index)
        if self.fault_plan.has_mechanism(faults.MECH_FUNCTION_CRASH, "st_setpoint"):
            from repro.geometry.model import LineString

            if isinstance(geom, LineString) and not (
                -len(geom.points) <= index_value < len(geom.points)
            ):
                self.fault_plan.record_trigger(faults.MECH_FUNCTION_CRASH, "st_setpoint")
                raise EngineCrash(
                    f"{self.dialect.label} terminated while evaluating ST_SetPoint",
                    bug_id="postgis-crash-setpoint-out-of-range",
                )
        return constructive.set_point(geom, index_value, new_point)

    def _st_collectionextract(self, geometry: Any, dimension: Any) -> Geometry | None:
        geom = self._coerce_geometry(geometry)
        if geom is None or dimension is None:
            return None
        self._maybe_crash("st_collectionextract", geom)
        return constructive.collection_extract(geom, int(dimension))

    def _st_collect(self, *geometries: Any) -> Geometry | None:
        coerced = [self._coerce_geometry(g) for g in geometries]
        if any(g is None for g in coerced):
            return None
        return constructive.collect(list(coerced))

    def _st_translate(self, geometry: Any, dx: Any, dy: Any) -> Geometry | None:
        geom = self._coerce_geometry(geometry)
        if geom is None or dx is None or dy is None:
            return None
        return affine_ops.translate(geom, dx, dy)

    def _st_scale(self, geometry: Any, fx: Any, fy: Any) -> Geometry | None:
        geom = self._coerce_geometry(geometry)
        if geom is None or fx is None or fy is None:
            return None
        return affine_ops.scale(geom, fx, fy)

    def _st_affine(self, geometry: Any, a: Any, b: Any, d: Any, e: Any, xoff: Any = 0, yoff: Any = 0):
        geom = self._coerce_geometry(geometry)
        if geom is None or None in (a, b, d, e, xoff, yoff):
            return None
        return affine_ops.affine_transform(geom, a, b, d, e, xoff, yoff)

    def _st_makeenvelope(self, min_x: Any, min_y: Any, max_x: Any, max_y: Any) -> Geometry | None:
        if None in (min_x, min_y, max_x, max_y):
            return None
        from repro.geometry.model import Envelope

        return constructive.make_envelope(
            Envelope(Fraction(min_x), Fraction(min_y), Fraction(max_x), Fraction(max_y))
        )

    # -- accessors / measures / linear editing --------------------------------
    def _simple_unary(self, implementation):
        """Wrap a pure accessor that takes one geometry and returns a scalar
        or geometry (no fault hooks)."""

        def evaluate(geometry: Any) -> Any:
            geom = self._coerce_geometry(geometry)
            if geom is None:
                return None
            return implementation(geom)

        return evaluate

    def _binary_constructive(self, implementation, function_name: str):
        """Wrap a constructive function that takes two geometries."""

        def evaluate(a: Any, b: Any) -> Geometry | None:
            geom_a = self._coerce_geometry(a)
            geom_b = self._coerce_geometry(b)
            if geom_a is None or geom_b is None:
                return None
            self._maybe_crash(function_name, geom_a, geom_b)
            return implementation(geom_a, geom_b)

        return evaluate

    def _st_interiorringn(self, geometry: Any, index: Any) -> Geometry | None:
        geom = self._coerce_geometry(geometry)
        if geom is None or index is None:
            return None
        return accessors.interior_ring_n(geom, int(index))

    def _st_area(self, geometry: Any) -> float | None:
        geom = self._coerce_geometry(geometry)
        return None if geom is None else float(metrics.area(geom))

    def _st_length(self, geometry: Any) -> float | None:
        geom = self._coerce_geometry(geometry)
        return None if geom is None else metrics.length(geom)

    def _st_perimeter(self, geometry: Any) -> float | None:
        geom = self._coerce_geometry(geometry)
        return None if geom is None else metrics.perimeter(geom)

    def _st_azimuth(self, a: Any, b: Any) -> float | None:
        geom_a = self._coerce_geometry(a)
        geom_b = self._coerce_geometry(b)
        if geom_a is None or geom_b is None:
            return None
        return metrics.azimuth(geom_a, geom_b)

    def _st_maxdistance(self, a: Any, b: Any) -> float | None:
        geom_a = self._coerce_geometry(a)
        geom_b = self._coerce_geometry(b)
        if geom_a is None or geom_b is None:
            return None
        self._maybe_crash("st_maxdistance", geom_a, geom_b)
        geom_a, geom_b = self._distance_inputs("st_maxdistance", geom_a, geom_b)
        return measures.max_distance(geom_a, geom_b)

    def _st_simplify(self, geometry: Any, tolerance: Any) -> Geometry | None:
        geom = self._coerce_geometry(geometry)
        if geom is None or tolerance is None:
            return None
        self._maybe_crash("st_simplify", geom)
        return linear.simplify(geom, tolerance)

    def _st_segmentize(self, geometry: Any, max_length: Any) -> Geometry | None:
        geom = self._coerce_geometry(geometry)
        if geom is None or max_length is None:
            return None
        self._maybe_crash("st_segmentize", geom)
        return linear.segmentize(geom, max_length)

    def _st_addpoint(self, line: Any, point: Any, position: Any = -1) -> Geometry | None:
        geom_line = self._coerce_geometry(line)
        geom_point = self._coerce_geometry(point)
        if geom_line is None or geom_point is None or position is None:
            return None
        return linear.add_point(geom_line, geom_point, int(position))

    def _st_removepoint(self, line: Any, position: Any) -> Geometry | None:
        geom_line = self._coerce_geometry(line)
        if geom_line is None or position is None:
            return None
        return linear.remove_point(geom_line, int(position))

    def _st_snap(self, geometry: Any, reference: Any, tolerance: Any) -> Geometry | None:
        geom = self._coerce_geometry(geometry)
        ref = self._coerce_geometry(reference)
        if geom is None or ref is None or tolerance is None:
            return None
        self._maybe_crash("st_snap", geom, ref)
        return linear.snap(geom, ref, tolerance)

    # -- GeoJSON conversion ----------------------------------------------------
    def _st_asgeojson(self, geometry: Any) -> str | None:
        from repro.geometry.geojson import dump_geojson

        geom = self._coerce_geometry(geometry)
        return None if geom is None else dump_geojson(geom)

    def _st_geomfromgeojson(self, document: Any) -> Geometry | None:
        from repro.baselines.format_differential import read_geojson_as

        if document is None:
            return None
        # The conversion layer is dialect-specific: the emulated DuckDB
        # Spatial reader reproduces the released GDAL behaviour the paper
        # reports (POLYGON EMPTY documents read as NULL).
        return read_geojson_as(self.dialect.name, str(document))
