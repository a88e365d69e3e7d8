"""Fault injection: the catalog of bugs Spatter is expected to find.

The paper reports 35 bugs (34 unique plus one duplicate) across GEOS,
PostGIS, DuckDB Spatial, MySQL and SQL Server (Table 2), classifies the 30
confirmed/fixed ones into logic and crash bugs (Table 3), and analyses which
oracles could have found the 20 confirmed logic bugs (Table 4).  Because the
real systems (and their historical buggy releases) are not available in this
environment, this module defines an *injected* bug catalog whose composition
matches the paper's Table 2 exactly: same per-system counts, same
fixed/confirmed/unconfirmed/duplicate split, and the same logic/crash split
for the confirmed bugs.

Each :class:`InjectedBug` couples bookkeeping metadata (used by the Table 2/3
benchmarks) with a behavioural *mechanism* identifier.  The SQL function
registry consults the active :class:`FaultPlan` at the code paths each
mechanism perturbs, so enabling a bug actually changes query results (logic
bugs) or raises :class:`~repro.errors.EngineCrash` (crash bugs).  A bug's
``detectable_by`` set records which baseline oracles can, in principle,
observe it — the ground truth for the Table 4 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

# Bug kinds.
LOGIC = "logic"
CRASH = "crash"

# Report statuses (Table 2 columns).
FIXED = "fixed"
CONFIRMED = "confirmed"
UNCONFIRMED = "unconfirmed"
DUPLICATE = "duplicate"

# Oracles (Table 4 columns).
ORACLE_AEI = "aei"
ORACLE_DIFF_POSTGIS_MYSQL = "diff_postgis_mysql"
ORACLE_DIFF_POSTGIS_DUCKDB = "diff_postgis_duckdb"
ORACLE_INDEX = "index"
ORACLE_TLP = "tlp"

# Components (where the bug lives).
COMPONENT_GEOS = "GEOS"
COMPONENT_POSTGIS = "PostGIS"
COMPONENT_DUCKDB = "DuckDB Spatial"
COMPONENT_MYSQL = "MySQL"
COMPONENT_SQLSERVER = "SQL Server"
COMPONENT_JTS = "JTS"


@dataclass(frozen=True)
class InjectedBug:
    """One reported bug: metadata for the evaluation plus its mechanism."""

    bug_id: str
    component: str
    kind: str
    status: str
    mechanism: str
    summary: str
    functions: tuple[str, ...] = ()
    detectable_by: frozenset = field(default_factory=frozenset)
    duplicate_of: str | None = None

    def is_unique(self) -> bool:
        """True if this report is not a duplicate of another one."""
        return self.status != DUPLICATE


def _bug(
    bug_id: str,
    component: str,
    kind: str,
    status: str,
    mechanism: str,
    summary: str,
    functions: Iterable[str] = (),
    detectable_by: Iterable[str] = (ORACLE_AEI,),
    duplicate_of: str | None = None,
) -> InjectedBug:
    return InjectedBug(
        bug_id=bug_id,
        component=component,
        kind=kind,
        status=status,
        mechanism=mechanism,
        summary=summary,
        functions=tuple(f.lower() for f in functions),
        detectable_by=frozenset(detectable_by),
        duplicate_of=duplicate_of,
    )


# --------------------------------------------------------------------------
# Mechanisms.  Each mechanism name is referenced by the registry / executor.
# --------------------------------------------------------------------------
MECH_EMPTY_ELEMENT_FALSE = "empty_element_false"
MECH_EMPTY_ELEMENT_CRASH = "empty_element_crash"
MECH_LAST_ONE_WINS_BOUNDARY = "last_one_wins_boundary"
MECH_DIMENSION_FIRST_ELEMENT = "dimension_first_element"
MECH_PREPARED_COLLECTION_FALSE = "prepared_collection_false"
MECH_COVERS_PRECISION_LOSS = "covers_precision_loss"
MECH_INDEX_DROPS_EMPTY = "index_drops_empty"
MECH_DFULLYWITHIN_WRONG_DEFINITION = "dfullywithin_wrong_definition"
MECH_DISTANCE_EMPTY_RECURSION = "distance_empty_recursion"
MECH_CROSSES_LARGE_COORDS = "crosses_large_coords"
MECH_OVERLAPS_ORIENTATION = "overlaps_orientation"
MECH_WITHIN_LARGE_COORDS = "within_large_coords"
MECH_FUNCTION_CRASH = "function_crash"
MECH_NONE = "no_behaviour"

# Mechanisms that never alter the evaluation of a function call: MECH_NONE is
# a recorded-but-inert placeholder and MECH_INDEX_DROPS_EMPTY only corrupts
# user-created spatial indexes (the executor consults it exclusively in
# ``_drop_empty_from_index``; the batch prefilter's envelope blocks always
# keep EMPTY rows).  ``FaultPlan.influences_evaluation`` skips these so the
# prefilter gate does not disable itself for faults it cannot interact with.
NON_EVALUATION_MECHANISMS = (MECH_NONE, MECH_INDEX_DROPS_EMPTY)


# --------------------------------------------------------------------------
# The catalog.  Counts per component/status/kind match the paper's Tables 2-3:
#   GEOS:    12 reports (4 fixed, 8 confirmed)   -> 1 fixed logic, 8 confirmed
#            logic, 3 fixed crash
#   PostGIS: 11 reports (8 fixed, 1 confirmed, 1 unconfirmed, 1 duplicate)
#            -> 6 fixed logic, 1 confirmed logic, 2 fixed crash
#   DuckDB:   6 reports (5 fixed, 1 unconfirmed) -> 5 fixed crash
#   MySQL:    4 reports (1 fixed, 3 confirmed)   -> 1 fixed logic, 3 confirmed logic
#   SQL Server: 2 unconfirmed reports
#   JTS:      2 fixed logic bugs (mentioned in Table 3's caption, not listed)
# --------------------------------------------------------------------------
BUG_CATALOG: tuple[InjectedBug, ...] = (
    # ----------------------------------------------------------------- GEOS
    _bug(
        "geos-distance-empty-recursion",
        COMPONENT_GEOS, LOGIC, FIXED, MECH_DISTANCE_EMPTY_RECURSION,
        "ST_Distance recurses incorrectly over MULTI geometries containing "
        "EMPTY elements and returns the distance to the wrong element "
        "(paper Listing 5).",
        functions=("st_distance", "st_dwithin"),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "geos-mixed-boundary-last-one-wins",
        COMPONENT_GEOS, LOGIC, CONFIRMED, MECH_LAST_ONE_WINS_BOUNDARY,
        "GEOMETRYCOLLECTION boundaries use a last-one-wins strategy, so a "
        "point interior to an earlier element is misclassified as boundary "
        "(paper Listing 6).",
        functions=("st_within", "st_contains", "st_covers", "st_coveredby", "st_touches", "st_relate"),
        detectable_by=(ORACLE_AEI, ORACLE_DIFF_POSTGIS_MYSQL),
    ),
    _bug(
        "geos-prepared-contains-collection",
        COMPONENT_GEOS, LOGIC, CONFIRMED, MECH_PREPARED_COLLECTION_FALSE,
        "The prepared-geometry fast path of ST_Contains mishandles "
        "GEOMETRYCOLLECTION arguments and drops matching pairs "
        "(paper Listing 7).",
        functions=("st_contains",),
        detectable_by=(ORACLE_AEI, ORACLE_DIFF_POSTGIS_MYSQL),
    ),
    _bug(
        "geos-collection-dimension-first-element",
        COMPONENT_GEOS, LOGIC, CONFIRMED, MECH_DIMENSION_FIRST_ELEMENT,
        "The dimension of a MIXED geometry is taken from its first element "
        "instead of the maximum over elements, flipping ST_Crosses and "
        "ST_Overlaps results.",
        functions=("st_crosses", "st_overlaps"),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "geos-empty-element-intersects",
        COMPONENT_GEOS, LOGIC, CONFIRMED, MECH_EMPTY_ELEMENT_FALSE,
        "ST_Intersects returns false whenever either MULTI input contains an "
        "EMPTY element, regardless of the remaining elements.",
        functions=("st_intersects",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "geos-empty-element-touches",
        COMPONENT_GEOS, LOGIC, CONFIRMED, MECH_EMPTY_ELEMENT_FALSE,
        "ST_Touches returns false for MULTI inputs containing EMPTY elements.",
        functions=("st_touches",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "geos-empty-element-equals",
        COMPONENT_GEOS, LOGIC, CONFIRMED, MECH_EMPTY_ELEMENT_FALSE,
        "ST_Equals returns false when comparing geometries that contain "
        "EMPTY elements even if the non-empty content is identical.",
        functions=("st_equals",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "geos-empty-element-coveredby",
        COMPONENT_GEOS, LOGIC, CONFIRMED, MECH_EMPTY_ELEMENT_FALSE,
        "ST_CoveredBy returns false for MULTI inputs containing EMPTY "
        "elements.",
        functions=("st_coveredby",),
        detectable_by=(ORACLE_AEI, ORACLE_DIFF_POSTGIS_MYSQL),
    ),
    _bug(
        "geos-empty-element-disjoint",
        COMPONENT_GEOS, LOGIC, CONFIRMED, MECH_EMPTY_ELEMENT_FALSE,
        "ST_Disjoint mis-reports MULTI inputs containing EMPTY elements as "
        "disjoint from everything.",
        functions=("st_disjoint",),
        detectable_by=(ORACLE_AEI, ORACLE_DIFF_POSTGIS_DUCKDB),
    ),
    _bug(
        "geos-crash-relate-nested-empty-collection",
        COMPONENT_GEOS, CRASH, FIXED, MECH_EMPTY_ELEMENT_CRASH,
        "ST_Relate crashes on nested GEOMETRYCOLLECTIONs whose innermost "
        "element is EMPTY.",
        functions=("st_relate",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "geos-crash-touches-empty-collection",
        COMPONENT_GEOS, CRASH, FIXED, MECH_FUNCTION_CRASH,
        "ST_Touches crashes when both inputs are GEOMETRYCOLLECTIONs and one "
        "contains an EMPTY element.",
        functions=("st_touches",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "geos-crash-convexhull-empty-collection",
        COMPONENT_GEOS, CRASH, FIXED, MECH_FUNCTION_CRASH,
        "ST_ConvexHull crashes on a GEOMETRYCOLLECTION containing only EMPTY "
        "elements.",
        functions=("st_convexhull",),
        detectable_by=(ORACLE_AEI,),
    ),
    # --------------------------------------------------------------- PostGIS
    _bug(
        "postgis-covers-precision-loss",
        COMPONENT_POSTGIS, LOGIC, FIXED, MECH_COVERS_PRECISION_LOSS,
        "ST_Covers loses precision when normalising vertices away from the "
        "origin and misses points exactly on a segment (paper Listing 1).",
        functions=("st_covers", "st_coveredby"),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "postgis-gist-index-drops-empty",
        COMPONENT_POSTGIS, LOGIC, FIXED, MECH_INDEX_DROPS_EMPTY,
        "The GiST index silently drops EMPTY geometries, so index scans miss "
        "rows a sequential scan returns (paper Listing 8).",
        functions=(),
        detectable_by=(ORACLE_AEI, ORACLE_INDEX, ORACLE_TLP),
    ),
    _bug(
        "postgis-dfullywithin-wrong-definition",
        COMPONENT_POSTGIS, LOGIC, CONFIRMED, MECH_DFULLYWITHIN_WRONG_DEFINITION,
        "ST_DFullyWithin evaluates a definition different from the "
        "documented one and rejects intersecting geometries "
        "(paper Listing 9).",
        functions=("st_dfullywithin",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "postgis-seqscan-empty-equality",
        COMPONENT_POSTGIS, LOGIC, FIXED, MECH_INDEX_DROPS_EMPTY,
        "The ~= (same-as) operator disagrees between index and sequential "
        "scans for EMPTY geometries.",
        functions=("~=",),
        detectable_by=(ORACLE_AEI, ORACLE_INDEX),
        duplicate_of=None,
    ),
    _bug(
        "postgis-covers-multipoint-empty",
        COMPONENT_POSTGIS, LOGIC, FIXED, MECH_EMPTY_ELEMENT_FALSE,
        "ST_Covers returns false when the covered MULTIPOINT contains an "
        "EMPTY element.",
        functions=("st_covers",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "postgis-contains-multipolygon-empty",
        COMPONENT_POSTGIS, LOGIC, FIXED, MECH_EMPTY_ELEMENT_FALSE,
        "ST_Contains returns false when the containing MULTIPOLYGON has an "
        "EMPTY element.",
        functions=("st_contains",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "postgis-dwithin-empty-element",
        COMPONENT_POSTGIS, LOGIC, FIXED, MECH_DISTANCE_EMPTY_RECURSION,
        "ST_DWithin inherits the EMPTY-element distance recursion error.",
        functions=("st_dwithin",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "postgis-crash-dumprings-empty",
        COMPONENT_POSTGIS, CRASH, FIXED, MECH_FUNCTION_CRASH,
        "ST_DumpRings crashes on POLYGON EMPTY.",
        functions=("st_dumprings",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "postgis-crash-setpoint-out-of-range",
        COMPONENT_POSTGIS, CRASH, FIXED, MECH_FUNCTION_CRASH,
        "ST_SetPoint crashes instead of erroring for out-of-range vertex "
        "indexes.",
        functions=("st_setpoint",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "postgis-within-collection-unconfirmed",
        COMPONENT_POSTGIS, LOGIC, UNCONFIRMED, MECH_LAST_ONE_WINS_BOUNDARY,
        "ST_Within disagreement for nested collections, awaiting developer "
        "confirmation.",
        functions=("st_within",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "postgis-covers-precision-duplicate",
        COMPONENT_POSTGIS, LOGIC, DUPLICATE, MECH_COVERS_PRECISION_LOSS,
        "A second covers-precision report with the same root cause as "
        "postgis-covers-precision-loss.",
        functions=("st_covers",),
        detectable_by=(ORACLE_AEI,),
        duplicate_of="postgis-covers-precision-loss",
    ),
    # ---------------------------------------------------------------- DuckDB
    _bug(
        "duckdb-crash-collectionextract-mixed",
        COMPONENT_DUCKDB, CRASH, FIXED, MECH_FUNCTION_CRASH,
        "ST_CollectionExtract crashes on nested MIXED geometries.",
        functions=("st_collectionextract",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "duckdb-crash-boundary-nested-collection",
        COMPONENT_DUCKDB, CRASH, FIXED, MECH_FUNCTION_CRASH,
        "ST_Boundary crashes on nested GEOMETRYCOLLECTIONs.",
        functions=("st_boundary",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "duckdb-crash-polygonize-degenerate-ring",
        COMPONENT_DUCKDB, CRASH, FIXED, MECH_FUNCTION_CRASH,
        "ST_Polygonize crashes on degenerate (zero-area) closed rings.",
        functions=("st_polygonize",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "duckdb-crash-forcepolygoncw-collection",
        COMPONENT_DUCKDB, CRASH, FIXED, MECH_FUNCTION_CRASH,
        "ST_ForcePolygonCW crashes when applied to a GEOMETRYCOLLECTION.",
        functions=("st_forcepolygoncw",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "duckdb-crash-geometryn-empty",
        COMPONENT_DUCKDB, CRASH, FIXED, MECH_FUNCTION_CRASH,
        "ST_GeometryN crashes on EMPTY collections instead of returning NULL.",
        functions=("st_geometryn",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "duckdb-geojson-empty-polygon-unconfirmed",
        COMPONENT_DUCKDB, LOGIC, UNCONFIRMED, MECH_NONE,
        "GeoJSON import of an empty polygon yields NULL instead of POLYGON "
        "EMPTY (found by differential testing, outside AEI's scope).",
        functions=(),
        detectable_by=(ORACLE_DIFF_POSTGIS_DUCKDB,),
    ),
    # ----------------------------------------------------------------- MySQL
    _bug(
        "mysql-crosses-large-coordinates",
        COMPONENT_MYSQL, LOGIC, CONFIRMED, MECH_CROSSES_LARGE_COORDS,
        "ST_Crosses reports a crossing for a geometry and a collection "
        "containing it once coordinates are scaled up (paper Listing 3).",
        functions=("st_crosses",),
        detectable_by=(ORACLE_AEI, ORACLE_DIFF_POSTGIS_MYSQL),
    ),
    _bug(
        "mysql-overlaps-axis-order",
        COMPONENT_MYSQL, LOGIC, CONFIRMED, MECH_OVERLAPS_ORIENTATION,
        "ST_Overlaps changes its verdict after swapping the X and Y axes "
        "(paper Listing 4).",
        functions=("st_overlaps",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "mysql-within-large-coordinates",
        COMPONENT_MYSQL, LOGIC, CONFIRMED, MECH_WITHIN_LARGE_COORDS,
        "ST_Within flips its result for far-from-origin coordinates.",
        functions=("st_within",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "mysql-touches-empty-element",
        COMPONENT_MYSQL, LOGIC, FIXED, MECH_EMPTY_ELEMENT_FALSE,
        "ST_Touches mishandles MULTI geometries with EMPTY elements; fixed "
        "in the following release.",
        functions=("st_touches",),
        detectable_by=(ORACLE_AEI, ORACLE_INDEX, ORACLE_TLP),
    ),
    # ------------------------------------------------------------ SQL Server
    _bug(
        "sqlserver-stwithin-collection-unconfirmed",
        COMPONENT_SQLSERVER, LOGIC, UNCONFIRMED, MECH_LAST_ONE_WINS_BOUNDARY,
        "STWithin disagreement on collections; no developer response.",
        functions=("st_within",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "sqlserver-stoverlaps-axis-unconfirmed",
        COMPONENT_SQLSERVER, LOGIC, UNCONFIRMED, MECH_OVERLAPS_ORIENTATION,
        "STOverlaps changes after axis swapping; no developer response.",
        functions=("st_overlaps",),
        detectable_by=(ORACLE_AEI,),
    ),
    # -------------------------------------------------------------------- JTS
    _bug(
        "jts-distance-empty-recursion",
        COMPONENT_JTS, LOGIC, FIXED, MECH_NONE,
        "The JTS port of the distance recursion error (not an SDBMS; "
        "excluded from Table 3, mirroring the paper's caption).",
        functions=("st_distance",),
        detectable_by=(ORACLE_AEI,),
    ),
    _bug(
        "jts-boundary-last-one-wins",
        COMPONENT_JTS, LOGIC, FIXED, MECH_NONE,
        "The JTS port of the last-one-wins boundary strategy (not an SDBMS; "
        "excluded from Table 3).",
        functions=("st_within",),
        detectable_by=(ORACLE_AEI,),
    ),
)


def bugs_for_component(component: str) -> list[InjectedBug]:
    """All catalog entries reported against one component."""
    return [bug for bug in BUG_CATALOG if bug.component == component]


def bug_by_id(bug_id: str) -> InjectedBug:
    """Look up a catalog entry by id."""
    for bug in BUG_CATALOG:
        if bug.bug_id == bug_id:
            return bug
    raise KeyError(f"unknown bug id {bug_id!r}")


class FaultPlan:
    """The set of injected bugs active in one engine instance.

    The plan also records which bugs were *triggered* during execution, which
    the campaign runner uses for ground-truth deduplication.
    """

    def __init__(self, active_bugs: Iterable[InjectedBug] = ()):
        self.active_bugs: list[InjectedBug] = list(active_bugs)
        self.triggered: list[str] = []

    @classmethod
    def from_ids(cls, bug_ids: Iterable[str]) -> "FaultPlan":
        return cls(bug_by_id(bug_id) for bug_id in bug_ids)

    @classmethod
    def none(cls) -> "FaultPlan":
        """A plan with no active bugs (a fully fixed engine)."""
        return cls(())

    def active_for_function(self, function_name: str) -> list[InjectedBug]:
        """Active bugs that target the given SQL function."""
        name = function_name.lower()
        return [bug for bug in self.active_bugs if name in bug.functions]

    def has_mechanism(self, mechanism: str, function_name: str | None = None) -> bool:
        """True if any active bug uses the mechanism (optionally per function)."""
        for bug in self.active_bugs:
            if bug.mechanism != mechanism:
                continue
            if function_name is None or not bug.functions:
                return True
            if function_name.lower() in bug.functions:
                return True
        return False

    def influences_function(self, function_name: str) -> bool:
        """True if any active bug can perturb (or crash) evaluations of the
        given SQL function or operator.

        The execution fast path uses this as its safety gate: an envelope
        prefilter may only skip candidate pairs of a predicate whose
        evaluation no active bug can touch, so that skipping an evaluation
        can neither change a result nor suppress a trigger/crash the slow
        path would have produced.  Bugs with an empty ``functions`` tuple
        target non-evaluation machinery (index construction, format
        conversion) — except for crash bugs, which could fire anywhere, so
        those conservatively influence everything.
        """
        name = function_name.lower()
        for bug in self.active_bugs:
            if bug.functions:
                if name in bug.functions:
                    return True
            elif bug.kind == CRASH:
                return True
        return False

    def influences_evaluation(self, function_name: str) -> bool:
        """Like :meth:`influences_function`, but restricted to bugs that can
        perturb the *evaluation* of the function.

        Bugs whose mechanism never touches evaluation results are excluded:
        ``MECH_NONE`` bugs are recorded-but-inert placeholders, and
        ``MECH_INDEX_DROPS_EMPTY`` corrupts only user-created spatial indexes
        — the executor consults it solely in ``_drop_empty_from_index`` while
        the batch prefilter's envelope blocks always retain EMPTY rows.  The
        prefilter gate therefore may stay open when the only fault matching
        a predicate is one of these: skipping a candidate evaluation cannot
        change a result nor suppress a trigger.
        """
        name = function_name.lower()
        for bug in self.active_bugs:
            if bug.mechanism in NON_EVALUATION_MECHANISMS:
                continue
            if bug.functions:
                if name in bug.functions:
                    return True
            elif bug.kind == CRASH:
                return True
        return False

    def record_trigger(self, mechanism: str, function_name: str | None = None) -> list[str]:
        """Record that a mechanism fired; returns the triggered bug ids."""
        fired = []
        for bug in self.active_bugs:
            if bug.mechanism != mechanism:
                continue
            if function_name is not None and bug.functions and function_name.lower() not in bug.functions:
                continue
            fired.append(bug.bug_id)
            self.triggered.append(bug.bug_id)
        return fired

    def __contains__(self, bug_id: str) -> bool:
        return any(bug.bug_id == bug_id for bug in self.active_bugs)

    def __len__(self) -> int:
        return len(self.active_bugs)
