"""Backend protocol units: registry, capabilities, result normalization.

The normalization rules (row ordering, NULL vs empty-geometry, float
tolerance) are what make cross-backend comparison sound — a divergence
finding is only meaningful if representational differences between engines
cannot produce one.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from repro.backends import (
    Backend,
    BackendSession,
    Capabilities,
    InProcessBackend,
    SQLiteBackend,
    available_backends,
    backend_description,
    create_backend,
    is_ordered_query,
    normalize_rows,
    normalize_value,
    register_backend,
    rows_equivalent,
    values_equivalent,
)
from repro.core.campaign import CampaignConfig
from repro.engine.database import SpatialDatabase
from repro.engine.dialects import get_dialect
from repro.geometry import load_wkt


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert "inprocess" in available_backends()
        assert "sqlite" in available_backends()

    def test_create_backend_by_name(self):
        backend = create_backend("inprocess", dialect="mysql")
        assert isinstance(backend, InProcessBackend)
        assert backend.capabilities().dialect.name == "mysql"
        assert isinstance(create_backend("sqlite"), SQLiteBackend)

    @pytest.mark.parametrize("name", ["inprocess", "sqlite"])
    def test_create_backend_passes_dialect_and_bug_ids_to_the_session(self, name):
        bug_ids = ("mysql-crosses-large-coordinates",)
        session = create_backend(name, dialect="mysql", bug_ids=list(bug_ids)).open_session()
        assert session.dialect.name == "mysql"
        assert tuple(bug.bug_id for bug in session.fault_plan.active_bugs) == bug_ids

    def test_create_backend_name_is_case_insensitive(self):
        assert isinstance(create_backend("SQLite"), SQLiteBackend)
        assert isinstance(create_backend(" INPROCESS "), InProcessBackend)

    def test_unknown_backend_raises_with_catalog(self):
        with pytest.raises(KeyError, match="inprocess"):
            create_backend("postgres-over-wire")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("inprocess", lambda **_: None)

    def test_descriptions_exist(self):
        for name in available_backends():
            assert backend_description(name)

    def test_campaign_config_with_backend_spec_pickles(self):
        # Backends cross the parallel orchestrator's process boundary as
        # names on the config, never as live objects.
        config = CampaignConfig(backend="sqlite", compare_backend="inprocess")
        clone = pickle.loads(pickle.dumps(config))
        assert clone.backend == "sqlite"
        assert clone.compare_backend == "inprocess"


class TestCapabilities:
    def test_in_process_capabilities_mirror_dialect(self):
        capabilities = InProcessBackend(dialect="postgis").capabilities()
        dialect = get_dialect("postgis")
        assert capabilities.supports_function("st_dfullywithin")
        assert capabilities.topological_predicates() == dialect.topological_predicates()
        assert capabilities.editing_functions() == dialect.editing_functions()
        assert capabilities.supports_operator("~=")
        assert capabilities.name == "postgis"
        assert capabilities.supports_fault_injection
        assert capabilities.supports_planner_toggles

    def test_sqlite_capabilities_declare_quirks(self):
        capabilities = SQLiteBackend(dialect="postgis").capabilities()
        assert not capabilities.supports_geometry_cast
        assert not capabilities.supports_planner_toggles
        assert not capabilities.supports_auto_indexes
        assert "no-::geometry-cast" in capabilities.summary()

    @pytest.mark.parametrize("fast_path, supported", [(True, True), (False, True), (True, False)])
    def test_oracle_auto_indexes_follow_session_and_capabilities(self, fast_path, supported):
        # No oracle-level switch: a fast_path=False session (the Index
        # oracle's) or a backend without auto-index support gets none.
        from repro.core.generator import DatabaseSpec
        from repro.core.oracle import AEIOracle
        from repro.engine.database import connect

        capabilities = Capabilities(
            backend="test", dialect=get_dialect("postgis"), supports_auto_indexes=supported
        )
        oracle = AEIOracle(lambda: connect("postgis", fast_path=fast_path), capabilities=capabilities)
        database = oracle.materialise(DatabaseSpec(tables={"t1": ["POINT(1 1)"], "t2": ["POINT(2 2)"]}))
        indexed = [sorted(table.auto_indexes) for table in database.state.tables.values()]
        assert indexed == ([["g"], ["g"]] if fast_path and supported else [[], []])

    def test_scenarios_resolve_against_capabilities(self):
        from repro.scenarios import applicable_scenarios, resolve_scenarios

        capabilities = Capabilities.from_dialect("postgis")
        dialect = get_dialect("postgis")
        assert [s.name for s in applicable_scenarios(capabilities)] == [
            s.name for s in applicable_scenarios(dialect)
        ]
        assert [s.name for s in resolve_scenarios(None, capabilities)] == [
            s.name for s in resolve_scenarios(None, dialect)
        ]

    def test_inapplicable_scenario_still_raises_through_capabilities(self):
        from repro.scenarios import resolve_scenarios

        capabilities = Capabilities.from_dialect("sqlserver")
        with pytest.raises(ValueError, match="not applicable"):
            resolve_scenarios(("distance-join",), capabilities)


class TestSessionProtocol:
    def test_spatial_database_is_a_backend_session(self):
        session = InProcessBackend().open_session()
        assert isinstance(session, SpatialDatabase)
        assert isinstance(session, BackendSession)

    def test_sqlite_session_satisfies_the_protocol(self):
        session = SQLiteBackend().open_session()
        try:
            assert isinstance(session, BackendSession)
            assert session.build_auto_indexes() == 0
            assert set(session.cache_stats()) == {
                "prepared_hits",
                "prepared_misses",
                "prepared_evictions",
            }
        finally:
            session.close()

    def test_base_backend_is_abstract(self):
        backend = Backend()
        with pytest.raises(NotImplementedError):
            backend.capabilities()
        with pytest.raises(NotImplementedError):
            backend.open_session()


class _ReadOnlyBackend(Backend):
    """A test adapter that declares no fault-injection support."""

    name = "readonly-test"

    def __init__(self, dialect="postgis", bug_ids=()):
        self.bug_ids = tuple(bug_ids)

    def capabilities(self) -> Capabilities:
        return Capabilities(
            backend=self.name,
            dialect=get_dialect("postgis"),
            supports_fault_injection=False,
        )

    def open_session(self):
        return InProcessBackend().open_session()


class TestCapabilityEnforcement:
    @pytest.fixture(scope="class", autouse=True)
    def _registered(self):
        try:
            register_backend("readonly-test", lambda **options: _ReadOnlyBackend(**options))
        except ValueError:
            pass  # already registered by an earlier test class run

    def test_campaign_refuses_release_emulation_without_fault_injection(self):
        from repro.core.campaign import TestingCampaign

        with pytest.raises(ValueError, match="fault"):
            TestingCampaign(CampaignConfig(backend="readonly-test"))

    def test_clean_campaign_on_the_same_backend_is_fine(self):
        from repro.core.campaign import TestingCampaign

        config = CampaignConfig(backend="readonly-test", emulate_release_under_test=False)
        assert TestingCampaign(config).backend.name == "readonly-test"

    def test_index_oracle_refuses_backends_without_planner_toggles(self):
        from repro.baselines.index_oracle import IndexToggleOracle

        with pytest.raises(ValueError, match="planner"):
            IndexToggleOracle(backend=SQLiteBackend())


class TestValueNormalization:
    def test_booleans_become_integers(self):
        assert normalize_value(True) == 1
        assert normalize_value(False) == 0
        assert values_equivalent(True, 1)
        assert values_equivalent(False, 0)

    def test_fractions_become_floats(self):
        assert normalize_value(Fraction(1, 2)) == 0.5
        assert values_equivalent(Fraction(3, 4), 0.75)

    def test_float_tolerance_absorbs_last_ulp_noise(self):
        assert values_equivalent(2.0, 2.0 + 1e-12)
        assert not values_equivalent(2.0, 2.0 + 1e-6)

    def test_negative_zero_collapses(self):
        assert normalize_value(-0.0) == 0.0
        assert str(normalize_value(-0.0)) == "0.0"

    def test_geometry_objects_and_wkt_meet_at_canonical_text(self):
        geometry = load_wkt("POINT (1 2)")
        assert normalize_value(geometry) == normalize_value("POINT(1 2)")

    def test_empty_geometry_normalizes_to_null(self):
        # NULL-vs-EMPTY is a representational choice engines differ on,
        # not a logic bug.
        assert normalize_value("GEOMETRYCOLLECTION EMPTY") is None
        assert normalize_value(load_wkt("POINT EMPTY")) is None
        assert values_equivalent(None, "POLYGON EMPTY")

    def test_non_wkt_strings_pass_through(self):
        assert normalize_value("POINTLESS TEXT") == "POINTLESS TEXT"
        assert normalize_value("hello") == "hello"

    def test_keyword_prefixed_text_is_not_wkt(self):
        # A bare prefix match used to drag ordinary text cells through
        # geometry parsing: the keyword must be followed by something the
        # WKT grammar allows.
        from repro.backends.resultset import looks_like_wkt

        for text in ("POINTER", "POLYGONAL region", "POINTS OF INTEREST",
                     "MULTIPOINTLESS", "LINESTRINGY", "GEOMETRYCOLLECTIONS"):
            assert not looks_like_wkt(text), text
            assert normalize_value(text) == text

    def test_wkt_renderings_are_recognised(self):
        from repro.backends.resultset import looks_like_wkt

        for text in ("POINT(1 2)", "point (1 2)", "POINT Z (1 2 3)",
                     "LINESTRING M (0 0 1, 1 1 2)", "POLYGON ZM (0 0 0 0)",
                     "POINT EMPTY", "  GEOMETRYCOLLECTION EMPTY",
                     "MULTIPOLYGON (((0 0,1 0,1 1,0 0)))"):
            assert looks_like_wkt(text), text


class TestRowNormalization:
    def test_unordered_rows_are_sorted(self):
        a = [(2, "x"), (1, "y")]
        b = [(1, "y"), (2, "x")]
        assert rows_equivalent(a, b, ordered=False)
        assert not rows_equivalent(a, b, ordered=True)

    def test_ordered_rows_keep_their_order(self):
        assert normalize_rows([(2,), (1,)], ordered=True) == ((2,), (1,))
        assert normalize_rows([(2,), (1,)], ordered=False) == ((1,), (2,))

    def test_mixed_type_cells_sort_deterministically(self):
        rows = [(None,), ("b",), (1.5,), (2,)]
        assert normalize_rows(rows, ordered=False) == ((None,), (1.5,), (2,), ("b",))

    def test_cell_level_rules_apply_inside_rows(self):
        assert rows_equivalent(
            [(True, Fraction(1, 4), "POINT (0 0)")],
            [(1, 0.25, "POINT(0 0)")],
            ordered=True,
        )

    def test_is_ordered_query(self):
        assert is_ordered_query("SELECT id FROM t ORDER BY id")
        assert not is_ordered_query("SELECT COUNT(*) FROM t")
