"""Unit tests for SQL execution: DDL, DML, joins, settings, NULL logic."""

from __future__ import annotations

import pytest

from repro.errors import SQLExecutionError, TableError, UnknownFunctionError
from repro.engine.database import connect
from repro.geometry.model import Geometry


class TestDDLAndDML:
    def test_create_insert_count(self, postgis):
        postgis.execute("CREATE TABLE t (g geometry)")
        postgis.execute("INSERT INTO t (g) VALUES ('POINT(0 0)'), ('POINT(1 1)')")
        assert postgis.query_value("SELECT COUNT(*) FROM t") == 2

    def test_geometry_strings_are_parsed_on_insert(self, postgis):
        postgis.execute("CREATE TABLE t (g geometry)")
        postgis.execute("INSERT INTO t (g) VALUES ('POINT(3 4)')")
        value = postgis.query_rows("SELECT g FROM t")[0][0]
        assert isinstance(value, Geometry)
        assert value.wkt == "POINT(3 4)"

    def test_duplicate_table_rejected(self, postgis):
        postgis.execute("CREATE TABLE t (g geometry)")
        with pytest.raises(TableError):
            postgis.execute("CREATE TABLE t (g geometry)")

    def test_missing_table_rejected(self, postgis):
        with pytest.raises(TableError):
            postgis.execute("SELECT COUNT(*) FROM nope")

    def test_drop_table(self, postgis):
        postgis.execute("CREATE TABLE t (g geometry)")
        postgis.execute("DROP TABLE t")
        assert postgis.table_names() == []
        postgis.execute("DROP TABLE IF EXISTS t")  # no error

    def test_create_table_as_select(self, postgis):
        postgis.execute("CREATE TABLE t AS SELECT 1 AS id, 'POINT(2 2)'::geometry AS geom")
        assert postgis.row_count("t") == 1
        assert postgis.query_value("SELECT COUNT(*) FROM t") == 1

    def test_insert_column_count_mismatch(self, postgis):
        postgis.execute("CREATE TABLE t (id int, g geometry)")
        with pytest.raises(SQLExecutionError):
            postgis.execute("INSERT INTO t (id, g) VALUES (1)")

    def test_row_count_and_table_names(self, postgis):
        postgis.execute("CREATE TABLE alpha (g geometry)")
        postgis.execute("CREATE TABLE beta (g geometry)")
        assert postgis.table_names() == ["alpha", "beta"]


class TestSelect:
    def test_select_without_from(self, postgis):
        assert postgis.query_value("SELECT ST_IsEmpty('POINT EMPTY'::geometry)") is True

    def test_join_with_predicate(self, postgis):
        postgis.execute("CREATE TABLE t1 (g geometry)")
        postgis.execute("CREATE TABLE t2 (g geometry)")
        postgis.execute("INSERT INTO t1 (g) VALUES ('POLYGON((0 0,4 0,4 4,0 4,0 0))')")
        postgis.execute("INSERT INTO t2 (g) VALUES ('POINT(1 1)'), ('POINT(9 9)')")
        count = postgis.query_value(
            "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Contains(t1.g, t2.g)"
        )
        assert count == 1

    def test_comma_join_with_where(self, postgis):
        postgis.execute("CREATE TABLE t (id int, geom geometry)")
        postgis.execute(
            "INSERT INTO t (id, geom) VALUES (1,'POINT(0 0)'), (2,'POINT(5 5)')"
        )
        rows = postgis.query_rows(
            "SELECT a1.id, a2.id FROM t AS a1, t AS a2 WHERE ST_Equals(a1.geom, a2.geom)"
        )
        assert sorted(rows) == [(1, 1), (2, 2)]

    def test_subquery_in_from(self, postgis):
        value = postgis.query_value(
            "SELECT ST_Within(g1,g2) FROM (SELECT 'POINT(1 1)'::geometry AS g1, "
            "'POLYGON((0 0,4 0,4 4,0 4,0 0))'::geometry AS g2)"
        )
        assert value is True

    def test_count_of_expression_skips_nulls(self, postgis):
        postgis.execute("CREATE TABLE t (id int, g geometry)")
        postgis.execute("INSERT INTO t (id, g) VALUES (1,'POINT(0 0)'), (2, NULL)")
        assert postgis.query_value("SELECT COUNT(g) FROM t") == 1
        assert postgis.query_value("SELECT COUNT(*) FROM t") == 2

    def test_order_by_and_limit(self, postgis):
        postgis.execute("CREATE TABLE t (id int, g geometry)")
        postgis.execute(
            "INSERT INTO t (id, g) VALUES (3,'POINT(0 0)'), (1,'POINT(1 1)'), (2,'POINT(2 2)')"
        )
        rows = postgis.query_rows("SELECT id FROM t ORDER BY id LIMIT 2")
        assert rows == [(1,), (2,)]

    def test_select_star(self, postgis):
        postgis.execute("CREATE TABLE t (id int, g geometry)")
        postgis.execute("INSERT INTO t (id, g) VALUES (1,'POINT(0 0)')")
        result = postgis.execute("SELECT * FROM t")
        assert result.columns == ["id", "g"]
        assert result.rows[0][0] == 1

    def test_scalar_helper_rejects_multirow_results(self, postgis):
        postgis.execute("CREATE TABLE t (id int, g geometry)")
        postgis.execute("INSERT INTO t (id, g) VALUES (1,'POINT(0 0)'), (2,'POINT(1 1)')")
        with pytest.raises(SQLExecutionError):
            postgis.query_value("SELECT id FROM t")

    def test_ambiguous_column_reference(self, postgis):
        postgis.execute("CREATE TABLE t1 (g geometry)")
        postgis.execute("CREATE TABLE t2 (g geometry)")
        postgis.execute("INSERT INTO t1 (g) VALUES ('POINT(0 0)')")
        postgis.execute("INSERT INTO t2 (g) VALUES ('POINT(0 0)')")
        with pytest.raises(SQLExecutionError):
            postgis.query_value("SELECT COUNT(*) FROM t1, t2 WHERE ST_IsEmpty(g)")


class TestNullLogicAndOperators:
    def test_three_valued_and(self, postgis):
        postgis.execute("CREATE TABLE t (id int, g geometry)")
        postgis.execute("INSERT INTO t (id, g) VALUES (1, NULL)")
        # NULL condition rows are filtered out (not an error).
        assert postgis.query_value(
            "SELECT COUNT(*) FROM t WHERE ST_IsEmpty(g) AND id = 1"
        ) == 0

    def test_is_null(self, postgis):
        postgis.execute("CREATE TABLE t (id int, g geometry)")
        postgis.execute("INSERT INTO t (id, g) VALUES (1, NULL), (2, 'POINT(0 0)')")
        assert postgis.query_value("SELECT COUNT(*) FROM t WHERE g IS NULL") == 1
        assert postgis.query_value("SELECT COUNT(*) FROM t WHERE g IS NOT NULL") == 1

    def test_comparison_and_arithmetic(self, postgis):
        postgis.execute("CREATE TABLE t (id int, g geometry)")
        postgis.execute("INSERT INTO t (id, g) VALUES (1,NULL), (2,NULL), (3,NULL)")
        assert postgis.query_value("SELECT COUNT(*) FROM t WHERE id > 1") == 2
        assert postgis.query_value("SELECT COUNT(*) FROM t WHERE id + 1 = 2") == 1
        assert postgis.query_value("SELECT COUNT(*) FROM t WHERE NOT id = 3") == 2

    def test_same_as_operator_requires_dialect_support(self, mysql):
        mysql.execute("CREATE TABLE t (g geometry)")
        mysql.execute("INSERT INTO t (g) VALUES ('POINT(0 0)')")
        with pytest.raises(SQLExecutionError):
            mysql.query_value("SELECT COUNT(*) FROM t WHERE g ~= 'POINT(0 0)'::geometry")

    def test_unknown_function_for_dialect(self, mysql):
        mysql.execute("CREATE TABLE t1 (g geometry)")
        mysql.execute("CREATE TABLE t2 (g geometry)")
        mysql.execute("INSERT INTO t1 (g) VALUES ('POINT(0 0)')")
        mysql.execute("INSERT INTO t2 (g) VALUES ('POINT(0 0)')")
        with pytest.raises(UnknownFunctionError):
            mysql.query_value("SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g, t2.g)")

    def test_session_variables(self, mysql):
        mysql.execute("SET @g1 = 'POINT(1 1)'")
        assert mysql.query_value("SELECT ST_IsEmpty(ST_GeomFromText(@g1))") is False

    def test_settings_are_parsed_to_booleans(self, postgis):
        postgis.execute("SET enable_seqscan = false")
        assert postgis.state.settings["enable_seqscan"] is False
        postgis.execute("SET enable_seqscan = true")
        assert postgis.state.settings["enable_seqscan"] is True


class TestIndexPaths:
    def _populate(self, db, with_index: bool):
        db.execute("CREATE TABLE t1 (g geometry)")
        db.execute("CREATE TABLE t2 (g geometry)")
        db.execute(
            "INSERT INTO t1 (g) VALUES ('POLYGON((0 0,4 0,4 4,0 4,0 0))'),"
            " ('POLYGON((10 10,14 10,14 14,10 14,10 10))')"
        )
        db.execute(
            "INSERT INTO t2 (g) VALUES ('POINT(1 1)'), ('POINT(11 11)'), ('POINT(50 50)'),"
            " ('POINT EMPTY')"
        )
        if with_index:
            db.execute("CREATE INDEX idx_t2 ON t2 USING GIST (g)")

    def test_index_join_matches_seqscan_join(self):
        for with_index in (False, True):
            db = connect("postgis")
            self._populate(db, with_index)
            db.execute("SET enable_seqscan = false")
            count = db.query_value(
                "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Contains(t1.g, t2.g)"
            )
            assert count == 2

    def test_index_single_table_filter_matches_seqscan(self):
        db = connect("postgis")
        self._populate(db, with_index=True)
        query = "SELECT COUNT(*) FROM t2 WHERE g ~= 'POINT EMPTY'::geometry"
        seq = db.query_value(query)
        db.execute("SET enable_seqscan = false")
        indexed = db.query_value(query)
        assert seq == indexed == 1

    def test_index_respects_buggy_empty_drop(self):
        buggy = connect("postgis", bug_ids=["postgis-gist-index-drops-empty"])
        self._populate(buggy, with_index=True)
        query = "SELECT COUNT(*) FROM t2 WHERE g ~= 'POINT EMPTY'::geometry"
        assert buggy.query_value(query) == 1  # seq scan still correct
        buggy.execute("SET enable_seqscan = false")
        assert buggy.query_value(query) == 0  # index path lost the EMPTY row


class TestPathFlags:
    """The executor holds the one copy of the path flags; the database's
    attributes read and write it."""

    QUERY = (
        "SELECT COUNT(*) FROM t WHERE "
        "ST_Intersects(g, ST_GeomFromText('POLYGON((0 0,2 0,2 2,0 2,0 0))'))"
    )

    def _database(self):
        database = connect("postgis")
        database.execute("CREATE TABLE t (g geometry)")
        database.execute(
            "INSERT INTO t (g) VALUES ('POINT(1 1)'), ('POINT(5 5)'), ('POINT(9 9)')"
        )
        return database

    def test_database_fast_path_off_stops_envelope_queries(self):
        from repro.geometry.columnar import clear_kernel_stats, kernel_stats

        database = self._database()
        clear_kernel_stats()
        assert database.query_value(self.QUERY) == 1
        assert kernel_stats()["envelope_queries"] > 0  # the prefilter ran

        database.fast_path = False
        assert database.executor.fast_path is False
        clear_kernel_stats()
        assert database.query_value(self.QUERY) == 1
        assert kernel_stats()["envelope_queries"] == 0

    def test_database_vectorized_flag_is_the_executors(self):
        database = self._database()
        database.vectorized = False
        assert database.executor.vectorized is False
        database.executor.vectorized = True
        assert database.vectorized is True
        assert database.clone_empty().vectorized is True
