"""Unit tests for the analysis utilities and the command-line interface."""

from __future__ import annotations

import pytest

from repro.analysis.coverage import COMPONENT_GROUPS, CoverageTracker
from repro.analysis.stats import mean, standard_deviation, summarize
from repro.analysis.timing import measure_campaign_time_split
from repro.cli import main
from repro.engine.database import connect


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0

    def test_standard_deviation(self):
        assert standard_deviation([2, 2, 2]) == 0.0
        assert standard_deviation([5]) == 0.0
        assert standard_deviation([0, 2]) == 1.0

    def test_summarize(self):
        summary = summarize([1, 2, 3, 4])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1
        assert summary.maximum == 4
        assert summarize([]).count == 0


class TestCoverageTracker:
    def test_component_groups_cover_engine_and_geometry_library(self):
        assert set(COMPONENT_GROUPS) == {"engine", "geometry-library"}

    def test_tracker_records_lines_for_executed_queries(self):
        tracker = CoverageTracker()
        with tracker:
            database = connect("postgis")
            database.execute("CREATE TABLE t (g geometry)")
            database.execute("INSERT INTO t (g) VALUES ('POINT(1 1)')")
            database.query_value("SELECT COUNT(*) FROM t WHERE ST_IsEmpty(g)")
        report = tracker.report()
        assert report.covered_lines("engine") > 50
        assert report.covered_lines("geometry-library") > 10
        assert 0 < report.line_coverage("engine") < 100

    def test_more_work_covers_at_least_as_many_lines(self):
        small_tracker = CoverageTracker()
        with small_tracker:
            database = connect("postgis")
            database.query_value("SELECT ST_IsEmpty('POINT EMPTY'::geometry)")
        large_tracker = CoverageTracker()
        with large_tracker:
            database = connect("postgis")
            database.execute("CREATE TABLE t (g geometry)")
            database.execute("INSERT INTO t (g) VALUES ('POLYGON((0 0,4 0,4 4,0 4,0 0))')")
            database.query_value(
                "SELECT COUNT(*) FROM t WHERE ST_Contains(g, 'POINT(1 1)'::geometry)"
            )
            database.query_value("SELECT ST_IsEmpty('POINT EMPTY'::geometry)")
        assert large_tracker.report().covered_lines("engine") >= small_tracker.report().covered_lines("engine")

    def test_merged_reports_union_lines(self):
        first = CoverageTracker()
        with first:
            connect("postgis").query_value("SELECT ST_IsEmpty('POINT EMPTY'::geometry)")
        second = CoverageTracker()
        with second:
            connect("postgis").query_value(
                "SELECT ST_Contains('POLYGON((0 0,2 0,2 2,0 2,0 0))'::geometry, 'POINT(1 1)'::geometry)"
            )
        merged = first.report().merged_with(second.report())
        assert merged.covered_lines("geometry-library") >= max(
            first.report().covered_lines("geometry-library"),
            second.report().covered_lines("geometry-library"),
        )
        rows = merged.as_rows()
        assert len(rows) == 2


class TestTiming:
    def test_time_split_measurement(self):
        split = measure_campaign_time_split(
            "postgis", geometry_count=3, queries=5, repeats=1, emulate_release_under_test=False
        )
        assert split.geometry_count == 3
        assert split.spatter_seconds > 0
        assert 0 <= split.sdbms_seconds <= split.spatter_seconds
        assert 0 <= split.sdbms_share <= 1

    def test_every_field_is_a_per_repeat_mean(self):
        # Historically seconds were averaged while query counts were
        # floor-divided and cache counters summed; a data point must not
        # depend on how many repeats produced it.
        from unittest import mock

        import repro.analysis.timing as timing_module
        from repro.core.campaign import CampaignResult

        config = timing_module.CampaignConfig(dialect="postgis", geometry_count=3)
        runs = iter(
            [
                CampaignResult(
                    config=config, total_seconds=2.0, sdbms_seconds=1.0,
                    queries_run=10, cache_stats={"relate_hits": 4},
                ),
                CampaignResult(
                    config=config, total_seconds=4.0, sdbms_seconds=2.0,
                    queries_run=11, cache_stats={"relate_hits": 6},
                ),
            ]
        )
        with mock.patch.object(timing_module, "run_campaign", lambda *a, **k: next(runs)):
            split = measure_campaign_time_split("postgis", geometry_count=3, repeats=2)
        assert split.spatter_seconds == 3.0
        assert split.sdbms_seconds == 1.5
        assert split.queries_run == 10.5  # the exact mean, not 21 // 2
        assert split.cache_stats == {"relate_hits": 5.0}  # mean, not 10


class TestCLI:
    def test_list_bugs(self, capsys):
        assert main(["--list-bugs", "--dialect", "postgis"]) == 0
        output = capsys.readouterr().out
        assert "postgis-covers-precision-loss" in output

    def test_list_scenarios_is_standalone(self, capsys):
        # the list flags need none of the campaign flags and exit 0
        assert main(["--list-scenarios"]) == 0
        output = capsys.readouterr().out
        assert "topological-join" in output
        assert "docs/SCENARIOS.md" in output

    def test_list_backends_is_standalone(self, capsys):
        assert main(["--list-backends"]) == 0
        output = capsys.readouterr().out
        assert "inprocess" in output
        assert "sqlite" in output
        assert "docs/BACKENDS.md" in output

    def test_list_oracles_is_standalone(self, capsys):
        assert main(["--list-oracles"]) == 0
        output = capsys.readouterr().out
        assert "aei" in output
        assert "set-theoretic" in output
        assert "pqs" in output
        assert "docs/ORACLES.md" in output

    def test_list_flags_ignore_invalid_campaign_flags(self, capsys):
        # catalogs print even when campaign flags would fail validation
        assert main(["--list-scenarios", "--rounds", "-3"]) == 0
        capsys.readouterr()
        assert main(["--list-backends", "--workers", "0"]) == 0
        capsys.readouterr()
        assert main(["--list-oracles", "--rounds", "-3"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--tables", "--geometries", "--queries", "--workers"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_counts_are_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([flag, value, "--rounds", "1"])
        assert excinfo.value.code == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err

    def test_unknown_oracle_selection_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--oracles", "bogus"])
        assert "unknown oracle" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--no-fast-path", "--no-vectorized", "--no-reuse"])
    def test_retired_reference_path_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["inprocess", "sqlite"])
    def test_report_labels_fast_path_caches_on_inprocess_only(self, backend, capsys):
        main(["--backend", backend, "--rounds", "1", "--geometries", "4", "--queries", "4"])
        lines = capsys.readouterr().out.splitlines()
        inprocess = backend == "inprocess"
        assert any(line.startswith("Fast-path caches: ") for line in lines) == inprocess
        # sqlite sessions have no bulk-load surface: every database falls back
        (reuse_line,) = [line for line in lines if line.startswith("Reuse layer: ")]
        assert (" 0 fallback databases" in reuse_line) == inprocess
        assert reuse_line.startswith("Reuse layer: 0 derived / 0 direct / ") != inprocess

    def test_oracle_selection_smoke_run(self, capsys):
        exit_code = main(
            [
                "--dialect", "postgis", "--clean", "--oracles", "set-theoretic", "pqs",
                "--rounds", "1", "--geometries", "4", "--queries", "6", "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Queries and findings per oracle:" in output
        assert "set-theoretic" in output and "pqs" in output
        # an explicit selection without 'aei' skips the scenario pass
        assert "per scenario" not in output

    def test_cross_backend_smoke_run(self, capsys):
        exit_code = main(
            [
                "--backend", "inprocess", "--cross-backend", "sqlite",
                "--rounds", "2", "--geometries", "5", "--queries", "8", "--seed", "7",
            ]
        )
        output = capsys.readouterr().out
        assert "Cross-backend differential (inprocess vs sqlite)" in output
        assert exit_code in (0, 1)

    def test_sqlite_backend_smoke_run(self, capsys):
        exit_code = main(
            [
                "--backend", "sqlite",
                "--rounds", "1", "--geometries", "4", "--queries", "6", "--seed", "3",
            ]
        )
        assert "rounds" in capsys.readouterr().out
        assert exit_code in (0, 1)

    def test_clean_run_finds_nothing(self, capsys):
        exit_code = main(
            ["--dialect", "mysql", "--clean", "--rounds", "1", "--geometries", "3", "--queries", "3", "--seed", "3"]
        )
        assert exit_code == 0
        assert "0 discrepancies" in capsys.readouterr().out

    def test_buggy_run_reports_findings(self, capsys):
        exit_code = main(
            ["--dialect", "postgis", "--rounds", "3", "--geometries", "6", "--queries", "10", "--seed", "1"]
        )
        output = capsys.readouterr().out
        assert "unique bugs" in output
        assert exit_code in (0, 1)

    def test_reduce_flag_round_trips_minimized_findings(self, capsys):
        # seed 7 yields one scalar discrepancy (reduced) and one KNN
        # row-list discrepancy (reported unreduced) in 3 rounds.
        exit_code = main(
            [
                "--dialect", "postgis", "--rounds", "3", "--geometries", "6",
                "--queries", "8", "--seed", "7", "--reduce",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "Discrepancies (minimized):" in output
        assert "geometries removed" in output
        assert "query simplification step(s)" in output
        # the minimized spec is emitted as runnable statements
        assert "CREATE TABLE" in output and "INSERT INTO" in output
        assert "[row-list query: not reduced]" in output
