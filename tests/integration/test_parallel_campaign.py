"""The parallel orchestrator's correctness contract.

Sharding a campaign must change only the wall-clock, never the findings:
for a fixed seed and total round budget the merged unique-bug set equals a
serial run's, whatever the shard and worker counts.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.campaign import CampaignConfig, CampaignResult, TestingCampaign
from repro.core.parallel import ParallelCampaign, run_campaign, shard_rounds
from repro.geometry.cache import clear_geometry_cache
from repro.geometry.columnar import vectorized_kernels_enabled
from repro.store.serialize import finding_records
from repro.topology.noding import fast_clearance_enabled

# Three scenarios spanning three follow-up groups (general/canonicalized,
# similarity/canonicalized, general/uncanonicalized) keep the orchestration
# contract under test scenario-aware while staying cheap; the full-registry
# serial-vs-parallel equivalence lives in test_scenario_campaign.py.
CONFIG = CampaignConfig(
    dialect="postgis",
    seed=42,
    geometry_count=6,
    queries_per_round=10,
    scenarios=("topological-join", "knn", "metric-area"),
)
ROUNDS = 4


@pytest.fixture(scope="module")
def serial_result() -> CampaignResult:
    return TestingCampaign(CONFIG).run(rounds=ROUNDS)


class TestShardRounds:
    def test_partition_covers_every_round_exactly_once(self):
        for total in (0, 1, 4, 7, 10):
            for shard_count in (1, 2, 3, 5):
                assert (
                    sum(shard_rounds(total, index, shard_count) for index in range(shard_count))
                    == total
                )

    def test_rejects_negative_round_budget(self):
        with pytest.raises(ValueError):
            shard_rounds(-1, 0, 2)


class TestMergedEqualsSerial:
    def test_two_workers_match_serial_unique_bug_set(self, serial_result):
        parallel = ParallelCampaign(replace(CONFIG, workers=2)).run(rounds=ROUNDS)
        assert set(parallel.unique_bug_ids) == set(serial_result.unique_bug_ids)
        assert parallel.rounds == serial_result.rounds
        assert parallel.queries_run == serial_result.queries_run
        assert len(parallel.discrepancies) == len(serial_result.discrepancies)
        assert len(parallel.crashes) == len(serial_result.crashes)

    def test_in_process_sharding_matches_serial(self, serial_result):
        # workers=1 with an explicit shard split runs the shards in-process
        # but must merge to the identical finding set.
        parallel = ParallelCampaign(replace(CONFIG, shards=3)).run(rounds=ROUNDS)
        assert set(parallel.unique_bug_ids) == set(serial_result.unique_bug_ids)
        assert parallel.queries_run == serial_result.queries_run

    def test_more_shards_than_rounds_leaves_trailing_shards_idle(self, serial_result):
        parallel = ParallelCampaign(replace(CONFIG, shards=ROUNDS + 3)).run(rounds=ROUNDS)
        assert parallel.rounds == ROUNDS
        assert set(parallel.unique_bug_ids) == set(serial_result.unique_bug_ids)

    def test_merged_timeline_is_monotone_on_shared_clock(self):
        parallel = ParallelCampaign(replace(CONFIG, workers=2)).run(rounds=ROUNDS)
        counts = [count for _, count in parallel.unique_bug_timeline]
        seconds = [second for second, _ in parallel.unique_bug_timeline]
        assert counts == list(range(1, len(counts) + 1))
        assert seconds == sorted(seconds)

    def test_shard_clock_offset_survives_wall_clock_steps(self, monkeypatch):
        # The shard epoch delta is taken on time.monotonic, so an NTP step
        # or manual clock change between orchestrator start and shard start
        # cannot produce a negative (or inflated) offset that would skew
        # the merged unique-bugs-over-time rebase.
        import time as time_module

        from repro.core.parallel import _run_shard

        monkeypatch.setattr(
            time_module, "time", lambda: 0.0  # a wall clock stepped back to the epoch
        )
        epoch = time_module.monotonic() - 1.5
        config = replace(CONFIG, geometry_count=4, queries_per_round=4)
        result = _run_shard((config, 0, 1, 1, None, epoch))
        assert result.start_offset_seconds >= 1.5
        assert result.start_offset_seconds < 60.0

    def test_rebased_timelines_stay_monotone_after_merge(self):
        shard_a = CampaignResult(
            config=CONFIG,
            first_detection_seconds={"a": 0.2, "b": 1.2},
            unique_bug_timeline=[(0.2, 1), (1.2, 2)],
            total_seconds=2.0,
            start_offset_seconds=0.0,
        )
        shard_b = CampaignResult(
            config=CONFIG,
            first_detection_seconds={"c": 0.1},
            unique_bug_timeline=[(0.1, 1)],
            total_seconds=1.0,
            start_offset_seconds=0.7,  # the shard started later on the shared clock
        )
        merged = shard_a.merge(shard_b)
        seconds = [second for second, _ in merged.unique_bug_timeline]
        counts = [count for _, count in merged.unique_bug_timeline]
        assert seconds == sorted(seconds)
        assert counts == [1, 2, 3]
        # shard_b's finding lands at 0.1 + 0.7 on the shared clock
        assert merged.first_detection_seconds["c"] == pytest.approx(0.8)


class TestDeterminism:
    def test_same_seed_and_shards_reproduce_the_findings(self):
        config = replace(CONFIG, workers=2, shards=2)
        first = ParallelCampaign(config).run(rounds=ROUNDS)
        second = ParallelCampaign(config).run(rounds=ROUNDS)
        assert sorted(first.unique_bug_ids) == sorted(second.unique_bug_ids)
        assert sorted(d.describe() for d in first.discrepancies) == sorted(
            d.describe() for d in second.discrepancies
        )

    def test_serial_rounds_are_individually_reseeded(self):
        # Round i draws from Random(f"{seed}|{i}"), so re-running the same
        # campaign reproduces the exact discrepancy stream.
        first = TestingCampaign(CONFIG).run(rounds=2)
        second = TestingCampaign(CONFIG).run(rounds=2)
        assert [d.describe() for d in first.discrepancies] == [
            d.describe() for d in second.discrepancies
        ]

    def test_repeated_run_continues_the_round_stream(self):
        # A second run() on the same instance must explore the *next*
        # global rounds, not replay the first call's.
        incremental = TestingCampaign(CONFIG)
        first = incremental.run(rounds=2)
        second = incremental.run(rounds=2)
        reference = TestingCampaign(CONFIG).run(rounds=4)
        assert [d.describe() for d in first.discrepancies + second.discrepancies] == [
            d.describe() for d in reference.discrepancies
        ]

    def test_shard_replays_its_slice_of_the_global_stream(self):
        # Shard 1 of 2 runs global rounds 1 and 3; its findings must be a
        # subset of the serial run's raw discrepancy stream.
        serial = TestingCampaign(CONFIG).run(rounds=ROUNDS)
        shard = TestingCampaign(CONFIG, shard_index=1, shard_count=2).run(rounds=ROUNDS // 2)
        serial_described = [d.describe() for d in serial.discrepancies]
        for discrepancy in shard.discrepancies:
            assert discrepancy.describe() in serial_described


class TestOverlappingCampaigns:
    def test_interleaved_campaigns_match_their_serial_runs(self):
        """Two campaigns on threads of one process, the ``spatter serve``
        shape: A's round hook starts B and waits for B's first round, so A
        starts first and the two interleave.  Each finding stream must
        equal its serial run, and the process-wide kernel seams must still
        be on afterwards."""
        config_a = CONFIG
        config_b = replace(CONFIG, seed=7, backend="sqlite")
        rounds = 3
        serial_a = TestingCampaign(config_a).run(rounds=rounds)
        serial_b = TestingCampaign(config_b).run(rounds=rounds)
        assert finding_records(serial_a) and finding_records(serial_b)
        # The interner evicts on a full table, and eviction is not safe
        # against a concurrent lookup; start empty so neither thread evicts.
        clear_geometry_cache()

        b_round_done = threading.Event()
        outcome: dict[str, CampaignResult] = {}

        def run_b() -> None:
            campaign_b = TestingCampaign(config_b)
            campaign_b.round_hook = lambda *_: b_round_done.set()
            outcome["b"] = campaign_b.run(rounds=rounds)

        thread_b = threading.Thread(target=run_b, daemon=True)

        def start_b_after_first_round(campaign, result) -> None:
            if result.rounds == 1:
                thread_b.start()
                assert b_round_done.wait(timeout=120)

        campaign_a = TestingCampaign(config_a)
        campaign_a.round_hook = start_b_after_first_round
        result_a = campaign_a.run(rounds=rounds)
        thread_b.join(timeout=120)
        assert not thread_b.is_alive()

        assert finding_records(result_a) == finding_records(serial_a)
        assert finding_records(outcome["b"]) == finding_records(serial_b)
        assert vectorized_kernels_enabled()
        assert fast_clearance_enabled()


class TestCampaignResultMerge:
    def _result(self, **kwargs) -> CampaignResult:
        return CampaignResult(config=CONFIG, **kwargs)

    def test_rebase_shifts_detections_and_timeline(self):
        shard = self._result(
            first_detection_seconds={"a": 1.0},
            unique_bug_timeline=[(1.0, 1)],
            total_seconds=2.0,
            start_offset_seconds=0.5,
        )
        rebased = shard.rebased()
        assert rebased.first_detection_seconds == {"a": 1.5}
        assert rebased.unique_bug_timeline == [(1.5, 1)]
        assert rebased.total_seconds == 2.5
        assert rebased.start_offset_seconds == 0.0
        # the original shard result is untouched
        assert shard.first_detection_seconds == {"a": 1.0}

    def test_merge_sums_counts_and_unions_bugs(self):
        left = self._result(
            rounds=2, queries_run=10, first_detection_seconds={"a": 1.0}, sdbms_seconds=1.0
        )
        right = self._result(
            rounds=3, queries_run=15, first_detection_seconds={"b": 0.5}, sdbms_seconds=2.0
        )
        merged = left.merge(right)
        assert merged.rounds == 5
        assert merged.queries_run == 25
        assert merged.unique_bug_ids == ["b", "a"]
        assert merged.unique_bug_timeline == [(0.5, 1), (1.0, 2)]
        assert merged.sdbms_seconds == 3.0

    def test_merge_wall_clock_is_the_later_end_not_the_sum(self):
        left = self._result(total_seconds=3.0)
        right = self._result(total_seconds=2.0, start_offset_seconds=2.0)
        assert left.merge(right).total_seconds == 4.0

    def test_combine_requires_at_least_one_result(self):
        with pytest.raises(ValueError):
            CampaignResult.combine([])


class TestRunCampaignDispatch:
    def test_serial_config_uses_the_serial_driver(self):
        result = run_campaign(replace(CONFIG, geometry_count=4, queries_per_round=4), rounds=1)
        assert result.shard_count == 1

    def test_parallel_config_reports_its_shard_count(self):
        result = run_campaign(
            replace(CONFIG, geometry_count=4, queries_per_round=4, workers=2), rounds=2
        )
        assert result.shard_count == 2


class TestCommandLine:
    def test_cli_workers_flag_runs_a_merged_campaign(self, capsys):
        exit_code = main(
            [
                "--dialect", "postgis", "--rounds", "2", "--geometries", "4",
                "--queries", "5", "--seed", "11", "--workers", "2",
            ]
        )
        output = capsys.readouterr().out
        assert "2 shards" in output
        assert exit_code in (0, 1)

    def test_cli_rejects_zero_workers(self, capsys):
        with pytest.raises(SystemExit):
            main(["--workers", "0"])
