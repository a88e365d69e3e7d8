"""Unit tests for the persistent findings store (:mod:`repro.store`).

Pin the persistence contracts of docs/SERVICE.md: schema versioning via
``PRAGMA user_version``, INSERT-or-ignore global novelty, the deduplicator
pre-seed bridge, checkpoint state round-trips, trace-event ingestion with
cursor-based reads, and the per-arm scheduler stat merge.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.core.campaign import CampaignConfig, CampaignResult
from repro.core.dedup import Deduplicator
from repro.store import (
    CheckpointState,
    FindingsStore,
    accumulate_shard_result,
)
from repro.store.findings import wait_for_events
from repro.store.schema import MIGRATIONS, SCHEMA_VERSION


def record(signature: str, kind: str = "discrepancy", scenario: str = "topological-join",
           oracle: str | None = None, bug_ids=()) -> dict:
    """A minimal finding projection (the shape serialize.py produces)."""
    return {
        "kind": kind,
        "scenario": scenario,
        "oracle": oracle,
        "label": "st_intersects",
        "signature": signature,
        "bug_ids": sorted(bug_ids),
        "detail": f"detail for {signature}",
        "sql": None,
    }


@pytest.fixture
def store(tmp_path) -> FindingsStore:
    with FindingsStore(str(tmp_path / "findings.db")) as handle:
        yield handle


class TestSchema:
    def test_fresh_store_is_at_current_version(self, store):
        version = store.connection.execute("PRAGMA user_version").fetchone()[0]
        assert version == SCHEMA_VERSION

    def test_reopen_is_idempotent(self, tmp_path):
        path = str(tmp_path / "findings.db")
        FindingsStore(path).close()
        with FindingsStore(path) as store:
            version = store.connection.execute("PRAGMA user_version").fetchone()[0]
        assert version == SCHEMA_VERSION

    def test_newer_schema_version_refuses_to_open(self, tmp_path):
        path = str(tmp_path / "findings.db")
        with FindingsStore(path) as store:
            store.connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        with pytest.raises(RuntimeError, match="newer"):
            FindingsStore(path)

    def test_wal_mode_is_active(self, store):
        mode = store.connection.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_version_1_store_upgrades_in_place_and_old_sightings_still_read(self, tmp_path):
        path = str(tmp_path / "findings.db")
        old = record("sig-a")
        connection = sqlite3.connect(path)
        connection.executescript(MIGRATIONS[0])
        connection.execute("PRAGMA user_version = 1")
        connection.execute(
            "INSERT INTO campaigns (id, config_json, seed, created_at, updated_at)"
            " VALUES ('one', '{}', 0, 'then', 'then')"
        )
        connection.execute(
            "INSERT INTO findings (signature, campaign_id, kind, payload_json, created_at)"
            " VALUES ('sig-a', 'one', 'discrepancy', ?, 'then')",
            (json.dumps(old, sort_keys=True),),
        )
        connection.execute(
            "INSERT INTO sightings (campaign_id, signature, kind, novel, created_at)"
            " VALUES ('one', 'sig-a', 'discrepancy', 1, 'then')"
        )
        connection.commit()
        connection.close()
        with FindingsStore(path) as store:
            version = store.connection.execute("PRAGMA user_version").fetchone()[0]
            assert version == SCHEMA_VERSION == 2
            later = {**record("sig-a"), "sql": "SELECT 2"}
            assert store.record_finding("one", later) is False
            findings = store.campaign_findings("one")
        assert [f["sql"] for f in findings] == [None, "SELECT 2"]
        assert [f["novel"] for f in findings] == [True, False]


class TestCampaignRows:
    def test_create_get_list_roundtrip(self, store):
        store.create_campaign("abc", {"seed": 9, "dialect": "postgis"}, 9, target_rounds=4)
        campaign = store.get_campaign("abc")
        assert campaign["status"] == "running"
        assert campaign["config"] == {"seed": 9, "dialect": "postgis"}
        assert campaign["target_rounds"] == 4
        assert campaign["result"] is None
        assert [row["id"] for row in store.list_campaigns()] == ["abc"]

    def test_missing_campaign_is_none(self, store):
        assert store.get_campaign("nope") is None

    def test_status_transition_attaches_result_and_error(self, store):
        store.create_campaign("abc", {}, 0)
        store.set_campaign_status("abc", "completed", result_json={"rounds": 3})
        campaign = store.get_campaign("abc")
        assert campaign["status"] == "completed"
        assert campaign["result"] == {"rounds": 3}
        store.set_campaign_status("abc", "failed", error="boom")
        campaign = store.get_campaign("abc")
        assert campaign["error"] == "boom"
        # COALESCE keeps the previously attached result
        assert campaign["result"] == {"rounds": 3}

    def test_retarget(self, store):
        store.create_campaign("abc", {}, 0, target_rounds=4)
        store.set_campaign_targets("abc", 10, None)
        assert store.get_campaign("abc")["target_rounds"] == 10


class TestGlobalNovelty:
    def test_first_sighting_is_novel_repeat_is_not(self, store):
        store.create_campaign("one", {}, 0)
        assert store.record_finding("one", record("sig-a")) is True
        assert store.record_finding("one", record("sig-a")) is False

    def test_novelty_is_global_across_campaigns(self, store):
        store.create_campaign("one", {}, 0)
        store.create_campaign("two", {}, 0)
        assert store.record_finding("one", record("sig-a")) is True
        # the acceptance criterion: a second submission of the same config
        # reports zero globally-novel findings.
        assert store.record_finding("two", record("sig-a")) is False
        assert store.novel_finding_count("one") == 1
        assert store.novel_finding_count("two") == 0
        assert store.sighting_count("two") == 1

    def test_campaign_findings_keep_every_sighting_with_verdict(self, store):
        store.create_campaign("one", {}, 0)
        store.record_finding("one", record("sig-a"), shard_index=0)
        store.record_finding("one", record("sig-b"), shard_index=1)
        store.record_finding("one", record("sig-a"), shard_index=1)
        findings = store.campaign_findings("one")
        assert [f["signature"] for f in findings] == ["sig-a", "sig-b", "sig-a"]
        assert [f["novel"] for f in findings] == [True, True, False]
        assert [f["shard_index"] for f in findings] == [0, 1, 1]

    def test_sightings_of_one_signature_keep_their_own_payloads(self, store):
        store.create_campaign("one", {}, 0)
        first = {**record("sig-a"), "sql": "SELECT COUNT(*) FROM t1"}
        second = {**record("sig-a"), "sql": "SELECT COUNT(*) FROM t2"}
        assert store.record_finding("one", first) is True
        assert store.record_finding("one", second) is False
        findings = store.campaign_findings("one")
        assert [f["sql"] for f in findings] == [first["sql"], second["sql"]]
        # the corpus keeps the first sighting's payload
        assert [f["sql"] for f in store.query_findings(signature="sig-a")] == [first["sql"]]

    def test_query_findings_filters(self, store):
        store.create_campaign("one", {}, 0)
        store.record_finding("one", record("sig-a", scenario="knn"))
        store.record_finding("one", record("sig-b", kind="oracle-finding", scenario=None,
                                           oracle="pqs"))
        store.record_finding("one", record("sig-c", scenario="knn"))
        assert [f["signature"] for f in store.query_findings(scenario="knn")] == ["sig-a", "sig-c"]
        assert [f["signature"] for f in store.query_findings(oracle="pqs")] == ["sig-b"]
        assert [f["signature"] for f in store.query_findings(kind="discrepancy", limit=1)] == [
            "sig-a"
        ]
        assert store.query_findings(signature="sig-b")[0]["first_campaign_id"] == "one"
        assert store.query_findings(since="9999-01-01") == []

    def test_preseed_bridges_history_into_deduplicator(self, store):
        store.create_campaign("one", {}, 0)
        store.record_finding("one", record("sig-a"))
        store.record_finding("one", record("sig-b"))
        dedup = Deduplicator()
        assert store.preseed_deduplicator(dedup) == 2
        assert dedup.signature_count == 2
        # pre-seeded signatures are "already seen" but ground truth is not
        assert dedup.result.unique_bug_ids == []
        # idempotent: a second preseed adds nothing
        assert dedup.preseed_signatures(store.known_signatures()) == 0


class TestArmStats:
    def test_merge_across_shards_sums_counters(self, store):
        store.create_campaign("one", {}, 0)
        store.save_arm_stats("one", 0, {"scenario|knn": {"pulls": 2, "queries": 10,
                                                         "novel_signatures": 1}})
        store.save_arm_stats("one", 1, {"scenario|knn": {"pulls": 3, "queries": 12,
                                                         "novel_signatures": 2}})
        merged = store.campaign_arm_stats("one")
        assert merged["scenario|knn"]["pulls"] == 5
        assert merged["scenario|knn"]["queries"] == 22
        assert merged["scenario|knn"]["novel_signatures"] == 3

    def test_save_is_upsert(self, store):
        store.create_campaign("one", {}, 0)
        store.save_arm_stats("one", 0, {"arm": {"pulls": 1, "queries": 5, "novel_signatures": 0}})
        store.save_arm_stats("one", 0, {"arm": {"pulls": 4, "queries": 9, "novel_signatures": 1}})
        assert store.campaign_arm_stats("one")["arm"]["pulls"] == 4


class TestTraceEvents:
    def test_cursor_based_reads(self, store):
        store.create_campaign("one", {}, 0)
        store.record_trace_events(
            "one", [{"event": "round", "shard": 0}, {"event": "finding", "shard": 1}]
        )
        events = store.trace_events_after("one", 0)
        assert [e["event"] for e in events] == ["round", "finding"]
        cursor = events[0]["cursor"]
        assert [e["event"] for e in store.trace_events_after("one", cursor)] == ["finding"]

    def test_wait_for_events_returns_early_on_terminal_status(self, store):
        store.create_campaign("one", {}, 0)
        store.set_campaign_status("one", "completed")
        # no events and the campaign is done: must not block for the full wait
        assert wait_for_events(store, "one", 0, wait_seconds=30.0) == []


class TestCheckpoints:
    def test_save_load_roundtrip(self, store):
        store.create_campaign("one", {}, 0)
        state = CheckpointState(
            seed=7, shard_index=1, shard_count=2, rounds_completed=3, elapsed_seconds=1.5,
            result=CampaignResult(config=CampaignConfig()), dedup=Deduplicator().result, scheduler=None,
        )
        store.save_checkpoint("one", 1, 2, 7, 3, 1.5, state.to_blob())
        row = store.load_checkpoint("one", 1)
        assert (row["shard_count"], row["seed"], row["rounds_completed"]) == (2, 7, 3)
        restored = CheckpointState.from_blob(row["state"])
        assert restored.rounds_completed == 3
        assert isinstance(restored.result, CampaignResult)

    def test_from_blob_rejects_garbage(self):
        import pickle

        with pytest.raises(TypeError):
            CheckpointState.from_blob(pickle.dumps({"not": "a checkpoint"}))

    def test_campaign_checkpoints_lists_cursors_without_blobs(self, store):
        store.create_campaign("one", {}, 0)
        blob = CheckpointState(
            seed=0, shard_index=0, shard_count=2, rounds_completed=1, elapsed_seconds=0.1,
            result=CampaignResult(config=CampaignConfig()), dedup=Deduplicator().result, scheduler=None,
        ).to_blob()
        store.save_checkpoint("one", 0, 2, 0, 1, 0.1, blob)
        store.save_checkpoint("one", 1, 2, 0, 2, 0.2, blob, done=True)
        cursors = store.campaign_checkpoints("one")
        assert [(c["shard_index"], c["rounds_completed"], c["done"]) for c in cursors] == [
            (0, 1, 0),
            (1, 2, 1),
        ]
        assert all("state" not in c for c in cursors)


class TestAccumulate:
    def test_none_partial_passes_through(self):
        current = CampaignResult(config=CampaignConfig(), rounds=2, queries_run=10)
        assert accumulate_shard_result(None, current) is current

    def test_counters_sum_and_findings_concatenate(self):
        partial = CampaignResult(config=CampaignConfig(), rounds=2, queries_run=10, errors_ignored=1,
                                 queries_by_scenario={"knn": 4})
        partial.discrepancies = ["d1"]
        current = CampaignResult(config=CampaignConfig(), rounds=3, queries_run=15, errors_ignored=0,
                                 queries_by_scenario={"knn": 6, "join": 2})
        current.discrepancies = ["d2", "d3"]
        merged = accumulate_shard_result(partial, current)
        assert merged.rounds == 5
        assert merged.queries_run == 25
        assert merged.errors_ignored == 1
        assert merged.queries_by_scenario == {"knn": 10, "join": 2}
        assert merged.discrepancies == ["d1", "d2", "d3"]


class TestStats:
    def test_global_counts(self, store):
        store.create_campaign("one", {}, 0)
        store.set_campaign_status("one", "completed")
        store.create_campaign("two", {}, 0)
        store.record_finding("one", record("sig-a"))
        store.record_finding("two", record("sig-a"))
        store.record_trace_event("one", {"event": "round", "shard": 0})
        stats = store.stats()
        assert stats["campaigns"] == 2
        assert stats["campaigns_by_status"] == {"completed": 1, "running": 1}
        assert stats["unique_findings"] == 1
        assert stats["sightings"] == 2
        assert stats["novel_sightings"] == 1
        assert stats["trace_events"] == 1


class TestTransactions:
    def test_rollback_on_error(self, store):
        store.create_campaign("one", {}, 0)
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.record_finding("one", record("sig-a"))
                raise RuntimeError("abort")
        assert store.sighting_count("one") == 0
        assert store.known_signatures() == []

    def test_nested_transaction_joins_the_outer_one(self, store):
        store.create_campaign("one", {}, 0)
        with store.transaction():
            # record_finding opens its own transaction() internally; nesting
            # must join rather than raise "cannot start a transaction
            # within a transaction".
            store.record_finding("one", record("sig-a"))
            store.record_finding("one", record("sig-b"))
        assert store.known_signatures() == ["sig-a", "sig-b"]
