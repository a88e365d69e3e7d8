"""``FindingsStore``: the sqlite3-backed persistent campaign/findings store.

One store file holds the cross-run memory of every campaign pointed at it:
submitted configs, the globally-deduplicated findings corpus, per-campaign
sightings, scheduler arm statistics, the ingested trace event stream, and
per-shard resume checkpoints (schema: :mod:`repro.store.schema`,
semantics: ``docs/SERVICE.md``).

Concurrency model — many processes, one file:

* every process/thread opens its **own** ``FindingsStore`` (sqlite3
  connections must not cross fork or thread boundaries here);
* the database runs in WAL mode, so readers never block writers;
* writers serialize through short explicit transactions —
  :meth:`record_finding` wraps its novelty check in ``BEGIN IMMEDIATE`` so
  "was this signature globally novel?" is answered atomically across
  concurrently-writing shards — with a generous ``busy_timeout`` instead of
  ``database is locked`` escapes (the two-process concurrency test pins
  exactly this down).
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Iterable

from repro.store.schema import apply_schema


def _now() -> str:
    """UTC wall-clock timestamp for bookkeeping columns (never part of any
    determinism contract)."""
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class StoreBinding:
    """A picklable pointer to one campaign in one store file.

    What the parallel orchestrator ships across the process boundary: the
    worker opens its own connection from ``path`` (live sqlite handles never
    pickle or survive a fork).  ``preseed`` asks the shard to seed its
    deduplicator's signature space from store history before running — the
    bridge that steers the bandit scheduler away from historically-covered
    arms.
    """

    path: str
    campaign_id: str
    preseed: bool = False


class FindingsStore:
    """Handle on one persistent store file (create-or-open)."""

    def __init__(self, path: str, busy_timeout_seconds: float = 30.0):
        self.path = path
        # isolation_level=None: autocommit with explicit BEGIN where
        # atomicity spans statements — sqlite3's implicit transaction
        # management would hold locks longer than the store needs.
        self.connection = sqlite3.connect(
            path, timeout=busy_timeout_seconds, isolation_level=None
        )
        self.connection.row_factory = sqlite3.Row
        self.connection.execute("PRAGMA journal_mode=WAL")
        self.connection.execute(f"PRAGMA busy_timeout={int(busy_timeout_seconds * 1000)}")
        self.connection.execute("PRAGMA synchronous=NORMAL")
        apply_schema(self.connection)

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "FindingsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @contextmanager
    def transaction(self):
        """``BEGIN IMMEDIATE`` … ``COMMIT`` (rollback on error).

        Immediate mode takes the write lock up front, so a transaction that
        interleaves reads and writes (the per-round checkpoint batch) cannot
        deadlock against another shard upgrading a read lock; contention
        waits on ``busy_timeout`` instead of raising.  Re-entrant use from
        :meth:`record_finding` inside a caller's transaction is handled by
        nesting checks.
        """
        if self.connection.in_transaction:
            yield  # already inside an explicit transaction: join it
            return
        self.connection.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            self.connection.execute("ROLLBACK")
            raise
        self.connection.execute("COMMIT")

    # -------------------------------------------------------------- campaigns
    def create_campaign(
        self,
        campaign_id: str,
        config_json: dict,
        seed: int,
        target_rounds: int | None = None,
        target_duration: float | None = None,
        status: str = "running",
    ) -> str:
        with self.transaction():
            self.connection.execute(
                "INSERT INTO campaigns (id, config_json, seed, status, target_rounds,"
                " target_duration, created_at, updated_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    json.dumps(config_json, sort_keys=True),
                    seed,
                    status,
                    target_rounds,
                    target_duration,
                    _now(),
                    _now(),
                ),
            )
        return campaign_id

    def get_campaign(self, campaign_id: str) -> dict | None:
        row = self.connection.execute(
            "SELECT * FROM campaigns WHERE id = ?", (campaign_id,)
        ).fetchone()
        if row is None:
            return None
        campaign = dict(row)
        campaign["config"] = json.loads(campaign.pop("config_json"))
        result_json = campaign.pop("result_json")
        campaign["result"] = json.loads(result_json) if result_json else None
        return campaign

    def list_campaigns(self) -> list[dict]:
        rows = self.connection.execute(
            "SELECT id, seed, status, target_rounds, target_duration, created_at,"
            " updated_at FROM campaigns ORDER BY created_at, id"
        ).fetchall()
        return [dict(row) for row in rows]

    def set_campaign_status(
        self,
        campaign_id: str,
        status: str,
        result_json: dict | None = None,
        error: str | None = None,
    ) -> None:
        with self.transaction():
            self.connection.execute(
                "UPDATE campaigns SET status = ?, result_json = COALESCE(?, result_json),"
                " error = ?, updated_at = ? WHERE id = ?",
                (
                    status,
                    json.dumps(result_json, sort_keys=True) if result_json is not None else None,
                    error,
                    _now(),
                    campaign_id,
                ),
            )

    def set_campaign_targets(
        self, campaign_id: str, target_rounds: int | None, target_duration: float | None
    ) -> None:
        """Re-point a campaign's budget targets (a resume with an explicit
        new budget records what the merged result now corresponds to)."""
        with self.transaction():
            self.connection.execute(
                "UPDATE campaigns SET target_rounds = ?, target_duration = ?,"
                " updated_at = ? WHERE id = ?",
                (target_rounds, target_duration, _now(), campaign_id),
            )

    # --------------------------------------------------------------- findings
    def record_finding(
        self, campaign_id: str, record: dict, shard_index: int = 0
    ) -> bool:
        """Persist one finding observation; returns *global* novelty.

        ``record`` is a projection from :mod:`repro.store.serialize` (must
        carry ``signature`` and ``kind``).  The corpus insert is one
        ``INSERT OR IGNORE`` against the UNIQUE signature index; the
        sighting row is written either way, stamped with the novelty
        verdict, so a campaign can later report how many of its findings
        were new to the whole store ("a second submission of the same
        config reports zero globally-novel findings").
        """
        signature = record["signature"]
        payload = json.dumps(record, sort_keys=True)
        with self.transaction():
            cursor = self.connection.execute(
                "INSERT OR IGNORE INTO findings (signature, campaign_id, kind, scenario,"
                " oracle, label, bug_ids_json, payload_json, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    signature,
                    campaign_id,
                    record.get("kind", "finding"),
                    record.get("scenario"),
                    record.get("oracle"),
                    record.get("label"),
                    json.dumps(record.get("bug_ids", []), sort_keys=True),
                    payload,
                    _now(),
                ),
            )
            novel = cursor.rowcount == 1
            self.connection.execute(
                "INSERT INTO sightings (campaign_id, shard_index, signature, kind,"
                " novel, payload_json, created_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    shard_index,
                    signature,
                    record.get("kind", "finding"),
                    1 if novel else 0,
                    payload,
                    _now(),
                ),
            )
        return novel

    def campaign_findings(self, campaign_id: str) -> list[dict]:
        """Every finding the campaign observed (novel or not), in sighting
        order, each carrying its own payload plus its novelty verdict (a
        sighting stored before schema version 2 carries its signature's
        corpus payload)."""
        rows = self.connection.execute(
            "SELECT s.signature, s.shard_index, s.novel, s.created_at,"
            " COALESCE(s.payload_json, f.payload_json) AS payload_json"
            " FROM sightings s JOIN findings f ON f.signature = s.signature"
            " WHERE s.campaign_id = ? ORDER BY s.id",
            (campaign_id,),
        ).fetchall()
        findings = []
        for row in rows:
            record = json.loads(row["payload_json"])
            record["novel"] = bool(row["novel"])
            record["shard_index"] = row["shard_index"]
            record["observed_at"] = row["created_at"]
            findings.append(record)
        return findings

    def query_findings(
        self,
        signature: str | None = None,
        scenario: str | None = None,
        oracle: str | None = None,
        kind: str | None = None,
        since: str | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """Cross-run corpus query (the ``GET /findings`` endpoint).

        ``since`` compares against the ISO-8601 ``created_at`` stamp of the
        first sighting; filters combine conjunctively.
        """
        clauses, parameters = [], []
        for column, value in (
            ("signature", signature),
            ("scenario", scenario),
            ("oracle", oracle),
            ("kind", kind),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                parameters.append(value)
        if since is not None:
            clauses.append("created_at >= ?")
            parameters.append(since)
        sql = "SELECT payload_json, campaign_id, created_at FROM findings"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id"
        if limit is not None:
            sql += " LIMIT ?"
            parameters.append(int(limit))
        rows = self.connection.execute(sql, parameters).fetchall()
        findings = []
        for row in rows:
            record = json.loads(row["payload_json"])
            record["first_campaign_id"] = row["campaign_id"]
            record["first_observed_at"] = row["created_at"]
            findings.append(record)
        return findings

    def known_signatures(self) -> list[str]:
        """Every dedup signature in the corpus, in first-observation order."""
        rows = self.connection.execute("SELECT signature FROM findings ORDER BY id").fetchall()
        return [row["signature"] for row in rows]

    def preseed_deduplicator(self, deduplicator) -> int:
        """Seed a run's signature space from store history (the
        :class:`~repro.core.dedup.Deduplicator` bridge).

        Every historical signature becomes "already seen": the bandit
        scheduler then rewards only findings novel *across runs*, steering
        budget toward underrepresented plan shapes.  Returns how many
        signatures were loaded.
        """
        signatures = self.known_signatures()
        deduplicator.preseed_signatures(signatures)
        return len(signatures)

    def sighting_count(self, campaign_id: str) -> int:
        """How many finding observations a campaign has recorded so far."""
        row = self.connection.execute(
            "SELECT COUNT(*) FROM sightings WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()
        return row[0]

    def novel_finding_count(self, campaign_id: str) -> int:
        """How many of a campaign's sightings were globally novel."""
        row = self.connection.execute(
            "SELECT COUNT(*) FROM sightings WHERE campaign_id = ? AND novel = 1",
            (campaign_id,),
        ).fetchone()
        return row[0]

    # -------------------------------------------------------------- arm stats
    def save_arm_stats(
        self, campaign_id: str, shard_index: int, stats: dict[str, dict]
    ) -> None:
        """Upsert one shard's cumulative per-arm scheduler counters."""
        with self.transaction():
            for arm, row in stats.items():
                self.connection.execute(
                    "INSERT OR REPLACE INTO arm_stats (campaign_id, shard_index, arm,"
                    " pulls, queries, novel_signatures) VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        campaign_id,
                        shard_index,
                        arm,
                        row.get("pulls", 0),
                        row.get("queries", 0),
                        row.get("novel_signatures", 0),
                    ),
                )

    def campaign_arm_stats(self, campaign_id: str) -> dict[str, dict]:
        """Per-arm stats merged across shards by summation (posterior
        re-derived), in the :attr:`CampaignResult.scheduler_stats` shape."""
        from repro.core.scheduler import merge_scheduler_stats

        rows = self.connection.execute(
            "SELECT shard_index, arm, pulls, queries, novel_signatures FROM arm_stats"
            " WHERE campaign_id = ? ORDER BY shard_index, arm",
            (campaign_id,),
        ).fetchall()
        merged: dict[str, dict] = {}
        for row in rows:
            merged = merge_scheduler_stats(
                merged,
                {
                    row["arm"]: {
                        "pulls": row["pulls"],
                        "queries": row["queries"],
                        "novel_signatures": row["novel_signatures"],
                    }
                },
            )
        return merged

    # ----------------------------------------------------------- trace events
    def record_trace_event(self, campaign_id: str, record: dict) -> None:
        """Ingest one :mod:`repro.core.trace` event (the store sink)."""
        with self.transaction():
            self.connection.execute(
                "INSERT INTO trace_events (campaign_id, shard, event, payload_json,"
                " created_at) VALUES (?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    int(record.get("shard", 0)),
                    str(record.get("event", "?")),
                    json.dumps(record, sort_keys=True),
                    _now(),
                ),
            )

    def record_trace_events(self, campaign_id: str, records: Iterable[dict]) -> None:
        """Batch ingest (one transaction; the per-round flush path)."""
        with self.transaction():
            for record in records:
                self.connection.execute(
                    "INSERT INTO trace_events (campaign_id, shard, event, payload_json,"
                    " created_at) VALUES (?, ?, ?, ?, ?)",
                    (
                        campaign_id,
                        int(record.get("shard", 0)),
                        str(record.get("event", "?")),
                        json.dumps(record, sort_keys=True),
                        _now(),
                    ),
                )

    def trace_events_after(
        self, campaign_id: str, after_id: int = 0, limit: int = 500
    ) -> list[dict]:
        """Events with id greater than ``after_id`` (the long-poll cursor)."""
        rows = self.connection.execute(
            "SELECT id, payload_json FROM trace_events WHERE campaign_id = ? AND id > ?"
            " ORDER BY id LIMIT ?",
            (campaign_id, after_id, limit),
        ).fetchall()
        events = []
        for row in rows:
            event = json.loads(row["payload_json"])
            event["cursor"] = row["id"]
            events.append(event)
        return events

    # ------------------------------------------------------------ checkpoints
    def save_checkpoint(
        self,
        campaign_id: str,
        shard_index: int,
        shard_count: int,
        seed: int,
        rounds_completed: int,
        elapsed_seconds: float,
        state: bytes,
        done: bool = False,
    ) -> None:
        with self.transaction():
            self.connection.execute(
                "INSERT OR REPLACE INTO checkpoints (campaign_id, shard_index,"
                " shard_count, seed, rounds_completed, elapsed_seconds, done, state,"
                " updated_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    shard_index,
                    shard_count,
                    seed,
                    rounds_completed,
                    elapsed_seconds,
                    1 if done else 0,
                    state,
                    _now(),
                ),
            )

    def load_checkpoint(self, campaign_id: str, shard_index: int) -> dict | None:
        row = self.connection.execute(
            "SELECT * FROM checkpoints WHERE campaign_id = ? AND shard_index = ?",
            (campaign_id, shard_index),
        ).fetchone()
        return dict(row) if row is not None else None

    def campaign_checkpoints(self, campaign_id: str) -> list[dict]:
        """Every shard cursor of a campaign (without the state blobs) —
        the progress surface of ``GET /campaigns/{id}``."""
        rows = self.connection.execute(
            "SELECT campaign_id, shard_index, shard_count, seed, rounds_completed,"
            " elapsed_seconds, done, updated_at FROM checkpoints WHERE campaign_id = ?"
            " ORDER BY shard_index",
            (campaign_id,),
        ).fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """Global store statistics (the ``GET /stats`` body)."""

        def _count(sql: str, *parameters) -> int:
            return self.connection.execute(sql, parameters).fetchone()[0]

        by_kind = {
            row["kind"]: row["n"]
            for row in self.connection.execute(
                "SELECT kind, COUNT(*) AS n FROM findings GROUP BY kind ORDER BY kind"
            )
        }
        by_status = {
            row["status"]: row["n"]
            for row in self.connection.execute(
                "SELECT status, COUNT(*) AS n FROM campaigns GROUP BY status ORDER BY status"
            )
        }
        return {
            "campaigns": _count("SELECT COUNT(*) FROM campaigns"),
            "campaigns_by_status": by_status,
            "unique_findings": _count("SELECT COUNT(*) FROM findings"),
            "findings_by_kind": by_kind,
            "sightings": _count("SELECT COUNT(*) FROM sightings"),
            "novel_sightings": _count("SELECT COUNT(*) FROM sightings WHERE novel = 1"),
            "trace_events": _count("SELECT COUNT(*) FROM trace_events"),
        }


def wait_for_events(
    store: "FindingsStore",
    campaign_id: str,
    after_id: int,
    wait_seconds: float,
    poll_interval: float = 0.15,
) -> list[dict]:
    """Long-poll helper: block until the campaign has events past the
    cursor, its status goes terminal, or ``wait_seconds`` elapses."""
    deadline = time.monotonic() + max(0.0, wait_seconds)
    while True:
        events = store.trace_events_after(campaign_id, after_id)
        if events or time.monotonic() >= deadline:
            return events
        campaign = store.get_campaign(campaign_id)
        if campaign is None or campaign["status"] in ("completed", "failed"):
            return events
        time.sleep(poll_interval)
