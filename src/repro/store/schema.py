"""The persistent store's relational schema, versioned via ``user_version``.

Six tables on stdlib ``sqlite3``:

* ``campaigns`` — one row per submitted campaign: the full config snapshot
  as JSON (what ``--resume`` rebuilds the run from), the seed and budget
  targets, a status machine (``running → completed | failed``, with
  ``interrupted`` for acknowledged kills), and the final merged result
  JSON once the run completes.
* ``findings`` — the *globally deduplicated* bug corpus: one row per unique
  dedup signature ever observed, UNIQUE-indexed on the signature so
  cross-run novelty is a single ``INSERT OR IGNORE`` (the LAVA corpus
  pattern).  The row remembers which campaign first produced it and the
  full JSON projection of that first sighting.
* ``sightings`` — every observation, novel or not, keyed to its campaign
  and shard, with the JSON projection of that observation itself: what
  ``GET /campaigns/{id}/findings`` lists, and the denominator of the
  global dedup statistics.  (Rows written before version 2 carry no
  payload and read their signature's corpus payload.)
* ``arm_stats`` — per-(campaign, shard, arm) scheduler counters; readers
  merge across shards by summation exactly like
  :func:`repro.core.scheduler.merge_scheduler_stats`.
* ``trace_events`` — the ingested :mod:`repro.core.trace` event stream (one
  JSON payload per event), the feed of the service's long-poll progress
  endpoint.
* ``checkpoints`` — one row per (campaign, shard): the resume cursor
  columns ``(seed, shard_index, shard_count, rounds_completed)`` in the
  clear for inspection, plus the pickled :class:`CheckpointState` blob the
  resumed worker rehydrates.

Migrations append to ``MIGRATIONS``; ``apply_schema`` runs every step above
the database's current ``PRAGMA user_version`` and stamps the new version,
so older store files upgrade in place.
"""

from __future__ import annotations

import sqlite3

#: schema steps, applied in order; index i migrates user_version i -> i+1.
MIGRATIONS: tuple[str, ...] = (
    """
    CREATE TABLE campaigns (
        id            TEXT PRIMARY KEY,
        config_json   TEXT NOT NULL,
        seed          INTEGER NOT NULL,
        status        TEXT NOT NULL DEFAULT 'running',
        target_rounds INTEGER,
        target_duration REAL,
        result_json   TEXT,
        error         TEXT,
        created_at    TEXT NOT NULL,
        updated_at    TEXT NOT NULL
    );

    CREATE TABLE findings (
        id            INTEGER PRIMARY KEY AUTOINCREMENT,
        signature     TEXT NOT NULL,
        campaign_id   TEXT NOT NULL REFERENCES campaigns(id),
        kind          TEXT NOT NULL,
        scenario      TEXT,
        oracle        TEXT,
        label         TEXT,
        bug_ids_json  TEXT NOT NULL DEFAULT '[]',
        payload_json  TEXT NOT NULL,
        created_at    TEXT NOT NULL
    );
    CREATE UNIQUE INDEX findings_signature ON findings(signature);
    CREATE INDEX findings_scenario ON findings(scenario);
    CREATE INDEX findings_oracle ON findings(oracle);
    CREATE INDEX findings_campaign ON findings(campaign_id);

    CREATE TABLE sightings (
        id            INTEGER PRIMARY KEY AUTOINCREMENT,
        campaign_id   TEXT NOT NULL REFERENCES campaigns(id),
        shard_index   INTEGER NOT NULL DEFAULT 0,
        signature     TEXT NOT NULL,
        kind          TEXT NOT NULL,
        novel         INTEGER NOT NULL,
        created_at    TEXT NOT NULL
    );
    CREATE INDEX sightings_campaign ON sightings(campaign_id);
    CREATE INDEX sightings_signature ON sightings(signature);

    CREATE TABLE arm_stats (
        campaign_id      TEXT NOT NULL REFERENCES campaigns(id),
        shard_index      INTEGER NOT NULL,
        arm              TEXT NOT NULL,
        pulls            INTEGER NOT NULL DEFAULT 0,
        queries          INTEGER NOT NULL DEFAULT 0,
        novel_signatures INTEGER NOT NULL DEFAULT 0,
        PRIMARY KEY (campaign_id, shard_index, arm)
    );

    CREATE TABLE trace_events (
        id            INTEGER PRIMARY KEY AUTOINCREMENT,
        campaign_id   TEXT NOT NULL REFERENCES campaigns(id),
        shard         INTEGER NOT NULL DEFAULT 0,
        event         TEXT NOT NULL,
        payload_json  TEXT NOT NULL,
        created_at    TEXT NOT NULL
    );
    CREATE INDEX trace_events_campaign ON trace_events(campaign_id, id);

    CREATE TABLE checkpoints (
        campaign_id      TEXT NOT NULL REFERENCES campaigns(id),
        shard_index      INTEGER NOT NULL,
        shard_count      INTEGER NOT NULL,
        seed             INTEGER NOT NULL,
        rounds_completed INTEGER NOT NULL,
        elapsed_seconds  REAL NOT NULL DEFAULT 0.0,
        done             INTEGER NOT NULL DEFAULT 0,
        state            BLOB NOT NULL,
        updated_at       TEXT NOT NULL,
        PRIMARY KEY (campaign_id, shard_index)
    );
    """,
    # v2: each sighting keeps its own payload; a second finding under a
    # stored signature (the same shape on other tables) differs in detail.
    """
    ALTER TABLE sightings ADD COLUMN payload_json TEXT;
    """,
)

#: the user_version a fully-migrated store reports.
SCHEMA_VERSION = len(MIGRATIONS)


def apply_schema(connection: sqlite3.Connection) -> None:
    """Bring ``connection``'s database up to ``SCHEMA_VERSION`` in place."""
    version = connection.execute("PRAGMA user_version").fetchone()[0]
    if version > SCHEMA_VERSION:
        raise RuntimeError(
            f"store schema version {version} is newer than this build "
            f"supports ({SCHEMA_VERSION}); refusing to open"
        )
    for step in MIGRATIONS[version:]:
        connection.executescript(step)
        version += 1
        connection.execute(f"PRAGMA user_version = {version}")
    connection.commit()
