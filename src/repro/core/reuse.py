"""Counters for the materialization/plan reuse layer.

The reuse layer spans several modules — the oracle derives follow-up
databases from parsed originals, the backend session bulk-loads parsed
tables, and the campaign-owned plan cache replays compiled statements.  It
always runs.  The legacy paths remain only where they are the only ones
that can run: a session without ``load_geometry_tables``/``execute_parsed``
(the ``sqlite`` backend) replays SQL, a follow-up with a non-integral
derived coordinate is re-parsed from its WKT, and a query shape the plan
verifier refuses is rendered and re-parsed.

The counters record *which* path ran — how many databases were materialised
by direct bulk-load, how many follow-ups were derived without a WKT
round-trip, and how many fell back to SQL replay — so the reference
equivalence harness can prove the reuse path actually engaged
(non-vacuity) and the CLI can report it.  They follow the process-global
cache idiom: ``TestingCampaign`` snapshots them per round and reports
deltas, keeping shard results additive under parallel merge.
"""

from __future__ import annotations

_STATS = {
    # databases materialised by direct bulk-load of parsed geometry tables
    "direct_databases": 0,
    # follow-up databases whose spec was derived from parsed originals
    # (no WKT round-trip) and bulk-loaded as objects
    "derived_databases": 0,
    # databases that fell back to SQL replay (session without bulk-load
    # support)
    "fallback_databases": 0,
}


def record_materialisation(kind: str) -> None:
    """Count one materialised database by path (see ``_STATS`` keys)."""
    _STATS[f"{kind}_databases"] += 1


def reuse_stats() -> dict[str, int]:
    """Current process-global reuse counters."""
    return dict(_STATS)


def clear_reuse_stats() -> None:
    """Reset the counters (tests and benchmarks)."""
    for key in _STATS:
        _STATS[key] = 0
