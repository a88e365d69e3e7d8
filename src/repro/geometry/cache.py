"""Interned geometry parsing: each distinct WKT/WKB text is parsed once.

The engine's hot paths re-read the same serialized geometries over and over:
every nested-loop join evaluation re-parses constant literals, the oracle
re-parses each table geometry when it builds follow-up databases, and
deduplication re-parses the WKTs of every reduced test case.  Parsing is
pure — the text fully determines the geometry, independent of dialect and
fault plan (dialect-specific validation happens *after* parsing, in
``FunctionRegistry._coerce_geometry``) — so one process-wide interning table
is safe: callers receive a shared, immutable ``Geometry`` instance.

Sharing instances has a second benefit: the relate engine's identity-keyed
memo (:mod:`repro.topology.relate`) hits whenever the *same objects* meet
again, which interning makes the common case.

The tables are bounded LRUs: long-running multi-campaign processes
(``spatter serve``) must not grow without bound, and evicting the least
recently used entry keeps the campaign's working set warm instead of the
clear-wholesale idiom's periodic cold restarts.  Hit/miss/eviction counters
are surfaced by ``repro.analysis.timing`` and the campaign's
``cache_stats``.

Campaign threads (``spatter serve``, parallel library callers) share the
tables, so one lock guards every read-modify-write of them (a lookup with
its recency update, an eviction with its insert).  Parsing runs outside the
lock; a miss re-checks the table under the lock and keeps an entry a racing
thread installed first, so one text never maps to two live objects.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from repro.geometry.model import Geometry
from repro.geometry.wkt import load_wkt as _parse_wkt

_WKT_INTERN: "OrderedDict[str, Geometry]" = OrderedDict()
_WKB_INTERN: "OrderedDict[str, Geometry]" = OrderedDict()
_INTERN_LIMIT = 65536

_STATS = {"hits": 0, "misses": 0, "evictions": 0}
_LOCK = threading.Lock()


def set_geometry_cache_limit(limit: int) -> int:
    """Set the per-table entry cap; returns the previous cap.

    Existing entries beyond the new cap are evicted immediately (oldest
    first) so the bound holds from the moment it is configured.
    """
    global _INTERN_LIMIT
    with _LOCK:
        previous = _INTERN_LIMIT
        _INTERN_LIMIT = max(1, int(limit))
        for table in (_WKT_INTERN, _WKB_INTERN):
            while len(table) > _INTERN_LIMIT:
                table.popitem(last=False)
                _STATS["evictions"] += 1
    return previous


def _interned(
    table: "OrderedDict[str, Geometry]", text: str, parse: Callable[[str], Geometry]
) -> Geometry:
    """The shared geometry interned under ``text``.

    A hit refreshes the entry's recency.  A miss calls ``parse`` outside
    the lock, then installs its result, unless a racing thread installed
    one for the same text first (that one wins).
    """
    # Every parsed literal takes this path, so it pays for a plain
    # acquire/release: about half the cost of a ``with`` block on CPython.
    _LOCK.acquire()
    try:
        cached = table.get(text)
        if cached is not None:
            _STATS["hits"] += 1
            table.move_to_end(text)
            return cached
        _STATS["misses"] += 1
    finally:
        _LOCK.release()
    geometry = parse(text)
    with _LOCK:
        existing = table.get(text)
        if existing is not None:
            return existing
        if len(table) >= _INTERN_LIMIT:
            table.popitem(last=False)
            _STATS["evictions"] += 1
        table[text] = geometry
    return geometry


def load_wkt_interned(text: str) -> Geometry:
    """Parse WKT through the interning table.

    Identical inputs return the identical (shared) ``Geometry`` object; the
    text is only parsed on the first occurrence.  Parse errors are never
    cached — an invalid text raises every time, exactly like the raw parser.
    """
    return _interned(_WKT_INTERN, text, _parse_wkt)


def intern_parsed(text: str, geometry: Geometry) -> Geometry:
    """Register an already-parsed geometry under its serialized text.

    The reuse layer derives follow-up geometries by transforming parsed
    originals; registering the derived object under its dumped WKT lets the
    engine's later parses of that text (INSERT replay, query literals,
    deduplication) share the instance instead of re-parsing.  Callers must
    guarantee ``geometry`` is value-identical to ``load_wkt(text)`` — the
    derivation path only interns geometries whose coordinates round-trip
    exactly (integral, see ``repro.core.oracle``).

    Returns the canonical shared instance: if ``text`` is already interned
    the existing object wins, preserving the identity-sharing the rest of
    the process may already rely on.
    """
    return _interned(_WKT_INTERN, text, lambda _text: geometry)


def load_hex_wkb_interned(text: str) -> Geometry:
    """Parse hexadecimal WKB through the interning table (see above)."""
    from repro.geometry.wkb import load_hex_wkb as _parse_hex_wkb

    return _interned(_WKB_INTERN, text, _parse_hex_wkb)


def geometry_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters plus current table sizes."""
    with _LOCK:
        return {
            "hits": _STATS["hits"],
            "misses": _STATS["misses"],
            "evictions": _STATS["evictions"],
            "wkt_entries": len(_WKT_INTERN),
            "wkb_entries": len(_WKB_INTERN),
        }


def clear_geometry_cache() -> None:
    """Drop every interned geometry and reset the counters."""
    with _LOCK:
        _WKT_INTERN.clear()
        _WKB_INTERN.clear()
        _STATS["hits"] = 0
        _STATS["misses"] = 0
        _STATS["evictions"] = 0
