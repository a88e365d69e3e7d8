"""Bounded LRU and thread-safety regression for the WKT/WKB interner.

Before the reuse layer the interner grew without bound for the life of the
process; ``spatter serve`` can run campaigns for days, so the tables are
now capped LRUs.  These tests pin the bound (a long synthetic load never
exceeds the cap), the recency discipline (the least recently *used* entry
goes first, not the least recently inserted), the eviction counters in
``geometry_cache_stats()``, and the hit/miss semantics of ``intern_parsed``
(the reuse layer's entry point for registering derived geometries), and
that concurrent campaign threads neither crash the interner nor push it
past its bound.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.geometry.cache import (
    clear_geometry_cache,
    geometry_cache_stats,
    intern_parsed,
    load_hex_wkb_interned,
    load_wkt_interned,
    set_geometry_cache_limit,
)
from repro.geometry.wkb import dump_hex_wkb
from repro.geometry.wkt import load_wkt as parse_wkt_raw


@pytest.fixture()
def tiny_cache():
    """A cold interner capped at 4 entries; everything restored afterwards."""
    clear_geometry_cache()
    previous = set_geometry_cache_limit(4)
    yield
    set_geometry_cache_limit(previous)
    clear_geometry_cache()


def _point(index: int) -> str:
    return f"POINT({index} {index})"


def test_long_load_stays_under_the_cap(tiny_cache):
    for index in range(100):
        load_wkt_interned(_point(index))
    stats = geometry_cache_stats()
    assert stats["wkt_entries"] == 4
    assert stats["misses"] == 100
    assert stats["evictions"] == 96


def test_eviction_is_least_recently_used_not_least_recently_inserted(tiny_cache):
    first = load_wkt_interned(_point(0))
    for index in range(1, 4):
        load_wkt_interned(_point(index))
    # Touch the oldest entry, then overflow: the hit refreshes its recency,
    # so the *second* oldest is the one evicted.
    assert load_wkt_interned(_point(0)) is first
    load_wkt_interned(_point(4))
    assert load_wkt_interned(_point(0)) is first  # still interned: a hit
    stats = geometry_cache_stats()
    assert stats["evictions"] == 1
    before = geometry_cache_stats()["misses"]
    load_wkt_interned(_point(1))  # the evicted one re-parses: a miss
    assert geometry_cache_stats()["misses"] == before + 1


def test_shrinking_the_limit_evicts_immediately(tiny_cache):
    for index in range(4):
        load_wkt_interned(_point(index))
    assert set_geometry_cache_limit(2) == 4
    stats = geometry_cache_stats()
    assert stats["wkt_entries"] == 2
    assert stats["evictions"] == 2
    # The survivors are the two most recent entries.
    assert geometry_cache_stats()["hits"] == 0
    load_wkt_interned(_point(3))
    assert geometry_cache_stats()["hits"] == 1


def test_intern_parsed_registers_and_defers_to_existing(tiny_cache):
    text = "LINESTRING(0 0,2 2)"
    parsed = parse_wkt_raw(text)  # raw parser: does not touch the interner
    assert geometry_cache_stats()["misses"] == 0
    # First registration counts as a miss and installs the object.
    assert intern_parsed(text, parsed) is parsed
    assert load_wkt_interned(text) is parsed  # hit, shared instance
    # A second registration under the same text is a hit and the *existing*
    # instance wins — identity sharing is never broken by re-registration.
    other = parse_wkt_raw(text)
    assert other is not parsed
    assert intern_parsed(text, other) is parsed
    stats = geometry_cache_stats()
    assert stats["hits"] == 2
    assert stats["misses"] == 1


def test_wkb_table_is_bounded_too(tiny_cache):
    texts = [dump_hex_wkb(parse_wkt_raw(_point(index))) for index in range(6)]
    for text in texts:
        load_hex_wkb_interned(text)
    stats = geometry_cache_stats()
    assert stats["wkb_entries"] == 4
    assert stats["evictions"] == 2
    assert load_hex_wkb_interned(texts[-1]) is load_hex_wkb_interned(texts[-1])


#: lookups per thread in the stress test: enough for the unlocked interner
#: to lose a thread in most runs.
ITERATIONS = 20000


def test_concurrent_threads_keep_the_interner_consistent():
    """Eight threads hammer a table capped at 8 with 10 shared texts under
    a 1 µs switch interval.  Unlocked, ``move_to_end`` races ``popitem``:
    threads die with ``KeyError`` and the table overshoots its cap."""
    clear_geometry_cache()
    previous_limit = set_geometry_cache_limit(8)
    texts = [_point(index) for index in range(10)]
    parsed = {text: parse_wkt_raw(text) for text in texts}
    errors: list[BaseException] = []
    sizes: list[int] = []
    start = threading.Barrier(8)

    def hammer(seed: int) -> None:
        rng = random.Random(seed)
        try:
            start.wait(timeout=30)
            for step in range(ITERATIONS):
                text = rng.choice(texts)
                if step % 4:
                    load_wkt_interned(text)
                else:
                    intern_parsed(text, parsed[text])
                if step % 16 == 0:
                    sizes.append(geometry_cache_stats()["wkt_entries"])
        except BaseException as error:  # noqa: BLE001 - asserted below
            errors.append(error)

    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous_interval)
        set_geometry_cache_limit(previous_limit)
    try:
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert max(sizes) <= 8
        assert geometry_cache_stats()["wkt_entries"] <= 8
    finally:
        clear_geometry_cache()

