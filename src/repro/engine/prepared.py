"""Prepared-geometry cache.

PostGIS/GEOS speed up repeated predicate evaluations against the same
geometry (typically the outer side of a spatial join) by "preparing" it once
and caching per-candidate results.  The paper found a logic bug in exactly
this component (Listing 7): the prepared variant of ``ST_Contains`` silently
disagreed with the non-prepared variant.

MiniSDB implements the same architecture: on GEOS-backed dialects,
``ST_Contains`` evaluates through a :class:`PreparedGeometryCache`, and no
other predicate does (the relate identity memo already answers their
repeats).  When the ``geos-prepared-contains-collection`` bug is active, a
*repeated* GEOMETRYCOLLECTION probe against the same prepared geometry is
answered incorrectly with ``False`` instead of the cached result,
reproducing the "pair (3,2) is missing" symptom of Listing 7.

The bug's trigger state (which collection probes have been seen before) is
tracked independently of the bounded result store, so evicting a result
under the LRU limit can never *mask* the injected bug — a repeated
collection probe misbehaves whether or not its first answer is still
cached.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.geometry.model import Geometry, GeometryCollection

#: boolean predicates whose candidate set can be narrowed with an envelope
#: filter: the executor's index and prefilter planner list.
INDEXABLE_PREDICATES = frozenset(
    {
        "st_intersects",
        "st_contains",
        "st_within",
        "st_covers",
        "st_coveredby",
        "st_equals",
        "st_touches",
        "st_overlaps",
        "st_crosses",
    }
)

#: default bound on cached results per database connection.
DEFAULT_CAPACITY = 4096


class PreparedGeometryCache:
    """LRU cache of predicate results keyed by (predicate, prepared WKT,
    probe WKT)."""

    def __init__(
        self,
        buggy_collection_repeat: bool = False,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.buggy_collection_repeat = buggy_collection_repeat
        self.capacity = capacity
        self._results: OrderedDict[tuple[str, str, str], bool] = OrderedDict()
        #: hashes of collection-probe keys seen at least once — the Listing 7
        #: trigger state.  Kept outside the LRU store (and only populated
        #: while the bug is active) so eviction cannot reset the "repeated
        #: probe" condition and hide the injected bug.  Storing the 64-bit
        #: key hash instead of the WKT triple keeps a long-lived buggy
        #: connection's memory at a few dozen bytes per distinct pair.
        self._collection_probes_seen: set[int] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: set to True every time the injected bug actually perturbed a result
        self.bug_fired = False

    def _is_buggy_probe(self, predicate_name: str, prepared: Geometry, probe: Geometry) -> bool:
        return (
            self.buggy_collection_repeat
            and predicate_name == "st_contains"
            and isinstance(probe, GeometryCollection)
            and not isinstance(prepared, GeometryCollection)
        )

    def evaluate(self, predicate_name: str, prepared: Geometry, probe: Geometry, compute) -> bool:
        """Evaluate ``compute()`` through the cache.

        ``compute`` is a zero-argument callable producing the correct result;
        it is only invoked on a cache miss.
        """
        key = (predicate_name, prepared.wkt, probe.wkt)

        if self._is_buggy_probe(predicate_name, prepared, probe):
            key_hash = hash(key)
            repeated = key_hash in self._collection_probes_seen
            self._collection_probes_seen.add(key_hash)
            if repeated:
                # The buggy fast path rebuilds its interior-point index lazily
                # for repeated collection probes against a prepared basic or
                # MULTI geometry and loses the match (paper Listing 7).
                self.bug_fired = True
                self.hits += 1
                return False

        cached = self._results.get(key)
        if cached is not None:
            self.hits += 1
            self._results.move_to_end(key)
            return cached

        self.misses += 1
        result = bool(compute())
        self._results[key] = result
        while len(self._results) > self.capacity:
            self._results.popitem(last=False)
            self.evictions += 1
        return result

    def stats(self) -> dict[str, int]:
        """Counters surfaced by ``repro.analysis.timing``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._results),
        }

    def clear(self) -> None:
        """Drop every cached result (used between campaign iterations)."""
        self._results.clear()
        self._collection_probes_seen.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bug_fired = False
