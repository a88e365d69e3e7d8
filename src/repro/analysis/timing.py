"""Run-time distribution measurement (Figure 7) and fast-path cache stats.

Figure 7 of the paper shows, for each SDBMS and for N ∈ {1, 10, 50, 100}
geometries per run, the total time Spatter spends versus the part of it
spent executing statements inside the SDBMS.  The campaign runner already
tracks both numbers; this module packages the sweep.

Since the execution fast-path layer landed, each measurement also carries
the aggregated cache counters (prepared-predicate cache, relate memo and
geometry interner hits/misses) so the time split can be read alongside how
much repeated work the caches absorbed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.campaign import CampaignConfig
from repro.core.parallel import run_campaign


@dataclass
class TimeSplit:
    """One Figure 7 data point."""

    #: Emulated system under test.
    dialect: str
    #: Geometries per generated database (the paper's *N*).
    geometry_count: int
    #: Average total Spatter wall-clock seconds per run.
    spatter_seconds: float
    #: Average seconds spent executing statements inside the SDBMS.
    sdbms_seconds: float
    #: Average template queries executed per run (exact per-repeat mean,
    #: like the two seconds fields — not floor-divided).
    queries_run: float
    #: Worker processes the campaign ran with (1 = serial driver).
    workers: int = 1
    #: Average seconds spent materialising databases (initial loads plus
    #: derived follow-ups) — the reuse layer's phase split, per-repeat mean.
    time_materialise: float = 0.0
    #: Average oracle-pass seconds net of materialisation (query execution
    #: and checking), per-repeat mean.
    time_execute: float = 0.0
    #: Cache counters averaged over the repeats (``prepared_*``,
    #: ``relate_*`` and ``interner_*`` hits/misses), so every field of a
    #: data point is a per-repeat mean and stays comparable across sweeps
    #: run with different ``repeats``.
    cache_stats: dict[str, float] = field(default_factory=dict)

    @property
    def sdbms_share(self) -> float:
        """Fraction of the total time spent inside the SDBMS."""
        if self.spatter_seconds == 0:
            return 0.0
        return self.sdbms_seconds / self.spatter_seconds

    def cache_hit_rate(self, layer: str) -> float:
        """Hit rate of one cache layer (``prepared``, ``relate`` or
        ``interner``); 0.0 when the layer saw no traffic."""
        hits = self.cache_stats.get(f"{layer}_hits", 0)
        misses = self.cache_stats.get(f"{layer}_misses", 0)
        total = hits + misses
        return hits / total if total else 0.0


def measure_campaign_time_split(
    dialect: str,
    geometry_count: int,
    queries: int = 100,
    repeats: int = 3,
    seed: int = 0,
    emulate_release_under_test: bool = True,
    rounds: int = 1,
    workers: int = 1,
) -> TimeSplit:
    """Average the Spatter/SDBMS time split over ``repeats`` runs.

    Mirrors the paper's methodology: each run generates ``rounds`` databases
    of ``geometry_count`` geometries and evaluates ``queries`` random
    template queries per round; the experiment is repeated to absorb
    performance noise.  ``workers > 1`` routes the run through the parallel
    orchestrator (:mod:`repro.core.parallel`) so serial and sharded
    wall-clocks can be compared on the same workload.

    Every field of the returned :class:`TimeSplit` is a per-repeat mean:
    seconds, query counts and cache counters all divide by ``repeats``
    (historically seconds were averaged while query counts were
    floor-divided and cache counters summed, which made data points from
    sweeps with different ``repeats`` incomparable).
    """
    total_spatter = 0.0
    total_sdbms = 0.0
    total_queries = 0
    total_materialise = 0.0
    total_execute = 0.0
    caches: Counter[str] = Counter()
    for repeat in range(repeats):
        config = CampaignConfig(
            dialect=dialect,
            geometry_count=geometry_count,
            queries_per_round=queries,
            seed=seed + repeat,
            emulate_release_under_test=emulate_release_under_test,
            workers=workers,
        )
        result = run_campaign(config, rounds=rounds)
        total_spatter += result.total_seconds
        total_sdbms += result.sdbms_seconds
        total_queries += result.queries_run
        total_materialise += result.materialise_seconds
        total_execute += result.execute_seconds
        caches.update(result.cache_stats)
    return TimeSplit(
        dialect=dialect,
        geometry_count=geometry_count,
        spatter_seconds=total_spatter / repeats,
        sdbms_seconds=total_sdbms / repeats,
        queries_run=total_queries / repeats,
        workers=workers,
        time_materialise=total_materialise / repeats,
        time_execute=total_execute / repeats,
        cache_stats={key: value / repeats for key, value in caches.items()},
    )
