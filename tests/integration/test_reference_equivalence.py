"""Differential self-check: the optimised paths change nothing but speed.

AEI reports a bug whenever an affine-equivalent pair disagrees, so
Spatter's own optimisations must be observably inert: a campaign must
report exactly what the same campaign reports on the reference path each
optimisation replaced.  Campaigns always run the optimised path; this
harness is where the reference paths are reached from.  Each tier swaps
the campaign's backend for a test-local one whose sessions take the
reference path and, where the tier reaches below the sessions, switches a
process-wide kernel seam off around ``run()``:

* ``fast-path`` — sessions from ``connect(..., fast_path=False)`` (no broad
  prepared-predicate caching, no auto-built STR indexes) and the
  ``Fraction`` clearance kernel (``set_fast_clearance(False)``);
* ``vectorized`` — sessions from ``connect(..., vectorized=False)`` (the
  scalar row-at-a-time interpreter) and the scalar geometry kernels
  (``set_vectorized_kernels(False)``); on ``sqlite``, which plans its own
  queries, only the kernels change;
* ``reuse`` — sessions behind a proxy that hides ``load_geometry_tables``
  and ``execute_parsed``, so every database replays its CREATE/INSERT SQL
  and every query is rendered and re-parsed.  In-process only: ``sqlite``
  sessions expose neither surface, so both sides would take the same path.

Every (seed, backend, side) campaign runs once, from cold process caches,
and the optimised run is shared by every tier.  The comparisons cover
findings finding for finding, query counts and ignored errors, and
deduplication identities; a guard per tier proves its optimisation
actually engaged, so the equivalence cannot pass vacuously.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro.backends.base import Backend
from repro.core.campaign import CampaignConfig, CampaignResult, TestingCampaign
from repro.core.canonical import clear_canonical_cache
from repro.core.dedup import Deduplicator, signature_identity
from repro.core.reuse import clear_reuse_stats, reuse_stats
from repro.engine.database import connect
from repro.geometry.cache import clear_geometry_cache
from repro.geometry.columnar import (
    clear_kernel_stats,
    kernel_stats,
    set_vectorized_kernels,
    vectorized_kernels_enabled,
)
from repro.scenarios import scenario_names
from repro.topology.noding import fast_clearance_enabled, set_fast_clearance
from repro.topology.relate import clear_relate_cache

SEEDS = (7, 2025, 4711)
BACKENDS = ("inprocess", "sqlite")
ROUNDS = 2

FAST_PATH, VECTORIZED, REUSE = "fast-path", "vectorized", "reuse"

#: (tier, seed, backend) triples, each one optimised-vs-reference pair.
PAIRS = (
    [(FAST_PATH, seed, "inprocess") for seed in SEEDS]
    + [(VECTORIZED, seed, backend) for seed in SEEDS for backend in BACKENDS]
    + [(REUSE, seed, "inprocess") for seed in SEEDS]
)

#: tier -> (kernel switch, its reader) for the tiers that reach below the
#: sessions.
_KERNEL_SEAMS = {
    FAST_PATH: (set_fast_clearance, fast_clearance_enabled),
    VECTORIZED: (set_vectorized_kernels, vectorized_kernels_enabled),
}


class _WithoutReuse:
    """A session proxy that hides the reuse layer's two session surfaces."""

    _HIDDEN = frozenset({"load_geometry_tables", "execute_parsed"})

    def __init__(self, session):
        self._session = session

    def __getattr__(self, name):
        if name in self._HIDDEN:
            raise AttributeError(name)
        return getattr(self._session, name)


class _ReferenceBackend(Backend):
    """The campaign's backend, with every session opened on a tier's
    reference path."""

    def __init__(self, backend: Backend, tier: str):
        self.name = backend.name
        self._backend = backend
        self._tier = tier

    def capabilities(self):
        return self._backend.capabilities()

    def open_session(self):
        backend = self._backend
        if self._tier == REUSE:
            return _WithoutReuse(backend.open_session())
        if backend.name != "inprocess":
            return backend.open_session()
        if self._tier == FAST_PATH:
            return connect(backend.dialect, bug_ids=backend.bug_ids, fast_path=False)
        return connect(backend.dialect, bug_ids=backend.bug_ids, vectorized=False)


class Run(NamedTuple):
    result: CampaignResult
    #: batch-kernel counters of the run (``repro.geometry.columnar``).
    kernels: dict[str, int]
    #: materialisation-path counters of the run (``repro.core.reuse``).
    reuse: dict[str, int]
    #: the tier's kernel switch as read after every round (reference runs
    #: of tiers with a kernel seam; empty otherwise).
    seam_states: tuple[bool, ...]


#: (seed, backend, side, rounds, config overrides) -> Run.  Campaigns are
#: deterministic, so each configuration runs once and every assertion
#: reuses it; ``side`` is ``None`` for the optimised run or a tier name.
_RUNS: dict[tuple, Run] = {}


def _campaign(seed: int, backend: str, side: str | None, rounds: int = ROUNDS, **overrides) -> Run:
    key = (seed, backend, side, rounds, tuple(sorted(overrides.items())))
    if key not in _RUNS:
        # Every run starts cold: the relate/canonical/interner caches are
        # process-global, and a warm cache would let the second run coast
        # on the first run's work (hiding, not testing, the optimisation).
        clear_relate_cache()
        clear_canonical_cache()
        clear_geometry_cache()
        clear_kernel_stats()
        clear_reuse_stats()
        config = CampaignConfig(
            dialect="postgis",
            backend=backend,
            seed=seed,
            geometry_count=6,
            queries_per_round=14,
            **overrides,
        )
        campaign = TestingCampaign(config)
        seam_states: list[bool] = []
        switch = None
        if side is not None:
            campaign.backend = _ReferenceBackend(campaign.backend, side)
            switch, enabled = _KERNEL_SEAMS.get(side, (None, None))
        if switch is None:
            result = campaign.run(rounds=rounds)
        else:
            campaign.round_hook = lambda *_: seam_states.append(enabled())
            previous = switch(False)
            try:
                result = campaign.run(rounds=rounds)
            finally:
                switch(previous)
        _RUNS[key] = Run(result, dict(kernel_stats()), dict(reuse_stats()), tuple(seam_states))
    return _RUNS[key]


def _pair(tier: str, seed: int, backend: str, **overrides) -> tuple[Run, Run]:
    return (
        _campaign(seed, backend, None, **overrides),
        _campaign(seed, backend, tier, **overrides),
    )


def _signatures(result: CampaignResult) -> list[str]:
    deduplicator = Deduplicator()
    for discrepancy in result.discrepancies:
        deduplicator.observe_discrepancy(discrepancy, 0.0)
    return list(deduplicator.result.unique_signatures)


@pytest.mark.parametrize("tier, seed, backend", PAIRS)
class TestReferenceEquivalence:
    """Full-registry campaigns, optimised vs. reference, per tier, seed
    and backend."""

    def test_findings_match_finding_for_finding(self, tier, seed, backend):
        optimised, reference = (run.result for run in _pair(tier, seed, backend))
        assert len(optimised.discrepancies) == len(reference.discrepancies)
        for ours, theirs in zip(optimised.discrepancies, reference.discrepancies):
            assert ours.describe() == theirs.describe()
            assert ours.result_original == theirs.result_original
            assert ours.result_followup == theirs.result_followup
            assert ours.result_expected == theirs.result_expected
            assert ours.scenario == theirs.scenario
            assert tuple(sorted(ours.triggered_bug_ids)) == tuple(
                sorted(theirs.triggered_bug_ids)
            )
        assert [f.describe() for f in optimised.oracle_findings] == [
            f.describe() for f in reference.oracle_findings
        ]
        assert [(c.statement, c.bug_id) for c in optimised.crashes] == [
            (c.statement, c.bug_id) for c in reference.crashes
        ]

    def test_query_counts_and_errors_match(self, tier, seed, backend):
        optimised, reference = (run.result for run in _pair(tier, seed, backend))
        assert optimised.queries_run == reference.queries_run
        assert optimised.queries_by_scenario == reference.queries_by_scenario
        assert optimised.queries_by_oracle == reference.queries_by_oracle
        assert optimised.errors_ignored == reference.errors_ignored
        assert optimised.rounds == reference.rounds == ROUNDS
        # The campaigns genuinely exercise all seven registered scenarios.
        assert set(optimised.queries_by_scenario) == set(scenario_names())
        assert len(scenario_names()) == 7

    def test_dedup_identities_match(self, tier, seed, backend):
        optimised, reference = (run.result for run in _pair(tier, seed, backend))
        # Ground-truth identities (injected-bug ids) in detection order.
        assert optimised.unique_bug_ids == reference.unique_bug_ids
        # Signature identities (the no-ground-truth fallback).
        assert _signatures(optimised) == _signatures(reference)
        # And per-discrepancy, not just the deduplicated sets.
        assert [signature_identity(d) for d in optimised.discrepancies] == [
            signature_identity(d) for d in reference.discrepancies
        ]


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_reference_join_scenario_equivalence(seed):
    """The join-heavy reference scenario alone (the fast path's hot target)."""
    optimised, reference = (
        run.result
        for run in _pair(FAST_PATH, seed, "inprocess", scenarios=("topological-join",))
    )
    assert [d.describe() for d in optimised.discrepancies] == [
        d.describe() for d in reference.discrepancies
    ]
    assert optimised.unique_bug_ids == reference.unique_bug_ids
    assert optimised.queries_by_scenario == reference.queries_by_scenario


def test_fast_path_actually_engaged():
    """The optimised run must show cache traffic the reference run does not
    (the join-heavy reference scenario re-evaluates the same geometry pairs
    across its query budget, so the prepared cache must see hits), and the
    reference run must keep the ``Fraction`` clearance kernel for every
    round."""
    optimised, reference = _pair(
        FAST_PATH, SEEDS[1], "inprocess", scenarios=("topological-join",)
    )
    assert optimised.result.cache_stats.get("prepared_hits", 0) > 0
    assert optimised.result.cache_stats.get("relate_misses", 0) > 0
    # With the fast path off, only the seed's ST_Contains routing may touch
    # the prepared cache; the broader predicate family must not.
    assert (
        reference.result.cache_stats.get("prepared_hits", 0)
        <= optimised.result.cache_stats["prepared_hits"]
    )
    assert reference.seam_states == (False,) * ROUNDS


def test_batch_kernels_actually_engaged():
    """The optimised run must show batch relate-kernel traffic and the
    scalar reference run none.  (The envelope prescreen is expected to stay
    *off* in a release emulation — every topological predicate is
    influenced by an active bug, so the observability gate disables
    candidate skipping; the clean-campaign test below covers the prescreen
    kernels.)"""
    optimised, reference = _pair(VECTORIZED, SEEDS[1], "inprocess")
    assert optimised.kernels.get("ring_batches", 0) > 0
    assert optimised.kernels.get("noding_prescreens", 0) > 0
    assert reference.kernels.get("ring_batches", 0) == 0
    assert reference.kernels.get("noding_prescreens", 0) == 0
    assert reference.seam_states == (False,) * ROUNDS


def test_join_scenarios_use_the_batch_prefilter():
    """On a clean engine (no influencing faults, so the observability gate
    is open) the join-heavy scenarios must route candidate generation
    through the columnar envelope kernels — and stay result-identical to
    the scalar reference.  One round per scenario: the campaign rotates
    scenarios across rounds, so three rounds exercise all three shapes."""
    optimised, reference = _pair(
        VECTORIZED,
        SEEDS[0],
        "inprocess",
        rounds=3,
        emulate_release_under_test=False,
        scenarios=("topological-join", "join-chain", "distance-join"),
    )
    assert optimised.result.queries_run == reference.result.queries_run > 0
    assert [d.describe() for d in optimised.result.discrepancies] == [
        d.describe() for d in reference.result.discrepancies
    ]
    assert optimised.kernels.get("envelope_blocks", 0) > 0
    assert optimised.kernels.get("envelope_queries", 0) > 0
    assert optimised.kernels.get("distance_queries", 0) > 0
    assert reference.kernels.get("envelope_queries", 0) == 0
    assert reference.kernels.get("distance_queries", 0) == 0


def test_reuse_layer_actually_engaged():
    """On the in-process backend the optimised run must derive follow-up
    databases and bulk-load originals directly, and replay compiled plans
    from the cache; the reference run must do none of it.  The sqlite
    adapter exposes no bulk-load surface, so there every database takes
    the fallback path (the duck-typing contract of
    :class:`repro.backends.base.BackendSession`)."""
    optimised, reference = _pair(REUSE, SEEDS[0], "inprocess")
    assert optimised.reuse["derived_databases"] > 0
    assert optimised.reuse["direct_databases"] > 0
    assert optimised.reuse["fallback_databases"] == 0
    assert optimised.result.cache_stats.get("plan_hits", 0) > 0
    assert optimised.result.cache_stats.get("reuse_derived_databases", 0) > 0

    assert reference.reuse["derived_databases"] == 0
    assert reference.reuse["direct_databases"] == 0
    assert reference.reuse["fallback_databases"] > 0
    assert reference.result.cache_stats.get("plan_hits", 0) == 0

    sqlite = _campaign(SEEDS[0], "sqlite", None)
    assert sqlite.reuse["direct_databases"] == 0
    assert sqlite.reuse["fallback_databases"] > 0


def test_phase_timing_is_reported():
    """The round's wall clock splits into materialise + execute phases."""
    result = _campaign(SEEDS[0], "inprocess", None).result
    assert result.materialise_seconds > 0.0
    assert result.execute_seconds > 0.0
    # The split cannot exceed the campaign's total wall clock.
    assert result.materialise_seconds + result.execute_seconds <= result.total_seconds
