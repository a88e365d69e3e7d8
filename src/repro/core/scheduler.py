"""Feedback-guided allocation of the round query budget across arms.

The paper evaluates Spatter by unique bugs found per wall-clock budget, and
the measured per-arm yield spread is wide (in the bandit run of
``BENCH_scheduler_yield.json`` the set-theoretic arm spent 63 queries for 0
novel signatures, PQS 28 for 3 and ``topological-join`` 50 for 8), yet the
static :func:`repro.core.oracle.allocate_query_budget` split spends the
same budget on every scenario each round.  This module closes that loop
with a bandit: each *arm* is one (scenario | oracle-family) unit drawn from
the existing registries, its *reward stream* is the marginal number of new
dedup-signature keys (:func:`repro.core.dedup.signature_identity` space)
per query spent — fed from the campaign's :class:`~repro.core.dedup.
Deduplicator` — and the round budget is re-apportioned every round toward
the arms whose posterior novelty rate is highest.  This is the scheduler-
layer form of clause-guided fuzzing (SQLaser): steer generation toward the
query shapes that are still producing previously-unseen behaviour.

Determinism contract:

* The bandit consumes **no wall-clock feedback** — rewards are counted per
  query, never per second — and draws every Thompson sample from its own
  :class:`random.Random` seeded from ``(campaign seed, shard index, shard
  count)``.  A campaign with a fixed ``(seed, shards)`` split therefore
  produces the identical allocation sequence, finding stream and
  ``scheduler_stats`` whatever the worker count, machine or load (the same
  worker-invariance guarantee the static split has).
* Each shard's bandit learns from its *own* round stream (shard *k* of *n*
  sees the rewards of global rounds ``k, k+n, ...``), and the per-arm
  statistics merge across shards by summation — exactly like
  ``queries_by_scenario``.  The static scheduler is additionally
  shard-count invariant (any split replays the serial rounds byte for
  byte); the bandit is feedback-driven, so its *allocations* depend on the
  stream it observed — ``docs/SCHEDULER.md`` spells out both contracts.

The allocator is Thompson sampling over a Beta posterior: arm *a* with
``q`` queries spent and ``v`` novel signatures observed holds
``Beta(v + 1, q - v + 1)``; each unit of budget goes to the arm with the
highest sampled rate.  An exploration floor (one query per arm per round,
budget permitting) keeps every arm measurable, so an arm whose yield
*becomes* nonzero later (stateful engine bugs) can still recover.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: arm-name prefixes: one arm per metamorphic scenario of the AEI pass and
#: one per single-database oracle family.
SCENARIO_ARM_PREFIX = "scenario:"
ORACLE_ARM_PREFIX = "oracle:"

#: the selectable scheduler names (``CampaignConfig.scheduler``).
STATIC_SCHEDULER = "static"
BANDIT_SCHEDULER = "bandit"
SCHEDULER_NAMES = (STATIC_SCHEDULER, BANDIT_SCHEDULER)


def scenario_arm(name: str) -> str:
    """The arm id of one metamorphic scenario (AEI pass unit)."""
    return f"{SCENARIO_ARM_PREFIX}{name}"


def oracle_arm(name: str) -> str:
    """The arm id of one single-database oracle family."""
    return f"{ORACLE_ARM_PREFIX}{name}"


@dataclass
class ArmStats:
    """Cumulative bookkeeping of one (scenario | oracle) arm."""

    #: rounds in which the arm received a nonzero budget.
    pulls: int = 0
    #: queries actually executed by the arm (errors shrink this below the
    #: allocated budget; rewards are rated against what actually ran).
    queries: int = 0
    #: marginal new dedup-signature keys the arm's findings contributed.
    novel_signatures: int = 0

    @property
    def posterior_mean(self) -> float:
        """Expected novelty rate under the Beta(v+1, q-v+1) posterior."""
        return (self.novel_signatures + 1) / (self.queries + 2)

    def as_dict(self) -> dict:
        """Plain-data form carried on ``CampaignResult.scheduler_stats``."""
        return {
            "pulls": self.pulls,
            "queries": self.queries,
            "novel_signatures": self.novel_signatures,
            "posterior": self.posterior_mean,
        }


def merge_scheduler_stats(left: dict, right: dict) -> dict:
    """Merge two ``scheduler_stats`` mappings (shard results) by summation.

    Counters add exactly like ``queries_by_scenario``; the posterior summary
    is re-derived from the merged counters, which is what one bandit that
    had observed both reward streams would report.  Arm order: left-then-
    right first appearance, matching the signature-merge convention.
    """
    merged: dict[str, dict] = {}
    for stats in (left, right):
        for arm, row in stats.items():
            if arm not in merged:
                merged[arm] = {"pulls": 0, "queries": 0, "novel_signatures": 0}
            for key in ("pulls", "queries", "novel_signatures"):
                merged[arm][key] += row.get(key, 0)
    for row in merged.values():
        row["posterior"] = (row["novel_signatures"] + 1) / (row["queries"] + 2)
    return merged


@dataclass
class BanditScheduler:
    """Seeded Thompson-sampling allocator over signature-novelty rewards.

    ``arms`` is the stable arm list (registry order); ``seed`` pins the
    Thompson draw stream.  The scheduler is plain state plus a seeded RNG,
    so a campaign instance can rebuild it in whatever process its shard
    lands in.
    """

    arms: tuple[str, ...]
    seed: str = "0"
    stats: dict[str, ArmStats] = field(default_factory=dict)

    def __post_init__(self):
        if not self.arms:
            raise ValueError("a bandit scheduler needs at least one arm")
        if len(set(self.arms)) != len(self.arms):
            raise ValueError("scheduler arms must be unique")
        for arm in self.arms:
            self.stats.setdefault(arm, ArmStats())
        #: the Thompson draw stream; deterministic per (seed, shard split)
        #: and never shared with the round RNG, so enabling the trace or
        #: reading stats cannot perturb query generation.
        self._rng = random.Random(f"{self.seed}|bandit")

    # ------------------------------------------------------------ allocation
    def allocate(self, budget: int) -> dict[str, int]:
        """Split one round's query budget across the arms.

        Every arm first receives an exploration floor of one query (while
        budget remains, in arm order); each remaining unit goes to the arm
        whose Beta posterior yields the highest sampled novelty rate.  The
        returned budgets always sum to ``max(0, budget)``.
        """
        allocation = {arm: 0 for arm in self.arms}
        remaining = max(0, budget)
        for arm in self.arms:  # exploration floor
            if remaining <= 0:
                break
            allocation[arm] += 1
            remaining -= 1
        for _ in range(remaining):
            best_arm = None
            best_sample = -1.0
            for arm in self.arms:
                stats = self.stats[arm]
                sample = self._rng.betavariate(
                    stats.novel_signatures + 1,
                    max(1, stats.queries - stats.novel_signatures + 1),
                )
                if sample > best_sample:
                    best_arm, best_sample = arm, sample
            allocation[best_arm] += 1
        return allocation

    def posterior_inputs(self) -> dict[str, dict]:
        """The per-arm posterior state an allocation decision is based on
        (recorded verbatim in the ``allocation`` trace event)."""
        return {arm: self.stats[arm].as_dict() for arm in self.arms}

    # -------------------------------------------------------------- feedback
    def observe(self, arm: str, queries: int, novel_signatures: int) -> None:
        """Fold one arm-pass outcome into the posterior.

        ``queries`` is what the pass actually executed and
        ``novel_signatures`` how many previously-unseen dedup-signature
        keys its findings contributed (the Deduplicator's delta).
        """
        if arm not in self.stats:
            raise KeyError(f"unknown scheduler arm {arm!r}")
        stats = self.stats[arm]
        if queries > 0:
            stats.pulls += 1
        stats.queries += queries
        stats.novel_signatures += novel_signatures

    def stats_dict(self) -> dict[str, dict]:
        """Per-arm statistics in ``CampaignResult.scheduler_stats`` form."""
        return {arm: self.stats[arm].as_dict() for arm in self.arms}


def resolve_scheduler_name(name: str) -> str:
    """Validate a ``CampaignConfig.scheduler`` value (case-insensitive)."""
    key = str(name).strip().lower()
    if key not in SCHEDULER_NAMES:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {', '.join(SCHEDULER_NAMES)}"
        )
    return key
