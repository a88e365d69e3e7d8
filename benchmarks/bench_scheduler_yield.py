"""Static vs bandit budget allocation: unique bugs per query spent.

The feedback-guided scheduler (``repro.core.scheduler``) re-apportions each
round's query budget toward the (scenario | oracle-family) arms still
producing previously-unseen dedup signatures; the static split spends the
same budget uniformly whatever the arms return.  This benchmark runs the
*same* campaign — dialect, seed, geometry and round budget fixed — under
both schedulers and records the exchange rate: unique ground-truth bugs
found, queries spent in total, and queries spent on the arms that yielded
nothing all campaign (the budget the bandit is supposed to claw back).

Contracts asserted at the fixed seed:

* the bandit finds at least as many unique ground-truth bugs as the static
  split at the same round budget;
* it spends strictly fewer queries overall (bugs-per-query strictly
  improves); and
* on the zero-yield arms — arms whose passes produced no novel signature
  all campaign — it spends measurably (≥30%) fewer queries than the
  static split dedicated to the same arms.

The measured rows are written to ``BENCH_scheduler_yield.json`` (static =
"before", bandit = "after") next to the text report and at the repository
root.
"""

from __future__ import annotations

import json
import os

from dataclasses import replace

from repro.core.campaign import CampaignConfig, TestingCampaign
from repro.core.scheduler import ORACLE_ARM_PREFIX, SCENARIO_ARM_PREFIX

from benchmarks.conftest import RESULTS_DIRECTORY, clear_process_caches, write_report

ROUNDS = 8
BASE = CampaignConfig(dialect="postgis", seed=2025, geometry_count=6, queries_per_round=14)

#: fraction of the static split's zero-yield-arm spend the bandit must stay
#: under — the "measurably fewer" bar.
ZERO_YIELD_SPEND_CEILING = 0.7


def _static_arm_queries(result, arm: str) -> int:
    """The static campaign's query spend on one arm, from its counters."""
    name = arm.split(":", 1)[1]
    if arm.startswith(SCENARIO_ARM_PREFIX):
        return result.queries_by_scenario.get(name, 0)
    if arm.startswith(ORACLE_ARM_PREFIX):
        return result.queries_by_oracle.get(name, 0)
    return 0


def _run_both() -> dict[str, object]:
    clear_process_caches()
    static = TestingCampaign(BASE).run(rounds=ROUNDS)
    clear_process_caches()
    bandit = TestingCampaign(replace(BASE, scheduler="bandit")).run(rounds=ROUNDS)
    return {"static": static, "bandit": bandit}


def _write_json(static, bandit, zero_yield: dict) -> None:
    def row(result) -> dict:
        return {
            "unique_bugs": sorted(result.unique_bug_ids),
            "unique_bug_count": len(result.unique_bug_ids),
            "queries_run": result.queries_run,
            "bugs_per_1k_queries": round(
                1000 * len(result.unique_bug_ids) / result.queries_run, 3
            )
            if result.queries_run
            else 0.0,
            "queries_by_scenario": dict(result.queries_by_scenario),
            "queries_by_oracle": dict(result.queries_by_oracle),
        }

    payload = {
        "config": {
            "dialect": BASE.dialect,
            "seed": BASE.seed,
            "geometry_count": BASE.geometry_count,
            "queries_per_round": BASE.queries_per_round,
            "rounds": ROUNDS,
        },
        "static_before": row(static),
        "bandit_after": {**row(bandit), "scheduler_stats": bandit.scheduler_stats},
        "zero_yield_arms": zero_yield,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(os.path.join(RESULTS_DIRECTORY, "scheduler_yield.json"), "w") as handle:
        handle.write(text)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_scheduler_yield.json"), "w") as handle:
        handle.write(text)


def test_scheduler_yield(benchmark):
    outcomes = benchmark.pedantic(_run_both, rounds=1, iterations=1)
    static, bandit = outcomes["static"], outcomes["bandit"]

    # zero-yield arms: no pass of the bandit campaign produced a novel
    # signature on them all campaign — the budget the feedback loop should
    # have moved elsewhere.
    zero_yield_arms = [
        arm
        for arm, stats_row in bandit.scheduler_stats.items()
        if stats_row["novel_signatures"] == 0
    ]
    bandit_zero_spend = sum(
        bandit.scheduler_stats[arm]["queries"] for arm in zero_yield_arms
    )
    static_zero_spend = sum(_static_arm_queries(static, arm) for arm in zero_yield_arms)
    zero_yield = {
        "arms": sorted(zero_yield_arms),
        "bandit_queries": bandit_zero_spend,
        "static_queries": static_zero_spend,
    }

    lines = [
        f"Static vs bandit scheduling ({ROUNDS} rounds, seed {BASE.seed}, "
        f"{BASE.dialect}, {BASE.queries_per_round} queries/round/arm-class)",
        f"{'scheduler':>10} {'unique bugs':>12} {'queries':>8} {'bugs/1k queries':>16}",
    ]
    for name, result in (("static", static), ("bandit", bandit)):
        rate = 1000 * len(result.unique_bug_ids) / result.queries_run if result.queries_run else 0
        lines.append(
            f"{name:>10} {len(result.unique_bug_ids):>12} {result.queries_run:>8} {rate:>16.2f}"
        )
    lines.append(
        f"zero-yield arms ({len(zero_yield_arms)}): bandit spent {bandit_zero_spend} "
        f"queries, static spent {static_zero_spend}"
    )
    for arm, stats_row in bandit.scheduler_stats.items():
        lines.append(
            f"  {arm:>28}: {stats_row['queries']:>5} queries, "
            f"{stats_row['novel_signatures']:>3} novel signatures "
            f"(static: {_static_arm_queries(static, arm):>5} queries)"
        )
    write_report("scheduler_yield", lines)
    _write_json(static, bandit, zero_yield)

    # Contract 1: feedback never costs coverage at equal round budget.
    assert len(bandit.unique_bug_ids) >= len(static.unique_bug_ids)
    # Contract 2: it pays for itself — strictly fewer queries spent, so
    # bugs-per-query strictly improves.
    assert bandit.queries_run < static.queries_run
    # Contract 3: the clawed-back budget comes from the arms that yielded
    # nothing, measurably.
    assert zero_yield_arms, "expected at least one zero-yield arm at this seed"
    assert bandit_zero_spend < ZERO_YIELD_SPEND_CEILING * static_zero_spend
