"""Figure 8 — ablation of the geometry-aware generator (GAG vs. RSG).

The paper runs Spatter for one hour on PostGIS with (a) the full
geometry-aware generator and (b) a baseline restricted to the random-shape
strategy, then plots (Figure 8a) unique bugs over time and (Figure 8b/8c)
line coverage of PostGIS and GEOS over time.  The geometry-aware generator
finds more unique bugs and reaches higher coverage.

The reproduction runs both configurations for a fixed wall-clock budget
(default 20 seconds each — the emulated engine finds its injected bugs far
faster than a real campaign) and reports the same two series: cumulative
unique bugs over time, and the final coverage split by component group.
"""

from __future__ import annotations

import os

from repro.analysis.coverage import CoverageTracker
from repro.core.campaign import CampaignConfig
from repro.core.parallel import run_campaign

from benchmarks.conftest import write_report

BUDGET_SECONDS = float(os.environ.get("SPATTER_FIGURE8_BUDGET", "15"))


def _run_configuration(use_derivative_strategy: bool, workers: int = 1) -> dict:
    tracker = CoverageTracker()
    config = CampaignConfig(
        dialect="postgis",
        seed=99,
        geometry_count=8,
        queries_per_round=12,
        use_derivative_strategy=use_derivative_strategy,
        workers=workers,
        # the figure reproduces the paper's tool, whose oracle is the single
        # JOIN template; the scenario suite is measured separately by
        # aeibench/ and bench_scheduler_yield.py.
        scenarios=("topological-join",),
    )
    with tracker:
        result = run_campaign(config, duration_seconds=BUDGET_SECONDS)
    report = tracker.report()
    return {
        "result": result,
        "unique_bugs": result.unique_bug_count,
        "timeline": result.unique_bug_timeline,
        "engine_coverage": report.line_coverage("engine"),
        "library_coverage": report.line_coverage("geometry-library"),
    }


def test_figure8_generator_ablation(benchmark):
    def run_both() -> dict:
        return {
            "gag": _run_configuration(use_derivative_strategy=True),
            "rsg": _run_configuration(use_derivative_strategy=False),
            # The sharded orchestrator on the same GAG workload: every shard
            # gets the full wall-clock budget, so round throughput (and with
            # it Figure 8a's x-axis density) scales with the worker count.
            "gag_parallel": _run_configuration(use_derivative_strategy=True, workers=2),
        }

    outcomes = benchmark.pedantic(run_both, rounds=1, iterations=1)
    gag, rsg = outcomes["gag"], outcomes["rsg"]
    gag_parallel = outcomes["gag_parallel"]

    lines = [f"Figure 8: GAG vs RSG, {BUDGET_SECONDS:.0f}s budget per configuration"]
    lines.append("(a) unique bugs over time")
    for label, outcome in (("GAG", gag), ("RSG", rsg)):
        series = ", ".join(f"{seconds:.1f}s->{count}" for seconds, count in outcome["timeline"])
        lines.append(f"  {label}: {outcome['unique_bugs']} unique bugs  [{series}]")
    lines.append("(b) engine coverage (PostGIS analogue)")
    lines.append(f"  GAG: {gag['engine_coverage']:.1f}%   RSG: {rsg['engine_coverage']:.1f}%")
    lines.append("(c) geometry-library coverage (GEOS analogue)")
    lines.append(f"  GAG: {gag['library_coverage']:.1f}%   RSG: {rsg['library_coverage']:.1f}%")
    lines.append(
        f"rounds: GAG {gag['result'].rounds}, RSG {rsg['result'].rounds}; "
        f"queries: GAG {gag['result'].queries_run}, RSG {rsg['result'].queries_run}"
    )
    lines.append(
        f"orchestrator: GAG with 2 workers ran {gag_parallel['result'].rounds} rounds / "
        f"{gag_parallel['result'].queries_run} queries in the same {BUDGET_SECONDS:.0f}s budget "
        f"({gag_parallel['unique_bugs']} unique bugs, "
        f"{gag_parallel['result'].total_seconds:.1f}s wall-clock vs "
        f"{gag['result'].total_seconds:.1f}s serial)"
    )
    lines.append(
        "note: at this scale (a couple of generation rounds instead of the paper's "
        "one-hour runs) the unique-bug ordering between GAG and RSG is noisy, because "
        "the injected catalog is dominated by structurally-triggered bugs (EMPTY/MIXED "
        "inputs) that the random-shape strategy reaches directly; the coverage "
        "comparison (Figure 8b/8c) is the robust half of the figure here."
    )
    write_report("figure8_ablation", lines)

    # Shape (Figure 8a): both generators find injected bugs within the budget.
    # The strict GAG >= RSG ordering of the paper needs hour-long runs and a
    # coordinate-sensitive bug population; see the note in the report and the
    # Figure 8 section of EXPERIMENTS.md.
    assert gag["unique_bugs"] >= 1
    assert rsg["unique_bugs"] >= 1
    # The sharded orchestrator still finds bugs within the same budget (its
    # coverage is not asserted: workers trace in child processes).
    assert gag_parallel["unique_bugs"] >= 1
    # Shape (Figure 8b/8c): the derivative strategy exercises the editing
    # functions of the engine and geometry library, so GAG coverage is at
    # least as high as RSG coverage.
    assert gag["engine_coverage"] >= rsg["engine_coverage"] - 0.5
    assert gag["library_coverage"] >= rsg["library_coverage"] - 0.5
