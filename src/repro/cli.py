"""Command-line entry point: ``spatter``.

Runs a testing campaign against one emulated SDBMS and prints every
discrepancy, crash, and the deduplicated unique bugs, mirroring how the
paper's artifact is driven from the command line.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.backends import available_backends, backend_description, create_backend
from repro.core.campaign import CampaignConfig
from repro.core.parallel import run_campaign
from repro.core.scheduler import SCHEDULER_NAMES, STATIC_SCHEDULER
from repro.engine.dialects import available_dialects, default_fault_profile, get_dialect
from repro.engine.faults import bug_by_id
from repro.oracles import AEI_ORACLE, AEI_TITLE, all_oracles, oracle_names
from repro.scenarios import all_scenarios, get_scenario, scenario_names


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatter",
        description=(
            "Find logic bugs in the emulated spatial database engines via "
            "Affine Equivalent Inputs."
        ),
    )
    parser.add_argument(
        "--dialect",
        choices=available_dialects(),
        default="postgis",
        help="emulated system under test (default: postgis)",
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="inprocess",
        help="execution backend the campaign drives (default: inprocess)",
    )
    parser.add_argument(
        "--cross-backend",
        choices=available_backends(),
        default=None,
        metavar="BACKEND",
        help=(
            "enable the cross-backend differential mode: replay every "
            "scenario query on a fault-free session of this backend and "
            "report result divergences as findings"
        ),
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="print the execution-backend catalog and exit",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="generation/validation rounds (default: 5; on --resume, the stored target)",
    )
    parser.add_argument(
        "--duration", type=float, default=None, help="wall-clock budget in seconds (overrides --rounds)"
    )
    parser.add_argument("--geometries", type=int, default=10, help="geometries per generated database (N)")
    parser.add_argument("--tables", type=int, default=2, help="tables per generated database (m)")
    parser.add_argument("--queries", type=int, default=20, help="template queries per round")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 shards the campaign across a process pool",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "deterministic round streams to split the campaign into "
            "(default: one per worker); seed+shards fixes the merged result"
        ),
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="SCENARIO",
        help=(
            "metamorphic scenarios to validate each round; names from the "
            "registry or 'all' (default: all scenarios applicable to the "
            "dialect; see --list-scenarios)"
        ),
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the metamorphic scenario catalog and exit",
    )
    parser.add_argument(
        "--oracles",
        nargs="+",
        default=None,
        metavar="ORACLE",
        help=(
            "oracle families to run each round; names from the registry "
            "(plus 'aei' for the affine-equivalence pass) or 'all' "
            "(default: all; see --list-oracles)"
        ),
    )
    parser.add_argument(
        "--list-oracles",
        action="store_true",
        help="print the oracle-family catalog and exit",
    )
    parser.add_argument(
        "--clean",
        action="store_true",
        help="test the fully fixed engine instead of the buggy release emulation",
    )
    parser.add_argument(
        "--random-shape-only",
        action="store_true",
        help="disable the derivative strategy (the RSG baseline)",
    )
    parser.add_argument(
        "--scheduler",
        choices=SCHEDULER_NAMES,
        default=STATIC_SCHEDULER,
        help=(
            "round query-budget allocator: 'static' splits evenly (the "
            "historical behaviour), 'bandit' steers budget toward the "
            "(scenario|oracle) arms still yielding new dedup signatures "
            "(default: static; see docs/SCHEDULER.md)"
        ),
    )
    parser.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help=(
            "append a JSONL event trace of the campaign (round boundaries, "
            "scheduler allocations with posterior inputs, findings, "
            "deadline cuts) to this file; schema in docs/SCHEDULER.md"
        ),
    )
    parser.add_argument(
        "--list-bugs",
        action="store_true",
        help="print the injected bug catalog for the dialect and exit",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "record the campaign into this persistent findings store "
            "(sqlite3 file, created on first use): config snapshot, every "
            "finding with its global-novelty verdict, trace events, and a "
            "per-round resume checkpoint (see docs/SERVICE.md)"
        ),
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="CAMPAIGN_ID",
        help=(
            "resume an interrupted campaign from its per-shard checkpoints "
            "in --store; the config is rebuilt from the stored snapshot and "
            "the remaining rounds replay the identical finding stream an "
            "uninterrupted run would have produced"
        ),
    )
    parser.add_argument(
        "--preseed",
        action="store_true",
        help=(
            "pre-seed deduplication from --store history: signatures seen "
            "by earlier campaigns count as already known, so novelty "
            "rewards (and the bandit scheduler) measure cross-run novelty"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "print the machine-readable campaign result (the same JSON the "
            "service API serves) instead of the human-readable report"
        ),
    )
    parser.add_argument(
        "--reduce",
        action="store_true",
        help=(
            "minimize every discrepancy before printing it: IR-level query "
            "shrinking (drop join arms, simplify predicates, shrink "
            "literals) followed by row-level ddmin over the generated "
            "database"
        ),
    )
    return parser


def _print_bug_catalog(dialect: str) -> None:
    print(f"Injected bug profile for {dialect}:")
    for bug_id in default_fault_profile(dialect):
        bug = bug_by_id(bug_id)
        print(f"  [{bug.kind:5s}] [{bug.status:11s}] {bug.bug_id}: {bug.summary}")


def _print_backend_catalog(dialect: str) -> None:
    print(f"Execution backend catalog (dialect: {dialect}):")
    for name in available_backends():
        capabilities = create_backend(name, dialect=dialect).capabilities()
        print(f"  {name:10s} {backend_description(name)}")
        print(f"             capabilities: {capabilities.summary()}")
        for note in capabilities.notes:
            print(f"             - {note}")
    print("\nThe protocol and adapter guide live in docs/BACKENDS.md.")


def _print_oracle_catalog() -> None:
    print("Oracle family catalog:")
    print(f"  {AEI_ORACLE:15s} {AEI_TITLE}")
    for oracle in all_oracles():
        print(f"  {oracle.name:15s} {oracle.title}")
        print(f"  {'':15s}   ({oracle.paper_anchor})")
    print("\nEach family's soundness argument lives in docs/ORACLES.md.")


def _print_scenario_catalog(dialect: str) -> None:
    resolved = get_dialect(dialect)
    print(f"Metamorphic scenario catalog (dialect: {dialect}):")
    for scenario in all_scenarios():
        applicable = "" if scenario.is_applicable(resolved) else "  [not applicable]"
        canonical = "" if scenario.canonicalize_followup else ", uncanonicalized"
        print(
            f"  {scenario.name:18s} [{scenario.family.value}{canonical}] "
            f"{scenario.title}{applicable}"
        )
    print("\nEach scenario is documented in docs/SCENARIOS.md.")


def _print_reduced_discrepancies(result) -> None:
    """Emit every discrepancy already minimized (the ``--reduce`` mode).

    Each finding is re-validated through a fresh oracle on the campaign's
    backend: the query plan is shrunk first (IR-level ddmin), then the
    generated rows (row-level ddmin).  Row-list findings (KNN) have no
    scalar re-check and are printed unreduced.
    """
    from repro.core.generator import DatabaseSpec
    from repro.core.oracle import AEIOracle
    from repro.core.reduce import TestCaseReducer

    config = result.config
    backend = create_backend(
        config.backend,
        dialect=config.dialect,
        bug_ids=config.resolved_bug_ids(),
    )
    for discrepancy in result.discrepancies:
        if getattr(discrepancy.query, "kind", "scalar") != "scalar":
            print(f"  - {discrepancy.describe()}  [row-list query: not reduced]")
            continue
        scenario = None
        try:
            scenario = get_scenario(discrepancy.scenario)
        except KeyError:
            pass
        oracle = AEIOracle(backend=backend)
        reducer = TestCaseReducer(oracle, scenario=scenario)
        spec = DatabaseSpec.from_statements(discrepancy.original_statements)
        case = reducer.minimize(spec, discrepancy.query, discrepancy.transformation)
        print(f"  - {case.query.describe()} returned {case.count_original} / {case.count_followup}")
        print(
            f"    minimized: {case.removed_geometries} of {spec.geometry_count()} "
            f"geometries removed, {case.simplified_query_steps} query "
            f"simplification step(s) ({discrepancy.transformation.describe()})"
        )
        for statement in case.spec.create_statements(include_ids=True):
            print(f"      {statement}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # ``spatter serve`` is its own program with its own flags; dispatch
        # before the campaign parser can reject them.
        from repro.service.app import serve_main

        return serve_main(argv[1:])
    parser = build_argument_parser()
    arguments = parser.parse_args(argv)

    # The list flags are standalone: each prints its catalog and exits 0
    # without requiring (or validating) any of the campaign flags.
    if arguments.list_bugs:
        _print_bug_catalog(arguments.dialect)
        return 0
    if arguments.list_scenarios:
        _print_scenario_catalog(arguments.dialect)
        return 0
    if arguments.list_backends:
        _print_backend_catalog(arguments.dialect)
        return 0
    if arguments.list_oracles:
        _print_oracle_catalog()
        return 0

    if arguments.rounds is not None and arguments.rounds < 0:
        parser.error("--rounds must be non-negative")
    for flag in ("tables", "geometries", "queries", "workers"):
        if getattr(arguments, flag) < 1:
            parser.error(f"--{flag} must be at least 1")
    if arguments.shards is not None and arguments.shards < 1:
        parser.error("--shards must be at least 1")
    if arguments.resume is not None and arguments.store is None:
        parser.error("--resume requires --store (the checkpoints live there)")
    if arguments.preseed and arguments.store is None:
        parser.error("--preseed requires --store (the signature history lives there)")

    scenarios: tuple[str, ...] | None = None
    if arguments.scenarios is not None:
        known = set(scenario_names())
        dialect = get_dialect(arguments.dialect)
        for name in arguments.scenarios:
            if name.lower() == "all":
                continue
            if name.lower() not in known:
                parser.error(
                    f"unknown scenario {name!r}; available: "
                    f"{', '.join(sorted(known))} (or 'all')"
                )
            if not get_scenario(name.lower()).is_applicable(dialect):
                # an explicitly requested scenario the dialect cannot run
                # must fail loudly — silently dropping it would print a
                # zero-query campaign that reads like a clean result.
                parser.error(
                    f"scenario {name!r} is not applicable to dialect "
                    f"{arguments.dialect!r} (see --list-scenarios)"
                )
        if any(name.lower() == "all" for name in arguments.scenarios):
            scenarios = None  # all applicable to the dialect
        else:
            scenarios = tuple(name.lower() for name in arguments.scenarios)

    oracles: tuple[str, ...] | None = None
    if arguments.oracles is not None:
        known_oracles = set(oracle_names())
        for name in arguments.oracles:
            if name.lower() != "all" and name.lower() not in known_oracles:
                parser.error(
                    f"unknown oracle {name!r}; available: "
                    f"{', '.join(oracle_names())} (or 'all')"
                )
        if any(name.lower() == "all" for name in arguments.oracles):
            oracles = None  # every family
        else:
            oracles = tuple(name.lower() for name in arguments.oracles)

    config = CampaignConfig(
        dialect=arguments.dialect,
        backend=arguments.backend,
        compare_backend=arguments.cross_backend,
        emulate_release_under_test=not arguments.clean,
        geometry_count=arguments.geometries,
        table_count=arguments.tables,
        queries_per_round=arguments.queries,
        use_derivative_strategy=not arguments.random_shape_only,
        scheduler=arguments.scheduler,
        trace_file=arguments.trace_file,
        seed=arguments.seed,
        workers=arguments.workers,
        shards=arguments.shards,
        scenarios=scenarios,
        oracles=oracles,
    )
    campaign_id: str | None = None
    novel_count: int | None = None
    if arguments.store is not None:
        from repro.store import FindingsStore, resume_store_campaign, run_store_campaign

        if arguments.resume is not None:
            try:
                campaign_id, result = resume_store_campaign(
                    arguments.store,
                    arguments.resume,
                    rounds=arguments.rounds,
                    duration_seconds=arguments.duration,
                )
            except ValueError as error:
                parser.error(str(error))
        else:
            campaign_id, result = run_store_campaign(
                arguments.store,
                config,
                rounds=None if arguments.duration is not None else arguments.rounds,
                duration_seconds=arguments.duration,
                preseed=arguments.preseed,
            )
        with FindingsStore(arguments.store) as store:
            novel_count = store.novel_finding_count(campaign_id)
    elif arguments.duration is not None:
        result = run_campaign(config, duration_seconds=arguments.duration)
    else:
        result = run_campaign(config, rounds=5 if arguments.rounds is None else arguments.rounds)

    if arguments.json:
        from repro.store.serialize import result_to_json

        payload = result_to_json(result)
        if campaign_id is not None:
            payload["campaign_id"] = campaign_id
            payload["globally_novel_findings"] = novel_count
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        _print_report(result, arguments)
        if campaign_id is not None:
            print(
                f"\nRecorded to store {arguments.store} as campaign {campaign_id}"
                f" ({novel_count} globally-novel finding(s))"
            )
    findings = (
        result.discrepancies
        or result.oracle_findings
        or result.crashes
        or result.divergences
    )
    return 0 if not findings else 1


def _print_report(result, arguments) -> None:
    """The human-readable campaign report (the default, non-``--json`` view)."""
    print(result.summary())
    # Only label the counters as fast-path output on the in-process engine;
    # on an external backend the remaining traffic is the seed's
    # unconditional layers (relate memo, ST_Contains routing) and would
    # mislead.
    if result.cache_stats and result.config.backend == "inprocess":
        prepared_hits = result.cache_stats.get("prepared_hits", 0)
        prepared_misses = result.cache_stats.get("prepared_misses", 0)
        relate_hits = result.cache_stats.get("relate_hits", 0)
        relate_misses = result.cache_stats.get("relate_misses", 0)
        print(
            f"Fast-path caches: prepared {prepared_hits} hits / "
            f"{prepared_misses} misses, relate {relate_hits} hits / "
            f"{relate_misses} misses"
        )
    if result.cache_stats:
        derived = result.cache_stats.get("reuse_derived_databases", 0)
        direct = result.cache_stats.get("reuse_direct_databases", 0)
        fallback = result.cache_stats.get("reuse_fallback_databases", 0)
        plan_hits = result.cache_stats.get("plan_hits", 0)
        plan_misses = result.cache_stats.get("plan_misses", 0)
        print(
            f"Reuse layer: {derived} derived / {direct} direct / "
            f"{fallback} fallback databases, plans {plan_hits} hits / "
            f"{plan_misses} misses; materialise {result.materialise_seconds:.3f}s, "
            f"execute {result.execute_seconds:.3f}s"
        )
    if result.queries_by_scenario:
        print("\nQueries and findings per scenario:")
        findings_by_scenario: dict[str, int] = {}
        for discrepancy in result.discrepancies:
            name = getattr(discrepancy, "scenario", "topological-join")
            findings_by_scenario[name] = findings_by_scenario.get(name, 0) + 1
        for name, count in result.queries_by_scenario.items():
            found = findings_by_scenario.get(name, 0)
            print(f"  {name:18s} {count:5d} queries, {found:3d} discrepancies")
    if result.queries_by_oracle:
        print("\nQueries and findings per oracle:")
        findings_by_oracle: dict[str, int] = {}
        for finding in result.oracle_findings:
            findings_by_oracle[finding.oracle] = findings_by_oracle.get(finding.oracle, 0) + 1
        for name, count in result.queries_by_oracle.items():
            found = findings_by_oracle.get(name, 0)
            print(f"  {name:18s} {count:5d} queries, {found:3d} findings")
    if result.scheduler_stats:
        print(f"\nScheduler arms ({result.config.scheduler}):")
        for arm, row in result.scheduler_stats.items():
            print(
                f"  {arm:28s} {row['pulls']:4d} pulls, {row['queries']:5d} queries, "
                f"{row['novel_signatures']:3d} novel signatures "
                f"(posterior {row['posterior']:.3f})"
            )
    if result.discrepancies:
        if arguments.reduce:
            print("\nDiscrepancies (minimized):")
            _print_reduced_discrepancies(result)
        else:
            print("\nDiscrepancies:")
            for discrepancy in result.discrepancies:
                print(f"  - {discrepancy.describe()}")
    if result.oracle_findings:
        print("\nOracle findings:")
        for finding in result.oracle_findings:
            print(f"  - {finding.describe()}")
    if result.crashes:
        print("\nCrashes:")
        for crash in result.crashes:
            print(f"  - {crash.statement}: {crash.message}")
    if result.config.compare_backend is not None:
        unique = result.unique_divergence_signatures
        skipped = ""
        if result.reference_errors_ignored:
            # a reference that cannot run the statements is the Section 5.3
            # inapplicability blind spot — surface it, or a vacuous
            # comparison reads like a clean engine.
            skipped = f" ({result.reference_errors_ignored} reference errors ignored)"
        print(
            f"\nCross-backend differential ({result.config.backend} vs "
            f"{result.config.compare_backend}): {result.divergence_queries} queries "
            f"compared, {len(result.divergences)} divergences, "
            f"{len(unique)} unique{skipped}"
        )
        for divergence in result.divergences:
            print(f"  - {divergence.describe()}")
    if result.unique_bug_ids:
        print("\nUnique injected bugs detected (ground truth):")
        for bug_id in result.unique_bug_ids:
            print(f"  - {bug_id}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
