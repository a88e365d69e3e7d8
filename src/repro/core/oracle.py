"""The AEI oracle: build SDB1 and SDB2, run scenario queries, compare results.

This is the "Results Validation" step of Figure 5, generalized from the
paper's single JOIN template to the metamorphic scenario registry
(:mod:`repro.scenarios`).  Given a generated database specification, the
oracle

1. materialises SDB1 in a fresh connection to the system under test;
2. resolves the scenario selection against the dialect's capabilities and
   groups the scenarios by ``(transformation family, canonicalize?)``;
3. for each group, canonicalises every geometry and applies one shared
   transformation *sampled from the group's family* to produce an SDB2
   (Definition 3.4 makes each pair Affine Equivalent Inputs for the
   scenarios in its group);
4. lets every scenario instantiate queries against both databases and
   reports a :class:`Discrepancy` whenever the observed SDB2 result differs
   from the result the scenario's expectation function derives from SDB1's.

Semantic errors raised by the SDBMS (invalid geometries) are ignored, and
crashes are converted into :class:`CrashReport` records, mirroring how the
paper's campaign distinguishes logic bugs from crash bugs.

The oracle talks to the system under test through the backend protocol
(:mod:`repro.backends`): constructed from a ``Backend`` (or a bare session
factory, treated as the in-process engine), it resolves scenarios against
the backend's :class:`~repro.backends.base.Capabilities` descriptor, and —
when given a ``reference_backend`` — additionally replays every scenario
query on a second engine and reports cross-backend
:class:`~repro.backends.differential.BackendDivergence` findings alongside
the affine-equivalence violations.

This module is the *pair-based* (metamorphic and differential) half of the
campaign's oracle portfolio; the *single-database* families — the
set-theoretic join oracle and PQS — live in :mod:`repro.oracles` and are
selected alongside this one via ``CampaignConfig.oracles`` /
``--oracles`` (catalog: ``--list-oracles`` and ``docs/ORACLES.md``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EngineCrash, ReproError, SemanticGeometryError
from repro.geometry import load_wkt
from repro.geometry.cache import intern_parsed
from repro.geometry.model import Geometry
from repro.backends.base import Backend, Capabilities
from repro.backends.differential import BackendDivergence, CrossBackendComparator
from repro.core.affine import AffineTransformation, has_integral_coordinates
from repro.core.canonical import canonicalize
from repro.core.generator import DatabaseSpec
from repro.core.reuse import record_materialisation
from repro.engine.database import SpatialDatabase
from repro.scenarios import Scenario, ScenarioContext, resolve_scenarios
from repro.scenarios.base import TransformationFamily


@dataclass
class Discrepancy:
    """A logic-bug candidate: a scenario's expectation was violated.

    ``result_expected`` is what the scenario's expectation function derived
    from the SDB1 result; for the invariance scenarios it equals
    ``result_original``, for covariant scenarios (metrics) it is the scaled
    value.
    """

    query: Any  # ScenarioQuery (or the legacy TopologicalQuery surface)
    result_original: Any
    result_followup: Any
    original_statements: list[str]
    followup_statements: list[str]
    transformation: AffineTransformation
    triggered_bug_ids: tuple[str, ...] = ()
    scenario: str = "topological-join"
    result_expected: Any = None

    # ------------------------------------------------------------ back-compat
    @property
    def count_original(self) -> Any:
        """Historical name from the counts-only oracle."""
        return self.result_original

    @property
    def count_followup(self) -> Any:
        """Historical name from the counts-only oracle."""
        return self.result_followup

    def describe(self) -> str:
        expected = ""
        if self.result_expected != self.result_original:
            expected = f", expected {self.result_expected}"
        return (
            f"[{self.scenario}] {self.query.describe()} returned "
            f"{self.result_original} on SDB1 but {self.result_followup} on SDB2"
            f"{expected} ({self.transformation.describe()})"
        )


@dataclass
class CrashReport:
    """A crash-bug candidate: the engine raised EngineCrash."""

    statement: str
    message: str
    bug_id: str | None = None


@dataclass
class OracleOutcome:
    """Everything one oracle invocation produced."""

    discrepancies: list[Discrepancy] = field(default_factory=list)
    crashes: list[CrashReport] = field(default_factory=list)
    queries_run: int = 0
    errors_ignored: int = 0
    #: queries executed per scenario name (capability- and admissibility-
    #: gated scenarios simply never appear).
    queries_by_scenario: dict[str, int] = field(default_factory=dict)
    #: cross-backend findings (only populated with a reference backend).
    divergences: list[BackendDivergence] = field(default_factory=list)
    #: scenario queries replayed on the reference backend.
    divergence_queries: int = 0
    #: reference-side errors the differential mode ignored (Section 5.3's
    #: inapplicability blind spot), kept apart from the AEI error counter.
    reference_errors_ignored: int = 0
    #: engine time spent inside the reference backend.
    reference_seconds: float = 0.0
    #: wall time spent building databases (spec derivation + loading), as
    #: opposed to running scenario queries — the reuse layer's target phase.
    materialise_seconds: float = 0.0


def allocate_query_budget(
    query_count: int, scenario_count: int, offset: int = 0
) -> list[int]:
    """Split one round's query budget across the active scenarios.

    The total stays ``query_count`` whatever the scenario count (keeping
    round cost independent of how many scenarios are enabled).  With
    ``offset=0`` the remainder goes to the earlier scenarios — the
    reference JOIN template first; the oracle rotates ``offset`` per check
    so that when there are fewer queries than scenarios, *which* scenarios
    go without changes every round instead of permanently starving the
    trailing ones.
    """
    if scenario_count <= 0:
        return []
    base, remainder = divmod(max(0, query_count), scenario_count)
    return [
        base + (1 if (index - offset) % scenario_count < remainder else 0)
        for index in range(scenario_count)
    ]


class AEIOracle:
    """Validates a system under test with Affine Equivalent Inputs."""

    def __init__(
        self,
        database_factory=None,
        rng: random.Random | None = None,
        canonicalize_followup: bool = True,
        backend: Backend | None = None,
        capabilities: Capabilities | None = None,
        reference_backend: Backend | None = None,
        plan_cache=None,
    ):
        """``database_factory`` returns a *fresh* connection to the system
        under test each time it is called (the oracle needs one SDB1 plus
        one SDB2 per transformation-family group).  Alternatively pass a
        ``backend`` — its ``open_session`` becomes the factory and its
        capability descriptor gates the scenario selection; a bare factory
        keeps working and is treated as the in-process engine.

        ``reference_backend`` enables the cross-backend differential mode:
        every scenario query executed against the primary connection is
        replayed on a session of the reference backend holding the same
        SDB1, and post-normalization result differences are reported as
        :class:`~repro.backends.differential.BackendDivergence` findings.
        The comparator consumes no randomness, so enabling it does not
        perturb the AEI round stream.

        ``plan_cache`` (a :class:`repro.engine.plancache.PlanCache`, shared
        across rounds by the campaign) lets scenario queries replay
        compiled statements instead of rendering and re-parsing SQL per
        execution; it engages whenever the session supports
        ``execute_parsed``.
        """
        if database_factory is None:
            if backend is None:
                raise ValueError("AEIOracle needs a database_factory or a backend")
            database_factory = backend.open_session
        self.database_factory = database_factory
        self.backend = backend
        self.capabilities = capabilities or (
            backend.capabilities() if backend is not None else None
        )
        self.reference_backend = reference_backend
        self.rng = rng or random.Random()
        self.canonicalize_followup = canonicalize_followup
        self.plan_cache = plan_cache

    # ------------------------------------------------------------------ steps
    def build_followup_spec(
        self,
        spec: DatabaseSpec,
        transformation: AffineTransformation,
        canonicalize_spec: bool | None = None,
    ) -> DatabaseSpec:
        """Canonicalise (optionally) and transform every geometry of a spec.

        The text-only form of :meth:`derive_followup`: the test-case
        reducer re-checks minimised specs through it, and the derivation
        property tests use it as the reference.
        """
        if canonicalize_spec is None:
            canonicalize_spec = self.canonicalize_followup
        followup = DatabaseSpec(tables={})
        for table, wkts in spec.tables.items():
            followup.tables[table] = [
                self._followup_wkt(wkt, transformation, canonicalize_spec) for wkt in wkts
            ]
        return followup

    @staticmethod
    def _followup_wkt(
        wkt: str, transformation: AffineTransformation, canonicalize_spec: bool
    ) -> str:
        """One geometry through the follow-up pipeline (shared with literals)."""
        geometry = load_wkt(wkt)
        if canonicalize_spec:
            geometry = canonicalize(geometry)
        return transformation.apply(geometry).wkt

    def derive_followup(
        self,
        spec: DatabaseSpec,
        transformation: AffineTransformation,
        canonicalize_spec: bool | None = None,
    ) -> tuple[DatabaseSpec, dict[str, list[Geometry]] | None]:
        """The follow-up spec plus its parsed tables (the reuse layer).

        Runs the same canonicalize-then-transform pipeline as
        :meth:`build_followup_spec` but keeps the derived ``Geometry``
        objects so materialisation can bulk-load them directly instead of
        re-parsing the WKT it just serialized.  Direct loading is only
        sound when every derived geometry round-trips exactly through WKT
        (all-integral coordinates — see
        :func:`repro.core.affine.has_integral_coordinates`);
        otherwise the parsed side is ``None`` and the caller replays the
        spec through SQL like the legacy path.  Round-trippable objects are
        interned under their dumped text so later parses of the same WKT
        (query literals, finding deduplication) share the instance.
        """
        if canonicalize_spec is None:
            canonicalize_spec = self.canonicalize_followup
        followup = DatabaseSpec(tables={})
        parsed: dict[str, list[Geometry]] = {}
        exact = True
        for table, wkts in spec.tables.items():
            texts: list[str] = []
            geometries: list[Geometry] = []
            for wkt in wkts:
                geometry = load_wkt(wkt)
                if canonicalize_spec:
                    geometry = canonicalize(geometry)
                derived = transformation.apply(geometry)
                text = derived.wkt
                texts.append(text)
                if exact:
                    if has_integral_coordinates(derived):
                        geometries.append(intern_parsed(text, derived))
                    else:
                        exact = False
            followup.tables[table] = texts
            if exact:
                parsed[table] = geometries
        return followup, (parsed if exact else None)

    def materialise(
        self,
        spec: DatabaseSpec,
        parsed: dict[str, list[Geometry]] | None = None,
    ) -> SpatialDatabase:
        """Create the tables and rows of a spec in a fresh connection.

        Rows carry stable ids (``include_ids``) so row-list scenarios can
        compare results by identity.  A session that supports bulk loading
        receives the parsed geometries (``parsed`` from
        :meth:`derive_followup`, or the spec's WKTs through the interner)
        directly — statement for statement identical to executing
        ``create_statements``, minus the SQL round-trip; other sessions
        replay the statements.
        """
        database = self.database_factory()
        loader = getattr(database, "load_geometry_tables", None)
        if loader is not None:
            if parsed is None:
                tables = {
                    table: [load_wkt(wkt) for wkt in wkts]
                    for table, wkts in spec.tables.items()
                }
                record_materialisation("direct")
            else:
                tables = parsed
                record_materialisation("derived")
            loader(tables, include_ids=True)
        else:
            record_materialisation("fallback")
            for statement in spec.create_statements(include_ids=True):
                database.execute(statement)
        return database

    # ------------------------------------------------------------------- run
    def check(
        self,
        spec: DatabaseSpec,
        query_count: int = 10,
        transformation: AffineTransformation | None = None,
        scenarios=None,
        budgets: dict[str, int] | None = None,
    ) -> OracleOutcome:
        """Run ``query_count`` scenario queries over AEI pairs.

        ``scenarios`` selects registry entries by name (``None`` or
        ``"all"`` means every scenario applicable to the dialect); the
        budget is split across them by :func:`allocate_query_budget`.  An
        explicit ``transformation`` is honoured for every scenario whose
        family admits it — inadmissible scenarios are skipped, which is the
        registry form of the old "skip distance predicates for non-rigid
        transformations" rule.

        ``budgets`` overrides the even split with an explicit per-scenario
        query allocation (name → queries; unnamed scenarios get zero) —
        the entry point of the feedback-guided scheduler
        (:mod:`repro.core.scheduler`).  With explicit budgets the oracle
        draws no rotation offset, so it consumes none of the round RNG for
        budget placement.
        """
        outcome = OracleOutcome()
        materialise_started = time.perf_counter()
        try:
            original = self.materialise(spec)
        except EngineCrash as crash:
            outcome.crashes.append(
                CrashReport(
                    statement="<database construction>",
                    message=str(crash),
                    bug_id=crash.bug_id,
                )
            )
            return outcome
        except ReproError:
            outcome.errors_ignored += 1
            return outcome
        finally:
            outcome.materialise_seconds += time.perf_counter() - materialise_started

        capabilities = self.capabilities or Capabilities.from_dialect(original.dialect)
        active = resolve_scenarios(scenarios, capabilities)
        if transformation is not None:
            active = [s for s in active if s.admits_transformation(transformation)]
        if not active:
            return outcome

        if budgets is None:
            # rotate which scenarios receive the budget remainder (and, when
            # query_count < len(active), which run at all) so repeated checks —
            # one per campaign round — starve no scenario permanently.
            offset = self.rng.randrange(len(active)) if len(active) > 1 else 0
            allocated = allocate_query_budget(query_count, len(active), offset=offset)
            budget_of = {id(scenario): budget for scenario, budget in zip(active, allocated)}
        else:
            budget_of = {id(scenario): budgets.get(scenario.name, 0) for scenario in active}
        groups = self._group_scenarios(active, shared_transformation=transformation is not None)
        original_statements = spec.create_statements(include_ids=True)

        comparator = None
        if self.reference_backend is not None:
            comparator = CrossBackendComparator(
                self.reference_backend, primary_name=capabilities.backend
            )
            comparator.materialise(original_statements)

        for (family, canonicalize_spec), members in groups.items():
            if all(budget_of[id(scenario)] <= 0 for scenario in members):
                continue
            group_transformation = transformation or family.sample(self.rng)
            materialise_started = time.perf_counter()
            try:
                followup_spec, followup_parsed = self.derive_followup(
                    spec,
                    group_transformation,
                    canonicalize_spec=canonicalize_spec and self.canonicalize_followup,
                )
                followup = self.materialise(followup_spec, parsed=followup_parsed)
            except EngineCrash as crash:
                outcome.crashes.append(
                    CrashReport(
                        statement="<database construction>",
                        message=str(crash),
                        bug_id=crash.bug_id,
                    )
                )
                continue
            except ReproError:
                outcome.errors_ignored += 1
                continue
            finally:
                outcome.materialise_seconds += time.perf_counter() - materialise_started
            context = ScenarioContext(
                dialect=original.dialect,
                rng=self.rng,
                transformation=group_transformation,
                followup_wkt=lambda wkt, t=group_transformation, c=(
                    canonicalize_spec and self.canonicalize_followup
                ): self._followup_wkt(wkt, t, c),
                capabilities=capabilities,
            )
            followup_statements = followup_spec.create_statements(include_ids=True)
            for scenario in members:
                budget = budget_of[id(scenario)]
                if budget <= 0:
                    continue
                self._run_scenario(
                    outcome,
                    scenario,
                    spec,
                    context,
                    budget,
                    original,
                    followup,
                    original_statements,
                    followup_statements,
                    comparator,
                    capabilities,
                )
        if comparator is not None:
            stats = comparator.finish()
            outcome.divergence_queries = stats.queries_compared
            outcome.reference_errors_ignored = stats.errors_ignored
            outcome.reference_seconds = stats.reference_seconds
        return outcome

    # -------------------------------------------------------------- internals
    @staticmethod
    def _group_scenarios(
        active: list[Scenario],
        shared_transformation: bool = False,
    ) -> dict[tuple[TransformationFamily | None, bool], list[Scenario]]:
        """Group scenarios sharing one follow-up database.

        A follow-up is reusable across scenarios exactly when they draw from
        the same transformation family and agree on canonicalization, so the
        group key is that pair; insertion order keeps the registry order.
        With one explicit transformation shared by every scenario
        (``shared_transformation``) the family no longer discriminates —
        only the canonicalize flag does — so the key drops it rather than
        materialising byte-identical follow-up databases per family.
        """
        groups: dict[tuple[TransformationFamily | None, bool], list[Scenario]] = {}
        for scenario in active:
            family = None if shared_transformation else scenario.family
            key = (family, scenario.canonicalize_followup)
            groups.setdefault(key, []).append(scenario)
        return groups

    def _execute_query(
        self,
        database: SpatialDatabase,
        query: Any,
        ir: Any,
        render,
        capabilities: Capabilities | None,
        use_plan: bool,
    ) -> Any:
        """Run one side of a scenario query, via the plan cache when possible.

        The cached path binds the query's literals into the compiled
        statement and executes it through the same executor entry point a
        fresh parse would use; rendering SQL text is skipped entirely.  Any
        shape the cache refuses (or a query without an IR) falls back to
        the legacy render-and-parse path — the two are result-identical by
        the plan cache's build-time verification.
        """
        if use_plan and ir is not None:
            plan = self.plan_cache.prepare(ir, capabilities)
            if plan is not None:
                result = plan.run(database, ir)
                if result is not None:
                    if query.kind == "rows":
                        return tuple(tuple(row) for row in result.rows)
                    return result.scalar()
        sql = render(capabilities)
        if query.kind == "rows":
            return tuple(tuple(row) for row in database.query_rows(sql))
        return database.query_value(sql)

    def _run_scenario(
        self,
        outcome: OracleOutcome,
        scenario: Scenario,
        spec: DatabaseSpec,
        context: ScenarioContext,
        budget: int,
        original: SpatialDatabase,
        followup: SpatialDatabase,
        original_statements: list[str],
        followup_statements: list[str],
        comparator: CrossBackendComparator | None = None,
        capabilities: Capabilities | None = None,
    ) -> None:
        queries = scenario.build_queries(spec, context, budget)
        use_plans = (
            self.plan_cache is not None
            and hasattr(original, "execute_parsed")
            and hasattr(followup, "execute_parsed")
        )
        for query in queries:
            outcome.queries_run += 1
            outcome.queries_by_scenario[scenario.name] = (
                outcome.queries_by_scenario.get(scenario.name, 0) + 1
            )
            before_original = len(original.fault_plan.triggered)
            before_followup = len(followup.fault_plan.triggered)
            try:
                result_original: Any = self._execute_query(
                    original, query, query.ir_original, query.render_original,
                    capabilities, use_plans,
                )
                result_followup: Any = self._execute_query(
                    followup, query, query.ir_followup, query.render_followup,
                    capabilities, use_plans,
                )
            except EngineCrash as crash:
                outcome.crashes.append(
                    CrashReport(
                        statement=query.sql_original,
                        message=str(crash),
                        bug_id=crash.bug_id,
                    )
                )
                continue
            except SemanticGeometryError:
                outcome.errors_ignored += 1
                continue
            except ReproError:
                outcome.errors_ignored += 1
                continue
            if comparator is not None:
                divergence = comparator.compare(
                    query,
                    result_original,
                    tuple(dict.fromkeys(original.fault_plan.triggered[before_original:])),
                )
                if divergence is not None:
                    outcome.divergences.append(divergence)
            expected = scenario.expected_followup(
                query, result_original, context.transformation
            )
            if not scenario.results_match(expected, result_followup):
                newly_triggered = (
                    original.fault_plan.triggered[before_original:]
                    + followup.fault_plan.triggered[before_followup:]
                )
                outcome.discrepancies.append(
                    Discrepancy(
                        query=query,
                        result_original=result_original,
                        result_followup=result_followup,
                        original_statements=original_statements,
                        followup_statements=followup_statements,
                        transformation=context.transformation,
                        triggered_bug_ids=tuple(dict.fromkeys(newly_triggered)),
                        scenario=scenario.name,
                        result_expected=expected,
                    )
                )
