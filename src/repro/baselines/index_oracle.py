"""The Index oracle: differential testing between access paths.

Within one system, the same query must return the same rows whether the
planner uses a sequential scan or a spatial index (GiST) scan.  The paper
uses this oracle as a baseline ("Index" column of Table 4) and notes that it
only helps when the test case actually exercises the index — which is why it
can in principle find the two index-related bugs but nothing else.

Connections handed to this oracle should be opened with
``connect(..., fast_path=False, vectorized=False)``: its whole point is to
compare the two scan paths of the *seed* execution engine, so the batch
executor's columnar pipelines and envelope prefilter must stay out of the
picture.
(``IndexToggleOracle`` enforces this defensively by switching any
fast-path- or vectorization-enabled connection its factory returns back to
the reference execution mode.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import EngineCrash, ReproError
from repro.backends.base import Capabilities
from repro.core.generator import DatabaseSpec
from repro.core.queries import QueryTemplate, TopologicalQuery
from repro.engine.database import SpatialDatabase


@dataclass
class IndexFinding:
    """Sequential scan and index scan returned different counts."""

    query: TopologicalQuery
    count_seqscan: int
    count_index: int


@dataclass
class IndexOutcome:
    findings: list[IndexFinding] = field(default_factory=list)
    queries_run: int = 0
    errors_ignored: int = 0


class IndexToggleOracle:
    """Runs every query twice: with sequential scans and with index scans."""

    def __init__(self, database_factory=None, rng: random.Random | None = None, backend=None):
        """Construct from a connection factory or a ``repro.backends``
        backend.  A backend must declare planner-toggle support in its
        capabilities — the seqscan/index switch is this oracle's entire
        mechanism, and silently running both "paths" on a backend that
        ignores ``SET enable_seqscan`` would report a vacuously clean
        result."""
        if database_factory is None:
            if backend is None:
                raise ValueError("IndexToggleOracle needs a database_factory or a backend")
            if not backend.capabilities().supports_planner_toggles:
                raise ValueError(
                    f"backend {backend.name!r} has no seqscan/index planner toggle; "
                    "the Index oracle cannot drive it"
                )
            database_factory = backend.open_session
        self.database_factory = database_factory
        self.rng = rng or random.Random()

    def _materialise(self, spec: DatabaseSpec, geometry_column: str = "g") -> SpatialDatabase:
        database = self.database_factory()
        if getattr(database, "fast_path", False):
            # The Index oracle compares the seed engine's two scan paths;
            # disable the envelope prefilter on this connection so the only
            # index machinery in play is the one it toggles itself.
            database.fast_path = False
            database.executor.fast_path = False
        if getattr(database, "vectorized", False):
            # Same reasoning for the batch executor: both scan paths must be
            # the seed engine's row-at-a-time plans, not batch pipelines.
            database.vectorized = False
            database.executor.vectorized = False
        for statement in spec.create_statements():
            database.execute(statement)
        for table in spec.table_names():
            database.execute(
                f"CREATE INDEX idx_{table} ON {table} USING GIST ({geometry_column})"
            )
        return database

    def check(self, spec: DatabaseSpec, query_count: int = 10) -> IndexOutcome:
        """Compare seq-scan and index-scan counts for random template queries."""
        outcome = IndexOutcome()
        try:
            database = self._materialise(spec)
        except (EngineCrash, ReproError):
            outcome.errors_ignored += 1
            return outcome
        template = QueryTemplate(database.dialect, self.rng)
        tables = spec.table_names()
        for _ in range(query_count):
            query = template.random_query(tables, include_distance_predicates=False)
            outcome.queries_run += 1
            finding = self.check_single(database, query)
            if finding is not None:
                outcome.findings.append(finding)
        return outcome

    def check_single(
        self, database: SpatialDatabase, query: TopologicalQuery
    ) -> IndexFinding | None:
        """One comparison; returns a finding when the two paths disagree."""
        # The oracle only drives planner-toggle backends (the in-process
        # engine), but the SQL still goes through the IR renderer so every
        # query producer shares one rendering path.
        sql = query.render(Capabilities.from_dialect(database.dialect))
        try:
            database.execute("SET enable_seqscan = true")
            count_seqscan = database.query_value(sql)
            database.execute("SET enable_seqscan = false")
            count_index = database.query_value(sql)
            database.execute("SET enable_seqscan = true")
        except (EngineCrash, ReproError):
            return None
        if count_seqscan != count_index:
            return IndexFinding(
                query=query, count_seqscan=count_seqscan, count_index=count_index
            )
        return None
