"""The campaign-oracle abstraction: one finding class per oracle family.

The AEI oracle (:mod:`repro.core.oracle`) validates metamorphic scenarios
over database *pairs*; the oracle families in this package instead derive
their ground truth from a *single* database — set-theoretic algebra over a
join's constituent scans, or a pivot row's independently-evaluated
predicate verdict (PQS).  A :class:`CampaignOracle` packages one such
family behind a uniform surface the campaign driver can budget, select
(``--oracles``) and merge across parallel shards:

* ``check(spec, session_factory, capabilities, rng, count)`` materialises
  the generated database on the configured execution backend and runs
  ``count`` randomized checks, returning an :class:`OracleRoundOutcome`;
* every violation is an :class:`OracleFinding` whose
  :meth:`~OracleFinding.signature` joins the existing deduplication
  signature space (``family|label|query shape|geometry types`` — the same
  format :func:`repro.core.dedup.signature_identity` builds for AEI
  discrepancies) and whose ``triggered_bug_ids`` carry the fault layer's
  ground-truth attribution;
* crashes surface as the shared :class:`~repro.core.oracle.CrashReport`
  and semantic errors are ignored, exactly as the AEI oracle treats them.

Oracles are stateless singletons (like scenarios), so they travel through
the parallel orchestrator's process boundary as registry *names* carried by
the campaign config.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.backends.base import Capabilities
from repro.core.generator import DatabaseSpec
from repro.core.oracle import CrashReport
from repro.core.qir import Select, structural_signature
from repro.core.reuse import record_materialisation
from repro.errors import EngineCrash, ReproError
from repro.geometry import load_wkt


@dataclass(frozen=True)
class OracleFinding:
    """One oracle-family violation: a logic-bug candidate.

    Plain frozen data (the IR tree included), so findings pickle across the
    parallel orchestrator's process boundary like AEI discrepancies do.
    """

    #: registry name of the oracle that produced the finding.
    oracle: str
    #: signature-relevant label (the predicate or relation under test).
    label: str
    #: canonical rendering of the violating query (reporting surface).
    sql: str
    #: human-readable description of the violated relation.
    detail: str
    #: the query plan whose structural shape keys signature deduplication.
    ir: Select | None = None
    #: injected bugs the fault layer recorded while producing the finding.
    triggered_bug_ids: tuple[str, ...] = ()
    #: geometry types of the participating rows (the signature's last part,
    #: mirroring how AEI signatures fold in the generated geometry types).
    geometry_types: tuple[str, ...] = ()

    def signature(self) -> str:
        """The syntactic identity, in the shared dedup signature format."""
        shape = structural_signature(self.ir) if self.ir is not None else ""
        return f"{self.oracle}|{self.label}|{shape}|{'+'.join(sorted(self.geometry_types))}"

    def describe(self) -> str:
        return f"[{self.oracle}] {self.detail}: {self.sql}"


@dataclass
class OracleRoundOutcome:
    """Everything one oracle produced over one generated database."""

    findings: list[OracleFinding] = field(default_factory=list)
    crashes: list[CrashReport] = field(default_factory=list)
    #: SQL statements executed against the system under test.
    queries_run: int = 0
    #: semantic errors ignored rather than reported (AEI parity).
    errors_ignored: int = 0
    #: wall time spent materialising the database (reuse-layer phase split).
    materialise_seconds: float = 0.0


class CampaignOracle:
    """Base class: one single-database oracle family.

    Subclasses set the class attributes and implement :meth:`check`; the
    campaign driver resolves instances from the registry
    (:mod:`repro.oracles`) by name and splits the round's query budget
    across the selected families.
    """

    #: registry name (also the ``--oracles`` CLI token).
    name: str = ""
    #: one-line human description for ``--list-oracles`` and the docs.
    title: str = ""
    #: pointer into the related work for the docs catalog.
    paper_anchor: str = ""

    def is_applicable(self, capabilities: Capabilities) -> bool:
        """Capability gating (default: every backend can run the family)."""
        return True

    def check(
        self,
        spec: DatabaseSpec,
        session_factory: Callable[[], Any],
        capabilities: Capabilities,
        rng: random.Random,
        count: int,
    ) -> OracleRoundOutcome:
        """Materialise ``spec`` and run ``count`` randomized checks."""
        raise NotImplementedError

    # ------------------------------------------------------------- shared
    def materialise(
        self,
        spec: DatabaseSpec,
        session_factory: Callable[[], Any],
        outcome: OracleRoundOutcome,
    ):
        """Create the spec's tables in a fresh session (ids included).

        Mirrors :meth:`repro.core.oracle.AEIOracle.materialise`: stable row
        ids key every containment/membership check, construction crashes
        become :class:`CrashReport` records, and semantic construction
        errors are ignored.  Returns ``None`` when materialisation failed.
        Sessions that support bulk loading receive the interner's parsed
        geometries directly instead of replaying the CREATE/INSERT
        statements (identical storage, no SQL round-trip).
        """
        started = time.perf_counter()
        try:
            session = session_factory()
            loader = getattr(session, "load_geometry_tables", None)
            if loader is not None:
                record_materialisation("direct")
                loader(
                    {
                        table: [load_wkt(wkt) for wkt in wkts]
                        for table, wkts in spec.tables.items()
                    },
                    include_ids=True,
                )
            else:
                record_materialisation("fallback")
                for statement in spec.create_statements(include_ids=True):
                    session.execute(statement)
        except EngineCrash as crash:
            outcome.crashes.append(
                CrashReport(
                    statement="<database construction>",
                    message=str(crash),
                    bug_id=crash.bug_id,
                )
            )
            return None
        except ReproError:
            outcome.errors_ignored += 1
            return None
        finally:
            outcome.materialise_seconds += time.perf_counter() - started
        return session

    def describe(self) -> str:
        return f"{self.name}: {self.title}"


def geometry_types_of(spec: DatabaseSpec, tables: tuple[str, ...]) -> tuple[str, ...]:
    """The geometry-type multiset of the rows a check touched (sorted).

    The same role the INSERT-statement scan plays for AEI signatures: two
    findings differing only in coordinate values collapse, while a POINT
    case and a GEOMETRYCOLLECTION case stay distinct bug identities.
    """
    types: list[str] = []
    for table in dict.fromkeys(tables):
        for wkt in spec.tables.get(table, []):
            try:
                types.append(load_wkt(wkt).geom_type)
            except Exception:  # noqa: BLE001 - signature building must not fail
                types.append("UNPARSED")
    return tuple(sorted(types))
