"""The execution-backend protocol.

The paper evaluates Spatter against four real engines; the reproduction
historically could only drive its own in-process emulated engine, because
the oracle, the campaign driver and every baseline constructed
:class:`~repro.engine.database.SpatialDatabase` connections directly.  This
module is the seam that breaks that coupling: a :class:`Backend` describes
*one way of executing spatial SQL* — the in-process engine, a stdlib
``sqlite3`` database with the repro geometry library registered as UDFs, or
(in the future) a DuckDB-spatial or PostGIS-over-the-wire adapter — and the
rest of the system talks to it through three small surfaces:

* :class:`Capabilities` — what the backend can do (supported functions,
  fault injection, planner toggles, dialect quirks).  Scenarios and
  baselines consult this descriptor instead of reaching into the dialect
  registry, so capability gating works identically for every adapter.
* ``Backend.open_session()`` — the connection lifecycle.  A session is any
  object satisfying :class:`BackendSession` (a structural protocol, so the
  existing :class:`SpatialDatabase` is already a valid session without a
  wrapper — which is what keeps the default campaign byte-identical to the
  pre-protocol code path).
* the backend **registry** — backends are created from their registered
  *name* plus plain-data options (dialect, bug ids, fast-path flag), which
  is what lets a :class:`~repro.core.campaign.CampaignConfig` cross the
  parallel orchestrator's pickling boundary carrying only strings: each
  worker process re-creates its own backend from the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

from repro.engine.dialects import Dialect, get_dialect


@dataclass(frozen=True)
class Capabilities:
    """What one backend can do, as consulted by scenarios and baselines.

    The descriptor is deliberately duck-compatible with
    :class:`~repro.engine.dialects.Dialect` for the read-only catalog
    queries (``supports_function``, ``topological_predicates``, ...), so
    every call site that used to take a dialect can take a capabilities
    descriptor without change — but it additionally records the
    *backend-level* facts a dialect knows nothing about: whether the
    injected-fault layer exists, whether the planner exposes the
    seqscan/index toggles the Index baseline needs, and dialect quirks such
    as whether ``'...'::geometry`` literal casts parse.
    """

    #: registry name of the backend this descriptor came from.
    backend: str
    #: the emulated system whose function catalog the backend exposes.
    dialect: Dialect
    #: the backend evaluates the injected-bug catalog (ground-truth dedup
    #: and the release-under-test emulation are available).
    supports_fault_injection: bool = True
    #: the backend can build the fast-path auto STR indexes.
    supports_auto_indexes: bool = True
    #: the backend honours ``SET enable_seqscan`` (the Index baseline's
    #: whole mechanism); adapters over engines with their own planner do not.
    supports_planner_toggles: bool = True
    #: the backend's SQL parser accepts ``'...'::geometry`` literal casts.
    supports_geometry_cast: bool = True
    #: the backend accepts ``FROM t JOIN t`` with a repeated unaliased table
    #: name (collapsing it to one binding, like the in-process engine);
    #: backends that reject the ambiguity make the IR renderer alias the
    #: earlier occurrence instead.
    supports_unaliased_self_join: bool = True
    #: ascending ``ORDER BY`` places NULL keys last by default (the
    #: PostgreSQL rule the in-process engine emulates); backends defaulting
    #: to NULLS FIRST make the renderer spell ``NULLS LAST`` explicitly.
    orders_nulls_last: bool = True
    #: free-form quirk notes, surfaced by ``--list-backends``.
    notes: tuple[str, ...] = ()

    # -- dialect-compatible catalog surface ---------------------------------
    @property
    def name(self) -> str:
        """The dialect name (kept for drop-in use where a Dialect went)."""
        return self.dialect.name

    @property
    def label(self) -> str:
        return self.dialect.label

    def supports_function(self, function_name: str) -> bool:
        return self.dialect.supports_function(function_name)

    def supports_operator(self, operator: str) -> bool:
        return self.dialect.supports_operator(operator)

    def topological_predicates(self) -> list[str]:
        return self.dialect.topological_predicates()

    def editing_functions(self) -> list[str]:
        return self.dialect.editing_functions()

    # ----------------------------------------------------------------- misc
    @classmethod
    def from_dialect(cls, dialect: Dialect | str, backend: str = "inprocess") -> "Capabilities":
        """The full-featured descriptor of the in-process engine."""
        resolved = get_dialect(dialect) if isinstance(dialect, str) else dialect
        return cls(backend=backend, dialect=resolved)

    def summary(self) -> str:
        flags = []
        if self.supports_fault_injection:
            flags.append("faults")
        if self.supports_auto_indexes:
            flags.append("auto-indexes")
        if self.supports_planner_toggles:
            flags.append("planner-toggles")
        if not self.supports_geometry_cast:
            flags.append("no-::geometry-cast")
        if not self.supports_unaliased_self_join:
            flags.append("aliased-self-joins")
        if not self.orders_nulls_last:
            flags.append("explicit-nulls-last")
        return f"{self.backend}({self.dialect.name}): {', '.join(flags) or 'minimal'}"


@runtime_checkable
class BackendSession(Protocol):
    """One open connection to a backend (structural protocol).

    :class:`~repro.engine.database.SpatialDatabase` satisfies this protocol
    as-is; adapter sessions implement the same surface.  ``stats`` must
    expose ``seconds_in_engine`` and ``statements`` counters (the Figure 7
    time split), ``fault_plan`` must expose a ``triggered`` list (empty and
    never growing is fine for backends without fault injection).

    Two further surfaces are *optional* and discovered by duck typing —
    the reuse layer probes for them with ``getattr`` and falls back to the
    SQL path when absent, so adapter sessions never have to implement
    them: ``load_geometry_tables(tables, include_ids=True)`` bulk-loads
    already-parsed geometry tables (the in-process engine's implementation
    mirrors the CREATE/INSERT replay statement for statement), and
    ``execute_parsed(statements)`` runs pre-parsed engine-AST statements
    (the compiled-plan cache's entry point).  External backends like
    ``sqlite`` expose neither and transparently run the legacy path.
    """

    dialect: Dialect
    fault_plan: Any
    stats: Any

    def execute(self, sql: str) -> Any: ...

    def query_value(self, sql: str) -> Any: ...

    def query_rows(self, sql: str) -> list[tuple]: ...

    def build_auto_indexes(self) -> int: ...

    def cache_stats(self) -> dict[str, int]: ...


class Backend:
    """One way of executing spatial SQL (abstract base).

    Concrete backends are constructed by :func:`create_backend` from their
    registered name plus plain-data options, never pickled themselves: the
    campaign config carries the *spec* (strings) across process boundaries
    and every worker builds a fresh backend.
    """

    #: registry name (the ``--backend`` CLI token).
    name: str = ""

    def capabilities(self) -> Capabilities:
        raise NotImplementedError

    def open_session(self) -> BackendSession:
        """A fresh connection; sessions are independent and disposable."""
        raise NotImplementedError

    def close_session(self, session: BackendSession) -> None:
        """Release a session's resources (default: ``session.close()`` if any)."""
        close = getattr(session, "close", None)
        if callable(close):
            close()

    def describe(self) -> str:
        return self.capabilities().summary()


# ---------------------------------------------------------------------------
# Registry: backends are created from names + plain-data options.
# ---------------------------------------------------------------------------

#: name -> (factory, one-line description).  Every factory is called with
#: the same keyword options, ``dialect`` and ``bug_ids``.
_FACTORIES: dict[str, tuple[Callable[..., Backend], str]] = {}


def register_backend(
    name: str, factory: Callable[..., Backend], description: str = ""
) -> None:
    """Register a backend factory under a unique name."""
    key = name.strip().lower()
    if not key:
        raise ValueError("a backend must have a non-empty name")
    if key in _FACTORIES:
        raise ValueError(f"backend {key!r} is already registered")
    _FACTORIES[key] = (factory, description)


def available_backends() -> list[str]:
    """Names of every registered backend, sorted."""
    return sorted(_FACTORIES)


def backend_description(name: str) -> str:
    """The registration-time one-liner for ``--list-backends``."""
    _, description = _FACTORIES[_resolve_name(name)]
    return description


def _resolve_name(name: str) -> str:
    key = str(name).strip().lower()
    if key not in _FACTORIES:
        raise KeyError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    return key


def create_backend(
    name: str,
    dialect: str = "postgis",
    bug_ids: Iterable[str] | tuple[str, ...] = (),
) -> Backend:
    """Create a backend from its registered name and plain-data options.

    This is the picklable-by-spec constructor the campaign layers use: the
    arguments are exactly what a :class:`CampaignConfig` carries, so a
    worker process can rebuild the backend from the config alone.
    """
    factory, _ = _FACTORIES[_resolve_name(name)]
    return factory(dialect=dialect, bug_ids=tuple(bug_ids))
