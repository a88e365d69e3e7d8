"""Execution backends: the adapter seam between the campaign and an engine.

See :mod:`repro.backends.base` for the protocol and ``docs/BACKENDS.md``
for the adapter-author guide.  Importing this package registers the two
built-in backends:

* ``inprocess`` — the emulated MiniSDB engine (the default; byte-identical
  to the pre-protocol execution path);
* ``sqlite`` — a stdlib ``sqlite3`` database with the repro geometry
  library registered as deterministic UDFs, i.e. an actual external query
  planner.
"""

from __future__ import annotations

from repro.backends.base import (
    Backend,
    BackendSession,
    Capabilities,
    available_backends,
    backend_description,
    create_backend,
    register_backend,
)
from repro.backends.differential import BackendDivergence, CrossBackendComparator
from repro.backends.inprocess import InProcessBackend
from repro.backends.resultset import (
    BackendResultSet,
    is_ordered_query,
    normalize_rows,
    normalize_value,
    rows_equivalent,
    values_equivalent,
)
from repro.backends.sqlite import SQLiteBackend

__all__ = [
    "Backend",
    "BackendDivergence",
    "BackendResultSet",
    "BackendSession",
    "Capabilities",
    "CrossBackendComparator",
    "InProcessBackend",
    "SQLiteBackend",
    "available_backends",
    "backend_description",
    "create_backend",
    "is_ordered_query",
    "normalize_rows",
    "normalize_value",
    "register_backend",
    "rows_equivalent",
    "values_equivalent",
]

register_backend(
    "inprocess",
    InProcessBackend,
    "the emulated in-process engine (MiniSDB); full fault injection, "
    "planner toggles and the batch executor with its envelope prefilter",
)

register_backend(
    "sqlite",
    SQLiteBackend,
    "stdlib sqlite3 with the repro geometry library as deterministic UDFs; "
    "SQLite plans the joins",
)
