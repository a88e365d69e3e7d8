"""Start ``spatter serve`` with the layer wrappers of the traced run.

Usage: ``python3 aeibench/serve.py SPANS_PATH [serve flags...]``.  The
wrappers are installed before the server handles its first request;
SIGTERM stops the server and the accumulated spans are written to
SPANS_PATH as JSON.  Run with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import signal
import sys

from tracing import Tracer, install


def _stop(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    from repro.service.app import serve_main

    spans_path, serve_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    signal.signal(signal.SIGTERM, _stop)
    try:
        return serve_main(serve_argv)
    finally:
        snapshot = tracer.snapshot()
        snapshot["process_caches"] = process_caches()
        with open(spans_path, "w") as handle:
            json.dump(snapshot, handle)


def process_caches() -> dict:
    """The process-global cache counters, in ``cache_stats`` key names.

    Campaign results cannot give these for a server running campaigns
    concurrently: their per-round deltas of process-global counters also
    count the neighbouring campaign's work.
    """
    from repro.core.reuse import reuse_stats
    from repro.geometry.cache import geometry_cache_stats
    from repro.topology.relate import relate_cache_stats

    relate, interner = relate_cache_stats(), geometry_cache_stats()
    counters = {
        "relate_hits": relate["hits"],
        "relate_misses": relate["misses"],
        "interner_hits": interner["hits"],
        "interner_misses": interner["misses"],
        "interner_evictions": interner["evictions"],
    }
    for key, value in reuse_stats().items():
        counters[f"reuse_{key}"] = value
    return counters


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
