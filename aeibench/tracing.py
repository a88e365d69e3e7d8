"""In-memory span accumulator and the layer wrappers of the traced run.

The traced run times calls into each layer's public entry points without
touching ``src/``: :func:`install` replaces those entry points, at the
sites the callers actually resolve them from, with wrappers that record a
span per call.  Patching the name-bound import sites matters: the engine
calls ``relate`` through ``repro.engine.registry.relate`` and
``repro.topology.predicates.relate``, so wrapping
``repro.topology.relate.relate`` alone would catch no call at all.

Spans are aggregated in memory per thread, keyed by ``(layer, parent
layer)``: call count, total duration and the time covered by child spans.
A layer's self time is its duration minus its child spans' time.  Nothing
is written until :meth:`Tracer.snapshot` is called at the end of a run.
"""

from __future__ import annotations

import functools
import threading
import time

#: parent key of spans opened outside every traced layer.
NO_PARENT = "other"


class Tracer:
    """Per-thread span and counter tables, merged on :meth:`snapshot`."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "spans": {}, "counters": {}, "samples": {}, "gauges": {}}
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, name: str, amount: float = 1) -> None:
        counters = self._state()["counters"]
        counters[name] = counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self._state()["samples"].setdefault(name, []).append(value)

    def gauge_max(self, name: str, value: float) -> None:
        gauges = self._state()["gauges"]
        if value > gauges.get(name, float("-inf")):
            gauges[name] = value

    def wrap(self, layer: str, function, on_exit=None):
        """``function`` with a span per call; ``on_exit(args, result,
        elapsed)`` may record counts after the call returns."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state["stack"]
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                key = (layer, parent[0] if parent is not None else NO_PARENT)
                aggregate = state["spans"].get(key)
                if aggregate is None:
                    aggregate = state["spans"][key] = [0, 0.0, 0.0]
                aggregate[0] += 1
                aggregate[1] += elapsed
                aggregate[2] += frame[1]
            if on_exit is not None:
                on_exit(args, result, elapsed)
            return result

        return traced

    def snapshot(self) -> dict:
        """Every thread's tables merged into one JSON-ready dict."""
        spans: dict[tuple[str, str], list] = {}
        counters: dict[str, float] = {}
        samples: dict[str, list] = {}
        gauges: dict[str, float] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for key, (calls, total, child) in list(state["spans"].items()):
                merged = spans.setdefault(key, [0, 0.0, 0.0])
                merged[0] += calls
                merged[1] += total
                merged[2] += child
            for name, value in list(state["counters"].items()):
                counters[name] = counters.get(name, 0) + value
            for name, values in list(state["samples"].items()):
                samples.setdefault(name, []).extend(values)
            for name, value in list(state["gauges"].items()):
                gauges[name] = max(gauges.get(name, value), value)
        return {
            "spans": [[layer, parent, *values] for (layer, parent), values in sorted(spans.items())],
            "counters": counters,
            "samples": samples,
            "gauges": gauges,
        }


def layer_table(snapshot: dict) -> dict[str, dict]:
    """Per-layer ``calls``, ``total_s``, ``self_s`` and ``self_s_by_parent``."""
    layers: dict[str, dict] = {}
    for layer, parent, calls, total, child in snapshot["spans"]:
        row = layers.setdefault(
            layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "self_s_by_parent": {}}
        )
        row["calls"] += calls
        row["total_s"] += total
        row["self_s"] += total - child
        by_parent = row["self_s_by_parent"]
        by_parent[parent] = by_parent.get(parent, 0.0) + total - child
    return layers


def install(tracer: Tracer):
    """Wrap every traced layer's entry points; returns an ``uninstall``."""
    import repro.engine.database as database
    import repro.engine.plancache as plancache
    import repro.engine.registry as registry
    import repro.topology.predicates as predicates
    from repro.core.campaign import TestingCampaign
    from repro.core.dedup import Deduplicator
    from repro.core.generator import GeometryAwareGenerator
    from repro.core.oracle import AEIOracle
    from repro.engine.executor import Executor
    from repro.oracles.pqs import PivotedQueryOracle
    from repro.oracles.set_theoretic import SetTheoreticJoinOracle
    from repro.service.app import CampaignRunner
    from repro.store.runner import ShardRecorder
    from repro.topology.relate import relate_cache_stats

    patched: list[tuple[object, str, object]] = []

    def patch(owner, name: str, layer: str, on_exit=None) -> None:
        original = owner.__dict__[name]
        patched.append((owner, name, original))
        setattr(owner, name, tracer.wrap(layer, original, on_exit))

    def parsed(args, statements, elapsed):
        tracer.count("engine.parser.statements", len(statements))

    def transformed(args, result, elapsed):
        tracer.count("core.oracle.transform.geometries", args[1].geometry_count())

    def checked(layer):
        def record(args, outcome, elapsed):
            tracer.count(f"{layer}.checks", outcome.queries_run)

        return layer, record

    def flushed(args, result, elapsed):
        tracer.sample("store.runner.flush_s", elapsed)
        tracer.gauge_max("topology.relate.memo_entries", relate_cache_stats()["entries"])

    patch(registry, "relate", "topology.relate")
    patch(predicates, "relate", "topology.relate")
    patch(Executor, "execute", "engine.executor")
    patch(database, "parse_script", "engine.parser", parsed)
    patch(plancache, "parse_script", "engine.parser", parsed)
    patch(AEIOracle, "materialise", "core.oracle.materialise")
    patch(AEIOracle, "derive_followup", "core.oracle.transform", transformed)
    patch(AEIOracle, "build_followup_spec", "core.oracle.transform", transformed)
    patch(GeometryAwareGenerator, "generate", "core.generator")
    patch(SetTheoreticJoinOracle, "check", *checked("oracles.set_theoretic"))
    patch(PivotedQueryOracle, "check", *checked("oracles.pqs"))
    patch(ShardRecorder, "on_round", "store.runner", flushed)
    patch(ShardRecorder, "finalize", "store.runner", flushed)
    patch(TestingCampaign, "run", "core.campaign")
    patch(CampaignRunner, "_run", "service.campaign")
    for name in ("observe_discrepancy", "observe_finding", "observe_divergence", "observe_crash"):
        _patch_observer(tracer, patched, Deduplicator, name)

    def uninstall() -> None:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
        patched.clear()

    return uninstall


def _patch_observer(tracer: Tracer, patched: list, owner, name: str) -> None:
    """Wrap one ``Deduplicator.observe_*``, counting novel observations.

    An observation is novel when it grew the signature space or returned a
    newly detected bug id; the count comes from the deduplicator's own
    state before and after the call.
    """
    original = owner.__dict__[name]
    patched.append((owner, name, original))
    timed = tracer.wrap("core.dedup", original)

    @functools.wraps(original)
    def observe(self, *args, **kwargs):
        before = self.signature_count
        new_ids = timed(self, *args, **kwargs)
        tracer.count("core.dedup.observations")
        if new_ids or self.signature_count > before:
            tracer.count("core.dedup.novel")
        return new_ids

    setattr(owner, name, observe)
