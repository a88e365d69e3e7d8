"""The repository benchmark: AEI campaigns and the campaign service.

Usage (from the repository root)::

    python3 aeibench/run.py --workload aei-join --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``aei-join`` — serial campaigns of the AEI oracle family only, scenarios
  ``topological-join`` and ``join-chain``: the relate-bound hot path;
* ``aei-metric`` — the same shape with ``metric-area``/``metric-length``,
  30 geometries over 3 tables: no relate call at all, so the executor,
  transform, materialise and parser layers carry the time;
* ``service`` — ``spatter serve`` on a fresh sqlite store, driven by two
  closed-loop HTTP clients (submit, long-poll events and status, fetch
  findings).

Every workload replays a fixed corpus of campaigns (seeds ``2025 + k``)
sized from ``--seconds``; ``--seed`` only shuffles the order of the
``aei-*`` campaigns.  Campaign
cost varies up to a hundredfold with the generated geometry (one
``aei-join`` round takes 1 ms to 2 s), so corpora drawn per seed would
spread rounds/s by about ±15% between seeds and hide real regressions.

Each ``aei-*`` campaign runs once per pass, from cold process caches, as
one ``TestingCampaign.run(rounds=1)`` call per round; per-campaign times
are the median over passes.  ``service`` runs the corpus once per pass on a
fresh server and store.  The ``aei-*`` round times are scaled by a
host-speed probe (see :class:`HostSpeed`); the values as measured go to
standard error.  The run fails (exit 1, ``"correct": false``) when
a campaign's finding-stream digest differs from ``aeibench/digests.json``
or between passes, when a cold-cache counter or another exact count differs
between passes, or when the traced digest differs from the untraced one.

``--trace 1`` prints the per-layer metrics instead: it adds passes with
the wrappers of ``aeibench/tracing.py`` installed (for ``service``, a
server started through ``aeibench/serve.py``) and compares them with an
untraced pass.  ``--write-digests`` records the observed digests as the
committed ones.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import json
import math
import os
import queue
import random
import re
import resource
import signal
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from datetime import datetime
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".aeibench")
DIGESTS = os.path.join(HERE, "digests.json")

#: campaign seed of corpus unit ``k`` is ``BASE_SEED + k``.
BASE_SEED = 2025

#: per workload: config fields besides the seed, rounds per campaign, and
#: the estimated seconds one campaign takes (sizes the corpus).
WORKLOADS = {
    "aei-join": {
        "config": {"oracles": ["aei"], "scenarios": ["topological-join", "join-chain"]},
        "rounds": 2,
        "unit_seconds": 1.6,
    },
    "aei-metric": {
        "config": {
            "oracles": ["aei"],
            "scenarios": ["metric-area", "metric-length"],
            "geometry_count": 30,
            "table_count": 3,
        },
        "rounds": 20,
        "unit_seconds": 0.6,
    },
    "service": {"config": {}, "rounds": 2, "unit_seconds": 2.0},
}

#: aei passes per run: the untraced run takes per-campaign medians over two
#: passes; the traced run compares one untraced pass with two traced ones.
AEI_PASSES = (False, False)
AEI_TRACED_PASSES = (False, True, True)
#: service passes (fresh server each), and extra server starts that only
#: measure set-up time.
SERVICE_PASSES = (False, False)
SERVICE_TRACED_PASSES = (False, True)
SERVICE_EXTRA_STARTS = 1
SETUP_REPEATS = 5

CLIENTS = 2
#: long-poll wait of the service clients, seconds.
EVENT_WAIT = 0.25
HTTP_TIMEOUT = 60.0
CAMPAIGN_TIMEOUT = 120.0


class BenchmarkError(Exception):
    """A child process of the benchmark (set-up probe or server) failed."""


class HostSpeed:
    """Times a fixed stdlib workload between the ``aei-*`` rounds.

    A shared host's speed drifts: on a 2-vCPU VM the same fixed corpus ran
    at 1.1 to 2.0 ``aei-join`` rounds/s within one hour, and consecutive
    runs spread by 11-28% (interquartile range over median).  This probe,
    exact ``fractions.Fraction`` arithmetic like the relate kernel's, ran
    slower in step with the campaigns (correlation 0.85 to 0.94 over twelve
    runs).  Each round's times are therefore scaled by ``REFERENCE_SECONDS``
    over the mean of the probes just before and after it: what they would
    read on a host where the probe takes ``REFERENCE_SECONDS``.  That cut
    the ``aei-join`` spreads to 6-10%.  The probe runs no repository code
    and no garbage collection, so no change to the program moves it.
    Set-up and ``service`` times stay as measured: the probe did not track
    child-process start-up or the service's lock-bound latencies.
    """

    REFERENCE_SECONDS = 0.02
    #: minimum seconds between two probes.
    INTERVAL = 0.5

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        gc.disable()
        try:
            started = time.perf_counter()
            total = Fraction(0)
            for value in range(1, 1500):
                total = total + Fraction(value, value + 7) * Fraction(3, value + 1)
                total -= Fraction(value, 97)
            self._last = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append(self._last - started)

    def mark(self) -> int:
        """Probe if one is due; returns the mark of the operation that follows."""
        if time.perf_counter() - self._last >= self.INTERVAL:
            self.probe()
        return len(self.samples)

    def scale_at(self, mark: int) -> float:
        """Factor that turns a duration measured at ``mark`` into a reference
        one, from the probes just before and just after it."""
        around = self.samples[max(0, mark - 1) : mark + 1]
        return self.REFERENCE_SECONDS / statistics.fmean(around)

    def scale(self) -> float:
        """The same factor from every probe of the run (1 without probes)."""
        if not self.samples:
            return 1.0
        return self.REFERENCE_SECONDS / statistics.fmean(self.samples)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def corpus(workload: str, seed: int, seconds: float, passes: int) -> list[int]:
    """The campaign seeds of one run, in the order ``seed`` selects.

    The service keeps one order: which campaigns overlap sets their
    turnaround, and a seed-shuffled order spread its median by 26%.
    """
    spec = WORKLOADS[workload]
    count = max(2, round(seconds / passes / spec["unit_seconds"]))
    seeds = [BASE_SEED + index for index in range(count)]
    if workload != "service":
        random.Random(f"{workload}|{seed}").shuffle(seeds)
    return seeds


def finding_digest(records: list[dict], unique_bug_ids, by_scenario, by_oracle) -> str:
    """Digest of one campaign's finding stream.

    Covers discrepancy descriptions, oracle-finding signatures, crash bug
    ids, the unique bug ids and the per-scenario/per-oracle query counts;
    ``records`` are :func:`repro.store.serialize.finding_records`
    projections, as the service also returns them.
    """
    payload = {
        "discrepancies": [r["detail"] for r in records if r["kind"] == "discrepancy"],
        "oracle_findings": [r["signature"] for r in records if r["kind"] == "oracle-finding"],
        "crashes": [r["bug_ids"] for r in records if r["kind"] == "crash"],
        "unique_bug_ids": sorted(unique_bug_ids),
        "queries_by_scenario": dict(sorted(by_scenario.items())),
        "queries_by_oracle": dict(sorted(by_oracle.items())),
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


class Checks:
    """Collects digests and exact counts per campaign and pass."""

    def __init__(self, workload: str, write_digests: bool):
        self.workload = workload
        self.write_digests = write_digests
        with open(DIGESTS) as handle:
            self.all_committed = json.load(handle)
        self.committed = self.all_committed.get(workload, {})
        self.observed: dict[int, list] = {}
        self.errors: list[str] = []

    def digest(self, seed: int, traced: bool, digest: str) -> None:
        self.observed.setdefault(seed, []).append((traced, digest))
        committed = self.committed.get(str(seed))
        if self.write_digests or committed is None:
            return
        if digest != committed:
            self.errors.append(
                f"campaign {seed}: digest {digest} differs from committed {committed}"
                + (" (traced pass)" if traced else "")
            )

    def same(self, what: str, values: list) -> None:
        """Values recorded for one count in every pass must be equal."""
        if len(set(json.dumps(value, sort_keys=True) for value in values)) > 1:
            self.errors.append(f"{what} differs between passes: {values}")

    def finish(self) -> None:
        for seed, seen in sorted(self.observed.items()):
            traced = {digest for flag, digest in seen if flag}
            untraced = {digest for flag, digest in seen if not flag}
            if traced and untraced and traced != untraced:
                self.errors.append(f"campaign {seed}: traced digest differs from untraced")
            elif len(traced | untraced) > 1:
                self.errors.append(f"campaign {seed}: digests differ between passes")
        if self.write_digests:
            recorded = dict(self.committed)
            for seed, seen in self.observed.items():
                recorded[str(seed)] = seen[0][1]
            self.all_committed[self.workload] = dict(
                sorted(recorded.items(), key=lambda item: int(item[0]))
            )
            with open(DIGESTS, "w") as handle:
                json.dump(self.all_committed, handle, indent=2, sort_keys=True)
                handle.write("\n")


# --------------------------------------------------------------------- set-up
_SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.core.campaign import TestingCampaign
from repro.store.runner import config_from_json
TestingCampaign(config_from_json(json.loads(sys.argv[2])))
print("ready", flush=True)
"""


def measure_setup(config: dict) -> list[float]:
    """Seconds from a fresh interpreter to a built campaign, per repeat."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, SRC, json.dumps(config)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - started)
        finally:
            child.stdout.close()
            child.wait(timeout=60)
        if line.strip() != b"ready" or child.returncode != 0:
            raise BenchmarkError("set-up child failed")
    return samples


# ------------------------------------------------------------------ aei runs
def run_aei(workload: str, seeds: list[int], plan, checks: Checks, speed: HostSpeed) -> dict:
    from repro.core.campaign import TestingCampaign
    from repro.core.canonical import clear_canonical_cache
    from repro.geometry.cache import clear_geometry_cache
    from repro.store.runner import config_from_json
    from repro.store.serialize import finding_records
    from repro.topology.relate import clear_relate_cache, relate_cache_stats

    import tracing

    spec = WORKLOADS[workload]
    units = {seed: {"timings": [], "counters": []} for seed in seeds}
    passes = []
    attempted = failed = 0
    for traced in plan:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer) if traced else None
        pass_wall = 0.0
        caches = Counter()
        try:
            for seed in seeds:
                attempted += 1
                # cold-cache parity: no pass may ride on an earlier pass's memos
                clear_relate_cache()
                clear_canonical_cache()
                clear_geometry_cache()
                config = config_from_json({**spec["config"], "seed": seed})
                results = []
                # per round: (wall seconds, CPU seconds, probe mark)
                timings = []
                try:
                    campaign = TestingCampaign(config)
                    for _ in range(spec["rounds"]):
                        mark = speed.mark()
                        started_cpu = time.process_time()
                        started = time.perf_counter()
                        results.append(campaign.run(rounds=1))
                        timings.append(
                            (time.perf_counter() - started, time.process_time() - started_cpu, mark)
                        )
                        if traced:
                            tracer.gauge_max(
                                "topology.relate.memo_entries", relate_cache_stats()["entries"]
                            )
                except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
                    failed += 1
                    checks.errors.append(f"campaign {seed}: {error!r}")
                    continue
                unit = units[seed]
                unit["timings"].append(timings)
                pass_wall += sum(wall for wall, _, _ in timings)
                by_scenario, by_oracle, counters = Counter(), Counter(), Counter()
                records = []
                for result in results:
                    records.extend(finding_records(result))
                    by_scenario.update(result.queries_by_scenario)
                    by_oracle.update(result.queries_by_oracle)
                    counters.update(result.cache_stats)
                caches.update(counters)
                unit["rounds"] = sum(result.rounds for result in results)
                unit["queries"] = sum(result.queries_run for result in results)
                unit["unique"] = len(results[-1].unique_bug_ids)
                unit["counters"].append(
                    {key: counters.get(key, 0) for key in EXACT_PROGRAM_COUNTERS}
                )
                checks.digest(
                    seed,
                    traced,
                    finding_digest(records, results[-1].unique_bug_ids, by_scenario, by_oracle),
                )
        finally:
            if uninstall is not None:
                uninstall()
        passes.append(
            {"traced": traced, "wall": pass_wall, "caches": caches, "trace": tracer.snapshot()}
        )
    speed.probe()  # the probe after the last round
    for seed, unit in units.items():
        checks.same(f"campaign {seed} cold-cache and exact counters", unit["counters"])
    return {"units": units, "passes": passes, "attempted": attempted, "failed": failed}


#: program counters (``CampaignResult.cache_stats``) that must repeat
#: exactly between passes; the first three are the cold-cache parity set.
EXACT_PROGRAM_COUNTERS = (
    "relate_misses",
    "interner_misses",
    "plan_misses",
    "plan_hits",
    "reuse_derived_databases",
    "reuse_direct_databases",
    "reuse_fallback_databases",
)

#: the subset that repeats exactly under the service: the relate, interner
#: and reuse counters are process-global, so a campaign's per-round deltas
#: there also count the concurrent campaign's work.
SERVICE_EXACT_COUNTERS = ("plan_misses", "plan_hits")


def aei_end_to_end(run: dict, setup: list[float], scale_at) -> dict:
    """End-to-end metrics; each round's durations are multiplied by
    ``scale_at`` of the probe mark taken before it."""
    units = [unit for unit in run["units"].values() if unit["timings"]]

    def per_pass(unit: dict, column: int) -> float:
        """The campaign's median over passes of its scaled wall or CPU time."""
        return median(
            sum(timing[column] * scale_at(timing[2]) for timing in rounds)
            for rounds in unit["timings"]
        )

    walls = [per_pass(unit, 0) for unit in units]
    total_wall = sum(walls)
    # the median over passes of each round's latency: the corpus is fixed,
    # so the percentiles then pick the same rounds in every run
    latencies = [
        median(wall * scale_at(mark) for wall, _, mark in per_round)
        for unit in units
        for per_round in zip(*unit["timings"])
    ]
    return {
        "setup_s": median(setup),
        "rounds_per_s": ratio(sum(unit["rounds"] for unit in units), total_wall),
        "queries_per_s": ratio(sum(unit["queries"] for unit in units), total_wall),
        "bugs_per_cpu_s": ratio(
            sum(unit["unique"] for unit in units), sum(per_pass(unit, 1) for unit in units)
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "campaigns_per_min": ratio(60.0 * len(units), total_wall),
        "turnaround_p50_s": median(walls),
        "api_p50_ms": 1000.0 * percentile(latencies, 0.5),
        "api_p90_ms": 1000.0 * percentile(latencies, 0.9),
    }


def layer_metrics(snapshot: dict, caches: Counter, root: str) -> dict:
    """Per-layer metrics of one traced pass (spans plus program counters)."""
    import tracing

    layers = tracing.layer_table(snapshot)
    counters = snapshot["counters"]

    def layer(name: str) -> dict:
        return layers.get(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "self_s_by_parent": {}}
        )

    def hit_ratio(prefix: str) -> float:
        hits = caches.get(f"{prefix}_hits", 0)
        return ratio(hits, hits + caches.get(f"{prefix}_misses", 0))

    relate = layer("topology.relate")
    by_parent = dict(relate["self_s_by_parent"])
    campaign = layer(root)
    materialised = {
        kind: caches.get(f"reuse_{kind}_databases", 0) for kind in ("derived", "direct", "fallback")
    }
    observations = counters.get("core.dedup.observations", 0)
    metrics = {
        "topology.relate.self_s": relate["self_s"],
        "topology.relate.self_frac": ratio(relate["self_s"], campaign["total_s"]),
        "topology.relate.calls": relate["calls"],
        "topology.relate.misses": caches.get("relate_misses", 0),
        "topology.relate.memo_hit_ratio": hit_ratio("relate"),
        "topology.relate.memo_entries_max": snapshot["gauges"].get(
            "topology.relate.memo_entries", 0
        ),
        "engine.executor.self_s": layer("engine.executor")["self_s"],
        "engine.executor.statements": layer("engine.executor")["calls"],
        "engine.prepared.hit_ratio": hit_ratio("prepared"),
        "engine.parser.self_s": layer("engine.parser")["self_s"],
        "engine.parser.statements": counters.get("engine.parser.statements", 0),
        "engine.plancache.hits": caches.get("plan_hits", 0),
        "engine.plancache.hit_ratio": hit_ratio("plan"),
        "core.oracle.materialise.self_s": layer("core.oracle.materialise")["self_s"],
        "core.oracle.materialise.databases": layer("core.oracle.materialise")["calls"],
        "core.oracle.materialise.derived_frac": ratio(
            materialised["derived"], sum(materialised.values())
        ),
        "core.oracle.transform.self_s": layer("core.oracle.transform")["self_s"],
        "core.oracle.transform.geometries": counters.get("core.oracle.transform.geometries", 0),
        "core.generator.self_s": layer("core.generator")["self_s"],
        "core.generator.calls": layer("core.generator")["calls"],
        "geometry.cache.hit_ratio": hit_ratio("interner"),
        "geometry.cache.misses": caches.get("interner_misses", 0),
        "geometry.cache.evictions": caches.get("interner_evictions", 0),
        "oracles.set_theoretic.self_s": layer("oracles.set_theoretic")["self_s"],
        "oracles.set_theoretic.checks": counters.get("oracles.set_theoretic.checks", 0),
        "oracles.pqs.self_s": layer("oracles.pqs")["self_s"],
        "oracles.pqs.checks": counters.get("oracles.pqs.checks", 0),
        "core.dedup.self_s": layer("core.dedup")["self_s"],
        "core.dedup.observations": observations,
        "core.dedup.novel_ratio": ratio(counters.get("core.dedup.novel", 0), observations),
        "core.campaign.self_s": layer("core.campaign")["self_s"],
        "trace.unattributed_frac": ratio(campaign["self_s"], campaign["total_s"]),
    }
    for kind, count in materialised.items():
        metrics[f"core.oracle.materialise.{kind}"] = count
    for parent in RELATE_PARENTS:
        metrics[f"topology.relate.self_s_by_parent.{parent}"] = by_parent.pop(parent, 0.0)
    metrics["topology.relate.self_s_by_parent.other"] = sum(by_parent.values())
    return metrics


#: enclosing layers reported separately in ``topology.relate.self_s_by_parent``.
RELATE_PARENTS = ("engine.executor", "oracles.pqs", "core.generator")

#: traced counts that must repeat exactly between traced passes.
EXACT_TRACED = (
    "topology.relate.calls",
    "engine.executor.statements",
    "engine.parser.statements",
    "core.oracle.materialise.databases",
)


def aei_per_layer(run: dict, checks: Checks) -> dict:
    traced = [p for p in run["passes"] if p["traced"]]
    untraced = [p for p in run["passes"] if not p["traced"]]
    per_pass = [layer_metrics(p["trace"], p["caches"], "core.campaign") for p in traced]
    for name in EXACT_TRACED:
        checks.same(name, [metrics[name] for metrics in per_pass])
    metrics = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_frac"] = ratio(
        median(p["wall"] for p in traced), median(p["wall"] for p in untraced)
    ) - 1.0
    return metrics


# --------------------------------------------------------------- the service
class Server:
    """One ``spatter serve`` child on an ephemeral loopback port."""

    def __init__(self, store_path: str, spans_path: str | None):
        remove_store(store_path)
        self.store_path = store_path
        self.spans_path = spans_path
        serve_flags = ["--store", store_path, "--host", "127.0.0.1", "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *serve_flags]
        else:
            command = [sys.executable, os.path.join(HERE, "serve.py"), spans_path, *serve_flags]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.log = open(os.path.join(WORK, "server.log"), "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, cwd=ROOT, env=env
        )
        try:
            line = self.process.stdout.readline().decode("utf-8", "replace")
            match = re.search(r"http://[^:]+:(\d+)", line)
            if match is None:
                raise BenchmarkError(f"server did not report its port: {line!r}")
            self.port = int(match.group(1))
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.01)
        raise BenchmarkError("server never answered /healthz")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> dict | None:
        """Stop the server; returns the traced server's spans."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        self.log.close()
        if self.spans_path is None:
            return None
        with open(self.spans_path) as handle:
            return json.load(handle)


class Client:
    """One closed-loop HTTP client; records latencies per route."""

    def __init__(self, port: int, stats: dict, lock: threading.Lock):
        self.port = port
        self.stats = stats
        self.lock = lock
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)

    def request(self, route: str, method: str, path: str, body: dict | None = None):
        """``(status, payload)``; ``(None, None)`` on a transport failure."""
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        started = time.perf_counter()
        try:
            self.connection.request(method, path, body=payload, headers=headers)
            response = self.connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.connection.close()
            self.connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=HTTP_TIMEOUT
            )
            self._record(route, None, error=repr(error))
            return None, None
        elapsed = time.perf_counter() - started
        self._record(route, elapsed, error=None if 200 <= response.status < 300 else data[:200])
        if not 200 <= response.status < 300:
            return response.status, None
        return response.status, json.loads(data)

    def _record(self, route: str, elapsed: float | None, error) -> None:
        with self.lock:
            self.stats["requests"] += 1
            if elapsed is not None:
                self.stats["latency"].setdefault(route, []).append(elapsed)
        if error is not None:
            self.fail(f"{route}: {error}")

    def fail(self, message: str) -> None:
        with self.lock:
            self.stats["failed"] += 1
            self.stats["errors"].append(message)

    def campaign(self, seed: int, rounds: int) -> dict | None:
        """Submit, follow and fetch one campaign."""
        submitted = time.perf_counter()
        _, body = self.request(
            "post_campaigns", "POST", "/campaigns", {"seed": seed, "rounds": rounds}
        )
        if body is None:
            return None
        campaign_id = body["id"]
        cursor, received = 0, []
        deadline = time.monotonic() + CAMPAIGN_TIMEOUT
        campaign = None
        while time.monotonic() < deadline:
            _, events = self.request(
                "events", "GET", f"/campaigns/{campaign_id}/events?after={cursor}&wait={EVENT_WAIT}"
            )
            now = time.time()
            if events is not None:
                received.extend((event["cursor"], now) for event in events["events"])
                cursor = events["cursor"]
            _, campaign = self.request("get_campaign", "GET", f"/campaigns/{campaign_id}")
            if campaign is not None and campaign["status"] in ("completed", "failed"):
                break
        else:
            self.fail(f"campaign {seed}: client timeout")
            return None
        turnaround = time.perf_counter() - submitted
        _, findings = self.request("get_findings", "GET", f"/campaigns/{campaign_id}/findings")
        return {
            "seed": seed,
            "id": campaign_id,
            "campaign": campaign,
            "findings": findings,
            "turnaround": turnaround,
            "received": received,
        }

    def close(self) -> None:
        self.connection.close()


def service_pass(seeds: list[int], traced: bool, index: int) -> dict:
    """Run the corpus once on a fresh server; returns measurements."""
    store_path = os.path.join(WORK, f"service-{index}.sqlite")
    spans_path = os.path.join(WORK, f"spans-service-{index}.json") if traced else None
    server = Server(store_path, spans_path)
    stats = {"requests": 0, "failed": 0, "errors": [], "latency": {}}
    lock = threading.Lock()
    work: queue.Queue = queue.Queue()
    for seed in seeds:
        work.put(seed)
    campaigns: list[dict] = []
    rounds = WORKLOADS["service"]["rounds"]

    def loop() -> None:
        client = Client(server.port, stats, lock)
        try:
            while True:
                try:
                    seed = work.get_nowait()
                except queue.Empty:
                    return
                try:
                    outcome = client.campaign(seed, rounds)
                except (ValueError, KeyError, TypeError) as error:  # malformed response
                    outcome = None
                    client.fail(f"campaign {seed}: {error!r}")
                if outcome is not None:
                    with lock:
                        campaigns.append(outcome)
        finally:
            client.close()

    try:
        cpu_before = server.cpu_seconds()
        started = time.perf_counter()
        threads = [threading.Thread(target=loop) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = time.perf_counter() - started
        cpu = server.cpu_seconds() - cpu_before
        peak_rss = server.peak_rss_mb()
    finally:
        spans = server.stop()
    store = read_store(store_path)
    remove_store(store_path)
    return {
        "traced": traced,
        "setup": server.setup_seconds,
        "window": window,
        "cpu": cpu,
        "peak_rss_mb": peak_rss,
        "stats": stats,
        "campaigns": campaigns,
        "store": store,
        "spans": spans,
    }


def remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


def read_store(path: str) -> dict:
    """Row counts, file size and event timestamps of a stopped server's store."""
    size = sum(
        os.path.getsize(path + suffix)
        for suffix in ("", "-wal")
        if os.path.exists(path + suffix)
    )
    connection = sqlite3.connect(path)
    try:
        rows = sum(
            connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("findings", "sightings", "trace_events", "arm_stats", "checkpoints")
        )
        per_campaign = Counter()
        for table in ("sightings", "trace_events"):
            for campaign_id, count in connection.execute(
                f"SELECT campaign_id, COUNT(*) FROM {table} GROUP BY campaign_id"
            ):
                per_campaign[campaign_id] += count
        created = {
            event_id: datetime.fromisoformat(stamp).timestamp()
            for event_id, stamp in connection.execute("SELECT id, created_at FROM trace_events")
        }
    finally:
        connection.close()
    return {"rows": rows, "per_campaign": per_campaign, "bytes": size, "created": created}


def check_service_pass(run: dict, checks: Checks) -> dict:
    """Digest every campaign of a pass; returns per-seed exact counts."""
    counts = {}
    for outcome in run["campaigns"]:
        campaign, seed = outcome["campaign"], outcome["seed"]
        if campaign["status"] != "completed" or campaign["result"] is None:
            run["stats"]["failed"] += 1
            run["stats"]["errors"].append(f"campaign {seed}: ended {campaign['status']}")
            continue
        result = campaign["result"]
        checks.digest(
            seed,
            run["traced"],
            finding_digest(
                result["findings"],
                result["unique_bug_ids"],
                result["queries_by_scenario"],
                result["queries_by_oracle"],
            ),
        )
        findings = outcome["findings"]
        if findings is not None and len(findings["findings"]) != len(result["findings"]):
            checks.errors.append(
                f"campaign {seed}: GET findings listed {len(findings['findings'])} sightings,"
                f" the result {len(result['findings'])}"
            )
        counts[seed] = {
            "rows": run["store"]["per_campaign"].get(outcome["id"], 0),
            **{key: result["cache_stats"].get(key, 0) for key in SERVICE_EXACT_COUNTERS},
        }
    return counts


def run_service(seeds: list[int], plan, checks: Checks) -> dict:
    passes = []
    for index, traced in enumerate(plan):
        passes.append(service_pass(seeds, traced, index))
    per_seed: dict[int, list] = {}
    for run in passes:
        for seed, counts in check_service_pass(run, checks).items():
            per_seed.setdefault(seed, []).append(counts)
        if len(run["campaigns"]) != len(seeds):
            checks.errors.append(f"{len(seeds) - len(run['campaigns'])} campaigns did not finish")
    for seed, counts in sorted(per_seed.items()):
        checks.same(f"campaign {seed} store rows and exact counters", counts)
    checks.same("store rows written", [run["store"]["rows"] for run in passes])
    attempted = sum(run["stats"]["requests"] + len(seeds) for run in passes)
    failed = sum(run["stats"]["failed"] for run in passes)
    for run in passes:
        checks.errors.extend(run["stats"]["errors"][:5])
    return {"passes": passes, "attempted": attempted, "failed": failed}


def _completed_results(run: dict) -> list[dict]:
    return [
        outcome["campaign"]["result"]
        for outcome in run["campaigns"]
        if outcome["campaign"]["result"] is not None
    ]


def service_end_to_end(run: dict, extra_setup: list[float]) -> dict:
    passes = run["passes"]
    per_pass = []
    for one in passes:
        results = _completed_results(one)
        window = one["window"]
        per_pass.append(
            {
                "rounds_per_s": ratio(sum(r["rounds"] for r in results), window),
                "queries_per_s": ratio(sum(r["queries_run"] for r in results), window),
                "bugs_per_cpu_s": ratio(sum(r["unique_bug_count"] for r in results), one["cpu"]),
                "peak_rss_mb": one["peak_rss_mb"],
                "campaigns_per_min": ratio(60.0 * len(results), window),
            }
        )
    metrics = {name: median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["turnaround_p50_s"] = median(
        outcome["turnaround"] for one in passes for outcome in one["campaigns"]
    )
    api = [
        latency
        for one in passes
        for route in ("get_campaign", "get_findings")
        for latency in one["stats"]["latency"].get(route, [])
    ]
    metrics["setup_s"] = median([one["setup"] for one in passes] + extra_setup)
    metrics["api_p50_ms"] = 1000.0 * percentile(api, 0.5)
    metrics["api_p90_ms"] = 1000.0 * percentile(api, 0.9)
    return metrics


def service_per_layer(run: dict) -> dict:
    traced = next(p for p in run["passes"] if p["traced"])
    untraced = next(p for p in run["passes"] if not p["traced"])
    caches = Counter()
    for result in _completed_results(traced):
        caches.update(result["cache_stats"])
    caches = Counter({**caches, **traced["spans"]["process_caches"]})
    metrics = layer_metrics(traced["spans"], caches, "service.campaign")
    flushes = traced["spans"]["samples"].get("store.runner.flush_s", [])
    latency = traced["stats"]["latency"]
    created = traced["store"]["created"]
    lags = [
        received - created[cursor]
        for outcome in traced["campaigns"]
        for cursor, received in outcome["received"]
        if cursor in created
    ]
    metrics.update(
        {
            "store.runner.flush_s_p50": median(flushes),
            "store.runner.rows_written": traced["store"]["rows"],
            "store.runner.db_bytes": traced["store"]["bytes"],
            "service.app.post_campaigns_p50_ms": 1000.0 * median(latency.get("post_campaigns", [])),
            "service.app.get_campaign_p50_ms": 1000.0 * median(latency.get("get_campaign", [])),
            "service.app.get_findings_p50_ms": 1000.0 * median(latency.get("get_findings", [])),
            "service.app.event_lag_p50_ms": 1000.0 * median(lags),
            "trace.overhead_frac": ratio(traced["window"], untraced["window"]) - 1.0,
        }
    )
    return metrics


# ----------------------------------------------------------------------- main
def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return declared["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests", action="store_true", help="record observed digests as committed"
    )
    arguments = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        log(f"no repro package under {SRC}: run from a checkout of the repository")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    if os.path.exists(os.path.join(WORK, "server.log")):
        os.remove(os.path.join(WORK, "server.log"))
    trace = bool(arguments.trace)
    workload = arguments.workload
    checks = Checks(workload, arguments.write_digests)
    spec = WORKLOADS[workload]

    speed = HostSpeed()
    if workload == "service":
        plan = SERVICE_TRACED_PASSES if trace else SERVICE_PASSES
        seeds = corpus(workload, arguments.seed, arguments.seconds, len(plan))
        extra_setup = []
        if not trace:
            for index in range(SERVICE_EXTRA_STARTS):
                server = Server(os.path.join(WORK, f"setup-{index}.sqlite"), None)
                server.stop()
                extra_setup.append(server.setup_seconds)
                remove_store(server.store_path)
        run = run_service(seeds, plan, checks)
        metrics = service_per_layer(run) if trace else service_end_to_end(run, extra_setup)
    else:
        plan = AEI_TRACED_PASSES if trace else AEI_PASSES
        seeds = corpus(workload, arguments.seed, arguments.seconds, len(plan))
        setup = [] if trace else measure_setup({**spec["config"], "seed": seeds[0]})
        run = run_aei(workload, seeds, plan, checks, speed)
        if trace:
            metrics = aei_per_layer(run, checks)
        else:
            log("as measured: " + json.dumps(aei_end_to_end(run, setup, lambda mark: 1.0)))
            metrics = aei_end_to_end(run, setup, speed.scale_at)
    checks.finish()
    if trace:
        metrics["trace.host_scale"] = speed.scale()
        spans = [
            p["spans" if workload == "service" else "trace"] for p in run["passes"] if p["traced"]
        ]
        with open(os.path.join(WORK, f"trace-{workload}.json"), "w") as handle:
            json.dump({"layers": metrics, "spans": spans}, handle, indent=2)
    for error in checks.errors:
        log(f"CHECK FAILED: {error}")
    correct = not checks.errors and run["failed"] == 0
    output = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            metric["name"]: {"value": metrics.get(metric["name"], 0.0), "unit": metric["unit"]}
            for metric in declared_metrics(trace)
        },
    }
    print(json.dumps(output))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
