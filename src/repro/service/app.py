"""The ``spatter serve`` HTTP control plane (stdlib-only).

A thin JSON API over the persistent findings store (:mod:`repro.store`),
turning the CLI tester into a long-running campaign service — the
"campaign-as-a-service" north star of the ROADMAP.  Endpoints
(``docs/SERVICE.md`` is the full reference):

* ``POST /campaigns`` — submit a campaign config (the JSON shape of
  :class:`~repro.core.campaign.CampaignConfig`, plus ``rounds`` /
  ``duration_seconds`` / ``preseed``); returns the campaign id immediately
  and runs the campaign through the existing parallel orchestrator
  (``queued`` until a slot is free; 429 when the queue is full).
* ``POST /campaigns/{id}/resume`` — finish an interrupted campaign from
  its per-shard checkpoints (same determinism contract as
  ``spatter --resume``).
* ``GET /campaigns`` / ``GET /campaigns/{id}`` — status and progress:
  per-shard resume cursors, sighting/novelty counts, merged per-arm
  scheduler statistics, and the final result JSON once completed.
* ``GET /campaigns/{id}/findings`` — every observation of the campaign
  with its *global* novelty verdict.
* ``GET /campaigns/{id}/events?after=&wait=`` — long-poll over the
  ingested trace event stream (cursor-based; blocks up to ``wait``
  seconds for fresh events, returns early on terminal status).
* ``GET /findings?signature=&scenario=&oracle=&kind=&since=&limit=`` —
  the cross-run deduplicated corpus.
* ``GET /stats`` — global store statistics (dedup counts by kind/status).
* ``GET /healthz`` — liveness probe.

Process model: :class:`ThreadingHTTPServer` gives every HTTP connection
its own thread, and every connection opens its **own**
:class:`~repro.store.findings.FindingsStore` on first use, shares it
between its keep-alive requests and closes it when the connection ends —
sqlite handles never cross thread boundaries.  Campaigns run on threads
of a :class:`~repro.service.processes.CampaignRunner` that call the same
:func:`repro.store.runner.run_store_campaign` /
:func:`~repro.store.runner.resume_store_campaign` functions the CLI uses, so
a campaign submitted over HTTP is indistinguishable, store-row for
store-row, from one run with ``spatter --store``.  ``spatter serve`` keeps
those threads in the process it starts and answers HTTP from a forked
front end (:mod:`repro.service.processes`), so API requests never wait
for the GIL behind campaign work; an in-process server
(:func:`create_server`) runs both in one process.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.core.campaign import CampaignConfig
from repro.service.processes import (
    RETRY_AFTER_SECONDS,
    CampaignRunner,
    QueueFull,
    host_campaigns,
    log_error,
    logger,
    start_front_end,
    stop_front_end,
)
from repro.store.findings import FindingsStore, wait_for_events
from repro.store.runner import config_from_json

#: submission keys that are budget/run options rather than config fields.
_SUBMISSION_KEYS = {"rounds", "duration_seconds", "preseed"}

#: config fields a client may not set: ``trace_file`` names a path the
#: campaign would truncate and append to on the server host (the service
#: streams events through ``GET /campaigns/{id}/events`` instead).
_SERVER_ONLY_FIELDS = {"trace_file"}

#: default/maximum long-poll wait, seconds.
_DEFAULT_WAIT = 25.0
_MAX_WAIT = 60.0

#: largest request body the server reads, bytes (a submission is < 1 KiB).
MAX_BODY_BYTES = 1 << 20


class RequestError(Exception):
    """A request answered with ``status`` and a JSON error body."""

    def __init__(self, status: int, message: str, headers: dict[str, str] | None = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


def check_workers(workers: int) -> None:
    """The service runs a campaign's shards on one thread of its campaign
    host, which must not fork a shard pool (:mod:`repro.service.processes`)."""
    if workers != 1:
        raise ValueError(
            "workers must be 1: the service runs a campaign's shards one after"
            " another on one thread (spatter --store --workers N runs a shard pool)"
        )


def validate_config(config: CampaignConfig) -> None:
    """Reject configs that would only fail later inside a worker process.

    Covers the registry-backed name fields (dialect, backends, scheduler,
    scenarios, oracles) and the basic numeric sanity the CLI enforces; a
    :class:`ValueError` here becomes an HTTP 400 with the message as body,
    instead of a campaign row that flips to ``failed`` minutes later.
    """
    from repro.backends import available_backends
    from repro.core.scheduler import SCHEDULER_NAMES
    from repro.engine.dialects import available_dialects
    from repro.oracles import oracle_names
    from repro.scenarios import scenario_names

    def _membership(value, universe, what: str) -> None:
        if value is not None and value not in universe:
            raise ValueError(f"unknown {what} {value!r}; available: {', '.join(sorted(universe))}")

    _membership(config.dialect, set(available_dialects()), "dialect")
    _membership(config.backend, set(available_backends()), "backend")
    _membership(config.compare_backend, set(available_backends()), "compare backend")
    _membership(config.scheduler, set(SCHEDULER_NAMES), "scheduler")
    if config.scenarios is not None:
        known = set(scenario_names())
        for name in config.scenarios:
            _membership(name, known, "scenario")
    if config.oracles is not None:
        known = set(oracle_names())
        for name in config.oracles:
            _membership(name, known, "oracle")
    check_workers(config.workers)
    if config.shards is not None and config.shards < 1:
        raise ValueError("shards must be at least 1")
    for field in ("table_count", "geometry_count", "queries_per_round"):
        value = getattr(config, field)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{field} must be an integer")
        if value < 1:
            raise ValueError(f"{field} must be at least 1")


def parse_submission(body) -> tuple[CampaignConfig, int | None, float | None, bool]:
    """Parse a ``POST /campaigns`` body into ``(config, rounds, duration,
    preseed)``, raising :class:`ValueError` on anything malformed."""
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    known = set(CampaignConfig.__dataclass_fields__) - _SERVER_ONLY_FIELDS
    unknown = set(body) - known - _SUBMISSION_KEYS
    if unknown:
        raise ValueError(f"unknown submission keys: {', '.join(sorted(unknown))}")
    try:
        config = config_from_json({key: value for key, value in body.items() if key in known})
    except TypeError as error:
        raise ValueError(f"bad config: {error}") from error
    validate_config(config)
    rounds = body.get("rounds")
    if rounds is not None and (isinstance(rounds, bool) or not isinstance(rounds, int)):
        raise ValueError("rounds must be an integer")
    if rounds is not None and rounds < 0:
        raise ValueError("rounds must be non-negative")
    duration = body.get("duration_seconds")
    if duration is not None and (
        isinstance(duration, bool) or not isinstance(duration, (int, float))
    ):
        raise ValueError("duration_seconds must be a number")
    if duration is not None and duration < 0:
        raise ValueError("duration_seconds must be non-negative")
    return config, rounds, duration, bool(body.get("preseed", False))


class ControlPlaneServer(ThreadingHTTPServer):
    """HTTP threads + the campaign runner (in a front end, its stand-in)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], store_path: str, verbose: bool = False):
        super().__init__(address, ControlPlaneHandler)
        self.store_path = store_path
        self.runner = CampaignRunner(store_path)
        self.verbose = verbose

    def server_close(self) -> None:
        """Stop listening and admit no more campaigns."""
        super().server_close()
        self.runner.close()


class ControlPlaneHandler(BaseHTTPRequestHandler):
    """One HTTP connection: its requests, on one thread, share one store."""

    server_version = "spatter-service/1"
    # Every response carries Content-Length, so keep-alive is safe and the
    # long-poll endpoint does not pay a reconnect per poll.
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: the headers and the body go out in two sends, and on a
    # keep-alive connection Nagle would hold the body back until the
    # client's delayed ACK of the headers (~40 ms per response).
    disable_nagle_algorithm = True
    _connection_store: FindingsStore | None = None

    # ------------------------------------------------------------- plumbing
    def finish(self) -> None:
        try:
            super().finish()
        finally:
            if self._connection_store is not None:
                self._connection_store.close()
                self._connection_store = None

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _store(self) -> FindingsStore:
        """The connection's store, opened on first use and closed in
        :meth:`finish`; the handler's thread is its only user."""
        if self._connection_store is None:
            self._connection_store = FindingsStore(self.server.store_path)
        return self._connection_store

    def _send_json(
        self, payload, status: int = 200, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True, indent=2).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, message: str, status: int, headers: dict[str, str] | None = None
    ) -> None:
        self._send_json({"error": message}, status=status, headers=headers)

    def _read_body(self):
        """The JSON request body; a bad or too large ``Content-Length`` is
        refused unread, and the connection closes, since the unread body
        would otherwise be taken for the next request."""
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            raise RequestError(
                400,
                f"Content-Length must be a non-negative integer, not {header!r}",
                {"Connection": "close"},
            )
        if length > MAX_BODY_BYTES:
            raise RequestError(
                413,
                f"request body of {length} bytes exceeds the limit of {MAX_BODY_BYTES}",
                {"Connection": "close"},
            )
        raw = self.rfile.read(length) if length > 0 else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise ValueError(f"request body is not valid JSON: {error}") from error

    def _query(self) -> dict[str, str]:
        parsed = parse_qs(urlparse(self.path).query)
        return {key: values[-1] for key, values in parsed.items()}

    def _path_parts(self) -> list[str]:
        return [part for part in urlparse(self.path).path.split("/") if part]

    # -------------------------------------------------------------- dispatch
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(self._route_post)

    def _dispatch(self, route) -> None:
        try:
            route()
        except RequestError as error:
            self._send_error_json(str(error), status=error.status, headers=error.headers)
        except QueueFull as error:
            headers = {"Retry-After": str(RETRY_AFTER_SECONDS)}
            self._send_error_json(str(error), status=429, headers=headers)
        except ValueError as error:
            self._send_error_json(str(error), status=400)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass
        except Exception:  # noqa: BLE001 - a handler bug must not kill the thread
            # the traceback goes to the server log, never to the client
            error_id = log_error("%s %s failed", self.command, self.path)
            self._send_json({"error": "internal error", "error_id": error_id}, status=500)

    # ------------------------------------------------------------------- GET
    def _route_get(self) -> None:
        parts = self._path_parts()
        if parts == ["healthz"]:
            self._send_json({"status": "ok", "store": self.server.store_path})
            return
        if parts == ["stats"]:
            self._send_json(self._store().stats())
            return
        if parts == ["campaigns"]:
            self._send_json({"campaigns": self._store().list_campaigns()})
            return
        if parts == ["findings"]:
            self._get_findings()
            return
        if len(parts) == 2 and parts[0] == "campaigns":
            self._get_campaign(parts[1])
            return
        if len(parts) == 3 and parts[0] == "campaigns":
            campaign_id, leaf = parts[1], parts[2]
            if leaf == "findings":
                self._get_campaign_findings(campaign_id)
                return
            if leaf == "events":
                self._get_campaign_events(campaign_id)
                return
        self._send_error_json(f"no such resource: GET {self.path}", status=404)

    def _get_campaign(self, campaign_id: str) -> None:
        store = self._store()
        campaign = store.get_campaign(campaign_id)
        if campaign is None:
            self._send_error_json(f"no campaign {campaign_id!r}", status=404)
            return
        checkpoints = store.campaign_checkpoints(campaign_id)
        campaign["progress"] = {
            "rounds_completed": sum(row["rounds_completed"] for row in checkpoints),
            "shards_done": sum(1 for row in checkpoints if row["done"]),
            "shards": checkpoints,
            "sightings": store.sighting_count(campaign_id),
            "novel_findings": store.novel_finding_count(campaign_id),
        }
        campaign["arm_stats"] = store.campaign_arm_stats(campaign_id)
        campaign["active"] = self.server.runner.is_active(campaign_id, campaign["status"])
        self._send_json(campaign)

    def _get_campaign_findings(self, campaign_id: str) -> None:
        store = self._store()
        if store.get_campaign(campaign_id) is None:
            self._send_error_json(f"no campaign {campaign_id!r}", status=404)
            return
        findings = store.campaign_findings(campaign_id)
        self._send_json({"campaign_id": campaign_id, "findings": findings})

    def _get_campaign_events(self, campaign_id: str) -> None:
        query = self._query()
        try:
            after = int(query.get("after", 0))
        except ValueError as error:
            raise ValueError("after must be an integer event cursor") from error
        try:
            wait = min(float(query.get("wait", _DEFAULT_WAIT)), _MAX_WAIT)
        except ValueError as error:
            raise ValueError("wait must be a number of seconds") from error
        store = self._store()
        campaign = store.get_campaign(campaign_id)
        if campaign is None:
            self._send_error_json(f"no campaign {campaign_id!r}", status=404)
            return
        events = wait_for_events(store, campaign_id, after, wait)
        status = store.get_campaign(campaign_id)["status"]
        cursor = events[-1]["cursor"] if events else after
        self._send_json(
            {"campaign_id": campaign_id, "status": status, "cursor": cursor, "events": events}
        )

    def _get_findings(self) -> None:
        query = self._query()
        limit = query.get("limit")
        if limit is not None:
            try:
                limit = int(limit)
            except ValueError as error:
                raise ValueError("limit must be an integer") from error
        findings = self._store().query_findings(
            signature=query.get("signature"),
            scenario=query.get("scenario"),
            oracle=query.get("oracle"),
            kind=query.get("kind"),
            since=query.get("since"),
            limit=limit,
        )
        self._send_json({"findings": findings})

    # ------------------------------------------------------------------ POST
    def _route_post(self) -> None:
        parts = self._path_parts()
        if parts == ["campaigns"]:
            self._post_campaign()
            return
        if len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "resume":
            self._post_resume(parts[1])
            return
        self._send_error_json(f"no such resource: POST {self.path}", status=404)

    def _post_campaign(self) -> None:
        config, rounds, duration, preseed = parse_submission(self._read_body())
        campaign_id, status = self.server.runner.submit(
            config, rounds=rounds, duration_seconds=duration, preseed=preseed
        )
        self._send_json({"id": campaign_id, "status": status}, status=202)

    def _post_resume(self, campaign_id: str) -> None:
        body = self._read_body()
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        unknown = set(body) - {"rounds", "duration_seconds"}
        if unknown:
            raise ValueError(f"unknown resume keys: {', '.join(sorted(unknown))}")
        campaign = self._store().get_campaign(campaign_id)
        if campaign is None:
            self._send_error_json(f"no campaign {campaign_id!r}", status=404)
            return
        if campaign["status"] == "completed":
            self._send_error_json(
                f"campaign {campaign_id!r} already completed; submit a new campaign", status=409
            )
            return
        check_workers(config_from_json(campaign["config"]).workers)
        status = self.server.runner.resume(
            campaign_id,
            rounds=body.get("rounds"),
            duration_seconds=body.get("duration_seconds"),
        )
        if status is None:
            self._send_error_json(
                f"campaign {campaign_id!r} is already running in this service", status=409
            )
            return
        self._send_json({"id": campaign_id, "status": status}, status=202)


def create_server(
    store_path: str, host: str = "127.0.0.1", port: int = 0, verbose: bool = False
) -> ControlPlaneServer:
    """Bind the control plane (``port=0`` picks an ephemeral port).

    The store is opened once up front so schema problems (or an unwritable
    path) fail at startup rather than on the first request.
    """
    FindingsStore(store_path).close()
    return ControlPlaneServer((host, port), store_path, verbose=verbose)


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatter serve",
        description="Serve the campaign control plane over HTTP (docs/SERVICE.md).",
    )
    parser.add_argument(
        "--store", required=True, metavar="PATH", help="persistent findings store (sqlite3 file)"
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8642, help="TCP port; 0 picks an ephemeral port (default: 8642)"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )
    return parser


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def serve_main(argv: list[str] | None = None) -> int:
    """``spatter serve`` entry point; blocks until SIGINT or SIGTERM.

    This process hosts the campaigns and a forked front end answers HTTP
    (:mod:`repro.service.processes`); where ``os.fork`` is missing, this
    process does both.  Either signal raises :class:`KeyboardInterrupt`
    here; the shutdown kills and reaps the front end and leaves running
    campaigns ``running`` in the store.  Returns 1 if the front end died
    first.
    """
    arguments = build_serve_parser().parse_args(argv)
    server = create_server(
        arguments.store, host=arguments.host, port=arguments.port, verbose=arguments.verbose
    )
    host, port = server.server_address[:2]
    # the CI smoke job (and any script) scrapes the actual port from this
    # line, so ephemeral-port serving stays scriptable.
    print(
        f"spatter service listening on http://{host}:{port} (store: {arguments.store})",
        flush=True,
    )
    signal.signal(signal.SIGTERM, _interrupt)
    front_end = None
    try:
        if not hasattr(os, "fork"):
            server.serve_forever()
            return 0
        front_end, connection = start_front_end(server)
        host_campaigns(connection, server.runner)
        logger.error("the front end exited; stopping the service")
        return 1
    except KeyboardInterrupt:
        return 0
    finally:
        # a second signal must not cut the shutdown short
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        if front_end is not None:
            stop_front_end(front_end)
            # the front end's store connections died open: the last
            # connection to close folds the write-ahead log into the store
            FindingsStore(arguments.store).close()
        server.server_close()
