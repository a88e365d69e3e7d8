"""End-to-end tests for the HTTP control plane (:mod:`repro.service`).

An in-process :class:`ControlPlaneServer` on an ephemeral port, driven with
stdlib ``urllib`` — the same protocol surface the CI smoke job exercises
with a real ``spatter serve`` process.  The load-bearing assertion: the
findings the service returns for a campaign are the same projections
``spatter --json`` prints for the same seed (one serializer, by
construction).
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.service import app as service_app
from repro.service import create_server
from repro.service.app import MAX_BODY_BYTES
from repro.store.findings import FindingsStore

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SUBMISSION = {
    "geometry_count": 5,
    "queries_per_round": 6,
    "seed": 3,
    "workers": 1,
    "shards": 1,
    "rounds": 3,
}

CLI_FLAGS = ["--geometries", "5", "--queries", "6", "--seed", "3", "--rounds", "3", "--json"]


@pytest.fixture
def service(tmp_path):
    server = create_server(str(tmp_path / "service.db"), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=70) as response:
        return json.loads(response.read())


def post(base: str, path: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def wait_until_terminal(base: str, campaign_id: str, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        campaign = get(base, f"/campaigns/{campaign_id}")
        if campaign["status"] in ("completed", "failed"):
            return campaign
        time.sleep(0.2)
    raise AssertionError(f"campaign {campaign_id} never reached a terminal status")


def strip_sighting_fields(record: dict) -> dict:
    """Drop the per-sighting annotations the store adds on top of the
    shared projection (novelty verdict, shard, wall-clock stamp)."""
    return {
        key: value
        for key, value in record.items()
        if key not in ("novel", "shard_index", "observed_at")
    }


def sort_records(records: list[dict]) -> list[dict]:
    # service findings arrive in sighting (per-round flush) order, the CLI
    # summary in result-list order; compare as canonically-sorted streams.
    return sorted(records, key=lambda record: json.dumps(record, sort_keys=True))


class TestCampaignLifecycle:
    def test_submit_poll_findings_matches_cli_json(self, service):
        status, body = post(service, "/campaigns", SUBMISSION)
        assert status == 202
        campaign_id = body["id"]

        # the row exists immediately, before the worker finishes
        assert get(service, f"/campaigns/{campaign_id}")["id"] == campaign_id

        campaign = wait_until_terminal(service, campaign_id)
        assert campaign["status"] == "completed", campaign.get("error")
        assert campaign["result"]["rounds"] == 3
        assert campaign["progress"]["rounds_completed"] == 3
        assert campaign["progress"]["shards_done"] == 1

        served = get(service, f"/campaigns/{campaign_id}/findings")["findings"]
        assert served, "seed 3 must produce findings for this test to bite"
        assert all(record["novel"] for record in served)  # fresh store

        cli = subprocess.run(
            [sys.executable, "-m", "repro.cli", *CLI_FLAGS],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert cli.returncode == 1, cli.stderr  # findings -> exit code 1
        payload = json.loads(cli.stdout)
        assert sort_records([strip_sighting_fields(r) for r in served]) == sort_records(
            payload["findings"]
        )
        # the completed-campaign result body is the same serializer output
        assert campaign["result"]["unique_signatures"] == payload["unique_signatures"]
        assert campaign["result"]["unique_bug_ids"] == payload["unique_bug_ids"]

    def test_second_submission_reports_zero_novel(self, service):
        _, first = post(service, "/campaigns", SUBMISSION)
        wait_until_terminal(service, first["id"])
        _, second = post(service, "/campaigns", SUBMISSION)
        campaign = wait_until_terminal(service, second["id"])
        assert campaign["progress"]["sightings"] > 0
        assert campaign["progress"]["novel_findings"] == 0

    def test_long_poll_streams_trace_events(self, service):
        _, body = post(service, "/campaigns", SUBMISSION)
        campaign_id = body["id"]
        cursor, seen = 0, []
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            batch = get(service, f"/campaigns/{campaign_id}/events?after={cursor}&wait=5")
            seen.extend(batch["events"])
            cursor = batch["cursor"]
            if batch["status"] in ("completed", "failed") and not batch["events"]:
                break
        kinds = {event["event"] for event in seen}
        assert "round_start" in kinds
        assert "round_end" in kinds
        assert "finding" in kinds
        # cursors are strictly increasing and resumable
        cursors = [event["cursor"] for event in seen]
        assert cursors == sorted(set(cursors))

    def test_stats_and_cross_run_query(self, service):
        _, body = post(service, "/campaigns", SUBMISSION)
        wait_until_terminal(service, body["id"])
        stats = get(service, "/stats")
        assert stats["campaigns"] == 1
        assert stats["unique_findings"] > 0
        corpus = get(service, "/findings")["findings"]
        assert len(corpus) == stats["unique_findings"]
        one = corpus[0]
        by_signature = get(
            service, "/findings?signature=" + urllib.parse.quote(one["signature"])
        )["findings"]
        assert [record["signature"] for record in by_signature] == [one["signature"]]
        assert get(service, "/findings?limit=1")["findings"] == corpus[:1]


class TestErrorPaths:
    def expect_error(self, call, code):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call()
        assert excinfo.value.code == code
        return json.loads(excinfo.value.read())["error"]

    def test_unknown_submission_key_is_400(self, service, tmp_path):
        # the retired campaign options are unknown keys like any other, and
        # so is trace_file: a client may not name a path for the server to
        # write (events stream through GET /campaigns/{id}/events instead)
        trace_path = tmp_path / "client-chosen-trace.jsonl"
        for key, value in (
            ("bogus", False),
            ("fast_path", False),
            ("vectorized", False),
            ("reuse", False),
            ("trace_file", str(trace_path)),
        ):
            message = self.expect_error(
                lambda: post(service, "/campaigns", {**SUBMISSION, key: value}), 400
            )
            assert "unknown submission keys" in message
            assert key in message
        assert not trace_path.exists()

    def test_unknown_registry_names_are_400(self, service):
        assert "dialect" in self.expect_error(
            lambda: post(service, "/campaigns", {"dialect": "oracle23ai"}), 400
        )
        assert "scenario" in self.expect_error(
            lambda: post(service, "/campaigns", {"scenarios": ["nope"]}), 400
        )

    def test_missing_campaign_is_404(self, service):
        self.expect_error(lambda: get(service, "/campaigns/nope"), 404)
        self.expect_error(lambda: get(service, "/campaigns/nope/findings"), 404)
        self.expect_error(lambda: get(service, "/campaigns/nope/events"), 404)
        self.expect_error(lambda: post(service, "/campaigns/nope/resume", {}), 404)

    def test_resume_of_completed_campaign_is_409(self, service):
        _, body = post(service, "/campaigns", SUBMISSION)
        wait_until_terminal(service, body["id"])
        self.expect_error(lambda: post(service, f"/campaigns/{body['id']}/resume", {}), 409)

    def test_unknown_route_is_404(self, service):
        self.expect_error(lambda: get(service, "/nope"), 404)

    def test_healthz(self, service):
        assert get(service, "/healthz")["status"] == "ok"

    @pytest.mark.parametrize("workers", [0, 2])
    def test_workers_other_than_one_is_400(self, service, workers):
        message = self.expect_error(
            lambda: post(service, "/campaigns", {**SUBMISSION, "workers": workers}), 400
        )
        assert "workers must be 1" in message

    def _raw_post(self, base: str, content_length: str):
        """POST headers only, with the given ``Content-Length``; no body."""
        connection = keep_alive(base)
        connection.timeout = 5  # a server that waits for the body fails here
        try:
            connection.putrequest("POST", "/campaigns")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", content_length)
            connection.endheaders()
            response = connection.getresponse()
            return response.status, response.getheader("Connection"), json.loads(response.read())
        finally:
            connection.close()

    def test_body_over_the_cap_is_413_unread(self, service):
        status, connection, body = self._raw_post(service, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert connection == "close"
        assert str(MAX_BODY_BYTES) in body["error"]

    @pytest.mark.parametrize("length", ["-1", "twelve"])
    def test_bad_content_length_is_400(self, service, length):
        status, connection, body = self._raw_post(service, length)
        assert status == 400
        assert connection == "close"
        assert "Content-Length" in body["error"]

    def test_handler_error_is_500_with_an_error_id(self, service, monkeypatch, caplog):
        def broken_stats(store):
            raise RuntimeError("secret internal detail")

        monkeypatch.setattr(FindingsStore, "stats", broken_stats)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(service, "/stats")
        assert excinfo.value.code == 500
        text = excinfo.value.read().decode("utf-8")
        excinfo.value.close()
        body = json.loads(text)
        assert body["error"] == "internal error"
        assert len(body["error_id"]) == 12
        assert "Traceback" not in text and "secret internal detail" not in text
        logged = [r for r in caplog.records if body["error_id"] in r.getMessage()]
        assert logged and logged[0].exc_info is not None


def keep_alive(base: str) -> http.client.HTTPConnection:
    address = urllib.parse.urlparse(base)
    return http.client.HTTPConnection(address.hostname, address.port, timeout=30)


def exchange(connection: http.client.HTTPConnection, path: str) -> dict:
    connection.request("GET", path)
    response = connection.getresponse()
    body = json.loads(response.read())
    assert response.status == 200, body
    return body


class TestKeepAliveConnections:
    def test_keep_alive_responses_do_not_wait_for_delayed_acks(self, service):
        # Headers and body go out in two sends; with Nagle on, the body
        # waits for the client's delayed ACK (~40 ms on Linux) per request.
        connection = keep_alive(service)
        timings = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                assert exchange(connection, "/healthz")["status"] == "ok"
                timings.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert statistics.median(timings) < 0.010, timings

    def test_one_store_per_connection_closed_on_disconnect(self, service, monkeypatch):
        opened: list[FindingsStore] = []
        closed: list[FindingsStore] = []

        class RecordingStore(FindingsStore):
            def __init__(self, path):
                super().__init__(path)
                opened.append(self)

            def close(self):
                closed.append(self)
                super().close()

        monkeypatch.setattr(service_app, "FindingsStore", RecordingStore)
        connection = keep_alive(service)
        try:
            for path in ("/stats", "/campaigns", "/findings", "/campaigns", "/stats"):
                exchange(connection, path)
            assert len(opened) == 1
            assert not closed
        finally:
            connection.close()
        # The handler thread notices the disconnect and finishes.
        deadline = time.monotonic() + 10
        while not closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert closed == opened
