"""The processes of ``spatter serve`` (:mod:`repro.service.processes`).

``spatter serve`` runs campaigns on threads of the process it starts (the
campaign host) and answers HTTP from a front end forked before any thread
starts.  These tests pin: findings of concurrent mixed campaigns equal
their serial runs; the front end answers while the host is stopped; no
process outlives the server, however it stops, and the host stops when
its front end dies; a killed server's campaign resumes to the
uninterrupted stream; and admission is bounded (queued rows, 429 with
``Retry-After``).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from repro.core.canonical import clear_canonical_cache
from repro.core.parallel import run_campaign
from repro.geometry.cache import clear_geometry_cache
from repro.service import create_server
from repro.service import processes
from repro.store.findings import FindingsStore
from repro.store.runner import config_from_json
from repro.store.serialize import finding_records
from repro.topology.relate import clear_relate_cache

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SMALL = {"geometry_count": 5, "queries_per_round": 6}

on_linux = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads process tables from /proc"
)


@pytest.fixture
def served(tmp_path):
    """An in-process server: ``(base URL, server)``."""
    server = create_server(str(tmp_path / "service.db"), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", server
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


def wait_until(predicate, timeout: float = 120.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


def wait_until_terminal(base: str, campaign_id: str) -> dict:
    def terminal():
        campaign = get(base, f"/campaigns/{campaign_id}")
        return campaign if campaign["status"] in ("completed", "failed") else None

    return wait_until(terminal, what=f"campaign {campaign_id} to end")


def wait_for_rounds(base: str, campaign_id: str, rounds: int) -> None:
    wait_until(
        lambda: get(base, f"/campaigns/{campaign_id}")["progress"]["rounds_completed"] >= rounds,
        what=f"campaign {campaign_id} to checkpoint {rounds} rounds",
    )


def assert_same_stream(base: str, campaign: dict, reference) -> None:
    """The completed campaign found what ``reference`` (a result) found.

    The result's finding records must match exactly.  The sightings match
    by signature: each one carries the payload of the first finding the
    store recorded under its signature, which can be another finding.
    """
    expected = finding_records(reference)
    assert canonical(campaign["result"]["findings"]) == canonical(expected)
    sightings = get(base, f"/campaigns/{campaign['id']}/findings")["findings"]
    assert sorted(r["signature"] for r in sightings) == sorted(r["signature"] for r in expected)


def canonical(records: list[dict]) -> list[dict]:
    return sorted(records, key=lambda record: json.dumps(record, sort_keys=True))


def serial_run(config, rounds: int):
    """The campaign run in this process, one shard at a time, from cold caches."""
    clear_relate_cache()
    clear_canonical_cache()
    clear_geometry_cache()
    return run_campaign(replace(config, workers=1), rounds=rounds)


def session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes in session ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # exited while we looked
            continue
        # fields after the parenthesised command: state, ppid, pgrp, session, ...
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            found.append(int(entry))
    return found


def children_of(pid: int) -> list[int]:
    """Live (non-zombie) child processes of ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[1]) == pid:
            found.append(int(entry))
    return found


class TestConcurrentCampaigns:
    SUBMISSIONS = [
        {**SMALL, "seed": 3, "rounds": 3},
        {**SMALL, "seed": 4, "rounds": 2, "scenarios": ["topological-join", "knn"]},
        {**SMALL, "seed": 5, "rounds": 2, "oracles": ["aei", "pqs"]},
        {**SMALL, "seed": 6, "rounds": 4, "shards": 2},
        {**SMALL, "seed": 7, "duration_seconds": 1.0, "oracles": ["aei"]},
        {**SMALL, "seed": 8, "rounds": 2, "oracles": ["set-theoretic"], "table_count": 3},
    ]

    def test_mixed_campaigns_from_three_clients_match_serial_runs(self, served):
        base, _ = served
        outcomes: dict[int, dict] = {}
        errors: list[BaseException] = []

        def client(submissions):
            try:
                for submission in submissions:
                    status, body = post(base, "/campaigns", submission)
                    assert status == 202 and body["status"] in ("running", "queued")
                    outcomes[submission["seed"]] = wait_until_terminal(base, body["id"])
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        clients = [
            threading.Thread(target=client, args=(self.SUBMISSIONS[index::3],))
            for index in range(3)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        assert not errors, errors

        for submission in self.SUBMISSIONS:
            campaign = outcomes[submission["seed"]]
            assert campaign["status"] == "completed", campaign.get("error")
            assert campaign["active"] is False
            result = campaign["result"]
            config = config_from_json(campaign["config"])
            # a duration budget runs whole rounds here (AEI only), so the
            # serial run of the same round count is the reference
            serial = serial_run(config, rounds=result["rounds"])
            assert_same_stream(base, campaign, serial)

    def test_a_raising_campaign_fails_with_its_error(self, served, caplog):
        base, _ = served
        # table_count 0 passes validation and raises on the first round
        _, body = post(base, "/campaigns", {**SMALL, "seed": 3, "rounds": 1, "table_count": 0})
        campaign = wait_until_terminal(base, body["id"])
        assert campaign["status"] == "failed"
        assert campaign["error"].startswith("IndexError(")
        wait_until(
            lambda: [r for r in caplog.records if body["id"] in r.getMessage()],
            timeout=10,
            what="the campaign's traceback in the log",
        )
        logged = next(r for r in caplog.records if body["id"] in r.getMessage())
        assert "error_id=" in logged.getMessage() and logged.exc_info is not None


@on_linux
class TestServeProcesses:
    """A real ``spatter serve`` in a session of its own."""

    def _serve(self, store_path: str):
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", store_path, "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
            start_new_session=True,
        )
        line = server.stdout.readline()
        port = int(re.search(r"http://[^:]+:(\d+)", line).group(1))
        return server, f"http://127.0.0.1:{port}"

    def _cleanup(self, server) -> None:
        for pid in session_members(server.pid):
            os.kill(pid, signal.SIGKILL)
        server.stdout.close()
        if server.returncode is None:
            server.kill()
            server.wait()

    def _front_end(self, server) -> int:
        (front_end,) = wait_until(lambda: children_of(server.pid), timeout=10, what="front end")
        return front_end

    @pytest.mark.parametrize(
        "signum", [signal.SIGTERM, signal.SIGINT, signal.SIGKILL], ids=lambda signum: signum.name
    )
    def test_session_is_empty_after_the_server_stops(self, tmp_path, signum):
        store_path = str(tmp_path / "serve.db")
        server, base = self._serve(store_path)
        try:
            _, body = post(
                base, "/campaigns", {**SMALL, "seed": 3, "duration_seconds": 300, "shards": 2}
            )
            wait_for_rounds(base, body["id"], 2)
            assert children_of(server.pid) == [self._front_end(server)]
            started = time.monotonic()
            server.send_signal(signum)
            server.wait(timeout=30)
            # a SIGKILLed host cannot stop its front end: it follows the
            # host's lifeline instead
            wait_until(
                lambda: not session_members(server.pid),
                timeout=10.0,
                what=f"the session to empty: {session_members(server.pid)}",
            )
            assert time.monotonic() - started < 10.0
        finally:
            self._cleanup(server)
        with FindingsStore(store_path) as store:
            # killed, not failed: the campaign resumes from its checkpoints
            assert store.get_campaign(body["id"])["status"] == "running"

    def test_front_end_answers_while_the_host_is_stopped(self, tmp_path):
        server, base = self._serve(str(tmp_path / "serve.db"))
        try:
            _, body = post(base, "/campaigns", {**SMALL, "seed": 3, "duration_seconds": 300})
            wait_for_rounds(base, body["id"], 1)
            os.kill(server.pid, signal.SIGSTOP)
            try:
                # the host's GIL and threads are frozen; reads never need them
                campaign = get(base, f"/campaigns/{body['id']}")
                assert campaign["status"] == "running" and campaign["active"] is True
                get(base, f"/campaigns/{body['id']}/findings")
                assert get(base, "/healthz")["status"] == "ok"
            finally:
                os.kill(server.pid, signal.SIGCONT)
        finally:
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=30)
            self._cleanup(server)

    def test_host_stops_when_its_front_end_dies(self, tmp_path):
        server, base = self._serve(str(tmp_path / "serve.db"))
        try:
            _, body = post(base, "/campaigns", {**SMALL, "seed": 3, "duration_seconds": 300})
            wait_for_rounds(base, body["id"], 1)
            os.kill(self._front_end(server), signal.SIGKILL)
            assert server.wait(timeout=30) == 1
            wait_until(lambda: not session_members(server.pid), timeout=10.0, what="the session")
        finally:
            self._cleanup(server)

    def test_killed_server_resumes_to_the_uninterrupted_stream(self, tmp_path):
        store_path = str(tmp_path / "serve.db")
        server, base = self._serve(store_path)
        try:
            _, body = post(base, "/campaigns", {**SMALL, "seed": 5, "rounds": 40})
            wait_for_rounds(base, body["id"], 1)
            server.kill()
            server.wait(timeout=30)
        finally:
            self._cleanup(server)
        server, base = self._serve(store_path)
        try:
            campaign = get(base, f"/campaigns/{body['id']}")
            assert campaign["status"] == "running" and campaign["active"] is False
            assert campaign["progress"]["rounds_completed"] < 40  # killed mid-run
            status, resumed = post(base, f"/campaigns/{body['id']}/resume", {})
            assert status == 202 and resumed["status"] in ("running", "queued")
            campaign = wait_until_terminal(base, body["id"])
            assert campaign["status"] == "completed", campaign.get("error")
            assert campaign["result"]["rounds"] == 40
            uninterrupted = serial_run(config_from_json(campaign["config"]), rounds=40)
            assert_same_stream(base, campaign, uninterrupted)
        finally:
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=30)
            self._cleanup(server)


def test_front_end_is_forked_before_any_thread(tmp_path):
    server = create_server(str(tmp_path / "service.db"), port=0)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with pytest.raises(RuntimeError, match="before any other thread"):
            processes.start_front_end(server)
    finally:
        stop.set()
        thread.join()
        server.server_close()


class TestAdmission:
    def test_full_queue_refuses_with_retry_after(self, served, monkeypatch):
        base, _ = served
        monkeypatch.setattr(processes, "QUEUE_LENGTH", 1)
        # the slots stay taken for two seconds, long enough to fill the queue
        running = [
            post(base, "/campaigns", {**SMALL, "seed": seed, "duration_seconds": 2.0})[1]
            for seed in range(3, 3 + processes.SLOTS)
        ]
        assert [body["status"] for body in running] == ["running"] * processes.SLOTS
        _, queued = post(base, "/campaigns", {**SMALL, "seed": 2, "rounds": 1})
        assert queued["status"] == "queued"
        assert get(base, f"/campaigns/{queued['id']}")["active"] is True

        with pytest.raises(urllib.error.HTTPError) as refused:
            post(base, "/campaigns", {**SMALL, "seed": 1, "rounds": 1})
        assert refused.value.code == 429
        assert refused.value.headers["Retry-After"] == str(processes.RETRY_AFTER_SECONDS)
        refused.value.close()
        assert len(get(base, "/campaigns")["campaigns"]) == processes.SLOTS + 1

        # the queued campaign starts once a slot frees
        for body in [*running, queued]:
            assert wait_until_terminal(base, body["id"])["status"] == "completed"

    def test_resume_of_an_active_campaign_is_409(self, served):
        base, _ = served
        # an in-process campaign keeps its thread to the end: keep it short
        _, body = post(base, "/campaigns", {**SMALL, "seed": 3, "duration_seconds": 2.0})
        with pytest.raises(urllib.error.HTTPError) as conflict:
            post(base, f"/campaigns/{body['id']}/resume", {})
        assert conflict.value.code == 409
        conflict.value.close()
        assert wait_until_terminal(base, body["id"])["status"] == "completed"
