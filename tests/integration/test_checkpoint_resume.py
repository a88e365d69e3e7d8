"""SIGKILL/resume equivalence: the store's determinism acceptance test.

Kill a duration-budget parallel campaign mid-run with SIGKILL (no cleanup,
no atexit — the checkpoint transactions are all that survives), resume it
from the store, and assert the merged finding stream, the dedup signature
stream and the unique-bug set are identical to an uninterrupted run of the
same ``(seed, shards)`` configuration — across two seeds and both
execution backends.

Why this holds (docs/SERVICE.md): rounds are independently seeded, so the
four-integer cursor ``(seed, shard_index, shard_count, rounds_completed)``
reconstructs every remaining round RNG; the deduplicator and scheduler
state ride the pickled checkpoint blob; and the per-round flush writes
findings + events + checkpoint in one transaction, so the kill loses at
most the in-flight round, which resume replays.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.campaign import CampaignConfig
from repro.core.parallel import run_campaign
from repro.store import FindingsStore, resume_store_campaign
from repro.store.serialize import finding_records, unique_signature_stream

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CHILD_SOURCE = """
import sys
from repro.core.campaign import CampaignConfig
from repro.store import run_store_campaign

store_path, campaign_id, backend, seed = (
    sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
)
config = CampaignConfig(
    geometry_count=5, queries_per_round=6, seed=seed, backend=backend, workers=2, shards=2
)
# generous wall-clock budget: the parent SIGKILLs long before it expires
run_store_campaign(store_path, config, duration_seconds=300.0, campaign_id=campaign_id)
"""


def wait_for_checkpoints(store_path: str, campaign_id: str, min_rounds: int) -> dict[int, int]:
    """Block until both shards have checkpointed at least ``min_rounds``;
    returns the cursors observed at that instant."""
    deadline = time.monotonic() + 90.0
    cursors: dict[int, int] = {}
    while time.monotonic() < deadline:
        with FindingsStore(store_path) as store:
            cursors = {
                row["shard_index"]: row["rounds_completed"]
                for row in store.campaign_checkpoints(campaign_id)
            }
        if len(cursors) == 2 and all(done >= min_rounds for done in cursors.values()):
            return cursors
        time.sleep(0.05)
    raise AssertionError(f"shards never reached {min_rounds} checkpointed rounds: {cursors}")


def stream_projection(result):
    """The clock-free projection equivalence is asserted on."""
    return {
        "findings": finding_records(result),
        "signatures": unique_signature_stream(finding_records(result)),
        "bug_ids": sorted(result.unique_bug_ids),
        "rounds": result.rounds,
        "queries_run": result.queries_run,
    }


@pytest.mark.parametrize("backend", ["inprocess", "sqlite"])
@pytest.mark.parametrize("seed", [3, 5])
def test_sigkill_then_resume_matches_uninterrupted_run(tmp_path, backend, seed):
    store_path = str(tmp_path / "campaign.db")
    campaign_id = f"kill-{backend}-{seed}"

    # 1. launch the duration-budget campaign in its own process group, so
    #    SIGKILL reaches the orchestrator AND its forked pool workers.
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD_SOURCE, store_path, campaign_id, backend, str(seed)],
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        start_new_session=True,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        wait_for_checkpoints(store_path, campaign_id, min_rounds=1)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait(timeout=30)

    with FindingsStore(store_path) as store:
        row = store.get_campaign(campaign_id)
        assert row is not None and row["status"] == "running"  # killed, not completed
        # Shards progress unevenly under a duration budget, so a fixed
        # round target could already be overshot by the faster shard at
        # kill time.  Pick the target from the observed cursors instead:
        # even, and with a per-shard slice (target/2) strictly above every
        # checkpointed cursor, so both shards have rounds left to replay.
        killed_cursors = [
            r["rounds_completed"] for r in store.campaign_checkpoints(campaign_id)
        ]
    target_rounds = 2 * max(killed_cursors) + 4

    # 2. resume to an explicit round target...
    resumed_id, resumed = resume_store_campaign(store_path, campaign_id, rounds=target_rounds)
    assert resumed_id == campaign_id

    # 3. ...and compare against an uninterrupted, storage-free run.
    config = CampaignConfig(
        geometry_count=5, queries_per_round=6, seed=seed, backend=backend, workers=2, shards=2
    )
    uninterrupted = run_campaign(config, rounds=target_rounds)

    assert stream_projection(resumed) == stream_projection(uninterrupted)

    with FindingsStore(store_path) as store:
        assert store.get_campaign(campaign_id)["status"] == "completed"
        # every finding of the merged stream landed in the store exactly
        # once per observation
        assert store.sighting_count(campaign_id) == len(finding_records(uninterrupted))


def test_resume_refuses_mismatched_shard_geometry(tmp_path):
    """A checkpoint written under one (seed, shards) must not silently
    resume under another — that would break the round-stream contract."""
    from repro.store import run_store_campaign
    from repro.store.runner import run_store_shard
    from repro.store.findings import StoreBinding

    store_path = str(tmp_path / "campaign.db")
    config = CampaignConfig(geometry_count=4, queries_per_round=4, seed=3, workers=1, shards=2)
    campaign_id, _ = run_store_campaign(store_path, config, rounds=2)

    binding = StoreBinding(path=store_path, campaign_id=campaign_id)
    with pytest.raises(ValueError, match="determinism"):
        run_store_shard(
            CampaignConfig(geometry_count=4, queries_per_round=4, seed=99, workers=1, shards=2),
            0, 2, 1, None, binding, resume=True,
        )


def test_second_submission_of_same_config_reports_zero_novel(tmp_path):
    """The global-dedup acceptance criterion, end to end."""
    from repro.store import run_store_campaign

    store_path = str(tmp_path / "campaign.db")
    config = CampaignConfig(geometry_count=5, queries_per_round=6, seed=3, workers=1, shards=1)
    first_id, first = run_store_campaign(store_path, config, rounds=3)
    assert finding_records(first), "seed 3 must produce findings for this test to bite"
    second_id, second = run_store_campaign(store_path, config, rounds=3)

    with FindingsStore(store_path) as store:
        assert store.novel_finding_count(first_id) == len(
            unique_signature_stream(finding_records(first))
        )
        assert store.novel_finding_count(second_id) == 0
        # the second run still *observed* the findings — they are sighted,
        # just not novel
        assert store.sighting_count(second_id) == len(finding_records(second))


def test_store_written_with_the_retired_campaign_options_still_resumes(tmp_path):
    """A store whose config snapshot carries the retired ``fast_path``,
    ``vectorized`` and ``reuse`` keys resumes to ``completed``: the loader
    drops keys the config no longer has, and the campaign runs the one
    production path, finding for finding the uninterrupted run."""
    from dataclasses import asdict

    from repro.store.serialize import jsonable

    store_path = str(tmp_path / "campaign.db")
    config = CampaignConfig(geometry_count=5, queries_per_round=6, seed=3, workers=1, shards=1)
    snapshot = {**jsonable(asdict(config)), "fast_path": False, "vectorized": False, "reuse": False}
    with FindingsStore(store_path) as store:
        store.create_campaign("retired-options", snapshot, config.seed, target_rounds=3)

    _, resumed = resume_store_campaign(store_path, "retired-options")

    assert stream_projection(resumed) == stream_projection(run_campaign(config, rounds=3))
    with FindingsStore(store_path) as store:
        assert store.get_campaign("retired-options")["status"] == "completed"
