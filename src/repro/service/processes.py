"""The two processes of ``spatter serve``: the campaign host and the HTTP front end.

``spatter serve`` runs its campaigns on threads of the process it starts,
the *campaign host*, as an in-process server does; before it starts any
thread, the host forks a *front end* that answers every HTTP request.  API
requests therefore never wait for the GIL behind campaign work, while the
campaigns keep sharing the host's process-wide caches (relate memo,
geometry interner, plan cache), so the service spends no more CPU or
memory on them than one process does.  A campaign calls the same
:func:`~repro.store.runner.run_store_campaign` /
:func:`~repro.store.runner.resume_store_campaign` functions as
``spatter --store``, so it writes the same rows.

* **Slots.**  At most :data:`SLOTS` campaigns run at once, one per CPU the
  server may use.  A submission that finds no free slot waits in a FIFO
  of :data:`QUEUE_LENGTH` entries with its row ``queued``; past that
  length :class:`QueueFull` becomes HTTP 429.
* **One thread per campaign.**  A campaign runs its shards one after
  another on its thread (``workers = 1``).  A shard pool would fork the
  host beside other threads' open store connections, and SQLite's locks
  do not survive that: the pool's processes believe they hold locks they
  do not, and their writes can be lost.
* **Front end.**  It reads the store itself and hands submissions and
  resumes to the host's :class:`CampaignRunner` over a pipe
  (:class:`HostRunner`), which admits them.  It is forked before the host
  has any thread or open store connection.
* **Lifetime.**  SIGINT and SIGTERM stop the host, which kills the front
  end and reaps it; the campaign rows stay ``running`` and resumable.  If
  the host is killed outright, the front end sees the host's end of a
  *lifeline* pipe close and exits.  If the front end dies, the host shuts
  down as on SIGTERM.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import uuid
from collections import deque
from dataclasses import asdict, dataclass

from repro.core.campaign import CampaignConfig
from repro.store.findings import FindingsStore
from repro.store.runner import new_campaign_id, resume_store_campaign, run_store_campaign
from repro.store.serialize import jsonable

logger = logging.getLogger("repro.service")

#: campaigns that may run at once: one per CPU this process may use.
SLOTS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
#: admitted campaigns that may wait for slots; a submission past this is refused.
QUEUE_LENGTH = 16
#: the ``Retry-After`` of a refused submission, seconds.
RETRY_AFTER_SECONDS = 1
#: row statuses of a campaign that is queued or running.
_UNFINISHED = ("queued", "running")


class QueueFull(Exception):
    """A campaign can neither start nor wait: no slot is free and the
    queue is full, or the runner is closed."""


def log_error(message: str, *args) -> str:
    """Log the exception being handled, with its traceback, under a new
    error id; returns the id."""
    error_id = uuid.uuid4().hex[:12]
    logger.error(message + " [error_id=%s]", *args, error_id, exc_info=True)
    return error_id


@dataclass
class _Job:
    """One admitted campaign: queued, or running on a thread."""

    campaign_id: str
    #: ``(config, rounds, duration_seconds, preseed)``; ``config=None`` resumes.
    args: tuple
    queued: bool = False


class CampaignRunner:
    """Runs admitted campaigns on threads of this process, :data:`SLOTS` at most.

    The store row is the source of truth for campaign status (it survives
    the server); the runner's table of queued and running campaigns only
    answers "is this campaign queued or running in *this* server right
    now?", which gates double-resume races.
    """

    def __init__(self, store_path: str):
        self.store_path = store_path
        self._lock = threading.Lock()
        self._jobs: dict[str, _Job] = {}
        self._queue: deque[_Job] = deque()
        self._free = SLOTS
        self._closed = False

    def is_active(self, campaign_id: str, status: str) -> bool:
        """Whether the campaign, whose row reads ``status``, is queued or
        running in this server."""
        return status in _UNFINISHED and campaign_id in self._jobs

    def submit(
        self,
        config: CampaignConfig,
        rounds: int | None = None,
        duration_seconds: float | None = None,
        preseed: bool = False,
    ) -> tuple[str, str]:
        """Register and admit a campaign; returns ``(id, status)``.

        The row exists before this returns, with status ``running`` or
        ``queued``; raises :class:`QueueFull` (and writes no row) when the
        campaign can neither start nor wait.
        """
        if rounds is None and duration_seconds is None:
            rounds = 5
        campaign_id = new_campaign_id()
        job = _Job(campaign_id, (config, rounds, duration_seconds, preseed))
        with self._lock:
            status = self._admission()
            with FindingsStore(self.store_path) as store:
                store.create_campaign(
                    campaign_id,
                    jsonable(asdict(config)),
                    config.seed,
                    target_rounds=rounds,
                    target_duration=duration_seconds,
                    status=status,
                )
            self._admit(job, status)
        return campaign_id, status

    def resume(
        self,
        campaign_id: str,
        rounds: int | None = None,
        duration_seconds: float | None = None,
    ) -> str | None:
        """Admit a resume of a campaign.

        Returns the row's new status (``running`` or ``queued``), or
        ``None`` when the campaign is already queued or running here.
        """
        job = _Job(campaign_id, (None, rounds, duration_seconds, False))
        with self._lock:
            if campaign_id in self._jobs:
                return None
            status = self._admission()
            with FindingsStore(self.store_path) as store:
                store.set_campaign_status(campaign_id, status)
            self._admit(job, status)
        return status

    def _admission(self) -> str:
        """The status a job is admitted with; raises :class:`QueueFull`."""
        if self._closed:
            raise QueueFull("the service is shutting down")
        if self._free:
            return "running"
        if len(self._queue) >= QUEUE_LENGTH:
            raise QueueFull(
                f"all {SLOTS} campaign slots are busy and {QUEUE_LENGTH} campaigns are queued"
            )
        return "queued"

    def _admit(self, job: _Job, status: str) -> None:
        self._jobs[job.campaign_id] = job
        if status == "running":
            self._start(job)
        else:
            job.queued = True
            self._queue.append(job)

    def _start(self, job: _Job) -> None:
        """Take a slot and start the job's thread (under the lock)."""
        self._free -= 1
        threading.Thread(
            target=self._run, args=(job,), daemon=True, name=f"campaign-{job.campaign_id}"
        ).start()

    def _run(self, job: _Job) -> None:
        """Run one campaign on this thread, then hand its slot on.

        A campaign that raises has its row marked ``failed`` with
        ``repr(error)`` by the store runner; its traceback goes to the log.
        """
        config, rounds, duration_seconds, preseed = job.args
        try:
            if job.queued:
                with FindingsStore(self.store_path) as store:
                    store.set_campaign_status(job.campaign_id, "running")
            if config is None:
                resume_store_campaign(
                    self.store_path,
                    job.campaign_id,
                    rounds=rounds,
                    duration_seconds=duration_seconds,
                )
            else:
                run_store_campaign(
                    self.store_path,
                    config,
                    rounds=rounds,
                    duration_seconds=duration_seconds,
                    campaign_id=job.campaign_id,
                    preseed=preseed,
                    register=False,
                )
        except Exception:  # noqa: BLE001 - logged here, recorded on the row by the store runner
            log_error("campaign %s failed", job.campaign_id)
        finally:
            with self._lock:
                del self._jobs[job.campaign_id]
                self._free += 1
                if not self._closed and self._queue:
                    self._start(self._queue.popleft())

    def close(self) -> None:
        """Admit nothing more and drop the queue.

        Running campaigns keep their threads until they finish or the
        process exits; rows of campaigns that never started stay
        ``queued`` and resume like those of a crashed server.
        """
        with self._lock:
            self._closed = True
            self._queue.clear()


class HostRunner:
    """The front end's stand-in for the campaign host's :class:`CampaignRunner`.

    Submissions and resumes cross the pipe and are admitted by the host,
    one call at a time.  ``is_active`` answers here, from the campaigns
    admitted through this front end and the row's status, so a status
    request never waits for the host.
    """

    def __init__(self, connection: multiprocessing.connection.Connection):
        self._connection = connection
        self._lock = threading.Lock()
        self._admitted: set[str] = set()

    def _call(self, method: str, *args):
        with self._lock:
            self._connection.send((method, args))
            outcome, value = self._connection.recv()
        if outcome == "full":
            raise QueueFull(value)
        if outcome == "error":
            raise RuntimeError(f"the campaign host failed to {method} [error_id={value}]")
        return value

    def is_active(self, campaign_id: str, status: str) -> bool:
        return status in _UNFINISHED and campaign_id in self._admitted

    def submit(
        self,
        config: CampaignConfig,
        rounds: int | None = None,
        duration_seconds: float | None = None,
        preseed: bool = False,
    ) -> tuple[str, str]:
        campaign_id, status = self._call("submit", config, rounds, duration_seconds, preseed)
        self._admitted.add(campaign_id)
        return campaign_id, status

    def resume(
        self,
        campaign_id: str,
        rounds: int | None = None,
        duration_seconds: float | None = None,
    ) -> str | None:
        status = self._call("resume", campaign_id, rounds, duration_seconds)
        if status is not None:
            self._admitted.add(campaign_id)
        return status


def host_campaigns(connection: multiprocessing.connection.Connection, runner) -> None:
    """Admit the front end's submissions and resumes into ``runner``
    until the front end hangs up."""
    methods = {"submit": runner.submit, "resume": runner.resume}
    while True:
        try:
            method, args = connection.recv()
        except EOFError:
            return
        try:
            reply = ("ok", methods[method](*args))
        except QueueFull as error:
            reply = ("full", str(error))
        except Exception:  # noqa: BLE001 - the front end answers 500 with the id
            reply = ("error", log_error("%s from the front end failed", method))
        connection.send(reply)


def start_front_end(server) -> tuple[int, multiprocessing.connection.Connection]:
    """Fork the HTTP front end of ``server`` (a ``ControlPlaneServer``).

    The child answers HTTP on the server's socket, with a
    :class:`HostRunner` for its runner, until it is killed or this process
    exits, and never returns.  This process gets ``(front end pid, its end
    of the pipe)`` and no longer listens.  Call it before any thread starts.
    """
    if threading.active_count() != 1:
        raise RuntimeError("the front end must be forked before any other thread starts")
    host_end, front_end = multiprocessing.Pipe()
    # the host never writes to the lifeline: its end closes when the host exits
    lifeline, lifeline_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the front end never returns into its caller's frames: they are the host's
        try:
            host_end.close()
            os.close(lifeline_end)
            # the host stops the front end; a terminal's ^C reaches both
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            threading.Thread(target=_exit_after, args=(lifeline,), daemon=True).start()
            server.runner = HostRunner(front_end)
            server.serve_forever()
        except Exception:  # noqa: BLE001 - logged; the host sees the exit
            log_error("the front end stopped")
        finally:
            os._exit(1)
    front_end.close()
    os.close(lifeline)
    server.socket.close()
    return pid, host_end


def _exit_after(lifeline: int) -> None:
    """Block until the host has exited, then exit."""
    os.read(lifeline, 1)
    os._exit(0)


def stop_front_end(pid: int) -> None:
    """SIGKILL the front end and reap it."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass
