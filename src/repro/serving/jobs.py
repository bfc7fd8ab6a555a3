"""Async detection jobs: submit now, poll later, evict on TTL.

A synchronous ``POST /lakes/<name>/detect`` holds an HTTP connection
for the whole kernel run — fine for warm caches, hostile for a cold
exact-BC pass over a large lake.  :class:`JobManager` is the
server-side bookkeeping for the asynchronous spelling
(``POST /lakes/<name>/detect?async=1``): it submits the request
through :meth:`HomographIndex.asubmit` (so jobs ride the index's score
cache, single-flight coalescing, and the shared worker pool exactly
like synchronous calls) and tracks each future under a process-unique
job id::

    manager = JobManager(ttl=300.0)
    job_id = manager.submit("zoo", index, DetectRequest(measure="lcc"))
    manager.get(job_id)          # {"state": "queued" | "running" | ...}
    ...
    snapshot = manager.get(job_id)
    snapshot["state"]            # "done"
    snapshot["response"]         # the DetectResponse payload

States: ``queued`` (future not started), ``running``, ``done``
(``response`` holds the full payload), ``error`` (``error`` holds
``{"type", "message"}``; a cancelled job reports ``type:
"CancelledError"``).  Terminal snapshots are kept for ``ttl`` seconds
after completion and then evicted lazily — a later ``get`` raises
:class:`UnknownJobError`, which the HTTP layer maps to 404.

Job ids are ``uuid4`` hex strings, so ids never collide across
managers, workspaces, or server restarts.

With ``persist_dir`` set, every *terminal* snapshot is additionally
spilled to ``<persist_dir>/<job_id>.json`` (atomic tmp + rename,
best-effort) and restored on the next boot — a client that submitted
before a restart can still poll its result afterwards, until the same
TTL that governs in-memory eviction expires it.  ``domainnet serve
--snapshot`` points this at the snapshot's ``jobs/`` directory.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from concurrent.futures import CancelledError
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..api.index import HomographIndex
from ..api.requests import DetectRequest

#: Seconds a finished job stays pollable before eviction.
DEFAULT_JOB_TTL = 300.0
#: Jobs (running + finished-but-not-evicted) tracked before submits
#: are refused — the async path must not sidestep the server's
#: bounded-surface discipline into unbounded queueing.
DEFAULT_MAX_JOBS = 1024


class UnknownJobError(KeyError):
    """Raised for ids never issued or already evicted by the TTL."""

    def __str__(self) -> str:
        """Render like a RuntimeError, not KeyError's quoted repr."""
        return self.args[0] if self.args else ""


class JobOverflowError(RuntimeError):
    """Raised by ``submit`` when ``max_jobs`` are already tracked.

    The HTTP layer maps this to a 503 with ``Retry-After`` — the
    caller should poll/evict existing jobs (or just wait) and retry.
    """


class _JobRecord:
    """Internal mutable state of one submitted job."""

    __slots__ = (
        "id", "lake", "request", "future", "top",
        "created_wall", "created", "finished", "payload", "stored",
    )

    def __init__(
        self, job_id, lake, request, future, now, wall, top=None
    ) -> None:
        self.id = job_id
        self.lake = lake
        self.request = request
        self.future = future
        self.top = top          # ranking truncation for the payload
        self.created_wall = wall
        self.created = now      # monotonic, for runtime/TTL math
        self.finished: Optional[float] = None
        self.payload: Optional[Dict[str, object]] = None
        # A snapshot restored from persist_dir after a restart; when
        # set there is no future, and this frozen dict *is* the job.
        self.stored: Optional[Dict[str, object]] = None


class JobManager:
    """Track async detection futures under TTL-evicted job ids.

    Parameters
    ----------
    ttl:
        Seconds a *finished* job (done, error, or cancelled) stays
        pollable.  Eviction is lazy — performed on ``submit``, ``get``
        and ``cancel`` — so no background reaper thread exists to
        leak.
    max_jobs:
        Cap on tracked jobs (queued, running, and finished ones the
        TTL has not evicted yet).  ``submit`` past the cap raises
        :class:`JobOverflowError` instead of queueing without bound.
    clock:
        Monotonic clock, injectable for TTL tests.
    persist_dir:
        Optional directory terminal snapshots are spilled to (one
        ``<job_id>.json`` each, atomic rename) and restored from on
        construction.  Restored jobs obey the same TTL, measured in
        wall-clock time across the restart.  ``None`` (default) keeps
        results purely in memory, as before.

    All methods are thread-safe.
    """

    def __init__(
        self,
        ttl: float = DEFAULT_JOB_TTL,
        max_jobs: int = DEFAULT_MAX_JOBS,
        clock: Callable[[], float] = time.monotonic,
        persist_dir: Optional[Union[str, "os.PathLike"]] = None,
    ) -> None:
        if ttl <= 0:
            # ttl=0 would evict a finished job on the very next
            # sweep, before any poll could read its result.
            raise ValueError(f"job ttl must be > 0, got {ttl!r}")
        self.ttl = ttl
        self.max_jobs = max(1, max_jobs)
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: Dict[str, _JobRecord] = {}
        self._persist_dir: Optional[Path] = None
        if persist_dir is not None:
            self._persist_dir = Path(persist_dir)
            self._persist_dir.mkdir(parents=True, exist_ok=True)
            self._restore()

    @property
    def persist_dir(self) -> Optional[Path]:
        """Where terminal snapshots are spilled, if anywhere."""
        return self._persist_dir

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        lake: str,
        index: HomographIndex,
        request: DetectRequest,
        top: Optional[int] = None,
    ) -> str:
        """Queue ``request`` on ``index``; returns the new job id.

        The job runs through :meth:`HomographIndex.asubmit`, so it
        participates in the score cache and single-flight exactly as
        a synchronous call would.  ``top`` truncates the terminal
        ``response`` payload's ranking, mirroring the synchronous
        route's ``?top=`` knob.  Raises :class:`JobOverflowError`
        when ``max_jobs`` are already tracked, and whatever
        ``asubmit`` raises (e.g. ``RuntimeError`` on a closed index)
        without registering a job.
        """
        self.sweep()
        job_id = uuid.uuid4().hex
        # Cap check and registration share one lock hold, so N racing
        # submits cannot each pass the check and overshoot the bound.
        # The slot is *reserved* (record inserted with no future yet)
        # before asubmit runs outside the lock — a cold asubmit can
        # fork the worker pool, and holding the manager lock across
        # that would stall every concurrent poll/cancel/stats call.
        record = _JobRecord(
            job_id, lake, request, future=None,
            now=self._clock(), wall=time.time(), top=top,
        )
        with self._lock:
            if len(self._jobs) >= self.max_jobs:
                raise JobOverflowError(
                    f"{len(self._jobs)} jobs already tracked (cap "
                    f"{self.max_jobs}); retry after some finish and "
                    f"age out"
                )
            self._jobs[job_id] = record
        try:
            future = index.asubmit(request)
        except BaseException:
            with self._lock:  # roll the reservation back
                self._jobs.pop(job_id, None)
            raise
        record.future = future

        def _stamp_finished(_future) -> None:
            with self._lock:
                record.finished = self._clock()
            # Spill outside the lock: serializing a large response
            # and fsync-renaming it must not stall polls.
            self._persist_terminal(record)

        # Registered outside the lock: an already-finished future runs
        # the callback synchronously, and the callback takes the lock.
        future.add_done_callback(_stamp_finished)
        return job_id

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Dict[str, object]:
        """A JSON-safe snapshot of one job's current state.

        Raises :class:`UnknownJobError` for ids never issued or
        evicted after sitting finished for longer than the TTL.
        """
        self.sweep()
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise UnknownJobError(
                f"no job {job_id!r} (unknown id, or finished more than "
                f"{self.ttl:g}s ago and evicted)"
            )
        return self._snapshot(record)

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Best-effort cancel; returns the post-attempt snapshot.

        A queued job is cancelled (terminal ``error`` state with type
        ``CancelledError``); a running or finished job is left alone —
        cancelling a finished job is an explicit no-op, not an error.
        """
        self.sweep()
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise UnknownJobError(f"no job {job_id!r}")
        if record.future is not None:
            record.future.cancel()
        return self._snapshot(record)

    def ids(self) -> List[str]:
        """Ids of every tracked (not yet evicted) job."""
        with self._lock:
            return list(self._jobs)

    def __len__(self) -> int:
        """Number of tracked jobs."""
        with self._lock:
            return len(self._jobs)

    def stats(self) -> Dict[str, object]:
        """Counters for ``/stats``: jobs per state plus the TTL."""
        with self._lock:
            records = list(self._jobs.values())
        states: Dict[str, int] = {}
        for record in records:
            state = self._state(record)
            states[state] = states.get(state, 0) + 1
        return {"tracked": len(records), "states": states,
                "ttl_seconds": self.ttl, "max_jobs": self.max_jobs}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def sweep(self) -> int:
        """Evict finished jobs older than the TTL; returns the count.

        Eviction also deletes the job's spilled ``<id>.json`` (when
        persistence is on), so the TTL bounds disk growth exactly as
        it bounds memory growth.
        """
        now = self._clock()
        with self._lock:
            expired = [
                job_id
                for job_id, record in self._jobs.items()
                if record.finished is not None
                and now - record.finished > self.ttl
            ]
            for job_id in expired:
                del self._jobs[job_id]
        if self._persist_dir is not None:
            for job_id in expired:
                try:
                    (self._persist_dir / f"{job_id}.json").unlink()
                except OSError:
                    pass
        return len(expired)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Wait for every unfinished job to reach a terminal state.

        Called on server shutdown *after* the index's own close has
        cancelled queued futures, so queued jobs land in their
        cancelled-terminal state rather than hanging a poller forever.
        """
        with self._lock:
            futures = [
                record.future for record in self._jobs.values()
                if record.finished is None and record.future is not None
            ]
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        for future in futures:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            try:
                future.exception(timeout=remaining)
            # CancelledError is a BaseException on stock CPython >= 3.8
            # — it must be named, or a cancel racing the drain would
            # crash the server's shutdown path.
            except CancelledError:
                pass
            except Exception:  # noqa: BLE001 - timed out / failed
                pass

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    @staticmethod
    def _state(record: _JobRecord) -> str:
        if record.stored is not None:  # restored from persist_dir
            return str(record.stored.get("state", "error"))
        future = record.future
        if future is None:  # reservation window inside submit()
            return "queued"
        if future.cancelled():
            return "error"
        if future.done():
            return "error" if future.exception() is not None else "done"
        return "running" if future.running() else "queued"

    def _snapshot(self, record: _JobRecord) -> Dict[str, object]:
        if record.stored is not None:
            # Restored jobs are terminal and frozen: the spilled
            # snapshot is the job, runtime included.
            return dict(record.stored)
        state = self._state(record)
        finished = record.finished
        runtime = (
            (finished if finished is not None else self._clock())
            - record.created
        )
        payload: Dict[str, object] = {
            "id": record.id,
            "lake": record.lake,
            "state": state,
            "measure": record.request.measure,
            "created_at": record.created_wall,
            "runtime_seconds": runtime,
        }
        if state == "done":
            if record.payload is None:
                # Serialized once, then reused by every later poll.
                record.payload = record.future.result().to_dict(
                    top=record.top
                )
            payload["response"] = record.payload
        elif state == "error":
            future = record.future
            if future.cancelled():
                payload["error"] = {
                    "type": "CancelledError",
                    "message": "job was cancelled before it ran",
                }
            else:
                error = future.exception()
                payload["error"] = {
                    "type": type(error).__name__,
                    "message": str(error),
                }
        return payload

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _persist_terminal(self, record: _JobRecord) -> None:
        """Best-effort spill of one finished job to ``persist_dir``.

        Persistence must never take the serving path down: any
        serialization or filesystem failure is swallowed and the job
        simply stays memory-only (its TTL still applies).
        """
        if self._persist_dir is None:
            return
        try:
            data = json.dumps(
                {
                    "job": self._snapshot(record),
                    "finished_wall": time.time(),
                },
                sort_keys=True,
            )
            target = self._persist_dir / f"{record.id}.json"
            tmp = target.with_suffix(".tmp")
            tmp.write_text(data, encoding="utf-8")
            os.replace(tmp, target)
        except Exception:  # noqa: BLE001 - persistence is best-effort
            pass

    def _restore(self) -> None:
        """Rehydrate terminal jobs spilled by a previous process.

        Runs once, from ``__init__`` (no locking needed).  Expired or
        unreadable files are deleted on sight; restore stops at the
        ``max_jobs`` cap so a crashed-in-a-loop server cannot flood
        memory with stale results.
        """
        assert self._persist_dir is not None
        now_wall = time.time()
        for path in sorted(self._persist_dir.glob("*.json")):
            if len(self._jobs) >= self.max_jobs:
                break
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                stored = data["job"]
                job_id = str(stored["id"])
                age = max(0.0, now_wall - float(data["finished_wall"]))
            except (OSError, ValueError, KeyError, TypeError):
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            if age > self.ttl:
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            record = _JobRecord(
                job_id,
                str(stored.get("lake", "")),
                request=None,
                future=None,
                now=self._clock(),
                wall=float(stored.get("created_at", now_wall)),
            )
            # Back-date on the monotonic clock so the ordinary sweep
            # math expires the restored job TTL-minus-age from now.
            record.finished = self._clock() - age
            record.stored = stored
            self._jobs[job_id] = record
