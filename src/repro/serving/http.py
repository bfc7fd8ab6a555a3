"""A stdlib HTTP/JSON front-end over a multi-lake :class:`Workspace`.

PRs 2 and 3 built the engine — parallel kernels, a persistent worker
pool, thread-safe single-flight detection — and PR 4 put one lake on
the network.  This module is the *workspace* surface: one
:class:`ThreadingHTTPServer` hosting many named lakes that share one
worker pool, with namespaced routes, an async job API, HTTP/1.1
keep-alive, gzip ranking pages, and optional bearer-token auth.

Endpoints (all JSON; errors come back as
``{"error": {"status", "code", "message"}}``):

``GET /lakes``
    The mounted lakes: name, table count, and whether it is closed.
``POST /lakes`` / ``DELETE /lakes/<name>``
    Runtime mount/unmount.  The POST body is ``{"name": ...,
    "path": ...}`` where ``path`` is a CSV directory or a snapshot
    directory written by :meth:`HomographIndex.save` (auto-detected;
    snapshots mount in milliseconds via mmap); an optional
    ``"quota"`` (integer >= 1) pins the new lake's admission quota
    atomically with the mount.  201 on success, 409
    ``duplicate-lake`` when the name is taken, 400 for bad payloads,
    unreadable paths, or corrupt snapshots.  DELETE detaches the
    named lake — its index closes and its mmap/shared-memory exports
    are released — without disturbing sibling lakes' in-flight
    requests.
``POST /lakes/<name>/detect``
    Body is a :class:`~repro.api.DetectRequest` payload; the response
    is the full :class:`~repro.api.DetectResponse` payload.  ``?top=K``
    truncates the serialized ranking.  ``?async=1`` returns ``202``
    with a job id instead of blocking (see ``/jobs``).
``GET /lakes/<name>/ranking/<measure>?cursor=&limit=``
    Cursor-paginated ranking pages, gzip-compressed when the client
    sends ``Accept-Encoding: gzip``.
``POST /lakes/<name>/tables`` / ``DELETE /lakes/<name>/tables/<t>``
    Incremental lake mutation, exactly as
    :meth:`HomographIndex.add_table` / ``remove_table`` document.
``GET /lakes/<name>/healthz`` / ``GET /lakes/<name>/stats``
    Per-lake liveness and the index's stats snapshot.
``GET /jobs/<id>`` / ``DELETE /jobs/<id>``
    Poll (``queued``/``running``/``done``/``error`` — the terminal
    ``done`` payload embeds the same ``DetectResponse`` JSON the
    synchronous route returns) or best-effort-cancel an async job.
    Finished jobs are evicted after a TTL; polling later is 404.
``GET /healthz`` / ``GET /stats``
    Service liveness (503 once the workspace closes) and a merged
    snapshot: ``lakes`` (per-lake cache/pool/admission),
    ``workspace`` (shared pool), ``jobs`` and ``http`` blocks.
``GET /version``
    Library / snapshot-format / python / numpy versions — the
    compatibility fingerprint the cluster supervisor compares before
    admitting a replica.  Open (no auth), like ``/healthz``.
``GET /lakes/<name>/oplog?since=N``
    The lake's recorded mutation tail (replication feed), when the
    server was constructed with an ``oplogs`` mapping (the CLI's
    ``serve --record-oplog``); 404 ``no-oplog`` otherwise.

Every lake-scoped route names its lake; any other path is 404
``unknown-route``.

Error surface: 400 malformed request, 401 missing/bad bearer token
(when ``auth_token`` is configured; ``/healthz`` stays open for
probes), 404 unknown lake/measure/table/job/route, 408
``request-timeout`` when a client stalls mid-request-body, 409 closed
index or duplicate table, 411/413 body-length problems, and 503 with
``Retry-After`` when admission is refused — ``over-capacity`` when
the *global* gate is full, ``lake-over-capacity`` (with the lake's
name in the error body) when only the requesting lake's quota is.

Admission is two-level (see :class:`_AdmissionGate`): a global cap of
``max_concurrent`` fresh computations, and a per-lake quota — an
explicit override from :meth:`Workspace.set_quota` / the ``POST
/lakes`` mount option, else the server's ``lake_quota``, else the
derived fair share ``max(1, max_concurrent // n_lakes)`` — so one hot
lake cannot starve its siblings.  *Warm* requests (the response is
cached, or an identical computation is in flight to coalesce onto)
cost no pool work and are admitted through a separate follower lane
ahead of fresh computations under overload.  ``lake_quota=0`` turns
fairness off entirely, restoring the PR-4 single global gate.

Shutdown is a drain, not a kill: :meth:`HomographHTTPServer.drain`
stops accepting connections, shuts down idle keep-alive sockets,
joins every in-flight handler thread (``daemon_threads`` is off on
purpose), then closes the workspace — every index, then the one
shared pool.

Typical embedding (the CLI's ``domainnet serve`` does exactly this)::

    from repro.api.workspace import Workspace
    from repro.serving.http import start_server

    workspace = Workspace(execution=config)
    workspace.attach("zoo", zoo_lake)
    workspace.attach("cars", cars_lake)
    server = start_server(workspace, port=0)    # ephemeral port
    print(server.url)
    ...
    server.drain()              # joins + workspace.close()

To serve an index built elsewhere, mount it first with
:meth:`Workspace.attach_index`.
"""

from __future__ import annotations

import contextlib
import gzip
import hmac
import io
import json
import selectors
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterable, List, Optional, Tuple, Union
from urllib.parse import parse_qs, unquote, urlsplit

from ..api import (
    DetectRequest,
    HomographIndex,
    UnknownMeasureError,
    available_measures,
    check_request,
)
from ..api.workspace import (
    DuplicateLakeError,
    UnknownLakeError,
    Workspace,
    WorkspaceError,
)
from ..datalake.lake import LakeError
from ..datalake.table import Table, TableError
from ..snapshot.store import SnapshotError
from .jobs import (
    DEFAULT_JOB_TTL,
    DEFAULT_MAX_JOBS,
    JobManager,
    JobOverflowError,
    UnknownJobError,
)

#: Default cap on a request body; protects the JSON parser, not disk.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Default concurrent compute requests admitted before 503s start.
DEFAULT_MAX_CONCURRENT = 32
#: Default ``Retry-After`` (seconds) sent with a 503 rejection.
DEFAULT_RETRY_AFTER = 1
#: Default per-connection socket timeout (seconds): a stalled client
#: must not wedge a non-daemon handler thread forever.
DEFAULT_REQUEST_TIMEOUT = 60.0
#: Default (and maximum) ``limit`` for ranking pages.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 10_000
#: Query values accepted as "true" for the ``async`` flag.
_TRUTHY = {"1", "true", "yes", "on"}


class _HTTPProblem(Exception):
    """An error that maps directly onto a structured HTTP response."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: Optional[int] = None,
        lake: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after
        self.lake = lake


class _Admission:
    """One granted admission slot; hand it back to the gate's release."""

    __slots__ = ("lake", "follower")

    def __init__(self, lake: str, follower: bool) -> None:
        self.lake = lake
        self.follower = follower


class _AdmissionGate:
    """Two-level bounded admission: a global cap plus per-lake quotas.

    Plain counters under one lock (not semaphores) so occupancy stays
    observable for ``/stats`` and rejections never block a handler
    thread.  Admission for a *fresh* computation requires both levels:

    * global — at most ``limit`` fresh computations in flight;
    * per lake — at most the lake's *effective quota* of them, which
      is the explicit per-lake override when one is set, else the
      gate-wide ``lake_quota``, else the derived fair share
      ``max(1, limit // n_lakes)``.

    A global rejection answers ``over-capacity``; a quota rejection
    answers ``lake-over-capacity`` with the lake's name, so a client
    hammering one lake learns *its* lake is the problem while
    siblings keep serving.  The global check runs first: when both
    levels are saturated the answer is the service-wide condition.

    *Warm* requests — the caller proved the response is cached or
    coalescible onto an in-flight computation — cost no pool work, so
    under overload they are admitted ahead of fresh computations
    through a separate follower lane (its own ``limit``-sized bound,
    only there to cap handler threads).  ``lake_quota=0`` disables
    fairness *and* the follower lane: one global gate over every
    request, exactly the pre-quota behavior (the load harness uses it
    as the starvation control).
    """

    def __init__(
        self, limit: int, lake_quota: Optional[int] = None
    ) -> None:
        self.limit = max(1, limit)
        self.lake_quota = lake_quota
        self._lock = threading.Lock()
        self._fresh = 0
        self._followers = 0
        self._lake_fresh: Dict[str, int] = {}
        self._lake_rejected: Dict[str, int] = {}
        self._rejected_global = 0
        self._admitted_followers = 0

    @property
    def fair(self) -> bool:
        """Whether per-lake quotas (and the follower lane) are on."""
        return self.lake_quota != 0

    def effective_quota(
        self, n_lakes: int, override: Optional[int] = None
    ) -> Optional[int]:
        """The quota one lake is held to right now (``None`` = off).

        Resolution order: the lake's explicit ``override``, else the
        gate-wide ``lake_quota``, else the derived share
        ``max(1, limit // n_lakes)`` — the floor of one slot
        guarantees every mounted lake can always make progress.
        """
        if not self.fair:
            return None
        if override is not None:
            return max(1, override)
        if self.lake_quota is not None:
            return max(1, self.lake_quota)
        return max(1, self.limit // max(1, n_lakes))

    def try_acquire(
        self,
        lake: str,
        n_lakes: int = 1,
        quota: Optional[int] = None,
        warm: bool = False,
    ) -> Union[_Admission, str]:
        """Claim a slot without blocking.

        Returns an :class:`_Admission` token (pass it to
        :meth:`release`) or the rejection scope: ``"global"`` when
        the global cap is exhausted, ``"lake"`` when only this lake's
        quota is.  ``quota`` is the lake's explicit override (or
        ``None``); ``warm`` routes the request through the follower
        lane when fairness is on.
        """
        with self._lock:
            if warm and self.fair:
                if self._followers < self.limit:
                    self._followers += 1
                    self._admitted_followers += 1
                    return _Admission(lake, follower=True)
                # Lane full (pathological): fall through to the
                # fresh-computation rules rather than fail outright.
            if self._fresh >= self.limit:
                self._rejected_global += 1
                return "global"
            effective = self.effective_quota(n_lakes, quota)
            if (
                effective is not None
                and self._lake_fresh.get(lake, 0) >= effective
            ):
                self._lake_rejected[lake] = (
                    self._lake_rejected.get(lake, 0) + 1
                )
                return "lake"
            self._fresh += 1
            self._lake_fresh[lake] = self._lake_fresh.get(lake, 0) + 1
            return _Admission(lake, follower=False)

    def release(self, admission: _Admission) -> None:
        """Return the slot claimed by :meth:`try_acquire`."""
        with self._lock:
            if admission.follower:
                self._followers -= 1
                return
            self._fresh -= 1
            remaining = self._lake_fresh.get(admission.lake, 0) - 1
            if remaining <= 0:
                # Drop zeroed entries so detached lakes do not pin
                # dict slots forever on a long-lived server.
                self._lake_fresh.pop(admission.lake, None)
            else:
                self._lake_fresh[admission.lake] = remaining

    @property
    def in_flight(self) -> int:
        """Requests currently holding a slot (fresh + followers)."""
        with self._lock:
            return self._fresh + self._followers

    @property
    def rejected(self) -> int:
        """Total rejections, both scopes (``http.rejected``)."""
        with self._lock:
            return (
                self._rejected_global
                + sum(self._lake_rejected.values())
            )

    def stats(
        self, lake_quotas: Dict[str, Optional[int]]
    ) -> Dict[str, object]:
        """The ``gate`` block of ``GET /stats``.

        ``lake_quotas`` maps every *mounted* lake to its explicit
        override (or ``None``); lakes that were detached after
        accruing counters stay listed so their rejection history
        remains visible.
        """
        n_lakes = max(1, len(lake_quotas))
        with self._lock:
            names = (
                set(lake_quotas)
                | set(self._lake_fresh)
                | set(self._lake_rejected)
            )
            lakes = {
                name: {
                    "in_flight": self._lake_fresh.get(name, 0),
                    "quota": self.effective_quota(
                        n_lakes, lake_quotas.get(name)
                    ),
                    "rejected": self._lake_rejected.get(name, 0),
                }
                for name in sorted(names)
            }
            return {
                "limit": self.limit,
                "lake_quota": self.lake_quota,
                "fair": self.fair,
                "in_flight": self._fresh + self._followers,
                "fresh_in_flight": self._fresh,
                "followers_in_flight": self._followers,
                "admitted_followers": self._admitted_followers,
                "rejected_global": self._rejected_global,
                "lakes": lakes,
            }


class DrainingThreadingHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` with keep-alive-aware draining.

    The transport plumbing PR 4/5 hardened for the workspace server,
    extracted so other front-ends (the cluster router) inherit it
    verbatim: non-daemon handler threads joined on close, idle
    keep-alive sockets tracked and shut down on drain, a race-free
    ``serve_forever``/``drain`` handshake, and a background accept
    loop.  Subclasses call :meth:`_drain_transport` from their own
    ``drain`` and hang their payload teardown after it.
    """

    # Handler threads are joined on server_close(): a drain must wait
    # for in-flight requests instead of abandoning them mid-response.
    daemon_threads = False
    allow_reuse_address = True
    # socketserver's default listen backlog is 5; a burst of
    # concurrent clients dialing at once (the load harness spawns its
    # whole worker fleet simultaneously) overflows that and surfaces
    # as connection resets on first write.  The kernel caps this at
    # net.core.somaxconn, so a large value is safe everywhere.
    request_queue_size = 128
    #: Name of the background accept-loop thread.
    background_thread_name = "homograph-http"

    def __init__(
        self,
        address: Tuple[str, int],
        handler_class,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        quiet: bool = True,
    ) -> None:
        if not request_timeout or request_timeout <= 0:
            raise ValueError(
                f"invalid request_timeout {request_timeout!r}: "
                "expected a positive number of seconds"
            )
        super().__init__(address, handler_class)
        self.request_timeout = request_timeout
        self.quiet = quiet
        self._loop_started = threading.Event()
        self._draining = False
        self._drain_lock = threading.Lock()
        self._idle_lock = threading.Lock()
        self._idle_sockets: set = set()
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        """Base URL of the bound socket (useful with port 0)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # Keep-alive bookkeeping
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` has started."""
        with self._drain_lock:
            return self._draining

    def track_idle(self, connection) -> bool:
        """Register a keep-alive socket about to wait for a request.

        Returns ``False`` when the server is draining — the handler
        must close instead of reading, or it would hold the drain's
        thread-join hostage until the socket timeout.
        """
        with self._idle_lock:
            if self._draining:
                return False
            self._idle_sockets.add(connection)
            return True

    def untrack_idle(self, connection) -> None:
        """Unregister a socket that got a request (or hit EOF)."""
        with self._idle_lock:
            self._idle_sockets.discard(connection)

    def _shutdown_idle_sockets(self) -> None:
        """Wake idle keep-alive readers so their threads can exit."""
        with self._idle_lock:
            idle = list(self._idle_sockets)
        for connection in idle:
            with contextlib.suppress(OSError):
                connection.shutdown(socket.SHUT_RDWR)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Run the accept loop; returns after :meth:`drain`/``shutdown``.

        The started-flag flip and the draining check share the drain
        lock: either a racing :meth:`drain` sees the flag and waits
        for the loop via ``shutdown()``, or this call sees the drain
        and never touches the (already closed) socket.
        """
        with self._drain_lock:
            if self._draining:
                return
            self._loop_started.set()
        super().serve_forever(poll_interval)

    def start_background(self) -> "DrainingThreadingHTTPServer":
        """Run :meth:`serve_forever` on a daemon thread; returns self."""
        thread = threading.Thread(
            target=self.serve_forever,
            name=self.background_thread_name,
            daemon=True,
        )
        self._thread = thread
        thread.start()
        return self

    def _drain_transport(self) -> None:
        """Stop accepting, wake idle sockets, join every handler thread.

        Safe to call from any thread and idempotent; subclasses'
        ``drain`` methods run their payload teardown after this
        returns (every in-flight response has been delivered by then).
        """
        with self._drain_lock:
            already = self._draining
            self._draining = True
        if not already:
            self._shutdown_idle_sockets()
            if self._loop_started.is_set():
                self.shutdown()
            self.server_close()
        if self._thread is not None and self._thread is not \
                threading.current_thread():
            self._thread.join()

    def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, close."""
        self._drain_transport()

    def __enter__(self) -> "DrainingThreadingHTTPServer":
        """Enter a ``with`` block; the server itself is the target."""
        return self

    def __exit__(self, *exc) -> None:
        """Drain on ``with``-block exit."""
        self.drain()


class HomographHTTPServer(DrainingThreadingHTTPServer):
    """The serving front-end; see the module docstring for the API.

    Parameters
    ----------
    workspace:
        The :class:`~repro.api.Workspace` of lakes every handler
        thread queries.  The server *owns* the workspace lifecycle
        by default: :meth:`drain` closes it (pass
        ``close_index=False`` to keep it).
    address:
        ``(host, port)`` to bind; port ``0`` picks an ephemeral port
        (read it back from :attr:`url` / ``server_address``).
    max_body_bytes / max_concurrent / retry_after:
        The protocol limits documented in the module docstring.
    lake_quota:
        Per-lake cap on concurrently admitted fresh computations.
        ``None`` (default) derives each lake's fair share of the
        global gate — ``max(1, max_concurrent // n_lakes)``,
        re-derived as lakes mount and unmount; an explicit integer
        pins every lake (per-lake overrides from
        :meth:`Workspace.set_quota` or the ``POST /lakes`` mount
        option still win); ``0`` disables per-lake fairness entirely,
        restoring the single global gate.
    request_timeout:
        Per-connection socket timeout in seconds.  A client that
        stalls mid-request-body gets a 408 ``request-timeout`` and
        its connection closed instead of wedging a handler thread
        (and, between requests, the idle keep-alive wait uses the
        same bound).
    auth_token:
        When set, every route except ``GET /healthz`` requires
        ``Authorization: Bearer <token>``; failures are structured
        401 responses.
    job_ttl / max_jobs:
        Seconds a finished async job stays pollable at
        ``GET /jobs/<id>`` before eviction, and the cap on tracked
        jobs (submits past it are 503s with ``Retry-After``).
    job_dir:
        Optional directory finished async-job payloads are spilled
        to and restored from across restarts (see
        :class:`~repro.serving.jobs.JobManager`); ``domainnet serve
        --snapshot`` points it at the snapshot's ``jobs/`` directory.
    oplogs:
        Optional mapping of lake name to a mutation log (duck-typed;
        the cluster package's :class:`~repro.cluster.MutationLog`).
        When a lake has one, every applied table add or remove is
        recorded to it *atomically with the mutation* (the log's lock
        brackets both), the mutation response gains an
        ``"oplog_seq"`` field, and ``GET /lakes/<name>/oplog`` serves
        the recorded entries to replicas; lakes without one answer
        404 ``no-oplog`` there.  The logs are closed on
        :meth:`drain`.
    """

    def __init__(
        self,
        workspace: Workspace,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        max_concurrent: int = DEFAULT_MAX_CONCURRENT,
        retry_after: int = DEFAULT_RETRY_AFTER,
        quiet: bool = True,
        auth_token: Optional[str] = None,
        job_ttl: float = DEFAULT_JOB_TTL,
        max_jobs: int = DEFAULT_MAX_JOBS,
        job_dir: Optional[str] = None,
        lake_quota: Optional[int] = None,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        oplogs: Optional[Dict[str, object]] = None,
    ) -> None:
        if not isinstance(workspace, Workspace):
            raise TypeError(
                f"the server hosts a Workspace, not a "
                f"{type(workspace).__name__}; mount an index with "
                f"Workspace.attach_index(name, index) first"
            )
        if lake_quota is not None and (
            isinstance(lake_quota, bool)
            or not isinstance(lake_quota, int)
            or lake_quota < 0
        ):
            raise ValueError(
                f"invalid lake_quota {lake_quota!r}: expected None, "
                "0 (fairness off), or an integer >= 1"
            )
        super().__init__(
            address,
            HomographRequestHandler,
            request_timeout=request_timeout,
            quiet=quiet,
        )
        self.workspace = workspace
        self.jobs = JobManager(
            ttl=job_ttl, max_jobs=max_jobs, persist_dir=job_dir
        )
        self.max_body_bytes = max_body_bytes
        self.retry_after = retry_after
        self.auth_token = auth_token
        self.oplogs: Dict[str, object] = dict(oplogs or {})
        self.gate = _AdmissionGate(max_concurrent, lake_quota=lake_quota)
        self._served = 0
        self._errors = 0
        self._counters_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def count(self, ok: bool) -> None:
        """Record one completed response for ``/stats``."""
        with self._counters_lock:
            if ok:
                self._served += 1
            else:
                self._errors += 1

    def http_stats(self) -> Dict[str, object]:
        """HTTP-layer counters (the ``http`` block of ``GET /stats``).

        ``rejected`` totals both rejection scopes; ``gate`` breaks
        admission down per lake — occupancy, effective quota, and
        rejections — plus the follower-lane counters.
        """
        with self._counters_lock:
            served, errors = self._served, self._errors
        workspace = self.workspace
        quotas = {
            name: workspace.quota(name) for name in workspace.names()
        }
        return {
            "served": served,
            "errors": errors,
            "rejected": self.gate.rejected,
            "in_flight": self.gate.in_flight,
            "max_concurrent": self.gate.limit,
            "max_body_bytes": self.max_body_bytes,
            "auth": self.auth_token is not None,
            "gate": self.gate.stats(quotas),
        }

    def oplog_for(self, lake_name: str):
        """The mutation log recording ``lake_name`` (or ``None``)."""
        return self.oplogs.get(lake_name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, close_index: bool = True) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, close.

        Safe to call from any thread and idempotent.  Steps: stop the
        accept loop, shut down idle keep-alive sockets (their handler
        threads see EOF and exit), close the listening socket and join
        every in-flight handler thread (their responses are delivered,
        not cut), then close the workspace — every index drains its
        admitted ``detect`` calls, queued async jobs land in their
        cancelled terminal state, and the shared worker pool plus its
        shared-memory segments are released last.  Pass
        ``close_index=False`` to keep the workspace (and its indexes)
        alive for reuse.
        """
        self._drain_transport()
        # No handler can be recording once the transport is drained;
        # close the oplogs before (possibly) republishing snapshots.
        for log in self.oplogs.values():
            close = getattr(log, "close", None)
            if close is not None:
                close()
        # Not gated on first-drain: a first drain(close_index=False)
        # must not turn a later drain(close_index=True) into a leak.
        # workspace.close() and jobs.drain() are both idempotent.
        if close_index:
            self.workspace.close()
            # Queued jobs were cancelled by the workspace close; wait
            # for stragglers so their snapshots are terminal.
            self.jobs.drain(timeout=30.0)


def start_server(
    workspace: Workspace,
    host: str = "127.0.0.1",
    port: int = 0,
    **options,
) -> HomographHTTPServer:
    """Construct a server and run its accept loop in the background.

    The accept loop runs on a daemon thread; the returned server is
    already reachable at ``server.url``.  Call
    :meth:`HomographHTTPServer.drain` (or use the server as a context
    manager) to stop it and close the workspace.
    """
    server = HomographHTTPServer(workspace, (host, port), **options)
    return server.start_background()


class KeepAliveRequestHandler(BaseHTTPRequestHandler):
    """Keep-alive handler plumbing shared by the serving front-ends.

    Pairs with :class:`DrainingThreadingHTTPServer`: one thread per
    connection serving its whole keep-alive lifetime, idle waits
    registered with the server so a drain can cut them, and the
    pipelining/buffered-bytes corner cases handled once.  Every
    response leaves through :meth:`_send_response` — status line,
    headers and body in one write on a ``TCP_NODELAY`` socket.
    Subclasses implement the ``do_*`` verbs.
    """

    # HTTP/1.1 with keep-alive: every response carries an exact
    # Content-Length (errors included), so one connection can carry
    # many requests.  Idle connections are tracked with the server
    # and shut down on drain — joining handler threads never waits on
    # an idle socket.
    protocol_version = "HTTP/1.1"
    # Per-connection socket timeout: a stalled client (headers sent,
    # body never arriving) must not wedge a non-daemon handler thread
    # forever — drain() joins them all.  setup() replaces this class
    # fallback with the server's configured request_timeout.
    timeout = DEFAULT_REQUEST_TIMEOUT
    # TCP_NODELAY on every accepted socket (StreamRequestHandler.setup
    # applies it).  With Nagle on, a write that follows an unacked one
    # waits for the client's delayed ACK (~40 ms on Linux): a response
    # right behind a pipelined one, or any write split in two.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        """Apply the server's request timeout before the socket setup.

        ``StreamRequestHandler.setup`` reads ``self.timeout`` (and
        ``disable_nagle_algorithm``) when it configures the
        connection, so the override must land first.
        """
        self.timeout = self.server.request_timeout
        super().setup()

    # -- responses -----------------------------------------------------
    def _send_response(
        self,
        status: int,
        headers: Iterable[Tuple[str, str]],
        body: bytes,
    ) -> None:
        """Send one whole response — status, headers, body — in one write.

        The status line and headers go through the stdlib
        ``send_response``/``send_header`` (which buffer them); the
        buffer is then joined with the body instead of being flushed
        on its own by ``end_headers``.
        """
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        head = b""
        if self.request_version != "HTTP/0.9":
            # What end_headers() would flush: the buffered header
            # lines and the blank line ending them.
            head = b"".join(self._headers_buffer) + b"\r\n"
        self._headers_buffer = []
        self.wfile.write(head + body)

    def _accepts_gzip(self) -> bool:
        """Whether the request advertised ``Accept-Encoding: gzip``.

        Honors q-values: ``gzip;q=0`` is an explicit refusal, not an
        acceptance.
        """
        raw = self.headers.get("Accept-Encoding", "")
        for token in raw.split(","):
            name, _, params = token.partition(";")
            if name.strip().lower() not in ("gzip", "x-gzip"):
                continue
            quality = 1.0
            for param in params.split(";"):
                key, _, value = param.partition("=")
                if key.strip().lower() == "q":
                    try:
                        quality = float(value.strip())
                    except ValueError:
                        quality = 0.0
            if quality > 0.0:
                # Any acceptable gzip-family token wins; keep
                # scanning past refused aliases ('x-gzip;q=0, gzip').
                return True
        return False

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        extra_headers: Optional[Dict[str, str]] = None,
        compress: bool = False,
    ) -> None:
        """Send ``payload`` as JSON, gzip'd if ``compress`` and accepted."""
        self._send_body(
            status, json.dumps(payload, sort_keys=True).encode("utf-8"),
            extra_headers, compress,
        )

    def _send_body(
        self,
        status: int,
        body: bytes,
        extra_headers: Optional[Dict[str, str]] = None,
        compress: bool = False,
    ) -> None:
        """Send encoded JSON ``body``, gzip'd if ``compress`` and accepted."""
        headers = {"Content-Type": "application/json"}
        headers.update(extra_headers or {})
        if compress:
            # Negotiated compression: the uncompressed shape stays
            # available to clients that did not ask for gzip.
            headers.setdefault("Vary", "Accept-Encoding")
            if self._accepts_gzip():
                buffer = io.BytesIO()
                # mtime=0 keeps equal payloads byte-identical.
                with gzip.GzipFile(
                    fileobj=buffer, mode="wb", mtime=0
                ) as stream:
                    stream.write(body)
                body = buffer.getvalue()
                headers["Content-Encoding"] = "gzip"
        self._send_response(status, headers.items(), body)

    def _send_problem(self, problem: _HTTPProblem) -> None:
        """Send ``problem`` as the structured error body and close."""
        headers = {}
        if problem.retry_after is not None:
            headers["Retry-After"] = str(problem.retry_after)
        if problem.status == 401:
            headers["WWW-Authenticate"] = "Bearer"
        # An errored request may leave an unread body on the socket
        # (auth failures, unknown routes); reusing the connection
        # would parse those bytes as the next request line.  Close it.
        self.close_connection = True
        headers["Connection"] = "close"
        error: Dict[str, object] = {
            "status": problem.status,
            "code": problem.code,
            "message": problem.message,
        }
        if problem.lake is not None:
            error["lake"] = problem.lake
        self._send_json(
            problem.status, {"error": error}, extra_headers=headers
        )

    # -- plumbing ------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        """Route access logs through the server's quiet flag."""
        if not self.server.quiet:
            super().log_message(format, *args)

    def handle(self) -> None:
        """Serve the connection's requests until close or drain.

        Between requests the socket is registered with the server as
        *idle* so :meth:`HomographHTTPServer.drain` can shut it down;
        it is unregistered the moment request bytes arrive, so a
        drain never cuts a request that is already being processed —
        its handler thread is simply joined and the response
        delivered.
        """
        self.close_connection = True
        self.handle_one_request()
        if self.close_connection:
            return
        # One selector per connection, registered once: the idle wait
        # runs between every keep-alive request, so per-wait selector
        # construction would churn a kernel object per request.
        # selectors (poll/epoll) rather than select.select, which
        # raises on fds past FD_SETSIZE under many connections.
        try:
            selector = selectors.DefaultSelector()
        except OSError:  # pragma: no cover - fd exhaustion
            return
        try:
            selector.register(self.connection, selectors.EVENT_READ)
        except (OSError, ValueError):  # pragma: no cover - closed
            selector.close()
            return
        try:
            while not self.close_connection:
                if not self.server.track_idle(self.connection):
                    break  # draining: do not start another idle read
                try:
                    ready = self._await_request(selector)
                finally:
                    self.server.untrack_idle(self.connection)
                if not ready:
                    break
                self.handle_one_request()
        finally:
            selector.close()

    def _await_request(self, selector) -> bool:
        """Block until the idle socket has request bytes (or dies).

        Returns ``False`` when the connection should close instead:
        the idle timeout expired, the socket failed, or a drain shut
        it down (which makes it readable — the subsequent read sees
        EOF and closes cleanly, so readability is returned as
        ``True`` there).
        """
        if self._has_buffered_bytes():
            return True
        try:
            return bool(selector.select(self.timeout))
        except (OSError, ValueError):  # closed under us
            return False

    def _has_buffered_bytes(self) -> bool:
        """Whether ``rfile`` already buffered part of the next request.

        A pipelining client can put two requests in one segment; the
        buffered reader then over-reads the second one, and the raw
        socket never turns readable for ``select``.  Peek with the
        socket briefly non-blocking so an empty buffer answers
        ``False`` instead of blocking.
        """
        try:
            self.connection.settimeout(0)
            try:
                return bool(self.rfile.peek(1))
            finally:
                self.connection.settimeout(self.timeout)
        except (BlockingIOError, InterruptedError):
            return False
        except (OSError, ValueError):  # closed under us
            return False


class HomographRequestHandler(KeepAliveRequestHandler):
    """Routes one HTTP request onto the shared workspace.

    Instantiated per connection by :class:`HomographHTTPServer` (one
    thread each, serving the connection's whole keep-alive lifetime);
    every route is a small parse step around an index call, with
    failures normalized into :class:`_HTTPProblem`.
    """

    server_version = "DomainNetServe/2.0"

    def _send_response(
        self,
        status: int,
        headers: Iterable[Tuple[str, str]],
        body: bytes,
    ) -> None:
        """Count the response in ``/stats``, then send it."""
        # Count before the bytes leave: a client that reads this
        # response and immediately asks /stats must see it counted.
        self.server.count(ok=status < 400)
        super()._send_response(status, headers, body)

    def _read_json_body(self) -> Dict[str, object]:
        """Read and parse the request body, enforcing the size cap."""
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length)
        except (TypeError, ValueError):
            raise _HTTPProblem(
                411, "length-required",
                "request must carry a Content-Length header",
            ) from None
        if length < 0:
            # rfile.read(-1) would block until the client hangs up.
            raise _HTTPProblem(
                400, "malformed-json",
                f"invalid Content-Length {length}",
            )
        if length > self.server.max_body_bytes:
            # Drain (a bounded amount of) the oversized body first so
            # the client can finish sending and read the 413 instead
            # of hitting a connection reset mid-upload.
            remaining = min(length, 1 << 20)
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
            raise _HTTPProblem(
                413, "body-too-large",
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_body_bytes}-byte limit",
            )
        body = self.rfile.read(length) if length else b""
        self._body_consumed = True
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HTTPProblem(
                400, "malformed-json",
                f"request body is not valid JSON: {error}",
            ) from None
        if not isinstance(payload, dict):
            raise _HTTPProblem(
                400, "malformed-json",
                "request body must be a JSON object",
            )
        return payload

    def _authorize(self, segments: List[str]) -> None:
        """Enforce bearer-token auth when the server has a token.

        ``GET /healthz`` and ``GET /version`` stay open so liveness
        probes and the supervisor's compatibility check keep working
        without credentials.
        """
        token = self.server.auth_token
        if token is None or segments in (["healthz"], ["version"]):
            return
        supplied = self.headers.get("Authorization", "")
        expected = f"Bearer {token}"
        if not hmac.compare_digest(
            supplied.encode("utf-8"), expected.encode("utf-8")
        ):
            raise _HTTPProblem(
                401, "unauthorized",
                "missing or invalid bearer token; send "
                "'Authorization: Bearer <token>'",
            )

    @staticmethod
    def _check_open(index: HomographIndex) -> None:
        if index.closed:
            raise _HTTPProblem(
                409, "index-closed",
                "the index has been closed; the service is draining",
            )

    def _admit(
        self, lake_name: str, warm: bool
    ) -> _Admission:
        """Claim an admission slot or fail with 503 + Retry-After.

        ``warm`` (the caller probed :meth:`HomographIndex.is_warm`)
        routes the request through the gate's follower lane — cached
        or coalescible responses are admitted ahead of fresh
        computations under overload.  A global rejection answers
        ``over-capacity``; a quota rejection answers
        ``lake-over-capacity``.  Both name the lake in the body.
        """
        workspace = self.server.workspace
        gate = self.server.gate
        outcome = gate.try_acquire(
            lake_name,
            n_lakes=len(workspace),
            quota=workspace.quota(lake_name),
            warm=warm,
        )
        if isinstance(outcome, _Admission):
            return outcome
        if outcome == "lake":
            quota = gate.effective_quota(
                max(1, len(workspace)), workspace.quota(lake_name)
            )
            raise _HTTPProblem(
                503, "lake-over-capacity",
                f"lake {lake_name!r} is over its quota of {quota} "
                f"concurrent computation(s); sibling lakes are "
                f"unaffected",
                retry_after=self.server.retry_after,
                lake=lake_name,
            )
        raise _HTTPProblem(
            503, "over-capacity",
            f"all {gate.limit} compute slots are busy",
            retry_after=self.server.retry_after,
            lake=lake_name,
        )

    @staticmethod
    def _check_request(request: DetectRequest) -> None:
        """Refuse an unknown measure (404) or options it rejects (400)."""
        try:
            check_request(request)
        except UnknownMeasureError:
            raise _HTTPProblem(
                404, "unknown-measure",
                f"unknown measure {request.measure!r}; available: "
                f"{', '.join(available_measures())}",
            ) from None
        except (TypeError, ValueError) as error:
            raise _HTTPProblem(
                400, "invalid-request",
                f"invalid options for measure {request.measure!r}: "
                f"{error}",
            ) from None

    def _detect(
        self,
        lake_name: str,
        index: HomographIndex,
        request: DetectRequest,
    ):
        """Run one admitted detection, mapping index errors to HTTP."""
        self._check_request(request)
        self._check_open(index)
        admission = self._admit(lake_name, warm=index.is_warm(request))
        try:
            return index.detect(request)
        except RuntimeError as error:
            if index.closed:
                raise _HTTPProblem(
                    409, "index-closed", str(error)
                ) from None
            raise
        finally:
            self.server.gate.release(admission)

    # -- routing -------------------------------------------------------
    def _discard_unread_body(self) -> None:
        """Drain a request body no handler read, keeping framing valid.

        A GET/DELETE may legally carry a body; if nobody consumed it,
        its bytes would be parsed as the next request line on this
        keep-alive connection.  Small leftovers are read and dropped;
        oversized or chunked ones just close the connection.
        """
        if self.close_connection or self._body_consumed:
            return
        if self.headers.get("Transfer-Encoding"):
            self.close_connection = True  # framing we do not speak
            return
        try:
            remaining = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            self.close_connection = True
            return
        if remaining <= 0:
            return
        if remaining > 1 << 20:
            self.close_connection = True  # not worth draining
            return
        try:
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
        except OSError:
            # The response already went out; never raise past here —
            # a second (error) response would corrupt the stream.
            self.close_connection = True

    def _route(self, method: str) -> None:
        parts = urlsplit(self.path)
        # Split on raw slashes first, then percent-decode each
        # segment: clients quote() names (tables, measures, job ids),
        # and an encoded %2F stays inside its segment.
        segments = [
            unquote(s) for s in parts.path.split("/") if s
        ]
        query = parse_qs(parts.query)
        self._body_consumed = False
        try:
            self._authorize(segments)
            self._dispatch(method, segments, query)
            self._discard_unread_body()
        except _HTTPProblem as problem:
            # The client may have hung up while its request was being
            # rejected (a stalled body closed under us reads as
            # malformed): deliver the verdict best-effort, never let
            # the failed delivery escape as a second error.
            try:
                self._send_problem(problem)
            except (ConnectionError, TimeoutError, OSError):
                self.close_connection = True
        except ConnectionError:  # pragma: no cover - client went away
            self.close_connection = True  # broken pipe: stop reusing
        except TimeoutError:
            # The client stalled mid-request (body bytes never came).
            # Its *receive* side may still be reading: attempt a 408
            # so it learns why, but never let a second socket error
            # escape — the connection closes either way.
            try:
                self._send_problem(_HTTPProblem(
                    408, "request-timeout",
                    f"no request bytes for {self.timeout:g}s; "
                    f"closing the connection",
                ))
            except (ConnectionError, TimeoutError, OSError):
                self.close_connection = True
        except Exception as error:  # noqa: BLE001 - last-resort mapping
            # The connection may already be half-written or dead (e.g.
            # the failure *was* a mid-response disconnect): attempt the
            # 500, but never let a second write error escape into
            # socketserver's stderr traceback path.
            try:
                self._send_problem(_HTTPProblem(
                    500, "internal-error",
                    f"{type(error).__name__}: {error}",
                ))
            except (ConnectionError, TimeoutError, OSError):
                self.close_connection = True  # pragma: no cover

    def _dispatch(self, method: str, segments: List[str], query) -> None:
        """The one route table: global, ``/lakes``, ``/jobs``."""
        head = segments[0] if segments else ""
        if head == "healthz" and len(segments) == 1:
            if method != "GET":
                raise self._unknown_route(method, segments)
            return self._handle_healthz()
        if head == "stats" and len(segments) == 1:
            if method != "GET":
                raise self._unknown_route(method, segments)
            return self._handle_stats()
        if head == "version" and len(segments) == 1:
            if method != "GET":
                raise self._unknown_route(method, segments)
            return self._handle_version()
        if head == "lakes":
            if len(segments) == 1:
                if method == "GET":
                    return self._handle_lakes()
                if method == "POST":
                    return self._handle_mount_lake()
                raise self._unknown_route(method, segments)
            name, rest = segments[1], segments[2:]
            if method == "DELETE" and not rest:
                return self._handle_unmount_lake(name)
            return self._lake_route(method, name, rest, query)
        if head == "jobs":
            if len(segments) != 2:
                raise self._unknown_route(method, segments)
            if method == "GET":
                return self._handle_job_poll(segments[1])
            if method == "DELETE":
                return self._handle_job_cancel(segments[1])
        raise self._unknown_route(method, segments)

    @staticmethod
    def _unknown_route(method: str, segments: List[str]) -> _HTTPProblem:
        return _HTTPProblem(
            404, "unknown-route",
            f"no such endpoint: {method} /{'/'.join(segments)}",
        )

    def _resolve_lake(self, name: str) -> HomographIndex:
        """Map a lake name to its index, or 404 ``unknown-lake``."""
        workspace = self.server.workspace
        try:
            return workspace.get(name)
        except UnknownLakeError:
            raise _HTTPProblem(
                404, "unknown-lake",
                f"no lake named {name!r}; mounted: "
                f"{', '.join(workspace.names()) or '(none)'}",
            ) from None

    def _lake_route(
        self, method: str, lake_name: str, rest: List[str], query
    ) -> None:
        """Dispatch one ``/lakes/<name>/...`` operation."""
        index = self._resolve_lake(lake_name)
        head = rest[0] if rest else ""
        if method == "POST" and rest == ["detect"]:
            return self._handle_detect(lake_name, index, query)
        if method == "GET" and head == "ranking" and len(rest) == 2:
            return self._handle_ranking(lake_name, index, rest[1], query)
        if method == "POST" and rest == ["tables"]:
            return self._handle_add_table(lake_name, index)
        if method == "DELETE" and head == "tables" and len(rest) == 2:
            return self._handle_remove_table(lake_name, index, rest[1])
        if method == "GET" and rest == ["oplog"]:
            return self._handle_oplog(lake_name, query)
        if method == "GET" and rest == ["healthz"]:
            return self._handle_lake_healthz(lake_name, index)
        if method == "GET" and rest == ["stats"]:
            return self._send_json(200, index.stats())
        raise self._unknown_route(method, ["lakes", lake_name, *rest])

    # -- global routes -------------------------------------------------
    def _handle_healthz(self) -> None:
        workspace = self.server.workspace
        if workspace.closed:
            self._send_json(503, {"status": "closed"})
            return
        self._send_json(
            200, {"status": "ok", "lakes": list(workspace.names())}
        )

    def _handle_stats(self) -> None:
        """Merged snapshot: per-lake, workspace, jobs and http blocks."""
        workspace_stats = self.server.workspace.stats()
        self._send_json(200, {
            "lakes": workspace_stats["lakes"],
            "workspace": {
                "closed": workspace_stats["closed"],
                "pool": workspace_stats["pool"],
            },
            "jobs": self.server.jobs.stats(),
            "http": self.server.http_stats(),
        })

    def _handle_version(self) -> None:
        """``GET /version``: everything a replica must agree on.

        The cluster supervisor compares these payloads across its
        fleet and refuses to mix incompatible replicas — a library or
        snapshot-format skew between replicas would silently break
        the bit-identical-convergence contract.
        """
        import platform

        import numpy

        from .. import __version__
        from ..snapshot.store import FORMAT_VERSION

        self._send_json(200, {
            "library": __version__,
            "snapshot_format": FORMAT_VERSION,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "server": self.server_version,
        })

    def _handle_lakes(self) -> None:
        workspace = self.server.workspace
        lakes = []
        for name in workspace.names():
            try:
                index = workspace.get(name)
            except UnknownLakeError:  # pragma: no cover - detach race
                continue
            lakes.append({
                "name": name,
                "tables": len(index.lake),
                "closed": index.closed,
            })
        self._send_json(200, {"lakes": lakes})

    def _handle_mount_lake(self) -> None:
        """``POST /lakes``: mount a CSV directory or snapshot at runtime.

        The expensive part — loading CSVs, or verifying and mmapping a
        snapshot — happens inside :meth:`Workspace.attach` *outside*
        the membership lock, so mounting a large lake never stalls
        sibling lakes' requests.
        """
        payload = self._read_json_body()
        name = payload.get("name")
        path = payload.get("path")
        quota = payload.get("quota")
        if not isinstance(name, str) or not isinstance(path, str):
            raise _HTTPProblem(
                400, "invalid-mount",
                'mount payloads look like {"name": "zoo", '
                '"path": "/data/zoo"} where path is a CSV directory '
                "or a snapshot directory (optional \"quota\": this "
                "lake's admission quota, an integer >= 1)",
            )
        workspace = self.server.workspace
        try:
            index = workspace.attach(name, path, quota=quota)
        except DuplicateLakeError as error:
            raise _HTTPProblem(
                409, "duplicate-lake", str(error)
            ) from None
        except ValueError as error:  # bad lake name
            raise _HTTPProblem(
                400, "invalid-mount", str(error)
            ) from None
        except SnapshotError as error:
            raise _HTTPProblem(
                400, "invalid-snapshot",
                f"snapshot at {path!r} cannot be mounted: {error}",
            ) from None
        except WorkspaceError as error:
            raise _HTTPProblem(
                409, "workspace-closed", str(error)
            ) from None
        except (LakeError, OSError) as error:
            raise _HTTPProblem(
                400, "invalid-lake-path",
                f"cannot load a lake from {path!r}: {error}",
            ) from None
        snapshot = index.snapshot_path
        self._send_json(201, {
            "lake": name,
            "tables": len(index.lake),
            "snapshot": None if snapshot is None else str(snapshot),
            "quota": quota,
        })

    def _handle_unmount_lake(self, name: str) -> None:
        """``DELETE /lakes/<name>``: detach and close one lake.

        The detached index drains its admitted calls and releases its
        graph export (shared-memory segments or snapshot mmap
        handles); siblings keep serving throughout.
        """
        workspace = self.server.workspace
        try:
            workspace.detach(name)
        except UnknownLakeError:
            raise _HTTPProblem(
                404, "unknown-lake",
                f"no lake named {name!r}; mounted: "
                f"{', '.join(workspace.names()) or '(none)'}",
            ) from None
        self._send_json(200, {"lake": name, "detached": True})

    def _handle_lake_healthz(
        self, lake_name: str, index: HomographIndex
    ) -> None:
        if index.closed:
            self._send_json(503, {"status": "closed", "lake": lake_name})
        else:
            self._send_json(200, {
                "status": "ok",
                "lake": lake_name,
                "tables": len(index.lake),
            })

    # -- jobs ----------------------------------------------------------
    def _handle_job_poll(self, job_id: str) -> None:
        try:
            snapshot = self.server.jobs.get(job_id)
        except UnknownJobError as error:
            raise _HTTPProblem(
                404, "unknown-job", str(error)
            ) from None
        self._send_json(200, snapshot)

    def _handle_job_cancel(self, job_id: str) -> None:
        try:
            snapshot = self.server.jobs.cancel(job_id)
        except UnknownJobError as error:
            raise _HTTPProblem(
                404, "unknown-job", str(error)
            ) from None
        self._send_json(200, snapshot)

    # -- lake-scoped routes --------------------------------------------
    def _parse_detect_request(self, payload) -> DetectRequest:
        try:
            return DetectRequest.from_dict(payload)
        except (TypeError, ValueError) as error:
            raise _HTTPProblem(
                400, "invalid-request",
                f"not a valid DetectRequest payload: {error}",
            ) from None

    def _handle_detect(
        self, lake_name: str, index: HomographIndex, query
    ) -> None:
        payload = self._read_json_body()
        if payload.get("execution") is not None:
            # Worker processes and pools are the deployment's to
            # choose; a body that picked them could fork without bound.
            raise _HTTPProblem(
                400, "invalid-request",
                "execution is a server setting (serve --backend/--jobs/"
                "--keep-pool); a detect body may not carry one",
            )
        request = self._parse_detect_request(payload)
        # Validate the paging knob up front: a bad ?top= must fail
        # before the (potentially expensive) computation — or before
        # a doomed async job is queued.
        top = self._int_param(query, "top", default=None, minimum=0)
        if self._flag_param(query, "async"):
            return self._handle_detect_async(
                lake_name, index, request, top
            )
        response = self._detect(lake_name, index, request)
        self._send_body(200, response.to_json_bytes(top=top))

    def _handle_detect_async(
        self,
        lake_name: str,
        index: HomographIndex,
        request: DetectRequest,
        top: Optional[int] = None,
    ) -> None:
        """``?async=1``: queue the request, answer 202 with a job id.

        Async submissions are not admission-gated — they occupy an
        index dispatcher slot, not a handler thread — but the request
        and index-open checks still apply, so an immediately-doomed
        job fails here instead of as a polled error.  ``top`` carries
        the synchronous route's ranking truncation into the job's
        terminal payload.
        """
        self._check_request(request)
        self._check_open(index)
        try:
            job_id = self.server.jobs.submit(
                lake_name, index, request, top=top
            )
        except JobOverflowError as error:
            raise _HTTPProblem(
                503, "jobs-overloaded", str(error),
                retry_after=self.server.retry_after,
            ) from None
        except RuntimeError as error:
            raise _HTTPProblem(
                409, "index-closed", str(error)
            ) from None
        self._send_json(202, {
            "job": job_id,
            "lake": lake_name,
            "state": "queued",
            "poll": f"/jobs/{job_id}",
        })

    def _handle_ranking(
        self,
        lake_name: str,
        index: HomographIndex,
        measure: str,
        query,
    ) -> None:
        request = self._parse_detect_request({
            "measure": measure,
            "sample_size": self._int_param(query, "sample_size", None, 1),
            "seed": self._int_param(query, "seed", None, 0),
            "lcc_variant": self._str_param(
                query, "lcc_variant", "attribute-jaccard"
            ),
            "endpoints": self._str_param(query, "endpoints", "all"),
        })
        cursor = self._str_param(query, "cursor", None)
        limit = self._int_param(
            query, "limit", DEFAULT_PAGE_LIMIT, minimum=1
        )
        if limit > MAX_PAGE_LIMIT:
            raise _HTTPProblem(
                400, "invalid-paging",
                f"limit {limit} exceeds the {MAX_PAGE_LIMIT} maximum",
            )
        response = self._detect(lake_name, index, request)
        try:
            page = response.ranking.page(cursor=cursor, limit=limit)
        except ValueError as error:
            raise _HTTPProblem(
                400, "invalid-paging", str(error)
            ) from None
        self._send_body(
            200, page.to_json_bytes(cached=response.cached), compress=True
        )

    def _handle_oplog(self, lake_name: str, query) -> None:
        """``GET /lakes/<name>/oplog?since=N``: the recorded tail.

        Replicas poll this on the primary and replay the entries
        through their own mutation routes; ``since`` is the last
        sequence number already applied (0 = everything).
        """
        log = self.server.oplog_for(lake_name)
        if log is None:
            raise _HTTPProblem(
                404, "no-oplog",
                f"lake {lake_name!r} does not record a mutation "
                f"oplog; start the primary with --record-oplog",
                lake=lake_name,
            )
        since = self._int_param(query, "since", default=0, minimum=0)
        payload = log.read_since(since)
        payload["lake"] = lake_name
        self._send_json(200, payload, compress=True)

    def _apply_mutation(self, lake_name: str, apply, record):
        """Apply one table mutation, recording it when oplogged.

        ``apply`` mutates the index; ``record`` appends the exact
        mutation payload to the lake's oplog.  The log's lock
        brackets both so concurrent mutations land in the log in
        application order.  Returns the new oplog sequence number, or
        ``None`` when the lake does not record one.
        """
        log = self.server.oplog_for(lake_name)
        if log is None:
            apply()
            return None
        with log.exclusive():
            apply()
            return record(log)

    def _handle_add_table(
        self, lake_name: str, index: HomographIndex
    ) -> None:
        self._check_open(index)
        payload = self._read_json_body()
        name = payload.get("name")
        columns = payload.get("columns")
        if not isinstance(name, str) or not isinstance(columns, dict):
            raise _HTTPProblem(
                400, "invalid-table",
                'table payloads look like {"name": "t", '
                '"columns": {"col": ["v1", ...]}}',
            )
        try:
            table = Table.from_columns(name, columns)
        except (TableError, TypeError, ValueError) as error:
            raise _HTTPProblem(
                400, "invalid-table", str(error)
            ) from None

        def apply() -> None:
            try:
                index.add_table(table)
            except LakeError as error:
                raise _HTTPProblem(
                    409, "duplicate-table", str(error)
                ) from None

        seq = self._apply_mutation(
            lake_name,
            apply,
            lambda log: log.append(
                {"op": "add", "table": name, "columns": columns}
            ),
        )
        body: Dict[str, object] = {
            "table": name,
            "tables": len(index.lake),
            "mutation": index.last_mutation,
        }
        if seq is not None:
            body["oplog_seq"] = seq
        self._send_json(201, body)

    def _handle_remove_table(
        self, lake_name: str, index: HomographIndex, name: str
    ) -> None:
        self._check_open(index)

        def apply() -> None:
            try:
                index.remove_table(name)
            except LakeError as error:
                raise _HTTPProblem(
                    404, "unknown-table", str(error)
                ) from None

        seq = self._apply_mutation(
            lake_name,
            apply,
            lambda log: log.append({"op": "remove", "table": name}),
        )
        body: Dict[str, object] = {
            "table": name,
            "tables": len(index.lake),
            "mutation": index.last_mutation,
        }
        if seq is not None:
            body["oplog_seq"] = seq
        self._send_json(200, body)

    # -- param parsing -------------------------------------------------
    @staticmethod
    def _str_param(query, name: str, default):
        values = query.get(name)
        return values[-1] if values else default

    @staticmethod
    def _flag_param(query, name: str) -> bool:
        values = query.get(name)
        if not values:
            return False
        return values[-1].strip().lower() in _TRUTHY

    @staticmethod
    def _int_param(query, name: str, default, minimum: int):
        values = query.get(name)
        if not values:
            return default
        raw = values[-1]
        # ASCII digits only: int() also takes '١', '1_0', '+2', ' 2'.
        if not (raw.isascii() and raw.isdigit()):
            raise _HTTPProblem(
                400, "invalid-paging",
                f"query parameter {name!r} must be an integer "
                f">= {minimum}, got {raw!r}",
            )
        value = int(raw)
        if value < minimum:
            raise _HTTPProblem(
                400, "invalid-paging",
                f"query parameter {name!r} must be >= {minimum}",
            )
        return value

    # -- stdlib entry points -------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        """Dispatch GET requests."""
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        """Dispatch POST requests."""
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib casing
        """Dispatch DELETE requests."""
        self._route("DELETE")
