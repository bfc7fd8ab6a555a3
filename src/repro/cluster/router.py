"""The cluster front door: one URL over a fleet of replica servers.

A :class:`ClusterRouter` is a reverse proxy built on the same
keep-alive transport base as the workspace server
(:class:`~repro.serving.http.DrainingThreadingHTTPServer`), speaking
the *identical* wire protocol — existing :class:`HomographClient`
instances and ``repro.bench.loadgen`` drive it unchanged.  Routing
policy:

* **Reads** (``detect`` and ``ranking`` under ``/lakes/<name>/``,
  lake/stats/health GETs) load-balance across healthy replicas:
  least-in-flight first, round-robin among ties.  A read that dies
  on a replica mid-flight (connection refused/reset — the replica
  was killed) is transparently retried **once** on a different
  healthy replica; the failed replica is passively marked unhealthy
  for the supervisor to heal.
* **Writes** (``POST``/``DELETE`` on ``/lakes`` and
  ``/lakes/<name>/tables``) pin to the **primary** — the one replica
  recording the oplog — so there is a single mutation order for
  replicas to replay.  The oplog feed (``GET /lakes/<name>/oplog``)
  pins there too: no other replica records one.
* **Jobs**: a 202 from an async ``detect`` records which replica
  accepted it, and later ``/jobs/<id>`` polls stick to that replica
  (only it knows the job).  Unknown job ids fall back to the primary.
* A fleet with no healthy target answers a structured 503
  ``no-healthy-replica`` with ``Retry-After`` — the same shape as the
  admission 503s, so client retry loops handle a dark fleet for free.
* ``GET /cluster/stats`` is served by the router itself: per-replica
  health / in-flight / restarts / oplog lag plus router counters.

The router holds no lake state; it can be constructed standalone over
a hand-built :class:`ReplicaSet` (the protocol tests do) or attached
to a :class:`~repro.cluster.supervisor.ReplicaSupervisor`, which owns
the replica processes and keeps the set's health flags fresh.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from typing import Callable, Dict, List, Optional, Tuple

from ..serving.http import (
    DEFAULT_RETRY_AFTER,
    DrainingThreadingHTTPServer,
    KeepAliveRequestHandler,
    _HTTPProblem,
)

#: Cap on proxied request bodies (memory bound, not a protocol limit;
#: backends enforce their own max_body_bytes below this).
DEFAULT_PROXY_BODY_BYTES = 64 * 1024 * 1024

#: Most recent async jobs whose accepting replica the router remembers.
DEFAULT_JOB_STICKINESS = 4096

#: Request headers that are hop-by-hop (or recomputed) and must not be
#: forwarded to a backend.
_HOP_HEADERS = frozenset({
    "connection", "keep-alive", "proxy-authenticate",
    "proxy-authorization", "proxy-connection", "te", "trailers",
    "transfer-encoding", "upgrade", "host", "content-length",
})

#: Response headers the router recomputes or owns.
_SKIP_RESPONSE_HEADERS = frozenset({
    "connection", "keep-alive", "transfer-encoding", "content-length",
    "server", "date",
})


class Replica:
    """One backend server in the fleet, as the router sees it.

    Thread-safe value object shared between the router (health reads,
    in-flight accounting) and the supervisor (health writes, restart
    and oplog-lag bookkeeping).  ``url`` may start as ``None`` — the
    supervisor fills it in once the subprocess prints its bound port.
    """

    def __init__(
        self,
        name: str,
        url: Optional[str] = None,
        role: str = "replica",
    ) -> None:
        if role not in ("primary", "replica"):
            raise ValueError(
                f"invalid role {role!r}: expected 'primary' or 'replica'"
            )
        self.name = name
        self.role = role
        self._lock = threading.Lock()
        self._url = url
        self._healthy = url is not None
        self._draining = False
        self._in_flight = 0
        self.restarts = 0
        self.applied_seq = 0
        self.oplog_lag = 0

    @property
    def url(self) -> Optional[str]:
        """Base URL of the backend (``None`` until it is spawned)."""
        with self._lock:
            return self._url

    @url.setter
    def url(self, value: Optional[str]) -> None:
        """Record the backend's URL once the supervisor spawns it."""
        with self._lock:
            self._url = value

    @property
    def healthy(self) -> bool:
        """Whether the router may send this replica traffic."""
        with self._lock:
            return self._healthy and not self._draining

    def mark_healthy(self) -> None:
        """Admit the replica to the routing pool."""
        with self._lock:
            self._healthy = True

    def mark_unhealthy(self) -> None:
        """Remove the replica from the routing pool."""
        with self._lock:
            self._healthy = False

    @property
    def draining(self) -> bool:
        """Whether a rolling restart is draining this replica."""
        with self._lock:
            return self._draining

    @draining.setter
    def draining(self, value: bool) -> None:
        """Toggle drain mode (set by the supervisor's rolling restart)."""
        with self._lock:
            self._draining = bool(value)

    @property
    def in_flight(self) -> int:
        """Requests this replica is serving through the router now."""
        with self._lock:
            return self._in_flight

    def begin_request(self) -> None:
        """Count one proxied request entering this replica."""
        with self._lock:
            self._in_flight += 1

    def end_request(self) -> None:
        """Count one proxied request leaving this replica."""
        with self._lock:
            self._in_flight -= 1

    def snapshot(self) -> Dict[str, object]:
        """One ``/cluster/stats`` row."""
        with self._lock:
            return {
                "name": self.name,
                "role": self.role,
                "url": self._url,
                "healthy": self._healthy and not self._draining,
                "draining": self._draining,
                "in_flight": self._in_flight,
                "restarts": self.restarts,
                "applied_seq": self.applied_seq,
                "oplog_lag": self.oplog_lag,
            }


class ReplicaSet:
    """The fleet membership the router balances over.

    Immutable membership (replicas are restarted in place, never
    re-registered) with thread-safe per-replica state.  Exactly one
    replica should carry the ``primary`` role; writes pin to it.
    """

    def __init__(self, replicas: List[Replica]) -> None:
        if not replicas:
            raise ValueError("a ReplicaSet needs at least one replica")
        self._replicas = tuple(replicas)
        names = [r.name for r in self._replicas]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate replica names in {names!r}")
        self._rr_lock = threading.Lock()
        self._rr = 0

    def __iter__(self):
        """Iterate the fleet in registration order."""
        return iter(self._replicas)

    def __len__(self) -> int:
        """Fleet size."""
        return len(self._replicas)

    def get(self, name: str) -> Optional[Replica]:
        """The replica registered under ``name`` (or ``None``)."""
        for replica in self._replicas:
            if replica.name == name:
                return replica
        return None

    @property
    def primary(self) -> Replica:
        """The write target: the ``primary``-role replica (or first)."""
        for replica in self._replicas:
            if replica.role == "primary":
                return replica
        return self._replicas[0]

    def healthy(self) -> List[Replica]:
        """Replicas currently admitted to the routing pool."""
        return [r for r in self._replicas if r.healthy and r.url]

    def pick_read(
        self, exclude: Tuple[Replica, ...] = ()
    ) -> Optional[Replica]:
        """The read target: least-in-flight healthy replica.

        Ties break round-robin so equally-loaded replicas share
        traffic instead of the first one taking everything; an
        ``exclude`` list supports retry-on-another-replica.
        """
        candidates = [r for r in self.healthy() if r not in exclude]
        if not candidates:
            return None
        lowest = min(r.in_flight for r in candidates)
        tied = [r for r in candidates if r.in_flight == lowest]
        with self._rr_lock:
            choice = tied[self._rr % len(tied)]
            self._rr += 1
        return choice

    def stats(self) -> List[Dict[str, object]]:
        """Per-replica ``/cluster/stats`` rows, registration order."""
        return [replica.snapshot() for replica in self._replicas]


class ClusterRouter(DrainingThreadingHTTPServer):
    """The HTTP front door load-balancing a :class:`ReplicaSet`.

    Parameters
    ----------
    replicas:
        The fleet to balance over.  The router reads health flags and
        maintains in-flight counters; something else (normally a
        :class:`~repro.cluster.supervisor.ReplicaSupervisor`) owns the
        processes and heals health flags.
    address:
        ``(host, port)`` to bind; port 0 picks an ephemeral port.
    retry_after:
        ``Retry-After`` seconds sent with 503 ``no-healthy-replica``.
    backend_timeout:
        Socket timeout for one proxied backend request.
    request_timeout / quiet:
        As on :class:`~repro.serving.http.HomographHTTPServer`.
    fleet_stats:
        Optional callable merged into ``GET /cluster/stats`` under
        ``"supervisor"`` — the supervisor passes its own counters in.
    """

    background_thread_name = "domainnet-router"

    def __init__(
        self,
        replicas: ReplicaSet,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        retry_after: int = DEFAULT_RETRY_AFTER,
        backend_timeout: float = 60.0,
        request_timeout: float = 60.0,
        quiet: bool = True,
        max_body_bytes: int = DEFAULT_PROXY_BODY_BYTES,
        fleet_stats: Optional[Callable[[], Dict[str, object]]] = None,
    ) -> None:
        super().__init__(
            address,
            RouterRequestHandler,
            request_timeout=request_timeout,
            quiet=quiet,
        )
        self.replicas = replicas
        self.retry_after = retry_after
        self.backend_timeout = backend_timeout
        self.max_body_bytes = max_body_bytes
        self.fleet_stats = fleet_stats
        self._jobs_lock = threading.Lock()
        self._jobs: "Dict[str, str]" = {}
        self._counters_lock = threading.Lock()
        self._served = 0
        self._retried = 0
        self._bad_gateway = 0
        self._no_healthy = 0

    # ------------------------------------------------------------------
    # Job stickiness
    # ------------------------------------------------------------------
    def record_job(self, job_id: str, replica: Replica) -> None:
        """Remember which replica accepted an async job (202)."""
        with self._jobs_lock:
            self._jobs[job_id] = replica.name
            while len(self._jobs) > DEFAULT_JOB_STICKINESS:
                self._jobs.pop(next(iter(self._jobs)))

    def job_replica(self, job_id: str) -> Optional[Replica]:
        """The replica sticky for ``job_id`` (or ``None``)."""
        with self._jobs_lock:
            name = self._jobs.get(job_id)
        return None if name is None else self.replicas.get(name)

    # ------------------------------------------------------------------
    # Counters / stats
    # ------------------------------------------------------------------
    def count(self, kind: str) -> None:
        """Bump one router counter (``served``/``retried``/...)."""
        with self._counters_lock:
            if kind == "served":
                self._served += 1
            elif kind == "retried":
                self._retried += 1
            elif kind == "bad_gateway":
                self._bad_gateway += 1
            elif kind == "no_healthy":
                self._no_healthy += 1

    def cluster_stats(self) -> Dict[str, object]:
        """The ``GET /cluster/stats`` payload."""
        with self._counters_lock:
            router = {
                "served": self._served,
                "retried": self._retried,
                "bad_gateway": self._bad_gateway,
                "no_healthy_replica": self._no_healthy,
            }
        with self._jobs_lock:
            router["jobs_tracked"] = len(self._jobs)
        payload: Dict[str, object] = {
            "replicas": self.replicas.stats(),
            "primary": self.replicas.primary.name,
            "router": router,
        }
        if self.fleet_stats is not None:
            try:
                payload["supervisor"] = self.fleet_stats()
            except Exception as error:  # noqa: BLE001 - stats only
                payload["supervisor"] = {"error": str(error)}
        return payload


def start_router(
    replicas: ReplicaSet,
    host: str = "127.0.0.1",
    port: int = 0,
    **options,
) -> ClusterRouter:
    """Construct a router and run its accept loop in the background.

    The mirror of :func:`repro.serving.http.start_server`: the
    returned router is already reachable at ``router.url``; drain it
    (or use it as a context manager) when done.
    """
    router = ClusterRouter(replicas, (host, port), **options)
    router.start_background()
    return router


class RouterRequestHandler(KeepAliveRequestHandler):
    """Proxies one client connection's requests onto the fleet.

    One thread per connection for its whole keep-alive lifetime, with
    a per-connection pool of backend connections (one per replica) so
    a keep-alive client costs one backend socket, not one per
    request.
    """

    server_version = "DomainNetRouter/1.0"

    def setup(self) -> None:
        """Initialize the per-connection backend pool."""
        self._backends: Dict[str, http.client.HTTPConnection] = {}
        super().setup()

    def finish(self) -> None:
        """Close pooled backend connections with the client socket."""
        try:
            for connection in self._backends.values():
                connection.close()
            self._backends.clear()
        finally:
            super().finish()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        """Proxy GET requests."""
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        """Proxy POST requests."""
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib casing
        """Proxy DELETE requests."""
        self._route("DELETE")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, method: str) -> None:
        try:
            self._proxy(method)
        except _HTTPProblem as problem:
            try:
                self._send_problem(problem)
            except (ConnectionError, TimeoutError, OSError):
                self.close_connection = True
        except (ConnectionError, TimeoutError):
            self.close_connection = True
        except Exception as error:  # noqa: BLE001 - last-resort mapping
            try:
                self._send_problem(_HTTPProblem(
                    500, "internal-error",
                    f"{type(error).__name__}: {error}",
                ))
            except (ConnectionError, TimeoutError, OSError):
                self.close_connection = True

    @staticmethod
    def _classify(method: str, segments: List[str]) -> str:
        """``"primary"``, ``"job"``, or ``"read"`` for one request."""
        if segments[:1] == ["jobs"] and len(segments) == 2:
            return "job"
        if segments[:1] == ["lakes"]:
            if method in ("POST", "DELETE") and (
                len(segments) <= 2 or segments[2] == "tables"
            ):
                return "primary"  # mount / unmount / table mutation
            if method == "GET" and segments[2:] == ["oplog"]:
                return "primary"  # only the primary records one
        return "read"

    def _read_body(self) -> Optional[bytes]:
        """Buffer the request body so a retried read can resend it."""
        if self.headers.get("Transfer-Encoding"):
            raise _HTTPProblem(
                411, "length-required",
                "the router does not speak chunked request bodies; "
                "send a Content-Length",
            )
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            return None
        try:
            length = int(raw_length)
        except ValueError:
            raise _HTTPProblem(
                400, "malformed-json",
                f"invalid Content-Length {raw_length!r}",
            ) from None
        if length < 0:
            raise _HTTPProblem(
                400, "malformed-json",
                f"invalid Content-Length {length}",
            )
        if length > self.server.max_body_bytes:
            raise _HTTPProblem(
                413, "body-too-large",
                f"request body of {length} bytes exceeds the router's "
                f"{self.server.max_body_bytes}-byte limit",
            )
        return self.rfile.read(length) if length else b""

    def _proxy(self, method: str) -> None:
        parts = urllib.parse.urlsplit(self.path)
        segments = [
            urllib.parse.unquote(s) for s in parts.path.split("/") if s
        ]
        if (
            method == "GET"
            and segments == ["cluster", "stats"]
        ):
            return self._send_json(200, self.server.cluster_stats())
        body = self._read_body()
        kind = self._classify(method, segments)
        replicas = self.server.replicas
        retryable = method == "GET" or (
            # A sync or async POST /detect is safe to resend: the body
            # is buffered and a lost first attempt computed nothing
            # the client ever saw.
            method == "POST" and segments and segments[-1] == "detect"
        )
        if kind == "primary":
            primary = replicas.primary
            if not primary.healthy or not primary.url:
                raise self._no_healthy_replica("the primary is down")
            self._forward(method, primary, body, retry=None)
            return
        if kind == "job":
            sticky = self.server.job_replica(segments[1])
            target = (
                sticky
                if sticky is not None and sticky.healthy and sticky.url
                else None
            )
            if target is None:
                # Unknown or dead sticky replica: the shared jobs/
                # spill area means a finished job is pollable from the
                # primary; an in-flight one is honestly 404 there.
                target = (
                    replicas.primary
                    if replicas.primary.healthy and replicas.primary.url
                    else replicas.pick_read()
                )
            if target is None:
                raise self._no_healthy_replica("no replica is healthy")
            retry = self._pick_retry(retryable, exclude=(target,))
            self._forward(method, target, body, retry=retry)
            return
        target = replicas.pick_read()
        if target is None:
            raise self._no_healthy_replica("no replica is healthy")
        retry = self._pick_retry(retryable, exclude=(target,))
        self._forward(
            method, target, body, retry=retry,
            record_job=segments[-1:] == ["detect"],
        )

    def _pick_retry(
        self, retryable: bool, exclude: Tuple[Replica, ...]
    ) -> Optional[Callable[[], Optional[Replica]]]:
        """A lazy second-choice picker for idempotent requests."""
        if not retryable:
            return None
        return lambda: self.server.replicas.pick_read(exclude=exclude)

    def _no_healthy_replica(self, detail: str) -> _HTTPProblem:
        self.server.count("no_healthy")
        return _HTTPProblem(
            503, "no-healthy-replica",
            f"the cluster cannot serve this request: {detail}; "
            f"retry shortly",
            retry_after=self.server.retry_after,
        )

    def _forward(
        self,
        method: str,
        replica: Replica,
        body: Optional[bytes],
        retry: Optional[Callable[[], Optional[Replica]]],
        record_job: bool = False,
    ) -> None:
        """Send one request to ``replica``, retrying once if allowed."""
        try:
            status, headers, payload = self._backend_request(
                method, replica, body
            )
        except (http.client.HTTPException, OSError):
            # The replica died under us (kill -9 shows up here as a
            # refused/reset connection).  Quarantine it for the
            # supervisor to heal and retry reads elsewhere.
            replica.mark_unhealthy()
            fallback = None if retry is None else retry()
            if fallback is None:
                if retry is None:
                    self.server.count("bad_gateway")
                    raise _HTTPProblem(
                        502, "bad-gateway",
                        f"replica {replica.name!r} failed mid-request "
                        f"and the request is not retryable",
                    ) from None
                raise self._no_healthy_replica(
                    f"replica {replica.name!r} failed and no other "
                    f"replica is healthy"
                ) from None
            self.server.count("retried")
            try:
                status, headers, payload = self._backend_request(
                    method, fallback, body
                )
                replica = fallback
            except (http.client.HTTPException, OSError):
                fallback.mark_unhealthy()
                self.server.count("bad_gateway")
                raise _HTTPProblem(
                    502, "bad-gateway",
                    f"replicas {replica.name!r} and {fallback.name!r} "
                    f"both failed mid-request",
                ) from None
        if record_job and status == 202:
            try:
                job_id = json.loads(payload.decode("utf-8"))["job"]
            except Exception:  # noqa: BLE001 - non-JSON 202
                job_id = None
            if isinstance(job_id, str):
                self.server.record_job(job_id, replica)
        self.server.count("served")
        forwarded = [
            (name, value)
            for name, value in headers.items()
            if name.lower() not in _SKIP_RESPONSE_HEADERS
        ]
        forwarded.append(("X-DomainNet-Replica", replica.name))
        self._send_response(status, forwarded, payload)

    def _backend_request(
        self,
        method: str,
        replica: Replica,
        body: Optional[bytes],
    ) -> Tuple[int, "http.client.HTTPMessage", bytes]:
        """One request on the pooled backend connection for ``replica``.

        A failure on a *reused* connection is retried once on a fresh
        dial (the keep-alive race); failures on a fresh connection
        propagate to :meth:`_forward`'s cross-replica policy.
        """
        url = replica.url
        if url is None:
            raise OSError(f"replica {replica.name!r} has no address")
        parts = urllib.parse.urlsplit(url)
        headers = {}
        for name, value in self.headers.items():
            if name.lower() not in _HOP_HEADERS:
                headers[name] = value
        headers["Host"] = parts.netloc
        target = self.path
        replica.begin_request()
        try:
            for attempt in (0, 1):
                connection = self._backends.get(replica.name)
                fresh = connection is None
                if fresh:
                    connection = http.client.HTTPConnection(
                        parts.hostname or "127.0.0.1",
                        parts.port or 80,
                        timeout=self.server.backend_timeout,
                    )
                    self._backends[replica.name] = connection
                try:
                    connection.request(
                        method, target, body=body, headers=headers
                    )
                    response = connection.getresponse()
                    payload = response.read()
                except (http.client.HTTPException, OSError) as error:
                    connection.close()
                    self._backends.pop(replica.name, None)
                    if (
                        fresh or attempt
                        or isinstance(error, TimeoutError)
                    ):
                        raise
                    continue
                if response.will_close:
                    connection.close()
                    self._backends.pop(replica.name, None)
                return response.status, response.msg, payload
            raise OSError("unreachable")  # pragma: no cover
        finally:
            replica.end_request()
