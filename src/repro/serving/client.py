"""A thin ``urllib`` client for the DomainNet HTTP service.

The server side (:mod:`repro.serving.http`) speaks plain JSON over
HTTP, so any language can talk to it; this module is the Python
convenience wrapper used by the examples, the smoke job, and the
end-to-end tests.  It deliberately has no dependencies beyond the
stdlib — a deployment can copy the one file next to its own code.

Every lake-level call goes through a *lake handle*, which scopes it
to one named lake's ``/lakes/<name>/...`` routes; jobs run detections
asynchronously::

    from repro.serving.client import HomographClient

    client = HomographClient(server.url, token="s3cret")
    client.wait_ready()
    tus = client.lake("tus")
    response = tus.detect(measure="betweenness")      # DetectResponse
    for entry in tus.iter_ranking("lcc", limit=500):  # RankedValue
        ...
    job_id = tus.submit(measure="betweenness")
    tus.poll(job_id)["state"]                 # queued/running/done/error
    response = tus.wait(job_id)               # blocks; DetectResponse

The client itself speaks only the service-wide routes (``/healthz``,
``/stats``, ``/version``, ``/lakes``, ``/jobs/<id>``); a lake-level
call on it raises :class:`TypeError` and sends nothing.

Failures come back as :class:`ServiceError` carrying the server's
structured error payload (``status``, ``code``, ``message``, and the
``lake`` a lake-scoped 503 names) plus the ``Retry-After`` hint on
503s; a job that ends in its error state raises :class:`JobFailed`
from :meth:`HomographClient.wait`.

Two knobs matter under load.  ``keep_alive=True`` switches the
transport from one-shot ``urllib`` opens to a persistent HTTP/1.1
connection (reconnecting transparently when the server closes it), so
a load-generator worker pays the TCP handshake once, not per request.
``retry_overloaded=N`` retries admission rejections (any 503 —
``over-capacity``, ``lake-over-capacity``, ``jobs-overloaded``) up to
N times, sleeping the server's ``Retry-After`` between attempts (or
``retry_backoff`` seconds when set).  A keep-alive client is not
thread-safe: give each worker thread its own.
"""

from __future__ import annotations

import copy
import gzip
import http.client
import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Dict, Iterator, Mapping, Optional, Tuple

from ..api import DetectRequest, DetectResponse
from ..core.ranking import RankedValue
from ..datalake.table import Table


class ServiceError(RuntimeError):
    """A structured (non-2xx) response from the homograph service.

    Attributes
    ----------
    status:
        HTTP status code.
    code:
        The machine-readable error code from the response body
        (``"unknown-measure"``, ``"over-capacity"``, ...), or
        ``"unknown"`` when the body was not the service's error shape.
    retry_after:
        Parsed ``Retry-After`` header in seconds, when present.
    lake:
        The lake a lake-scoped rejection names in its error body
        (``lake-over-capacity``), else ``None``.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: Optional[int] = None,
        lake: Optional[str] = None,
    ) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after
        self.lake = lake

    @property
    def overloaded(self) -> bool:
        """Whether this is a retryable 503 admission rejection."""
        return self.status == 503

    @property
    def scope(self) -> Optional[str]:
        """Which gate rejected an overloaded request.

        ``"lake"`` for a per-lake quota rejection, ``"global"`` for
        the service-wide gate or the async-job cap, ``None`` for
        errors that are not admission rejections.
        """
        if self.code == "lake-over-capacity":
            return "lake"
        if self.code in ("over-capacity", "jobs-overloaded"):
            return "global"
        return None


class ServiceUnavailable(TimeoutError):
    """The service never became reachable within the probe window.

    Raised by :meth:`HomographClient.wait_ready` when the deadline
    expires with the socket still refusing connections.  Subclasses
    :class:`TimeoutError` so pre-existing ``except TimeoutError``
    callers keep working.

    Attributes
    ----------
    base_url:
        The service root that never answered.
    timeout:
        The probe window that elapsed, in seconds.
    """

    def __init__(self, base_url: str, timeout: float) -> None:
        super().__init__(
            f"service at {base_url} not ready after {timeout:.1f}s"
        )
        self.base_url = base_url
        self.timeout = timeout


class _KeepAliveTransport:
    """One persistent HTTP/1.1 connection, reconnecting when stale.

    The server may close a keep-alive connection at any time (error
    responses do, drains do, idle timeouts do); a request that dies
    on a *reused* connection is retried exactly once on a fresh one —
    the classic keep-alive race — while failures on a fresh
    connection, and timeouts anywhere, propagate.  ``reconnects``
    counts the races for diagnostics.  Not thread-safe.
    """

    def __init__(self, base_url: str, timeout: float) -> None:
        parts = urllib.parse.urlsplit(base_url)
        if parts.scheme != "http":
            raise ValueError(
                f"keep-alive transport speaks plain http, "
                f"got {base_url!r}"
            )
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port or 80
        self._timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None
        self.reconnects = 0

    def request(
        self,
        method: str,
        target: str,
        body: Optional[bytes],
        headers: Mapping[str, str],
    ) -> Tuple[int, "http.client.HTTPMessage", bytes]:
        """One request/response cycle; returns (status, headers, body)."""
        last_error: Optional[BaseException] = None
        for attempt in (0, 1):
            fresh = self._connection is None
            if fresh:
                self._connection = http.client.HTTPConnection(
                    self._host, self._port, timeout=self._timeout
                )
            connection = self._connection
            try:
                connection.request(
                    method, target, body=body, headers=dict(headers)
                )
                response = connection.getresponse()
                payload = response.read()
            except (http.client.HTTPException, OSError) as error:
                self.close()
                if fresh or attempt or isinstance(error, TimeoutError):
                    raise
                self.reconnects += 1
                last_error = error
                continue
            if response.will_close:
                # The server asked for the connection to close (it
                # does on every error response); honor it so the next
                # request starts clean instead of racing a FIN.
                self.close()
            return response.status, response.msg, payload
        raise last_error  # pragma: no cover - loop always returns

    def close(self) -> None:
        """Drop the current connection (the next request redials)."""
        connection, self._connection = self._connection, None
        if connection is not None:
            connection.close()


class JobFailed(RuntimeError):
    """An async job reached its ``error`` terminal state.

    ``job`` holds the full terminal snapshot from ``GET /jobs/<id>``
    (``error.type`` distinguishes a cancelled job —
    ``"CancelledError"`` — from a measure failure).
    """

    def __init__(self, job: Mapping) -> None:
        error = job.get("error") or {}
        super().__init__(
            f"job {job.get('id')} failed: "
            f"{error.get('type', 'Error')}: {error.get('message', '')}"
        )
        self.job = dict(job)


class HomographClient:
    """Talk to a running :class:`~repro.serving.http.HomographHTTPServer`.

    Parameters
    ----------
    base_url:
        Root of the service, e.g. ``"http://127.0.0.1:8080"``.
    timeout:
        Per-request socket timeout in seconds.
    token:
        Bearer token sent as ``Authorization: Bearer <token>`` on
        every request, for servers started with an auth token.
    keep_alive:
        Reuse one persistent HTTP/1.1 connection across requests
        (reconnecting when the server closes it) instead of opening a
        socket per request.  :meth:`lake` handles share the parent's
        connection.  A keep-alive client is not thread-safe; call
        :meth:`close` (or use the client as a context manager) when
        done so the socket does not linger.
    retry_overloaded / retry_backoff:
        Retry any 503 admission rejection (``over-capacity``,
        ``lake-over-capacity``, ``jobs-overloaded``) up to
        ``retry_overloaded`` times before raising, sleeping the
        server's ``Retry-After`` between attempts — or exactly
        ``retry_backoff`` seconds when set (load generators set it
        small to keep the closed loop tight).  Default: no retries.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        token: Optional[str] = None,
        keep_alive: bool = False,
        retry_overloaded: int = 0,
        retry_backoff: Optional[float] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.token = token
        #: The lake a handle from :meth:`lake` is scoped to, else None.
        self.lake_name: Optional[str] = None
        self.keep_alive = keep_alive
        self.retry_overloaded = retry_overloaded
        self.retry_backoff = retry_backoff
        self._prefix = ""
        self._transport: Optional[_KeepAliveTransport] = (
            _KeepAliveTransport(self.base_url, timeout)
            if keep_alive else None
        )

    def lake(self, name: str) -> "HomographClient":
        """A handle scoped to one named lake (``/lakes/<name>/...``).

        The handle shares this client's base URL, timeout, token,
        retry policy — and, under ``keep_alive``, the parent's one
        persistent connection (so a worker holding several handles
        still owns a single socket)::

            tus = client.lake("tus")
            tus.detect(measure="betweenness")     # POST /lakes/tus/detect
        """
        handle = copy.copy(self)
        handle.lake_name = name
        handle._prefix = f"/lakes/{urllib.parse.quote(name, safe='')}"
        return handle

    def close(self) -> None:
        """Close the persistent connection (no-op without keep-alive).

        Safe to call repeatedly; a later request simply redials.
        Closing a :meth:`lake` handle closes the shared connection.
        """
        if self._transport is not None:
            self._transport.close()

    def __enter__(self) -> "HomographClient":
        """Enter a ``with`` block; the client itself is the target."""
        return self

    def __exit__(self, *exc) -> None:
        """Close the persistent connection on ``with``-block exit."""
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping] = None,
        query: Optional[Mapping[str, object]] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Dict[str, object]:
        attempts = 0
        while True:
            try:
                return self._request_once(
                    method, path, payload, query, headers
                )
            except ServiceError as error:
                if (
                    not error.overloaded
                    or attempts >= self.retry_overloaded
                ):
                    raise
                attempts += 1
                delay = self.retry_backoff
                if delay is None:
                    delay = float(
                        1 if error.retry_after is None
                        else error.retry_after
                    )
                time.sleep(delay)

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping],
        query: Optional[Mapping[str, object]],
        headers: Optional[Mapping[str, str]],
    ) -> Dict[str, object]:
        target = path
        if query:
            pairs = {k: str(v) for k, v in query.items() if v is not None}
            if pairs:
                target += "?" + urllib.parse.urlencode(pairs)
        data = None
        request_headers = {"Accept": "application/json"}
        if self.token is not None:
            request_headers["Authorization"] = f"Bearer {self.token}"
        if headers:
            request_headers.update(headers)
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            request_headers["Content-Type"] = "application/json"
        if self._transport is not None:
            status, response_headers, body = self._transport.request(
                method, target, data, request_headers
            )
            if status >= 400:
                raise self._error_from_parts(
                    status, "", response_headers, body
                )
            return self._decode_body(
                body, response_headers.get("Content-Encoding", "")
            )
        request = urllib.request.Request(
            self.base_url + target,
            data=data, headers=request_headers, method=method,
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return self._decode_body(
                    response.read(),
                    response.headers.get("Content-Encoding", ""),
                )
        except urllib.error.HTTPError as error:
            raise self._service_error(error) from None

    @staticmethod
    def _decode_body(body: bytes, encoding: str) -> Dict[str, object]:
        if encoding.lower() == "gzip":
            body = gzip.decompress(body)
        return json.loads(body.decode("utf-8"))

    @staticmethod
    def _error_from_parts(
        status: int, reason: str, headers, body: bytes
    ) -> ServiceError:
        """Build a :class:`ServiceError` from a raw error response."""
        code, message, lake = "unknown", reason, None
        try:
            details = json.loads(body.decode("utf-8")).get("error", {})
            code = str(details.get("code", code))
            message = str(details.get("message", message))
            if details.get("lake") is not None:
                lake = str(details["lake"])
        except Exception:  # noqa: BLE001 - non-JSON error body
            pass
        retry_after = None
        raw = headers.get("Retry-After")
        if raw is not None:
            try:
                retry_after = int(raw)
            except ValueError:
                pass
        return ServiceError(status, code, message, retry_after, lake)

    @classmethod
    def _service_error(
        cls, error: urllib.error.HTTPError
    ) -> ServiceError:
        try:
            body = error.read()
        except Exception:  # noqa: BLE001 - already-broken stream
            body = b""
        finally:
            error.close()
        return cls._error_from_parts(
            error.code, error.reason, error.headers, body
        )

    def _scoped(self, path: str) -> str:
        """Apply the lake prefix, if any (``/healthz``, ``/stats``)."""
        return self._prefix + path

    def _lake_path(self, path: str) -> str:
        """A lake-only route on this handle's lake, else TypeError."""
        if not self._prefix:
            raise TypeError(
                f"{path} is a lake-level route; call it on a handle "
                f"from client.lake(name)"
            )
        return self._prefix + path

    # ------------------------------------------------------------------
    # Service surface
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        """``GET /healthz`` — raises :class:`ServiceError` once closed.

        On a lake handle this is the per-lake probe
        (``GET /lakes/<name>/healthz``).
        """
        return self._request("GET", self._scoped("/healthz"))

    def wait_ready(
        self, timeout: float = 10.0, backoff: float = 0.05
    ) -> Dict[str, object]:
        """Poll ``/healthz`` until the service answers, then return it.

        Raises :class:`ServiceUnavailable` (a :class:`TimeoutError`
        subclass) when the service does not come up within ``timeout``
        seconds, sleeping ``backoff`` seconds between probes.  A
        structured error response (e.g. 503 while draining) propagates
        immediately as :class:`ServiceError` — the server is
        reachable, just not healthy.
        """
        if timeout <= 0 or backoff <= 0:
            raise ValueError(
                f"timeout ({timeout!r}) and backoff ({backoff!r}) "
                "must both be positive"
            )
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except ServiceError:
                raise
            except (urllib.error.URLError, ConnectionError, OSError):
                if time.monotonic() >= deadline:
                    raise ServiceUnavailable(
                        self.base_url, timeout
                    ) from None
                time.sleep(backoff)

    def version(self) -> Dict[str, object]:
        """``GET /version`` — the server's compatibility fingerprint.

        Library version, snapshot ``FORMAT_VERSION``, python and
        numpy versions; the cluster supervisor compares these across
        replicas before admitting them to one fleet.
        """
        return self._request("GET", "/version")

    def oplog(self, since: int = 0) -> Dict[str, object]:
        """``GET /lakes/<name>/oplog?since=N`` — the lake's mutation tail.

        Returns ``{"epoch", "last_seq", "entries", "lake"}``; raises
        :class:`ServiceError` with code ``no-oplog`` (404) when the
        server does not record one for this lake.
        """
        return self._request(
            "GET", self._lake_path("/oplog"), query={"since": since}
        )

    def stats(self) -> Dict[str, object]:
        """``GET /stats`` — per-lake, workspace, jobs and http blocks.

        On a lake handle: that lake's ``GET /lakes/<name>/stats``
        snapshot instead.
        """
        return self._request("GET", self._scoped("/stats"))

    def lakes(self) -> Dict[str, object]:
        """``GET /lakes`` — the mounted lakes."""
        return self._request("GET", "/lakes")

    def mount_lake(
        self,
        name: str,
        path: str,
        quota: Optional[int] = None,
    ) -> Dict[str, object]:
        """``POST /lakes`` — mount a CSV directory or snapshot.

        ``path`` is server-local: a directory of ``*.csv`` tables, or
        a snapshot directory written by ``domainnet snapshot build`` /
        :meth:`HomographIndex.save` (auto-detected; mounts via mmap
        without rebuilding the graph).  ``quota`` (integer >= 1) pins
        the new lake's admission quota atomically with the mount.
        Raises :class:`ServiceError` with code ``duplicate-lake``
        (409) when the name is taken.
        """
        payload: Dict[str, object] = {"name": name, "path": path}
        if quota is not None:
            payload["quota"] = quota
        return self._request("POST", "/lakes", payload=payload)

    def unmount_lake(self, name: str) -> Dict[str, object]:
        """``DELETE /lakes/<name>`` — detach one lake at runtime.

        Sibling lakes (and their in-flight requests) are unaffected;
        unknown names raise :class:`ServiceError` with a 404.
        """
        return self._request(
            "DELETE",
            f"/lakes/{urllib.parse.quote(name, safe='')}",
        )

    def detect(
        self,
        request: Optional[DetectRequest] = None,
        top: Optional[int] = None,
        **overrides,
    ) -> DetectResponse:
        """``POST /lakes/<name>/detect`` — :meth:`HomographIndex.detect`.

        Accepts a :class:`DetectRequest`, keyword overrides on top of
        one, or keywords alone; returns the parsed
        :class:`DetectResponse` (``top`` truncates the ranking
        server-side).
        """
        path = self._lake_path("/detect")
        request = self._coerce(request, overrides)
        payload = self._request(
            "POST", path, payload=request.to_dict(), query={"top": top},
        )
        return DetectResponse.from_dict(payload)

    @staticmethod
    def _coerce(
        request: Optional[DetectRequest], overrides: Dict
    ) -> DetectRequest:
        if request is None:
            return DetectRequest(**overrides)
        if overrides:
            return request.with_overrides(**overrides)
        return request

    # ------------------------------------------------------------------
    # Async jobs
    # ------------------------------------------------------------------
    def submit(
        self,
        request: Optional[DetectRequest] = None,
        **overrides,
    ) -> str:
        """``POST /lakes/<name>/detect?async=1`` — queue, return job id.

        The job runs server-side on the index's dispatcher and the
        shared pool; poll it with :meth:`poll` or block with
        :meth:`wait`.
        """
        path = self._lake_path("/detect")
        request = self._coerce(request, overrides)
        payload = self._request(
            "POST", path, payload=request.to_dict(), query={"async": 1},
        )
        return str(payload["job"])

    def poll(self, job_id: str) -> Dict[str, object]:
        """``GET /jobs/<id>`` — one state snapshot of an async job."""
        return self._request(
            "GET", f"/jobs/{urllib.parse.quote(job_id, safe='')}"
        )

    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        interval: float = 0.05,
    ) -> DetectResponse:
        """Poll a job until terminal; return its parsed response.

        Raises :class:`JobFailed` when the job lands in its ``error``
        state (including cancellation) and :class:`TimeoutError` when
        it is still queued/running after ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.poll(job_id)
            state = snapshot.get("state")
            if state == "done":
                return DetectResponse.from_dict(snapshot["response"])
            if state == "error":
                raise JobFailed(snapshot)
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {state} after {timeout:.1f}s"
                )
            time.sleep(interval)

    def cancel_job(self, job_id: str) -> Dict[str, object]:
        """``DELETE /jobs/<id>`` — best-effort cancel, returns snapshot.

        Cancelling a finished job is a no-op; the returned snapshot
        simply reports the terminal state it already reached.
        """
        return self._request(
            "DELETE", f"/jobs/{urllib.parse.quote(job_id, safe='')}"
        )

    # ------------------------------------------------------------------
    # Rankings
    # ------------------------------------------------------------------
    def ranking_page(
        self,
        measure: str,
        cursor: Optional[str] = None,
        limit: int = 100,
        **params,
    ) -> Dict[str, object]:
        """``GET /lakes/<name>/ranking/<measure>`` — one ranking page.

        Returns the raw page payload (``entries``, ``next_cursor``,
        ``total``, ``measure``, ``descending``, ``cached``).  Extra
        keyword ``params`` become query parameters (``sample_size``,
        ``seed``, ``lcc_variant``, ``endpoints``).  The request
        advertises ``Accept-Encoding: gzip`` and transparently
        decompresses compressed pages.
        """
        query = {"cursor": cursor, "limit": limit, **params}
        measure_segment = urllib.parse.quote(measure, safe="")
        return self._request(
            "GET",
            self._lake_path(f"/ranking/{measure_segment}"),
            query=query,
            headers={"Accept-Encoding": "gzip"},
        )

    def iter_ranking(
        self,
        measure: str,
        limit: int = 100,
        **params,
    ) -> Iterator[RankedValue]:
        """Walk the whole ranking page by page, yielding entries.

        Follows ``next_cursor`` until exhaustion; each yielded item is
        a :class:`RankedValue`.
        """
        self._lake_path("/ranking")  # fail at the call, not the walk
        return self._walk_ranking(measure, limit, params)

    def _walk_ranking(
        self, measure: str, limit: int, params: Dict
    ) -> Iterator[RankedValue]:
        cursor: Optional[str] = None
        while True:
            page = self.ranking_page(
                measure, cursor=cursor, limit=limit, **params
            )
            for entry in page["entries"]:
                yield RankedValue(
                    rank=int(entry["rank"]),
                    value=str(entry["value"]),
                    score=float(entry["score"]),
                )
            cursor = page["next_cursor"]
            if cursor is None:
                return

    # ------------------------------------------------------------------
    # Lake mutation
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> Dict[str, object]:
        """``POST /lakes/<name>/tables`` — add one table to the lake."""
        path = self._lake_path("/tables")
        columns = {
            column.name: list(column.values)
            for column in table.iter_columns()
        }
        return self._request(
            "POST", path,
            payload={"name": table.name, "columns": columns},
        )

    def remove_table(self, name: str) -> Dict[str, object]:
        """``DELETE /lakes/<name>/tables/<t>`` — drop one table.

        The name travels as one path segment (``safe=""`` quoting),
        so table names containing ``/`` or spaces round-trip.
        """
        return self._request(
            "DELETE",
            self._lake_path(
                f"/tables/{urllib.parse.quote(name, safe='')}"
            ),
        )
