"""Fault injection: slow and stalled clients must not wedge the server.

A client that sends half a request body and then goes silent is the
classic slow-loris failure mode for a thread-per-connection server
with non-daemon handler threads: without a socket timeout the read
blocks forever, the handler thread never exits, and ``drain()`` hangs
joining it.  These tests drive raw sockets (no client library — the
whole point is sending *malformed traffic*) against a server with a
short ``request_timeout`` and pin that:

* a stalled body earns a ``408 request-timeout`` and a closed
  connection, within a bound tied to the configured timeout;
* a *slow but moving* body still succeeds — the timeout is per-idle-
  read, not a total request deadline;
* a stalled request line closes quietly (no response owed);
* stalled clients never occupy admission-gate slots, never block
  sibling requests, and their handler threads are reaped — even a
  pile of them leaves the server drainable in bounded time.
"""

import json
import socket
import threading
import time

import pytest

from repro import HomographIndex
from tests.conftest import LAKE, serve_index
from tests.test_http_protocol import raw_request

REQUEST_TIMEOUT = 1.0
#: Generous CI bound: the server owes its verdict in one idle timeout,
#: plus slack for loaded machines.
VERDICT_BOUND = REQUEST_TIMEOUT + 8.0


@pytest.fixture
def short_fuse_server(figure1_lake):
    index = HomographIndex(figure1_lake)
    server = serve_index(
        index, request_timeout=REQUEST_TIMEOUT, max_concurrent=2
    )
    yield server
    server.drain()


def _connect(server) -> socket.socket:
    host, port = server.server_address[:2]
    connection = socket.create_connection(
        (host, port), timeout=VERDICT_BOUND
    )
    return connection


def _send_partial_detect(connection, body: bytes, sent: int) -> None:
    """A valid request head claiming ``len(body)`` bytes, sending fewer."""
    head = (
        f"POST /lakes/{LAKE}/detect HTTP/1.1\r\n"
        f"Host: x\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    ).encode()
    connection.sendall(head + body[:sent])


def _read_until_eof(connection) -> bytes:
    chunks = []
    while True:
        chunk = connection.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _wait_threads_back(baseline, bound=10.0):
    deadline = time.monotonic() + bound
    while time.monotonic() < deadline:
        extra = [
            t for t in threading.enumerate()
            if t not in baseline and t.is_alive()
        ]
        if not extra:
            return []
        time.sleep(0.05)
    return [t.name for t in extra]


class TestStalledBody:
    def test_stalled_body_gets_408_then_eof(self, short_fuse_server):
        body = json.dumps({"measure": "lcc"}).encode()
        connection = _connect(short_fuse_server)
        try:
            started = time.monotonic()
            _send_partial_detect(connection, body, sent=3)
            raw = _read_until_eof(connection)   # stall: never send more
            elapsed = time.monotonic() - started
        finally:
            connection.close()
        assert elapsed < VERDICT_BOUND
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408")
        error = json.loads(payload)["error"]
        assert error["code"] == "request-timeout"
        assert error["status"] == 408

    def test_slow_but_moving_body_succeeds(self, short_fuse_server):
        # Chunk gaps below the idle timeout must not trip it: the
        # fuse is per-read, not a total-request deadline.
        body = json.dumps({"measure": "lcc"}).encode()
        connection = _connect(short_fuse_server)
        try:
            _send_partial_detect(connection, body, sent=3)
            for chunk_start in range(3, len(body), 7):
                time.sleep(REQUEST_TIMEOUT / 4)
                connection.sendall(body[chunk_start:chunk_start + 7])
            connection.settimeout(VERDICT_BOUND)
            raw = connection.recv(65536)
        finally:
            connection.close()
        assert raw.startswith(b"HTTP/1.1 200")

    def test_stalled_request_line_closes_quietly(self, short_fuse_server):
        # No parseable request yet, so no response is owed: the server
        # just hangs up after the idle timeout.
        connection = _connect(short_fuse_server)
        try:
            connection.sendall(b"POST /de")       # half a request line
            raw = _read_until_eof(connection)
        finally:
            connection.close()
        assert raw == b""


class TestStalledClientsDoNotWedge:
    def test_sibling_requests_serve_while_client_stalls(
        self, short_fuse_server
    ):
        body = json.dumps({"measure": "lcc"}).encode()
        stalled = _connect(short_fuse_server)
        try:
            _send_partial_detect(stalled, body, sent=1)
            # While the stall is pending, a well-behaved request
            # passes straight through on a fresh connection.
            status, _, payload = raw_request(
                short_fuse_server, "POST", f"/lakes/{LAKE}/detect",
                body=body,
                headers={"Content-Length": str(len(body))},
            )
            assert status == 200
            assert "PANDA" in {
                entry["value"] for entry in payload["ranking"]
            }
        finally:
            stalled.close()

    def test_stalled_clients_hold_no_admission_slots(
        self, short_fuse_server
    ):
        # Admission happens *after* the body arrives; a stalled body
        # must never pin a compute slot while it waits for its 408.
        body = json.dumps({"measure": "lcc"}).encode()
        stalled = [_connect(short_fuse_server) for _ in range(3)]
        try:
            for connection in stalled:
                _send_partial_detect(connection, body, sent=2)
            status, _, stats = raw_request(
                short_fuse_server, "GET", "/stats"
            )
            assert status == 200
            assert stats["http"]["in_flight"] == 0
            assert stats["http"]["gate"]["fresh_in_flight"] == 0
            # Every stalled socket is individually timed out and told.
            for connection in stalled:
                raw = _read_until_eof(connection)
                assert b"408" in raw and b"request-timeout" in raw
        finally:
            for connection in stalled:
                connection.close()

    def test_handler_threads_are_reaped_after_timeouts(
        self, figure1_lake
    ):
        index = HomographIndex(figure1_lake)
        server = serve_index(index, request_timeout=REQUEST_TIMEOUT)
        try:
            baseline = set(threading.enumerate())
            connections = [_connect(server) for _ in range(4)]
            try:
                for connection in connections:
                    connection.sendall(b"GET")    # stalled request line
                time.sleep(REQUEST_TIMEOUT / 2)   # threads now parked
            finally:
                for connection in connections:
                    connection.close()
            leaked = _wait_threads_back(baseline)
            assert not leaked, f"handler threads not reaped: {leaked}"
        finally:
            server.drain()

    def test_drain_completes_promptly_with_a_stalled_client(
        self, figure1_lake
    ):
        index = HomographIndex(figure1_lake)
        server = serve_index(index, request_timeout=REQUEST_TIMEOUT)
        body = json.dumps({"measure": "lcc"}).encode()
        stalled = _connect(server)
        try:
            _send_partial_detect(stalled, body, sent=1)
            started = time.monotonic()
            server.drain()
            elapsed = time.monotonic() - started
            # Bounded by the request timeout (the stalled read must
            # expire) plus generous scheduling slack — not by the
            # 10-second default a pre-timeout server would hit, and
            # never forever.
            assert elapsed < VERDICT_BOUND
        finally:
            stalled.close()
            server.drain()   # idempotent; a no-op after the first
