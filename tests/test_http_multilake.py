"""Multi-lake HTTP serving: namespaced routes, async jobs, auth, gzip.

The ISSUE-5 acceptance criteria over a real socket: one server
process hosts two lakes over one persistent ``ProcessBackend`` (one
pool's worth of workers, per-lake ``/dev/shm`` exports all released
on drain); ``POST /lakes/<name>/detect?async=1`` returns a job id
whose terminal ``GET /jobs/<id>`` payload is byte-identical to the
synchronous response.  Plus the satellite surfaces: HTTP/1.1
keep-alive, gzip ranking pages, and bearer-token auth.
"""

import gzip
import http.client
import json
import multiprocessing
import os
import time

import pytest

from repro import (
    ExecutionConfig,
    HomographClient,
    JobFailed,
    ServiceError,
    Table,
    Workspace,
    start_server,
)
from tests.conftest import make_figure1_lake
from tests.test_http_protocol import assert_error_shape, raw_request
from tests.test_workspace import make_cars_lake

PERSISTENT_2 = ExecutionConfig(backend="process", n_jobs=2, persistent=True)

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="shared-memory segment files only observable on /dev/shm",
)


def two_lake_workspace(execution=None) -> Workspace:
    """zoo (figure 1) + cars, optionally on a shared pool."""
    workspace = Workspace(execution=execution)
    workspace.attach("zoo", make_figure1_lake())
    workspace.attach("cars", make_cars_lake())
    return workspace


@pytest.fixture
def multilake_stack():
    """A served two-lake workspace plus a ready client."""
    workspace = two_lake_workspace()
    server = start_server(workspace, port=0, job_ttl=30.0)
    client = HomographClient(server.url, timeout=30.0)
    client.wait_ready()
    yield server, client, workspace
    server.drain()


class TestNamespacedRoutes:
    def test_lakes_listing(self, multilake_stack):
        server, client, workspace = multilake_stack
        listing = client.lakes()
        assert set(listing) == {"lakes"}
        assert [lake["name"] for lake in listing["lakes"]] == \
            ["zoo", "cars"]
        zoo = listing["lakes"][0]
        assert zoo == {"name": "zoo", "tables": 4, "closed": False}

    def test_per_lake_detect_sees_per_lake_graphs(self, multilake_stack):
        server, client, workspace = multilake_stack
        zoo = client.lake("zoo").detect(measure="lcc")
        cars = client.lake("cars").detect(measure="lcc")
        assert "PANDA" in zoo.scores and "PANDA" not in cars.scores
        assert "FIAT" in cars.scores and "FIAT" not in zoo.scores

    def test_per_lake_tables_mutate_only_their_lake(self, multilake_stack):
        server, client, workspace = multilake_stack
        cars = client.lake("cars")
        added = cars.add_table(Table.from_columns(
            "lots", {"lot": ["A1", "A2"], "brand": ["Fiat", "Fiat"]}
        ))
        assert added["tables"] == 3
        assert client.lake("zoo").healthz()["tables"] == 4  # untouched
        assert "lots" not in workspace.get("zoo").lake
        removed = cars.remove_table("lots")
        assert removed["tables"] == 2

    def test_percent_encoded_table_names_roundtrip(self, multilake_stack):
        # The client quote()s names into the path; the server must
        # unquote segments or encoded names could never be deleted.
        server, client, workspace = multilake_stack
        cars = client.lake("cars")
        cars.add_table(Table.from_columns(
            "my table/v1", {"c": ["x", "x"]}
        ))
        assert "my table/v1" in workspace.get("cars").lake
        removed = cars.remove_table("my table/v1")
        assert removed["table"] == "my table/v1"
        assert "my table/v1" not in workspace.get("cars").lake

    def test_per_lake_healthz_and_stats(self, multilake_stack):
        server, client, workspace = multilake_stack
        cars = client.lake("cars")
        health = cars.healthz()
        assert health == {"status": "ok", "lake": "cars", "tables": 2}
        cars.detect(measure="lcc")
        stats = cars.stats()
        assert stats["tables"] == 2
        assert stats["cache"]["misses"] == 1

    def test_unknown_lake_is_404(self, multilake_stack):
        server, client, workspace = multilake_stack
        with pytest.raises(ServiceError) as info:
            client.lake("nope").detect(measure="lcc")
        assert info.value.status == 404
        assert info.value.code == "unknown-lake"
        assert "zoo" in info.value.message

    def test_detached_lake_404s_but_siblings_serve(self, multilake_stack):
        server, client, workspace = multilake_stack
        workspace.detach("cars")
        with pytest.raises(ServiceError) as info:
            client.lake("cars").detect(measure="lcc")
        assert info.value.code == "unknown-lake"
        assert client.lake("zoo").detect(measure="lcc").scores

    def test_global_stats_merges_lakes_jobs_http(self, multilake_stack):
        server, client, workspace = multilake_stack
        client.lake("cars").detect(measure="lcc")
        stats = client.stats()
        assert set(stats) == {"lakes", "workspace", "jobs", "http"}
        assert set(stats["lakes"]) == {"zoo", "cars"}
        assert stats["lakes"]["zoo"]["tables"] == 4
        assert stats["lakes"]["cars"]["cache"]["misses"] == 1
        assert stats["workspace"]["closed"] is False
        assert stats["jobs"]["tracked"] == 0
        assert stats["http"]["served"] >= 2


class TestAsyncJobs:
    def test_async_terminal_payload_byte_identical_to_sync(
        self, multilake_stack
    ):
        server, client, workspace = multilake_stack
        cars = client.lake("cars")
        request_payload = {"measure": "betweenness"}
        # Warm the cache so both spellings serve the same stored
        # response (timings and cached-flag included).
        raw_request(
            server, "POST", "/lakes/cars/detect",
            body=json.dumps(request_payload).encode(),
            headers={"Content-Length": str(len(json.dumps(
                request_payload).encode()))},
        )
        body = json.dumps(request_payload).encode()
        status, _, sync_payload = raw_request(
            server, "POST", "/lakes/cars/detect", body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 200 and sync_payload["cached"] is True

        job_id = cars.submit(measure="betweenness")
        response = cars.wait(job_id, timeout=30.0)
        assert response.cached
        status, _, job_payload = raw_request(
            server, "GET", f"/jobs/{job_id}"
        )
        assert status == 200 and job_payload["state"] == "done"
        sync_bytes = json.dumps(
            sync_payload, sort_keys=True).encode()
        async_bytes = json.dumps(
            job_payload["response"], sort_keys=True).encode()
        assert async_bytes == sync_bytes

    def test_submit_returns_202_with_poll_url(self, multilake_stack):
        server, client, workspace = multilake_stack
        body = json.dumps({"measure": "lcc"}).encode()
        status, _, payload = raw_request(
            server, "POST", "/lakes/zoo/detect?async=1", body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 202
        assert payload["lake"] == "zoo"
        assert payload["poll"] == f"/jobs/{payload['job']}"
        deadline = time.monotonic() + 15
        while True:
            status, _, snapshot = raw_request(
                server, "GET", payload["poll"]
            )
            assert status == 200
            if snapshot["state"] in ("done", "error"):
                break
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert snapshot["state"] == "done"

    def test_async_unknown_measure_fails_fast_not_as_job(
        self, multilake_stack
    ):
        server, client, workspace = multilake_stack
        body = json.dumps({"measure": "page-rank"}).encode()
        status, _, payload = raw_request(
            server, "POST", "/lakes/zoo/detect?async=1", body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 404
        assert_error_shape(payload, 404, "unknown-measure")

    def test_async_top_is_validated_and_honored(self, multilake_stack):
        server, client, workspace = multilake_stack
        body = json.dumps({"measure": "lcc"}).encode()
        headers = {"Content-Length": str(len(body))}
        # Bad ?top= fails fast, exactly like the synchronous route.
        status, _, payload = raw_request(
            server, "POST", "/lakes/zoo/detect?async=1&top=abc",
            body=body, headers=headers,
        )
        assert status == 400
        assert_error_shape(payload, 400, "invalid-paging")
        # A valid ?top= truncates the job's terminal payload.
        status, _, accepted = raw_request(
            server, "POST", "/lakes/zoo/detect?async=1&top=2",
            body=body, headers=headers,
        )
        assert status == 202
        snapshot = json.loads(json.dumps(
            client.poll(accepted["job"])))
        deadline = time.monotonic() + 15
        while snapshot["state"] not in ("done", "error"):
            assert time.monotonic() < deadline
            time.sleep(0.02)
            snapshot = client.poll(accepted["job"])
        assert snapshot["state"] == "done"
        assert len(snapshot["response"]["ranking"]) == 2

    def test_poll_after_ttl_eviction_is_404(self):
        # The TTL must outlast wait()'s 0.05 s poll interval: a job
        # that finished and was evicted between two polls would make
        # wait() itself raise the 404.
        workspace = two_lake_workspace()
        server = start_server(workspace, port=0, job_ttl=0.5)
        client = HomographClient(server.url, timeout=30.0)
        try:
            client.wait_ready()
            job_id = client.lake("zoo").submit(measure="lcc")
            client.wait(job_id, timeout=30.0)
            time.sleep(0.8)  # let the TTL lapse
            with pytest.raises(ServiceError) as info:
                client.poll(job_id)
            assert info.value.status == 404
            assert info.value.code == "unknown-job"
        finally:
            server.drain()

    def test_cancel_of_finished_job_is_noop(self, multilake_stack):
        server, client, workspace = multilake_stack
        job_id = client.lake("zoo").submit(measure="lcc")
        client.wait(job_id, timeout=30.0)
        snapshot = client.cancel_job(job_id)
        assert snapshot["state"] == "done"          # unchanged
        assert client.poll(job_id)["state"] == "done"

    def test_submit_past_job_cap_is_503(self):
        workspace = two_lake_workspace()
        server = start_server(workspace, port=0, max_jobs=1)
        client = HomographClient(server.url, timeout=30.0)
        try:
            client.wait_ready()
            zoo = client.lake("zoo")
            first = zoo.submit(measure="lcc")
            client.wait(first, timeout=30.0)
            # The finished job still occupies the (tiny) tracking cap.
            with pytest.raises(ServiceError) as info:
                zoo.submit(measure="betweenness")
            assert info.value.status == 503
            assert info.value.code == "jobs-overloaded"
            assert info.value.retry_after is not None
        finally:
            server.drain()

    def test_unknown_job_is_404(self, multilake_stack):
        server, client, workspace = multilake_stack
        for method in ("GET", "DELETE"):
            status, _, payload = raw_request(
                server, method, "/jobs/deadbeef"
            )
            assert status == 404
            assert_error_shape(payload, 404, "unknown-job")

    def test_failed_job_raises_jobfailed_from_wait(self, multilake_stack):
        server, client, workspace = multilake_stack
        from repro import MeasureOutput, register_measure, \
            unregister_measure

        def boom(graph, request):
            raise ValueError("kernel exploded")

        register_measure("boom-http-test", boom)
        try:
            job_id = client.lake("zoo").submit(measure="boom-http-test")
            with pytest.raises(JobFailed) as info:
                client.wait(job_id, timeout=30.0)
            assert info.value.job["error"]["type"] == "ValueError"
        finally:
            unregister_measure("boom-http-test")
        assert isinstance(MeasureOutput, type)  # keep import used


@needs_dev_shm
class TestSharedPoolAcceptance:
    def test_two_lakes_one_pool_exports_released_on_drain(self):
        shm_before = set(os.listdir("/dev/shm"))
        children_before = len(multiprocessing.active_children())
        workspace = two_lake_workspace(execution=PERSISTENT_2)
        server = start_server(workspace, port=0)
        client = HomographClient(server.url, timeout=60.0)
        try:
            client.wait_ready()
            zoo = client.lake("zoo").detect(measure="betweenness")
            cars = client.lake("cars").detect(measure="betweenness")
            assert zoo.scores and cars.scores
            # Exactly one pool's worth of worker processes for 2 lakes.
            workers = (
                len(multiprocessing.active_children()) - children_before
            )
            assert workers == PERSISTENT_2.n_jobs
            # ... and one export (2 segments) per lake.
            live = set(os.listdir("/dev/shm")) - shm_before
            assert len(live) == 4
            backend = workspace.backend
            assert set(backend.export_names) == live
        finally:
            server.drain()
        assert set(os.listdir("/dev/shm")) - shm_before == set()
        assert (
            len(multiprocessing.active_children()) - children_before == 0
        )


class TestKeepAlive:
    def test_one_connection_serves_many_requests(self, multilake_stack):
        server, client, workspace = multilake_stack
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            sock_id = None
            for attempt in range(3):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert response.version == 11       # HTTP/1.1
                length = response.getheader("Content-Length")
                body = response.read()
                assert length == str(len(body))     # exact, every time
                # The same underlying socket served every request.
                if sock_id is None:
                    sock_id = id(connection.sock)
                assert id(connection.sock) == sock_id
        finally:
            connection.close()

    def test_pipelined_requests_both_answered_promptly(
        self, multilake_stack
    ):
        # Two requests in one segment: the second lands in rfile's
        # buffer, where select() on the raw socket cannot see it —
        # the idle wait must notice buffered bytes and serve it
        # without stalling until the idle timeout.
        import socket as socket_module

        server, client, workspace = multilake_stack
        host, port = server.server_address[:2]
        raw = socket_module.create_connection((host, port), timeout=10)
        try:
            request = (
                f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n"
            ).encode()
            start = time.monotonic()
            raw.sendall(request + request)      # pipelined pair
            received = b""
            while received.count(b"HTTP/1.1 200") < 2:
                chunk = raw.recv(65536)
                assert chunk, f"connection closed early: {received!r}"
                received += chunk
                assert time.monotonic() - start < 10
            assert time.monotonic() - start < 5  # not the idle timeout
        finally:
            raw.close()

    def test_errors_carry_content_length_and_close(self, multilake_stack):
        server, client, workspace = multilake_stack
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            connection.request("GET", "/definitely/not/a/route")
            response = connection.getresponse()
            body = response.read()
            assert response.status == 404
            assert response.getheader("Content-Length") == str(len(body))
            # Error responses opt out of keep-alive explicitly.
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_drain_delivers_inflight_response_on_reused_connection(self):
        # Regression: the idle-socket registry must not contain a
        # connection whose *second* request is mid-computation — a
        # drain would shut it down and cut the response.
        import threading

        from repro import MeasureOutput, register_measure, \
            unregister_measure

        state = {"started": threading.Event(),
                 "release": threading.Event()}

        def gated(graph, request):
            state["started"].set()
            state["release"].wait(15)
            return MeasureOutput(scores={"X": 1.0}, descending=True)

        register_measure("gated-keepalive-test", gated)
        workspace = two_lake_workspace()
        server = start_server(workspace, port=0)
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        result = {}
        try:
            # Request 1 marks the connection keep-alive-reused.
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()

            def second_request():
                body = json.dumps(
                    {"measure": "gated-keepalive-test"}).encode()
                connection.request(
                    "POST", "/lakes/zoo/detect", body=body,
                    headers={"Content-Length": str(len(body))},
                )
                response = connection.getresponse()
                result["status"] = response.status
                result["body"] = response.read()

            worker = threading.Thread(target=second_request)
            worker.start()
            assert state["started"].wait(10)

            drained = threading.Event()
            drainer = threading.Thread(
                target=lambda: (server.drain(), drained.set()))
            drainer.start()
            time.sleep(0.2)
            assert not drained.is_set()     # drain waits, doesn't cut
            state["release"].set()
            worker.join(30)
            drainer.join(30)
            assert result["status"] == 200
            assert b'"X"' in result["body"]
        finally:
            state["release"].set()
            connection.close()
            server.drain()
            unregister_measure("gated-keepalive-test")

    def test_close_index_true_after_false_still_closes(self):
        # drain(close_index=False) keeps the workspace; a later
        # drain() must still close it rather than no-op on the
        # already-drained flag.
        workspace = two_lake_workspace()
        server = start_server(workspace, port=0)
        HomographClient(server.url, timeout=30.0).wait_ready()
        server.drain(close_index=False)
        assert not workspace.closed
        assert workspace.get("zoo").detect(measure="lcc").scores
        server.drain()
        assert workspace.closed

    def test_drain_shuts_down_idle_keepalive_connections(self):
        workspace = two_lake_workspace()
        server = start_server(workspace, port=0)
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        connection.request("GET", "/healthz")
        assert connection.getresponse().read()
        # The connection now idles in keep-alive; drain must not hang
        # on its handler thread (the 60 s socket timeout would fail
        # this test's own timeout if it did).
        started = time.monotonic()
        server.drain()
        assert time.monotonic() - started < 10
        connection.close()


class TestBearerAuth:
    @pytest.fixture
    def authed_stack(self):
        workspace = two_lake_workspace()
        server = start_server(workspace, port=0, auth_token="s3cret")
        yield server
        server.drain()

    def test_missing_token_is_401(self, authed_stack):
        server = authed_stack
        for method, path in [
            ("GET", "/stats"),
            ("GET", "/lakes"),
            ("GET", "/lakes/zoo/ranking/lcc"),
            ("GET", "/jobs/deadbeef"),
        ]:
            status, headers, payload = raw_request(server, method, path)
            assert status == 401, (method, path)
            assert headers["WWW-Authenticate"] == "Bearer"
            assert_error_shape(payload, 401, "unauthorized")

    def test_wrong_token_is_401(self, authed_stack):
        server = authed_stack
        status, _, payload = raw_request(
            server, "GET", "/lakes",
            headers={"Authorization": "Bearer nope"},
        )
        assert status == 401
        assert_error_shape(payload, 401, "unauthorized")

    def test_healthz_stays_open_for_probes(self, authed_stack):
        server = authed_stack
        status, _, payload = raw_request(server, "GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_client_token_authenticates_everything(self, authed_stack):
        server = authed_stack
        client = HomographClient(server.url, timeout=30.0, token="s3cret")
        assert len(client.lakes()["lakes"]) == 2
        cars = client.lake("cars")                   # handle inherits it
        assert cars.detect(measure="lcc").scores
        job_id = cars.submit(measure="lcc")
        assert cars.wait(job_id, timeout=30.0).cached

    def test_unauthenticated_client_sees_service_error(self, authed_stack):
        server = authed_stack
        client = HomographClient(server.url, timeout=30.0)
        with pytest.raises(ServiceError) as info:
            client.lake("zoo").detect(measure="lcc")
        assert info.value.status == 401
        assert info.value.code == "unauthorized"


class TestGzipRanking:
    def test_ranking_compresses_when_accepted(self, multilake_stack):
        server, client, workspace = multilake_stack
        raw_request(server, "GET", "/lakes/zoo/ranking/lcc")  # warm
        plain_status, plain_headers, plain_payload = raw_request(
            server, "GET", "/lakes/zoo/ranking/lcc"
        )
        assert plain_status == 200
        assert "Content-Encoding" not in plain_headers
        assert plain_headers.get("Vary") == "Accept-Encoding"

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            connection.request(
                "GET", "/lakes/zoo/ranking/lcc",
                headers={"Accept-Encoding": "gzip"},
            )
            response = connection.getresponse()
            raw = response.read()
            assert response.status == 200
            assert response.getheader("Content-Encoding") == "gzip"
            assert response.getheader("Content-Length") == str(len(raw))
            payload = json.loads(gzip.decompress(raw))
        finally:
            connection.close()
        assert payload == plain_payload

    def test_client_transparently_decompresses(self, multilake_stack):
        server, client, workspace = multilake_stack
        reference = client.lake("zoo").detect(measure="lcc")
        page = client.lake("zoo").ranking_page("lcc", limit=10_000)
        assert [e["value"] for e in page["entries"]] == \
            [entry.value for entry in reference.ranking]

    def test_detect_responses_stay_uncompressed(self, multilake_stack):
        # Compression is negotiated per route: only ranking pages opt
        # in (large, repetitive payloads).
        server, client, workspace = multilake_stack
        body = json.dumps({"measure": "lcc"}).encode()
        status, headers, _ = raw_request(
            server, "POST", "/lakes/zoo/detect", body=body,
            headers={
                "Content-Length": str(len(body)),
                "Accept-Encoding": "gzip",
            },
        )
        assert status == 200
        assert "Content-Encoding" not in headers
