"""Protocol conformance: the HTTP error surface is pinned by tests.

Table-driven checks over a live server, using raw ``http.client``
connections so status codes, headers (``Retry-After``,
``Content-Type``), and the structured error body shape are asserted
exactly — not through the convenience client's interpretation.

The contract: 400 malformed request, 401 missing/bad bearer token
(when auth is on), 404 unknown lake / measure / table / job / route,
409 closed index / duplicate table, 411 missing Content-Length, 413
oversized body, 503 + ``Retry-After`` on admission-queue overflow —
all on the one route table, where every lake-scoped route names its
lake (``/lakes/<name>/...``).

The write path is pinned too: back-to-back and pipelined requests on
one keep-alive connection, to a server and through the router, must
never wait for the client's delayed ACK.
"""

import http.client
import json
import socket
import statistics
import threading
import time

import pytest

from repro import (
    HomographIndex,
    MeasureOutput,
    Workspace,
    register_measure,
    start_server,
    unregister_measure,
)
from tests.conftest import LAKE, serve_index

#: Route prefix of the one lake :func:`serve_index` mounts.
LAKE_PATH = f"/lakes/{LAKE}"


def raw_request(server, method, path, body=None, headers=None,
                timeout=30.0):
    """One raw HTTP exchange; returns ``(status, headers, payload)``."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            method, path,
            body=body,
            headers=headers if headers is not None else {},
        )
        response = connection.getresponse()
        raw = response.read()
        payload = json.loads(raw) if raw else None
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


@pytest.fixture
def served(figure1_lake):
    """A served figure-1 index with a small body cap for 413 tests."""
    index = HomographIndex(figure1_lake)
    server = serve_index(index, max_body_bytes=4096)
    yield server, index
    server.drain()


def assert_error_shape(payload, status, code):
    """Every error body carries the same structured ``error`` object."""
    assert set(payload) == {"error"}
    error = payload["error"]
    assert error["status"] == status
    assert error["code"] == code
    assert isinstance(error["message"], str) and error["message"]


class TestMalformedRequests:
    @pytest.mark.parametrize("body", [
        b"{not json",
        b"\xff\xfe garbage",
        b"[1, 2, 3]",          # valid JSON, wrong shape
        b'"betweenness"',      # ditto
    ])
    def test_bad_detect_body_is_400(self, served, body):
        server, _ = served
        status, headers, payload = raw_request(
            server, "POST", f"{LAKE_PATH}/detect", body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 400
        assert headers["Content-Type"] == "application/json"
        assert_error_shape(payload, 400, "malformed-json")

    @pytest.mark.parametrize("query", ["", "?async=1"],
                             ids=["sync", "async"])
    @pytest.mark.parametrize("fields", [
        {"options": 7},
        {"lcc_variant": "bogus"},
        {"endpoints": "bogus"},
        {"sample_size": 0},
        {"sample_size": -3},
        {"sample_size": 2.5},
        {"sample_size": "abc"},
        {"sample_size": True},
        {"seed": -1},
        {"seed": "x"},
        {"execution": 5},
        # Execution is the server's to choose (serve --backend/--jobs):
        # a body naming any backend, let alone a worker count, is
        # refused before a pool could be sized from it.
        {"execution": {"backend": "serial"}},
        {"execution": {"backend": "process", "n_jobs": 100000}},
        # rk's options go through the measure's request check.
        {"options": {"epsilon": "x"}, "measure": "rk"},
        {"options": {"epsilon": 2}, "measure": "rk"},
        {"options": {"delta": 0}, "measure": "rk"},
        {"options": {"max_samples": "x"}, "measure": "rk"},
        {"options": {"c": float("nan")}, "measure": "rk"},
        {"options": {"c": float("inf")}, "measure": "rk"},
        # Values whose sample-size bound divides by zero or overflows.
        {"options": {"epsilon": 1e-200}, "measure": "rk"},
        {"options": {"c": 1e308}, "measure": "rk"},
    ], ids=lambda fields: "{}={!r}".format(*next(iter(fields.items()))))
    def test_invalid_request_fields_are_400(self, served, fields, query):
        # Checked when the request is built, or by the measure's
        # request check: before admission, and before an async job is
        # queued.
        server, index = served
        body = json.dumps({"measure": "lcc", **fields}).encode()
        status, _, payload = raw_request(
            server, "POST", f"{LAKE_PATH}/detect{query}", body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 400
        assert_error_shape(payload, 400, "invalid-request")
        assert server.jobs.stats()["tracked"] == 0
        assert index.cache_info().misses == 0

    @pytest.mark.parametrize("query", [
        "ranking/lcc?lcc_variant=bogus",
        "ranking/betweenness?endpoints=bogus",
    ])
    def test_invalid_ranking_fields_are_400(self, served, query):
        server, _ = served
        status, _, payload = raw_request(
            server, "GET", f"{LAKE_PATH}/{query}"
        )
        assert status == 400
        assert_error_shape(payload, 400, "invalid-request")

    def test_negative_content_length_is_400(self, served):
        # read(-1) would block until the client hangs up — the server
        # must reject it instead of trusting the header.
        server, _ = served
        status, _, payload = raw_request(
            server, "POST", f"{LAKE_PATH}/detect", body=b"",
            headers={"Content-Length": "-1"},
        )
        assert status == 400
        assert_error_shape(payload, 400, "malformed-json")

    def test_missing_content_length_is_411(self, served):
        server, _ = served
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            connection.putrequest("POST", f"{LAKE_PATH}/detect")
            connection.endheaders()  # no Content-Length, no body
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 411
            assert_error_shape(payload, 411, "length-required")
        finally:
            connection.close()

    @pytest.mark.parametrize("method,path,code", [
        ("GET", "/nope", "unknown-route"),
        ("GET", "/", "unknown-route"),
        ("POST", "/ranking/lcc", "unknown-route"),
        ("GET", "/ranking", "unknown-route"),
        ("GET", "/ranking/lcc/extra", "unknown-route"),
        ("DELETE", "/tables", "unknown-route"),
        ("POST", "/detect/extra", "unknown-route"),
    ])
    def test_unknown_routes_are_404(self, served, method, path, code):
        # Unknown at the top level and under the lake's prefix alike.
        server, _ = served
        body = b"{}" if method == "POST" else None
        headers = {"Content-Length": "2"} if body else {}
        for target in (path, LAKE_PATH + path):
            status, _, payload = raw_request(
                server, method, target, body=body, headers=headers
            )
            assert status == 404, target
            assert_error_shape(payload, 404, code)


@pytest.fixture(params=["server", "router"])
def target(request, figure1_lake):
    """The one-lake server, directly or through a one-replica router."""
    from repro.cluster import Replica, ReplicaSet, start_router

    backend = serve_index(HomographIndex(figure1_lake))
    try:
        if request.param == "server":
            yield backend
            return
        router = start_router(ReplicaSet([
            Replica("only", url=backend.url, role="primary"),
        ]))
        try:
            yield router
        finally:
            router.drain()
    finally:
        backend.drain()


class TestOneRouteTable:
    """A lake is reached only by name: no un-prefixed lake routes."""

    @pytest.mark.parametrize("method,path,body", [
        ("POST", "/detect", {"measure": "lcc"}),
        ("POST", "/detect?async=1", {"measure": "lcc"}),
        ("GET", "/ranking/lcc", None),
        ("POST", "/tables", {"name": "t9", "columns": {"a": ["1"]}}),
        ("DELETE", "/tables/T1", None),
        ("GET", "/oplog", None),
    ])
    def test_unprefixed_lake_routes_are_404(
        self, target, method, path, body
    ):
        raw = None if body is None else json.dumps(body).encode()
        headers = {} if raw is None else {"Content-Length": str(len(raw))}
        status, _, payload = raw_request(
            target, method, path, body=raw, headers=headers
        )
        assert status == 404, (method, path)
        assert_error_shape(payload, 404, "unknown-route")


class TestNamespacedConformance:
    """The /lakes/<name>/... routes answer with one error surface."""

    @pytest.mark.parametrize("method,path,code", [
        ("POST", "/lakes/nope/detect", "unknown-lake"),
        ("GET", "/lakes/nope/ranking/lcc", "unknown-lake"),
        ("DELETE", "/lakes/nope/tables/T1", "unknown-lake"),
        ("GET", "/lakes/nope/healthz", "unknown-lake"),
        ("GET", f"{LAKE_PATH}/ranking/page-rank", "unknown-measure"),
        ("DELETE", f"{LAKE_PATH}/tables/ghost", "unknown-table"),
        ("GET", f"{LAKE_PATH}/nope", "unknown-route"),
        ("DELETE", f"{LAKE_PATH}/detect", "unknown-route"),
        ("GET", "/jobs/no-such-job", "unknown-job"),
        ("DELETE", "/jobs/no-such-job", "unknown-job"),
        ("POST", "/jobs/no-such-job", "unknown-route"),
        ("DELETE", "/healthz", "unknown-route"),
        ("POST", "/stats", "unknown-route"),
    ])
    def test_namespaced_404s(self, served, method, path, code):
        # The served workspace mounts one lake, so /lakes/default/...
        # is live and /lakes/nope is not.
        server, _ = served
        body = b"{}" if method == "POST" else None
        headers = {"Content-Length": "2"} if body else {}
        status, _, payload = raw_request(
            server, method, path, body=body, headers=headers
        )
        assert status == 404, (method, path)
        assert_error_shape(payload, 404, code)

    def test_mount_route_is_live_but_validates_payload(self, served):
        # POST /lakes is a real mount endpoint since the snapshot PR:
        # an empty payload is a 400 from validation, not a routing 404.
        server, _ = served
        status, _, payload = raw_request(
            server, "POST", "/lakes", body=b"{}",
            headers={"Content-Length": "2"},
        )
        assert status == 400
        assert_error_shape(payload, 400, "invalid-mount")

    def test_lakes_listing_shape(self, served):
        server, index = served
        status, _, payload = raw_request(server, "GET", "/lakes")
        assert status == 200
        assert payload == {
            "lakes": [{
                "name": LAKE,
                "tables": len(index.lake),
                "closed": False,
            }],
        }

    def test_bad_paging_on_namespaced_ranking_is_400(self, served):
        server, _ = served
        status, _, payload = raw_request(
            server, "GET", f"{LAKE_PATH}/ranking/lcc?limit=0"
        )
        assert status == 400
        assert_error_shape(payload, 400, "invalid-paging")


class TestUnknownNames:
    def test_unknown_measure_on_detect_is_404(self, served):
        server, _ = served
        body = json.dumps({"measure": "page-rank"}).encode()
        status, _, payload = raw_request(
            server, "POST", f"{LAKE_PATH}/detect", body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 404
        assert_error_shape(payload, 404, "unknown-measure")
        # The message tells the caller what *is* available.
        assert "betweenness" in payload["error"]["message"]

    def test_unknown_measure_on_ranking_is_404(self, served):
        server, _ = served
        status, _, payload = raw_request(
            server, "GET", f"{LAKE_PATH}/ranking/page-rank"
        )
        assert status == 404
        assert_error_shape(payload, 404, "unknown-measure")

    def test_unknown_table_delete_is_404(self, served):
        server, _ = served
        status, _, payload = raw_request(
            server, "DELETE", f"{LAKE_PATH}/tables/no-such-table"
        )
        assert status == 404
        assert_error_shape(payload, 404, "unknown-table")


class TestPagingValidation:
    @pytest.mark.parametrize("query", [
        "cursor=bogus", "cursor=-3", "cursor=1.5",
        "limit=0", "limit=-1", "limit=abc", "limit=999999",
        "cursor=99999",  # past the end of the ranking
        "cursor=%D9%A1",  # '\u0661', a non-ASCII digit
        "limit=%D9%A1",
        "limit=1_0",      # int() reads '1_0' as 10
        "limit=%2B2",     # a literal '+'
        "limit=%202",     # a leading space
    ])
    def test_bad_paging_parameters_are_400(self, served, query):
        server, _ = served
        status, _, payload = raw_request(
            server, "GET", f"{LAKE_PATH}/ranking/lcc?{query}"
        )
        assert status == 400
        assert_error_shape(payload, 400, "invalid-paging")

    def test_non_ascii_top_on_detect_is_400(self, served):
        server, _ = served
        body = json.dumps({"measure": "lcc"}).encode()
        status, _, payload = raw_request(
            server, "POST", f"{LAKE_PATH}/detect?top=%D9%A1", body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 400
        assert_error_shape(payload, 400, "invalid-paging")


class TestTableValidation:
    @pytest.mark.parametrize("payload", [
        {"name": "t"},                            # no columns
        {"columns": {"a": ["1"]}},                # no name
        {"name": 7, "columns": {"a": ["1"]}},     # bad name type
        {"name": "t", "columns": ["a", "b"]},     # bad columns type
        {"name": "t", "columns": {}},             # empty columns
    ])
    def test_invalid_table_payloads_are_400(self, served, payload):
        server, _ = served
        body = json.dumps(payload).encode()
        status, _, response = raw_request(
            server, "POST", f"{LAKE_PATH}/tables", body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 400
        assert_error_shape(response, 400, "invalid-table")

    def test_duplicate_table_is_409(self, served):
        server, _ = served
        body = json.dumps(
            {"name": "T1", "columns": {"a": ["1"]}}  # T1 exists
        ).encode()
        status, _, payload = raw_request(
            server, "POST", f"{LAKE_PATH}/tables", body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 409
        assert_error_shape(payload, 409, "duplicate-table")


class TestBodyLimit:
    def test_oversized_body_is_413(self, served):
        server, _ = served  # max_body_bytes=4096
        body = json.dumps(
            {"measure": "lcc", "options": {"pad": "x" * 8192}}
        ).encode()
        assert len(body) > 4096
        status, _, payload = raw_request(
            server, "POST", f"{LAKE_PATH}/detect", body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 413
        assert_error_shape(payload, 413, "body-too-large")


class TestClosedIndex:
    def test_closed_index_is_409_everywhere(self, served):
        server, index = served
        index.close()
        body = json.dumps({"measure": "lcc"}).encode()
        for method, path, req_body in [
            ("POST", f"{LAKE_PATH}/detect", body),
            ("POST", f"{LAKE_PATH}/detect?async=1", body),
            ("GET", f"{LAKE_PATH}/ranking/lcc", None),
            ("POST", f"{LAKE_PATH}/tables", json.dumps(
                {"name": "t", "columns": {"a": ["1"]}}).encode()),
            ("DELETE", f"{LAKE_PATH}/tables/T1", None),
        ]:
            headers = (
                {"Content-Length": str(len(req_body))} if req_body else {}
            )
            status, _, payload = raw_request(
                server, method, path, body=req_body, headers=headers
            )
            assert status == 409, (method, path)
            assert_error_shape(payload, 409, "index-closed")

    def test_healthz_reports_closed_as_503(self, served):
        server, index = served
        status, _, payload = raw_request(server, "GET", "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "lakes": [LAKE]}
        # A closed lake shows on its own probe; the service is up
        # until the workspace closes.
        index.close()
        status, _, payload = raw_request(server, "GET", f"{LAKE_PATH}/healthz")
        assert status == 503
        assert payload == {"status": "closed", "lake": LAKE}
        status, _, _ = raw_request(server, "GET", "/healthz")
        assert status == 200
        server.workspace.close()
        status, _, payload = raw_request(server, "GET", "/healthz")
        assert status == 503
        assert payload == {"status": "closed"}


@pytest.fixture
def gated_measure():
    """A blocking measure for saturating a one-slot admission gate."""
    state = {
        "started": threading.Event(),
        "release": threading.Event(),
    }

    def measure(graph, request):
        state["started"].set()
        state["release"].wait(10)
        return MeasureOutput(scores={"X": 1.0}, descending=True)

    register_measure("gated-http-test", measure)
    yield state
    unregister_measure("gated-http-test")


class TestQueueOverflow:
    def test_overflow_is_503_with_retry_after(
        self, figure1_lake, gated_measure
    ):
        index = HomographIndex(figure1_lake)
        server = serve_index(index, max_concurrent=1, retry_after=7)
        try:
            body = json.dumps({"measure": "gated-http-test"}).encode()
            headers = {"Content-Length": str(len(body))}
            results = []

            def occupy():
                results.append(raw_request(
                    server, "POST", f"{LAKE_PATH}/detect", body=body,
                    headers=headers,
                ))

            occupant = threading.Thread(target=occupy)
            occupant.start()
            assert gated_measure["started"].wait(10)

            # The single compute slot is held: the next request — for
            # any measure — must be rejected, not queued.
            status, response_headers, payload = raw_request(
                server, "POST", f"{LAKE_PATH}/detect",
                body=json.dumps({"measure": "lcc"}).encode(),
                headers={"Content-Length": str(
                    len(json.dumps({"measure": "lcc"}).encode())
                )},
            )
            assert status == 503
            assert response_headers["Retry-After"] == "7"
            assert_error_shape(payload, 503, "over-capacity")

            # Rankings ride the same gate.
            status, response_headers, payload = raw_request(
                server, "GET", f"{LAKE_PATH}/ranking/lcc"
            )
            assert status == 503
            assert response_headers["Retry-After"] == "7"

            # Cheap endpoints are never gated.
            status, _, _ = raw_request(server, "GET", "/healthz")
            assert status == 200
            status, _, stats = raw_request(server, "GET", "/stats")
            assert status == 200
            assert stats["http"]["rejected"] == 2
            assert stats["http"]["in_flight"] == 1

            gated_measure["release"].set()
            occupant.join(30)
            assert results[0][0] == 200

            # The slot is free again: the rejected caller can retry.
            deadline = time.monotonic() + 10
            while True:
                status, _, _ = raw_request(
                    server, "GET", f"{LAKE_PATH}/ranking/lcc"
                )
                if status == 200 or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            assert status == 200
        finally:
            server.drain()


def _occupy(server, path, gated_measure, results):
    """Park one gated-measure request on ``path``; returns the thread.

    The caller must ``release`` the gate and join the thread; the
    request's ``(status, headers, payload)`` lands in ``results``.
    """
    body = json.dumps({"measure": "gated-http-test"}).encode()

    def run():
        results.append(raw_request(
            server, "POST", path, body=body,
            headers={"Content-Length": str(len(body))},
        ))

    thread = threading.Thread(target=run)
    thread.start()
    assert gated_measure["started"].wait(10)
    return thread


@pytest.fixture
def fair_pair(figure1_lake, gated_measure):
    """Two lakes behind a 2-slot gate: the fair share is 1 slot each."""
    from tests.test_workspace import make_cars_lake

    workspace = Workspace()
    workspace.attach("zoo", figure1_lake)
    workspace.attach("cars", make_cars_lake())
    server = start_server(
        workspace, port=0, max_concurrent=2, retry_after=3
    )
    yield server, gated_measure
    gated_measure["release"].set()
    server.drain()


class TestPerLakeQuota:
    """Conformance rows for the two-level admission gate (PR 8)."""

    @pytest.mark.parametrize("method,path,body", [
        ("POST", "/lakes/zoo/detect",
         json.dumps({"measure": "lcc"}).encode()),
        ("GET", "/lakes/zoo/ranking/lcc", None),
    ])
    def test_quota_exceeded_is_lake_scoped_503(
        self, fair_pair, method, path, body
    ):
        server, gate = fair_pair
        results = []
        occupant = _occupy(
            server, "/lakes/zoo/detect", gate, results
        )
        try:
            headers = (
                {"Content-Length": str(len(body))} if body else None
            )
            status, response_headers, payload = raw_request(
                server, method, path, body=body, headers=headers
            )
            # The zoo quota (1 of 2 slots) is exhausted: rejected with
            # the lake-scoped code, the lake's name in the body, and a
            # Retry-After — while a whole global slot is still free.
            assert status == 503
            assert response_headers["Retry-After"] == "3"
            assert_error_shape(payload, 503, "lake-over-capacity")
            assert payload["error"]["lake"] == "zoo"
            assert "quota" in payload["error"]["message"]
        finally:
            gate["release"].set()
            occupant.join(30)
        assert results[0][0] == 200

    def test_sibling_lake_keeps_serving(self, fair_pair):
        server, gate = fair_pair
        results = []
        occupant = _occupy(
            server, "/lakes/zoo/detect", gate, results
        )
        try:
            body = json.dumps({"measure": "lcc"}).encode()
            status, _, payload = raw_request(
                server, "POST", "/lakes/cars/detect", body=body,
                headers={"Content-Length": str(len(body))},
            )
            assert status == 200
            assert payload["measure"] == "lcc"
        finally:
            gate["release"].set()
            occupant.join(30)

    def test_global_exhaustion_is_distinguishable(self, fair_pair):
        # Both codes exist on one server: quota trips answer
        # lake-over-capacity, filling the *whole* gate answers the
        # legacy over-capacity — a client can tell which wall it hit.
        server, gate = fair_pair
        results = []
        zoo = _occupy(server, "/lakes/zoo/detect", gate, results)
        # The shared "started" event is already set by the first
        # occupant, so _occupy cannot vouch for the second: poll the
        # gate until both fresh slots are genuinely held.
        cars = _occupy(server, "/lakes/cars/detect", gate, results)
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                _, _, stats = raw_request(server, "GET", "/stats")
                if stats["http"]["gate"]["fresh_in_flight"] == 2:
                    break
                time.sleep(0.02)
            assert stats["http"]["gate"]["fresh_in_flight"] == 2
            body = json.dumps({"measure": "lcc"}).encode()
            status, _, payload = raw_request(
                server, "POST", "/lakes/cars/detect", body=body,
                headers={"Content-Length": str(len(body))},
            )
            assert status == 503
            assert_error_shape(payload, 503, "over-capacity")
            assert payload["error"]["lake"] == "cars"
        finally:
            gate["release"].set()
            zoo.join(30)
            cars.join(30)
        assert [result[0] for result in results] == [200, 200]

    def test_stats_expose_per_lake_gate_occupancy(self, fair_pair):
        server, gate = fair_pair
        results = []
        occupant = _occupy(
            server, "/lakes/zoo/detect", gate, results
        )
        try:
            body = json.dumps({"measure": "lcc"}).encode()
            raw_request(              # one rejected zoo request
                server, "POST", "/lakes/zoo/detect", body=body,
                headers={"Content-Length": str(len(body))},
            )
            status, _, stats = raw_request(server, "GET", "/stats")
            assert status == 200
            gate_stats = stats["http"]["gate"]
            assert gate_stats["limit"] == 2
            assert gate_stats["fair"] is True
            assert gate_stats["fresh_in_flight"] == 1
            zoo = gate_stats["lakes"]["zoo"]
            assert zoo["in_flight"] == 1
            assert zoo["quota"] == 1
            assert zoo["rejected"] == 1
            cars = gate_stats["lakes"]["cars"]
            assert cars["in_flight"] == 0
            assert cars["rejected"] == 0
        finally:
            gate["release"].set()
            occupant.join(30)

    def test_coalesced_duplicate_rides_the_follower_lane(
        self, figure1_lake, gated_measure
    ):
        # A request identical to one already in flight coalesces onto
        # it instead of burning (or being refused) a fresh-compute
        # slot — under overload, followers are admitted first.
        index = HomographIndex(figure1_lake)
        server = serve_index(index, max_concurrent=1)
        try:
            results = []
            occupant = _occupy(
                server, f"{LAKE_PATH}/detect", gated_measure, results
            )
            follower_results = []

            def follow():
                body = json.dumps(
                    {"measure": "gated-http-test"}
                ).encode()
                follower_results.append(raw_request(
                    server, "POST", f"{LAKE_PATH}/detect", body=body,
                    headers={"Content-Length": str(len(body))},
                ))

            follower = threading.Thread(target=follow)
            follower.start()
            deadline = time.monotonic() + 10
            followers_seen = 0
            while time.monotonic() < deadline:
                _, _, stats = raw_request(server, "GET", "/stats")
                followers_seen = \
                    stats["http"]["gate"]["followers_in_flight"]
                if followers_seen:
                    break
                time.sleep(0.02)
            assert followers_seen == 1
            assert stats["http"]["gate"]["fresh_in_flight"] == 1
            gated_measure["release"].set()
            occupant.join(30)
            follower.join(30)
            # Both callers got the answer; the computation ran once.
            assert results[0][0] == 200
            assert follower_results[0][0] == 200
            assert follower_results[0][2]["ranking"] == \
                results[0][2]["ranking"]
            _, _, stats = raw_request(server, "GET", "/stats")
            assert stats["http"]["gate"]["admitted_followers"] >= 1
        finally:
            gated_measure["release"].set()
            server.drain()

    def test_lake_quota_zero_restores_the_single_global_gate(
        self, figure1_lake, gated_measure
    ):
        # The opt-out: with --lake-quota 0 one hot lake CAN starve its
        # sibling again (that is what the pre-PR-8 gate did), and the
        # rejection is the legacy global code.
        from tests.test_workspace import make_cars_lake

        workspace = Workspace()
        workspace.attach("zoo", figure1_lake)
        workspace.attach("cars", make_cars_lake())
        server = start_server(
            workspace, port=0, max_concurrent=1, lake_quota=0
        )
        try:
            results = []
            occupant = _occupy(
                server, "/lakes/zoo/detect", gated_measure, results
            )
            body = json.dumps({"measure": "lcc"}).encode()
            status, _, payload = raw_request(
                server, "POST", "/lakes/cars/detect", body=body,
                headers={"Content-Length": str(len(body))},
            )
            assert status == 503
            assert_error_shape(payload, 503, "over-capacity")
            _, _, stats = raw_request(server, "GET", "/stats")
            assert stats["http"]["gate"]["fair"] is False
            assert stats["http"]["gate"]["lake_quota"] == 0
            gated_measure["release"].set()
            occupant.join(30)
            assert results[0][0] == 200
        finally:
            gated_measure["release"].set()
            server.drain()


class TestMountQuota:
    def _csv_dir(self, tmp_path):
        directory = tmp_path / "aux"
        directory.mkdir()
        (directory / "t.csv").write_text("v\nX\nY\n")
        return directory

    def test_mount_accepts_quota_option(self, served, tmp_path):
        server, _ = served
        directory = self._csv_dir(tmp_path)
        body = json.dumps({
            "name": "aux", "path": str(directory), "quota": 3,
        }).encode()
        status, _, payload = raw_request(
            server, "POST", "/lakes", body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 201
        assert payload["quota"] == 3
        _, _, stats = raw_request(server, "GET", "/stats")
        assert stats["http"]["gate"]["lakes"]["aux"]["quota"] == 3

    @pytest.mark.parametrize("quota", [0, -1, 1.5, "two", True])
    def test_invalid_mount_quota_is_400(self, served, tmp_path, quota):
        server, _ = served
        directory = self._csv_dir(tmp_path)
        body = json.dumps({
            "name": "aux", "path": str(directory), "quota": quota,
        }).encode()
        status, _, payload = raw_request(
            server, "POST", "/lakes", body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 400
        assert_error_shape(payload, 400, "invalid-mount")


class TestClusterConformance:
    """The router speaks the same wire protocol as the servers it fronts.

    Raw-socket checks of the PR-10 additions: ``GET /cluster/stats``
    as a plain JSON route, and the structured 503
    ``no-healthy-replica`` (with ``Retry-After``) a dark fleet
    answers — same error shape as every other rejection, so client
    retry loops need no new cases.
    """

    @pytest.fixture
    def routed(self, figure1_lake):
        from repro.cluster import Replica, ReplicaSet, start_router

        backend = serve_index(HomographIndex(figure1_lake))
        replica = Replica("only", url=backend.url, role="primary")
        router = start_router(ReplicaSet([replica]))
        yield router, replica
        router.drain()
        backend.drain()

    def test_cluster_stats_is_json_route(self, routed):
        router, _ = routed
        status, headers, payload = raw_request(
            router, "GET", "/cluster/stats"
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert payload["primary"] == "only"
        assert payload["replicas"][0]["healthy"] is True

    def test_dark_fleet_503_shape(self, routed):
        router, replica = routed
        replica.mark_unhealthy()
        status, headers, payload = raw_request(
            router, "GET", f"{LAKE_PATH}/ranking/lcc"
        )
        assert status == 503
        assert headers["Content-Type"] == "application/json"
        assert int(headers["Retry-After"]) >= 1
        assert_error_shape(payload, 503, "no-healthy-replica")

    def test_proxied_errors_keep_backend_shape(self, routed):
        # A backend 404 travels through the router byte-compatible.
        router, _ = routed
        status, _, payload = raw_request(
            router, "GET", f"{LAKE_PATH}/ranking/unknown-measure"
        )
        assert status == 404
        assert_error_shape(payload, 404, "unknown-measure")

    def test_version_fingerprint_route(self, served):
        server, _ = served
        status, headers, payload = raw_request(server, "GET", "/version")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert set(payload) == {
            "library", "snapshot_format", "python", "numpy", "server",
        }


#: Half the ~40 ms Linux delayed-ACK floor: a response that waits for
#: the client's delayed ACK cannot arrive under it.
DELAYED_ACK_HALF_S = 0.020


def split_response(data):
    """``(status, end)`` of the first whole response in ``data``.

    ``None`` while ``data`` does not hold a whole response yet.
    """
    head_end = data.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    head = data[:head_end].decode("latin-1").split("\r\n")
    fields = dict(line.lower().split(": ", 1) for line in head[1:])
    end = head_end + 4 + int(fields["content-length"])
    if len(data) < end:
        return None
    return int(head[0].split()[1]), end


def read_responses(sock, count):
    """Read ``count`` whole responses off a raw socket; their statuses."""
    buffered, statuses = b"", []
    while len(statuses) < count:
        parsed = split_response(buffered)
        if parsed is not None:
            statuses.append(parsed[0])
            buffered = buffered[parsed[1]:]
            continue
        chunk = sock.recv(65536)
        assert chunk, f"connection closed early: {buffered!r}"
        buffered += chunk
    assert buffered == b"", "bytes past the last response"
    return statuses


class TestResponseWritePath:
    """Every response leaves in one write on a ``TCP_NODELAY`` socket.

    Headers and body sent in two writes with Nagle on make the second
    write wait for the client's delayed ACK: ~44 ms per back-to-back
    keep-alive read, on the server and again on the router.  Nagle
    alone also holds the second of two pipelined responses until the
    first is acknowledged.  A fresh connection hides both (Linux ACKs
    at once at first), so the timed cases run on a warmed connection;
    the write count pins the single write without a clock.
    """

    @pytest.mark.parametrize("path,headers", [
        ("/healthz", {}),
        (f"{LAKE_PATH}/ranking/lcc?limit=5", {"Accept-Encoding": "gzip"}),
    ], ids=["healthz", "gzip-ranking-page"])
    def test_back_to_back_keepalive_reads(self, target, path, headers):
        host, port = target.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        times = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request("GET", path, headers=headers)
                response = connection.getresponse()
                response.read()
                times.append(time.perf_counter() - start)
                assert response.status == 200
                assert response.getheader("Content-Encoding") == (
                    headers.get("Accept-Encoding")
                )
        finally:
            connection.close()
        assert statistics.median(times) < DELAYED_ACK_HALF_S, times

    def test_pipelined_pair_on_a_warm_connection(self, target):
        host, port = target.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        request = f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n"
        times = []
        try:
            for _ in range(5):
                connection.request("GET", "/healthz")
                connection.getresponse().read()
            for _ in range(3):
                start = time.perf_counter()
                connection.sock.sendall(request.encode() * 2)
                assert read_responses(connection.sock, 2) == [200, 200]
                times.append(time.perf_counter() - start)
        finally:
            connection.close()
        assert statistics.median(times) < DELAYED_ACK_HALF_S, times

    def test_each_response_is_one_write(self, target, monkeypatch):
        from repro.cluster import ClusterRouter
        from repro.serving.http import KeepAliveRequestHandler

        writes = []
        setup = KeepAliveRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            write = handler.wfile.write

            def record(data):
                writes.append(bytes(data))
                return write(data)

            handler.wfile.write = record

        monkeypatch.setattr(KeepAliveRequestHandler, "setup", recording_setup)
        body = json.dumps({"measure": "lcc"}).encode()
        exchanges = [
            ("GET", "/healthz", None, {}),
            ("GET", f"{LAKE_PATH}/ranking/lcc?limit=5", None,
             {"Accept-Encoding": "gzip"}),
            ("POST", f"{LAKE_PATH}/detect?top=3", body,
             {"Content-Length": str(len(body))}),
            ("GET", "/no/such/route", None, {}),   # 404, then close
        ]
        host, port = target.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        statuses = []
        try:
            for method, path, payload, headers in exchanges:
                connection.request(method, path, body=payload,
                                   headers=headers)
                response = connection.getresponse()
                response.read()
                statuses.append(response.status)
        finally:
            connection.close()
        assert statuses == [200, 200, 200, 404]
        # Through the router each response is written twice: by the
        # backend to the router, then by the router to the client.
        hops = 2 if isinstance(target, ClusterRouter) else 1
        assert len(writes) == hops * len(exchanges)
        for data in writes:
            parsed = split_response(data)
            assert parsed is not None and parsed[1] == len(data), data

    def test_http09_request_gets_the_bare_body(self, target):
        # HTTP/0.9 has no status line and no headers: the one write
        # is the body alone, and the connection closes after it.
        host, port = target.server_address[:2]
        with socket.create_connection((host, port), timeout=30.0) as raw:
            raw.sendall(b"GET /healthz\r\n\r\n")
            received = b""
            while chunk := raw.recv(65536):
                received += chunk
        assert json.loads(received)["status"] == "ok"
