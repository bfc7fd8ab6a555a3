"""End-to-end HTTP serving: concurrency, pagination, mutation, drain.

The single-lake serving contract, proven over a real socket: N
concurrent identical ``POST /lakes/<name>/detect`` requests cost
exactly one kernel computation (single-flight observed through
``CacheInfo.coalesced``); a paginated
``GET /lakes/<name>/ranking`` traversal equals the unpaginated ranking
byte for byte with no duplicates or gaps; lake mutation during an
in-flight detect serves stale-but-consistent results without
poisoning the cache; and shutdown mid-request drains cleanly —
responses delivered, worker pool gone, no ``/dev/shm`` segments left.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import (
    DataLake,
    ExecutionConfig,
    HomographClient,
    HomographIndex,
    MeasureOutput,
    ServiceError,
    Table,
    register_measure,
    unregister_measure,
)
from tests.conftest import LAKE, serve_index

REPO_ROOT = Path(__file__).resolve().parent.parent

PERSISTENT_2 = ExecutionConfig(backend="process", n_jobs=2, persistent=True)

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="shared-memory segment files only observable on /dev/shm",
)


@pytest.fixture
def http_stack(figure1_lake):
    """A served index on an ephemeral port plus a ready lake handle."""
    index = HomographIndex(figure1_lake)
    server = serve_index(index)
    client = HomographClient(server.url, timeout=30.0)
    client.wait_ready()
    yield server, client.lake(LAKE), index
    server.drain()


@pytest.fixture
def slow_measure():
    """A registered measure that blocks until released, counting runs."""
    state = {
        "calls": 0,
        "started": threading.Event(),
        "release": threading.Event(),
    }

    def measure(graph, request):
        state["calls"] += 1
        state["started"].set()
        state["release"].wait(10)
        return MeasureOutput(
            scores={graph.value_name(v): float(v)
                    for v in range(graph.num_values)},
            descending=True,
        )

    register_measure("slow-http-test", measure)
    yield state
    unregister_measure("slow-http-test")


class TestConcurrentDetect:
    def test_eight_identical_requests_compute_once(
        self, http_stack, slow_measure
    ):
        server, client, index = http_stack
        index.graph  # pre-build so threads contend only on scoring
        responses = []
        errors = []

        def call():
            try:
                responses.append(client.detect(measure="slow-http-test"))
            except Exception as error:  # noqa: BLE001 - collected
                errors.append(error)

        threads = [threading.Thread(target=call) for _ in range(8)]
        for t in threads:
            t.start()
        assert slow_measure["started"].wait(10)
        # Give the other connections time to reach the flight table.
        time.sleep(0.2)
        slow_measure["release"].set()
        for t in threads:
            t.join(30)

        assert not errors
        assert len(responses) == 8
        # Exactly one kernel computation happened for 8 HTTP requests.
        assert slow_measure["calls"] == 1
        info = index.cache_info()
        assert info.misses == 1
        assert info.coalesced + info.hits == 7
        reference = responses[0].scores
        assert all(r.scores == reference for r in responses)
        # Exactly one response was the computing leader.
        assert sum(not r.cached for r in responses) == 1

    def test_stats_reports_http_and_cache_counters(self, http_stack):
        server, client, index = http_stack
        client.detect(measure="lcc")
        client.detect(measure="lcc")
        stats = HomographClient(server.url).stats()
        lake = stats["lakes"][LAKE]
        assert lake == client.stats()
        assert lake["cache"]["misses"] == 1
        assert lake["cache"]["hits"] >= 1
        assert stats["http"]["served"] >= 2
        assert stats["http"]["rejected"] == 0
        assert stats["http"]["max_concurrent"] >= 1
        assert lake["pool"] == {"configured": False}
        assert lake["closed"] is False


class TestRankingPagination:
    def test_paged_traversal_equals_unpaginated_byte_for_byte(
        self, http_stack
    ):
        server, client, index = http_stack
        full = client._request(
            "POST", f"/lakes/{LAKE}/detect",
            payload={"measure": "betweenness"},
        )["ranking"]
        assert len(full) > 3  # the walk below must need several pages

        paged = []
        cursor = None
        pages = 0
        while True:
            page = client.ranking_page(
                "betweenness", cursor=cursor, limit=2
            )
            paged.extend(page["entries"])
            pages += 1
            cursor = page["next_cursor"]
            if cursor is None:
                break

        assert pages > 1
        assert json.dumps(paged, sort_keys=True).encode() == \
            json.dumps(full, sort_keys=True).encode()
        # No duplicates, no gaps: ranks are exactly 1..N.
        assert [e["rank"] for e in paged] == \
            list(range(1, len(full) + 1))

    def test_iter_ranking_matches_detect(self, http_stack):
        server, client, index = http_stack
        response = client.detect(measure="lcc")
        walked = list(client.iter_ranking("lcc", limit=3))
        assert walked == list(response.ranking)

    def test_page_totals_and_cached_flag(self, http_stack):
        server, client, index = http_stack
        first = client.ranking_page("betweenness", limit=2)
        again = client.ranking_page("betweenness", limit=2)
        assert first["total"] == again["total"] > 2
        assert len(first["entries"]) == 2
        # The second page request was served from the score cache —
        # pagination never recomputes.
        assert again["cached"] is True
        assert index.cache_info().misses == 1


class TestMutationDuringDetect:
    def test_inflight_detect_serves_stale_but_consistent(
        self, http_stack, slow_measure
    ):
        server, client, index = http_stack
        old_values = set(index.graph.value_names)
        result = {}

        def call():
            result["response"] = client.detect(measure="slow-http-test")

        worker = threading.Thread(target=call)
        worker.start()
        assert slow_measure["started"].wait(10)
        # Mutate the lake while the detect is mid-kernel.
        client.add_table(
            Table.from_columns("T9", {"X": ["Jaguar", "Lion", "Lion"]})
        )
        slow_measure["release"].set()
        worker.join(30)

        # The in-flight response answered against the old graph —
        # stale, but internally consistent.
        assert set(result["response"].scores) == old_values
        # ... and was never cached: the next detect recomputes on the
        # mutated lake.
        assert index.cache_info().size == 0
        slow_measure["release"].set()
        fresh = client.detect(measure="slow-http-test")
        assert slow_measure["calls"] == 2
        assert "LION" in fresh.scores

    def test_add_and_remove_table_roundtrip(self, http_stack):
        server, client, index = http_stack
        before = client.healthz()["tables"]
        added = client.add_table(
            Table.from_columns("extra", {"X": ["Lion", "Lion"]})
        )
        assert added["tables"] == before + 1
        removed = client.remove_table("extra")
        assert removed["tables"] == before
        assert "extra" not in index.lake


class TestDrain:
    def test_drain_mid_request_delivers_response(
        self, figure1_lake, slow_measure
    ):
        index = HomographIndex(figure1_lake)
        server = serve_index(index)
        client = HomographClient(server.url, timeout=30.0).lake(LAKE)
        client.wait_ready()
        result = {}

        def call():
            result["response"] = client.detect(measure="slow-http-test")

        worker = threading.Thread(target=call)
        worker.start()
        assert slow_measure["started"].wait(10)

        drained = threading.Event()

        def drain_it():
            server.drain()
            drained.set()

        drainer = threading.Thread(target=drain_it)
        drainer.start()
        time.sleep(0.2)
        # The drain must wait for the in-flight request, not cut it.
        assert not drained.is_set()
        slow_measure["release"].set()
        worker.join(30)
        drainer.join(30)
        assert drained.is_set()
        assert index.closed
        # The in-flight request got its full 200 response.
        assert result["response"].scores
        # The service is gone: new connections are refused.
        with pytest.raises((ConnectionError, OSError, TimeoutError)):
            client.wait_ready(timeout=0.5)

    @needs_dev_shm
    def test_drain_releases_worker_pool_and_segments(self, figure1_lake):
        before = set(os.listdir("/dev/shm"))
        index = HomographIndex(
            figure1_lake, prune_candidates=False, execution=PERSISTENT_2
        )
        server = serve_index(index)
        client = HomographClient(server.url, timeout=60.0)
        client.wait_ready()
        response = client.lake(LAKE).detect(measure="betweenness")
        assert response.scores
        backend = index._backend
        assert backend.pool_alive
        assert set(os.listdir("/dev/shm")) - before  # export is live
        server.drain()
        assert not backend.pool_alive
        assert set(os.listdir("/dev/shm")) - before == set()

    def test_drain_is_idempotent(self, http_stack):
        server, client, index = http_stack
        server.drain()
        server.drain()
        assert index.closed

    def test_closed_index_rejects_detect_with_409(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        server = serve_index(index)
        client = HomographClient(server.url, timeout=30.0).lake(LAKE)
        client.wait_ready()
        try:
            index.close()  # index gone, socket still accepting
            with pytest.raises(ServiceError) as info:
                client.detect(measure="lcc")
            assert info.value.status == 409
            assert info.value.code == "index-closed"
            with pytest.raises(ServiceError) as info:
                client.healthz()
            assert info.value.status == 503
        finally:
            server.drain()


class TestServeCLI:
    def test_serve_drains_on_sigint(self, tmp_path):
        (tmp_path / "zoo.csv").write_text(
            "animal,city\nJaguar,Memphis\nPanda,Atlanta\nJaguar,Boston\n"
        )
        (tmp_path / "cars.csv").write_text(
            "maker,model\nJaguar,XE\nToyota,Prius\nJaguar,XJ\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(tmp_path),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=str(REPO_ROOT),
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no address in banner: {banner!r}"
            client = HomographClient(
                f"http://127.0.0.1:{match.group(1)}", timeout=30.0
            )
            (name,) = client.wait_ready()["lakes"]   # the dir's basename
            response = client.lake(name).detect(measure="betweenness")
            assert "JAGUAR" in response.scores
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "draining" in out


class TestLakeHandles:
    """Lake-level calls go through ``client.lake(name)`` only."""

    @pytest.mark.parametrize("call", [
        lambda c: c.detect(measure="lcc"),
        lambda c: c.submit(measure="lcc"),
        lambda c: c.ranking_page("lcc"),
        lambda c: c.iter_ranking("lcc"),
        lambda c: c.add_table(Table.from_columns("t9", {"a": ["1"]})),
        lambda c: c.remove_table("T1"),
        lambda c: c.oplog(),
    ], ids=[
        "detect", "submit", "ranking_page", "iter_ranking",
        "add_table", "remove_table", "oplog",
    ])
    def test_lake_call_without_a_handle_sends_nothing(
        self, http_stack, call
    ):
        server, _, _ = http_stack
        client = HomographClient(server.url, timeout=30.0)
        served = server.http_stats()["served"]
        with pytest.raises(TypeError, match=r"client\.lake\(name\)"):
            call(client)
        assert server.http_stats()["served"] == served

    def test_a_handle_is_the_only_way_to_scope(self, http_stack):
        server, _, _ = http_stack
        with pytest.raises(TypeError):
            HomographClient(server.url, lake=LAKE)

    def test_service_and_job_calls_work_from_both(self, http_stack):
        server, handle, _ = http_stack
        client = HomographClient(server.url, timeout=30.0)
        assert client.healthz() == {"status": "ok", "lakes": [LAKE]}
        assert handle.healthz()["lake"] == LAKE
        assert set(client.stats()) == {"lakes", "workspace", "jobs", "http"}
        assert handle.stats()["tables"] == client.stats()["lakes"][LAKE][
            "tables"
        ]
        job_id = handle.submit(measure="lcc")
        assert client.wait(job_id).scores == handle.wait(job_id).scores
        assert client.poll(job_id)["lake"] == LAKE
        assert handle.cancel_job(job_id)["state"] == "done"

    def test_server_refuses_a_bare_index(self, figure1_lake):
        from repro import start_server

        with pytest.raises(TypeError, match="attach_index"):
            start_server(HomographIndex(figure1_lake), port=0)


class TestKeepAliveClient:
    """The PR-8 client transport: one socket, stale-retry, 503 retry."""

    def test_keep_alive_reuses_one_connection(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        server = serve_index(index)
        try:
            with HomographClient(
                server.url, timeout=30.0, keep_alive=True
            ) as client:
                for _ in range(5):
                    client.lake(LAKE).detect(measure="lcc")
                    client.healthz()
                # Ten requests, zero keep-alive races: the single
                # persistent connection carried them all.
                assert client._transport.reconnects == 0
        finally:
            server.drain()

    def test_lake_handles_share_the_parent_transport(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        server = serve_index(index)
        try:
            with HomographClient(
                server.url, timeout=30.0, keep_alive=True
            ) as client:
                handle = client.lake(LAKE)
                assert handle._transport is client._transport
                handle.detect(measure="lcc")
                client.healthz()
                client.lake(LAKE).detect(measure="lcc")
                assert client._transport.reconnects == 0
        finally:
            server.drain()

    def test_stale_connection_is_retried_transparently(self, figure1_lake):
        # The server hangs up idle keep-alive connections after its
        # request timeout; the next call must redial and succeed, not
        # surface the keep-alive race to the caller.
        index = HomographIndex(figure1_lake)
        server = serve_index(index, request_timeout=0.5)
        try:
            with HomographClient(
                server.url, timeout=30.0, keep_alive=True
            ) as client:
                first = client.lake(LAKE).detect(measure="lcc")
                time.sleep(1.2)          # idle past the server fuse
                second = client.lake(LAKE).detect(measure="lcc")
                assert [e.value for e in second.ranking] == \
                    [e.value for e in first.ranking]
                assert client._transport.reconnects <= 1
        finally:
            server.drain()

    def test_retry_overloaded_waits_out_a_busy_gate(self, figure1_lake):
        release = threading.Event()

        def slow(graph, request):
            release.wait(10)
            return MeasureOutput(scores={"X": 1.0}, descending=True)

        register_measure("slow-for-retry-test", slow)
        index = HomographIndex(figure1_lake)
        server = serve_index(index, max_concurrent=1)
        try:
            occupant = threading.Thread(
                target=lambda: HomographClient(
                    server.url, timeout=30.0
                ).lake(LAKE).detect(measure="slow-for-retry-test"),
            )
            occupant.start()
            deadline = time.monotonic() + 10
            with HomographClient(server.url, timeout=30.0) as probe:
                while time.monotonic() < deadline:
                    if probe.stats()["http"]["in_flight"] == 1:
                        break
                    time.sleep(0.02)
            threading.Timer(0.5, release.set).start()
            # Without retries the 503 surfaces; with them the client
            # sleeps through the busy window and succeeds.
            with pytest.raises(ServiceError) as info:
                HomographClient(server.url, timeout=30.0).lake(
                    LAKE
                ).detect(measure="lcc")
            assert info.value.overloaded
            assert info.value.scope == "global"
            patient = HomographClient(
                server.url, timeout=30.0,
                retry_overloaded=50, retry_backoff=0.1,
            )
            response = patient.lake(LAKE).detect(measure="lcc")
            assert response.measure == "lcc"
            occupant.join(30)
        finally:
            release.set()
            server.drain()
            unregister_measure("slow-for-retry-test")

    def test_lake_scoped_rejection_parses_lake_and_scope(self):
        error = ServiceError(
            503, "lake-over-capacity", "lake 'tus' is at its quota",
            retry_after=3, lake="tus",
        )
        assert error.overloaded and error.scope == "lake"
        assert error.lake == "tus" and error.retry_after == 3
        global_error = ServiceError(503, "over-capacity", "busy")
        assert global_error.overloaded
        assert global_error.scope == "global"
        plain = ServiceError(404, "unknown-lake", "nope")
        assert not plain.overloaded and plain.scope is None
