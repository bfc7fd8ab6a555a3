"""Cluster subsystem: oplog, replay parity, router policy, /version.

In-process coverage of the PR-10 surface (no subprocesses here; the
process-level supervisor is exercised by ``test_cluster_failover``):

* :class:`MutationLog` durability — header + epoch on creation,
  contiguous sequence numbers, recovery of an existing log, torn-tail
  truncation, corruption refusal;
* the primary's recording path — ``oplog_seq`` in mutation responses,
  ``GET /lakes/<name>/oplog`` with ``since`` filtering, 404
  ``no-oplog`` when recording is off;
* :class:`OplogFollower` replay — a chain of mutations converges a
  replica to **byte-identical** rankings (the PR-7 splice-vs-rebuild
  parity guarantee, applied across processes), idempotent re-replay,
  epoch changes reported as ``needs_bootstrap``;
* :class:`ClusterRouter` policy — reads balance across replicas,
  writes and the oplog feed pin to the primary, job polls stick to
  the accepting
  replica, a dead replica is retried around without a client-visible
  failure, a dark fleet answers 503 ``no-healthy-replica``;
* the ``GET /version`` fingerprint and the pinned
  ``wait_ready(timeout=, backoff=)`` / :class:`ServiceUnavailable`
  client surface.
"""

import json
import threading
import time

import pytest

from repro import (
    HomographClient,
    HomographIndex,
    ServiceError,
    ServiceUnavailable,
    Table,
)
from repro import __version__ as library_version
from repro.cluster import (
    MutationLog,
    OplogError,
    OplogFollower,
    Replica,
    ReplicaSet,
    replay_entry,
    start_router,
)
from repro.snapshot import FORMAT_VERSION

from tests.conftest import LAKE, make_figure1_lake, serve_index


# ----------------------------------------------------------------------
# MutationLog
# ----------------------------------------------------------------------
class TestMutationLog:
    def test_creation_writes_header_and_epoch(self, tmp_path):
        with MutationLog(tmp_path / "oplog.jsonl") as log:
            assert log.last_seq == 0
            assert len(log.epoch) == 32
            lines = (tmp_path / "oplog.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"format": 1, "epoch": log.epoch, "seq": 0}

    def test_append_assigns_contiguous_seqs(self, tmp_path):
        with MutationLog(tmp_path / "oplog.jsonl") as log:
            assert log.append({"op": "add", "table": "a"}) == 1
            assert log.append({"op": "remove", "table": "a"}) == 2
            assert log.last_seq == 2
            entries = log.entries()
        assert [e["seq"] for e in entries] == [1, 2]
        assert entries[0]["op"] == "add"

    def test_entries_since_filters(self, tmp_path):
        with MutationLog(tmp_path / "oplog.jsonl") as log:
            for i in range(4):
                log.append({"op": "add", "table": f"t{i}"})
            assert [e["seq"] for e in log.entries(since=2)] == [3, 4]
            payload = log.read_since(2)
        assert payload["last_seq"] == 4
        assert payload["epoch"] == log.epoch
        assert [e["seq"] for e in payload["entries"]] == [3, 4]

    def test_recovery_preserves_epoch_and_seq(self, tmp_path):
        path = tmp_path / "oplog.jsonl"
        with MutationLog(path) as log:
            log.append({"op": "add", "table": "a"})
            epoch = log.epoch
        with MutationLog(path) as recovered:
            assert recovered.epoch == epoch
            assert recovered.last_seq == 1
            assert recovered.append({"op": "remove", "table": "a"}) == 2

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "oplog.jsonl"
        with MutationLog(path) as log:
            log.append({"op": "add", "table": "a"})
            log.append({"op": "add", "table": "b"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "op": "ad')  # crash mid-append
        with MutationLog(path) as recovered:
            assert recovered.last_seq == 2
            assert recovered.append({"op": "add", "table": "c"}) == 3

    def test_corrupt_header_raises(self, tmp_path):
        path = tmp_path / "oplog.jsonl"
        path.write_text('{"format": 99, "epoch": "x", "seq": 0}\n')
        with pytest.raises(OplogError):
            MutationLog(path)

    def test_seq_gap_raises(self, tmp_path):
        path = tmp_path / "oplog.jsonl"
        with MutationLog(path) as log:
            log.append({"op": "add", "table": "a"})
            epoch = log.epoch
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 5, "op": "remove", "table": "a"}\n')
        with pytest.raises(OplogError):
            MutationLog(path)
        assert epoch  # silence the unused-var lint

    def test_append_after_close_raises(self, tmp_path):
        log = MutationLog(tmp_path / "oplog.jsonl")
        log.close()
        log.close()  # idempotent
        with pytest.raises(OplogError):
            log.append({"op": "add", "table": "a"})


# ----------------------------------------------------------------------
# Version + wait_ready client surface
# ----------------------------------------------------------------------
@pytest.fixture
def recording_stack(tmp_path):
    """A served index recording its mutations, plus a ready handle."""
    log = MutationLog(tmp_path / "oplog.jsonl")
    index = HomographIndex(make_figure1_lake())
    server = serve_index(index, oplogs={LAKE: log})
    client = HomographClient(server.url, timeout=30.0).lake(LAKE)
    client.wait_ready()
    yield server, client, log
    server.drain()
    assert log.closed  # drain owns oplog shutdown


class TestVersionEndpoint:
    def test_version_fingerprint(self, recording_stack):
        _, client, _ = recording_stack
        payload = client.version()
        assert payload["library"] == library_version
        assert payload["snapshot_format"] == FORMAT_VERSION
        assert payload["python"] and payload["numpy"]

    def test_version_is_auth_exempt(self, figure1_lake):
        server = serve_index(
            HomographIndex(figure1_lake), auth_token="s3cret"
        )
        try:
            anonymous = HomographClient(server.url, timeout=30.0)
            anonymous.wait_ready()
            assert anonymous.version()["library"] == library_version
            with pytest.raises(ServiceError) as info:
                anonymous.stats()
            assert info.value.status == 401
        finally:
            server.drain()


class TestWaitReady:
    def test_unreachable_raises_service_unavailable(self):
        client = HomographClient("http://127.0.0.1:9", timeout=5.0)
        started = time.monotonic()
        with pytest.raises(ServiceUnavailable) as info:
            client.wait_ready(timeout=0.2, backoff=0.01)
        assert time.monotonic() - started < 5.0
        assert info.value.base_url == "http://127.0.0.1:9"
        assert info.value.timeout == 0.2
        # Backward compatible with pre-existing except TimeoutError.
        assert isinstance(info.value, TimeoutError)

    @pytest.mark.parametrize("kwargs", [
        {"timeout": 0}, {"timeout": -1}, {"backoff": 0},
        {"backoff": -0.5},
    ])
    def test_nonpositive_knobs_rejected(self, kwargs):
        client = HomographClient("http://127.0.0.1:9")
        with pytest.raises(ValueError):
            client.wait_ready(**kwargs)


# ----------------------------------------------------------------------
# Oplog over HTTP + replay parity
# ----------------------------------------------------------------------
def _table(name, values):
    return Table.from_columns(
        name, {"A": list(values), "B": ["x"] * len(values)}
    )


#: The five-mutation chain the parity tests replay: adds, a remove,
#: and a replace (remove + add of the same name).
MUTATION_CHAIN = (
    ("add", _table("M1", ["Jaguar", "Lion"])),
    ("add", _table("M2", ["Puma", "Nike"])),
    ("remove", "M1"),
    ("add", _table("M1", ["Jaguar", "Crane"])),
    ("add", _table("M3", ["Panda", "Bamboo"])),
)


def _apply_chain(client):
    for op, payload in MUTATION_CHAIN:
        if op == "add":
            client.add_table(payload)
        else:
            client.remove_table(payload)


class TestOplogOverHTTP:
    def test_mutations_carry_oplog_seq(self, recording_stack):
        _, client, log = recording_stack
        first = client.add_table(_table("M1", ["Jaguar"]))
        second = client.remove_table("M1")
        assert first["oplog_seq"] == 1
        assert second["oplog_seq"] == 2
        assert log.last_seq == 2

    def test_oplog_endpoint_filters_since(self, recording_stack):
        _, client, log = recording_stack
        _apply_chain(client)
        tail = client.oplog(since=3)
        assert tail["epoch"] == log.epoch
        assert tail["last_seq"] == 5
        assert [e["seq"] for e in tail["entries"]] == [4, 5]
        assert tail["lake"] == LAKE

    def test_no_oplog_is_404(self, figure1_lake):
        server = serve_index(HomographIndex(figure1_lake))
        try:
            client = HomographClient(server.url, timeout=30.0).lake(LAKE)
            client.wait_ready()
            with pytest.raises(ServiceError) as info:
                client.oplog()
            assert info.value.status == 404
            assert info.value.code == "no-oplog"
            # and mutations do not grow a phantom seq
            assert "oplog_seq" not in client.add_table(
                _table("M1", ["Jaguar"])
            )
        finally:
            server.drain()


class TestReplayParity:
    def test_follower_converges_bit_identically(self, recording_stack):
        primary_server, primary, _ = recording_stack
        replica_server = serve_index(HomographIndex(make_figure1_lake()))
        try:
            replica = HomographClient(
                replica_server.url, timeout=30.0
            ).lake(LAKE)
            replica.wait_ready()
            _apply_chain(primary)
            follower = OplogFollower(primary, replica)
            report = follower.sync_once()
            assert report["applied"] == 5
            assert report["lag"] == 0
            assert report["needs_bootstrap"] is False
            for measure in ("betweenness", "lcc"):
                expected = [
                    (e.rank, e.value, e.score)
                    for e in primary.iter_ranking(measure)
                ]
                actual = [
                    (e.rank, e.value, e.score)
                    for e in replica.iter_ranking(measure)
                ]
                assert actual == expected
            # a second pass finds nothing new
            assert follower.sync_once()["applied"] == 0
        finally:
            replica_server.drain()

    def test_replay_entry_is_idempotent(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        try:
            add = {
                "op": "add", "table": "M1",
                "columns": {"A": ["Jaguar"], "B": ["x"]},
            }
            assert replay_entry(index, add) is True
            assert replay_entry(index, add) is False  # duplicate
            remove = {"op": "remove", "table": "M1"}
            assert replay_entry(index, remove) is True
            assert replay_entry(index, remove) is False  # unknown
            with pytest.raises(OplogError):
                replay_entry(index, {"op": "truncate"})
        finally:
            index.close()

    def test_epoch_change_reports_needs_bootstrap(
        self, recording_stack, tmp_path
    ):
        primary_server, primary, original = recording_stack
        replica_server = serve_index(HomographIndex(make_figure1_lake()))
        fresh = MutationLog(tmp_path / "fresh.jsonl")
        try:
            replica = HomographClient(
                replica_server.url, timeout=30.0
            ).lake(LAKE)
            replica.wait_ready()
            primary.add_table(_table("M1", ["Jaguar"]))
            follower = OplogFollower(primary, replica)
            assert follower.sync_once()["applied"] == 1
            # Simulate a republish: swap in a fresh log (new epoch).
            primary_server.oplogs[LAKE] = fresh
            report = follower.sync_once()
            assert report["needs_bootstrap"] is True
            assert follower.applied_seq == 0
        finally:
            primary_server.oplogs[LAKE] = original
            fresh.close()
            replica_server.drain()


# ----------------------------------------------------------------------
# ReplicaSet policy
# ----------------------------------------------------------------------
class TestReplicaSet:
    def test_roles_and_duplicates_validated(self):
        with pytest.raises(ValueError):
            Replica("a", role="observer")
        with pytest.raises(ValueError):
            ReplicaSet([])
        with pytest.raises(ValueError):
            ReplicaSet([Replica("a", url="http://x"),
                        Replica("a", url="http://y")])

    def test_pick_read_prefers_least_in_flight(self):
        busy = Replica("busy", url="http://b")
        idle = Replica("idle", url="http://i")
        fleet = ReplicaSet([busy, idle])
        busy.begin_request()
        for _ in range(4):
            assert fleet.pick_read() is idle
        busy.end_request()
        picked = {fleet.pick_read().name for _ in range(4)}
        assert picked == {"busy", "idle"}  # round-robin among ties

    def test_pick_read_skips_unhealthy_and_excluded(self):
        a = Replica("a", url="http://a")
        b = Replica("b", url="http://b")
        fleet = ReplicaSet([a, b])
        a.mark_unhealthy()
        assert fleet.pick_read() is b
        assert fleet.pick_read(exclude=(b,)) is None
        b.draining = True
        assert fleet.pick_read() is None

    def test_primary_is_role_based(self):
        replica = Replica("r", url="http://r")
        primary = Replica("p", url="http://p", role="primary")
        assert ReplicaSet([replica, primary]).primary is primary
        assert ReplicaSet([replica]).primary is replica


# ----------------------------------------------------------------------
# Router behavior over live in-process backends
# ----------------------------------------------------------------------
@pytest.fixture
def routed_pair(tmp_path):
    """A primary (recording) + replica fleet behind a live router."""
    log = MutationLog(tmp_path / "oplog.jsonl")
    primary_server = serve_index(
        HomographIndex(make_figure1_lake()), oplogs={LAKE: log}
    )
    replica_server = serve_index(HomographIndex(make_figure1_lake()))
    primary = Replica("primary", url=primary_server.url, role="primary")
    replica = Replica("replica-1", url=replica_server.url)
    fleet = ReplicaSet([primary, replica])
    router = start_router(fleet)
    client = HomographClient(router.url, timeout=30.0).lake(LAKE)
    client.wait_ready()
    yield {
        "router": router,
        "client": client,
        "fleet": fleet,
        "primary_server": primary_server,
        "replica_server": replica_server,
        "primary": primary,
        "replica": replica,
    }
    router.drain()
    primary_server.drain()
    replica_server.drain()


def _replica_response(router_url, path="/healthz"):
    """``(status, X-DomainNet-Replica)`` of one GET through the router."""
    import http.client
    import urllib.parse

    parts = urllib.parse.urlsplit(router_url)
    connection = http.client.HTTPConnection(
        parts.hostname, parts.port, timeout=30.0
    )
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        response.read()
        return response.status, response.headers["X-DomainNet-Replica"]
    finally:
        connection.close()


class TestRouterPolicy:
    def test_reads_balance_across_replicas(self, routed_pair):
        seen = {
            _replica_response(routed_pair["router"].url)[1]
            for _ in range(10)
        }
        assert seen == {"primary", "replica-1"}

    def test_oplog_feed_pins_to_primary(self, routed_pair):
        # Only the primary records an oplog; a replica would answer
        # 404 no-oplog.
        responses = [
            _replica_response(
                routed_pair["router"].url, f"/lakes/{LAKE}/oplog"
            )
            for _ in range(10)
        ]
        assert responses == [(200, "primary")] * 10

    def test_writes_pin_to_primary(self, routed_pair):
        client = routed_pair["client"]
        response = client.add_table(_table("M1", ["Jaguar"]))
        assert response["oplog_seq"] == 1  # only the primary records
        # The replica did not see the write (no sync loop here).
        direct = HomographClient(
            routed_pair["replica_server"].url, timeout=30.0
        ).lake(LAKE)
        assert direct.stats()["tables"] == 4
        primary_direct = HomographClient(
            routed_pair["primary_server"].url, timeout=30.0
        ).lake(LAKE)
        assert primary_direct.stats()["tables"] == 5

    def test_job_polls_stick_to_accepting_replica(self, routed_pair):
        client = routed_pair["client"]
        # Backends share no job store: every poll of every job must
        # land on the replica that accepted it or 404s would surface.
        for _ in range(4):
            job = client.submit(measure="lcc")
            assert client.wait(job, timeout=30.0).ranking.top(1)

    def test_dead_replica_is_retried_transparently(self, routed_pair):
        routed_pair["replica_server"].drain()  # kill one backend
        client = routed_pair["client"]
        for _ in range(6):
            assert client.detect(measure="lcc").ranking.top(1)
        assert routed_pair["replica"].healthy is False
        stats = client._request("GET", "/cluster/stats")
        assert stats["router"]["retried"] >= 1
        assert stats["router"]["bad_gateway"] == 0

    def test_dark_fleet_is_503_no_healthy_replica(self, routed_pair):
        routed_pair["primary"].mark_unhealthy()
        routed_pair["replica"].mark_unhealthy()
        client = routed_pair["client"]
        with pytest.raises(ServiceError) as info:
            client.detect(measure="lcc")
        assert info.value.status == 503
        assert info.value.code == "no-healthy-replica"
        assert info.value.retry_after is not None
        # Heal the fleet: traffic resumes without reconnecting.
        routed_pair["primary"].mark_healthy()
        routed_pair["replica"].mark_healthy()
        assert client.detect(measure="lcc").ranking.top(1)

    def test_cluster_stats_shape(self, routed_pair):
        stats = routed_pair["client"]._request("GET", "/cluster/stats")
        assert stats["primary"] == "primary"
        names = {row["name"] for row in stats["replicas"]}
        assert names == {"primary", "replica-1"}
        for row in stats["replicas"]:
            assert set(row) >= {
                "name", "role", "url", "healthy", "draining",
                "in_flight", "restarts", "applied_seq", "oplog_lag",
            }
        assert set(stats["router"]) == {
            "served", "retried", "bad_gateway", "no_healthy_replica",
            "jobs_tracked",
        }

    def test_concurrent_reads_spread_load(self, routed_pair):
        client_urls = [routed_pair["router"].url] * 8
        failures = []

        def hit(url):
            try:
                worker = HomographClient(url, timeout=30.0)
                worker.lake(LAKE).detect(measure="lcc")
            except Exception as error:  # noqa: BLE001
                failures.append(error)

        threads = [
            threading.Thread(target=hit, args=(url,))
            for url in client_urls
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
