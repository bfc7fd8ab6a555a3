"""Process-level failover: kill -9 a replica under live load, drop 0.

The PR-10 acceptance proof, asserted rather than benchmarked: a
:class:`~repro.cluster.ReplicaSupervisor` fleet of three ``domainnet
serve`` processes behind a :class:`~repro.cluster.ClusterRouter`
serves a ``run_load`` mixed read workload while one replica is
SIGKILLed mid-run — and the load report shows **zero** client-visible
errors, because the router retried the dying replica's in-flight
reads on its siblings.  The supervisor then restarts the victim and
resyncs it from the primary's oplog back to byte-identical rankings.

Also here: the version fingerprint in ``/cluster/stats``, router
mutation fan-in (writes land once, on the primary, and replicate),
and the rolling restart draining every member without a dropped read.

Subprocess-heavy and deliberately small: one snapshot, short load
windows, jobs-free mix (an async job is sticky to one process; a
SIGKILL between submit and poll would be an honest client-visible
failure, which is exactly why the kill targets read traffic).
"""

import os
import signal
import threading
import time

import pytest

from repro import HomographClient, HomographIndex, Table
from repro.bench.loadgen import build_mixed_schedule, run_load
from repro.cluster import start_cluster

from tests.conftest import make_figure1_lake

#: Read-only op mix: no "job" (sticky) and no "mutate" (primary-pinned
#: but not retryable) — every op the router may replay on a sibling.
READ_MIX = (
    ("detect_hit", 50),
    ("ranking", 35),
    ("detect_miss", 15),
)


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """A three-member fleet over one published snapshot, plus router."""
    snapshot = tmp_path_factory.mktemp("cluster") / "zoo"
    index = HomographIndex(make_figure1_lake())
    index.save(snapshot)
    supervisor, router = start_cluster(snapshot, replicas=3)
    try:
        yield supervisor, router
    finally:
        router.drain()
        supervisor.stop()


def _wait(predicate, timeout=30.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def test_fleet_serves_reads_from_every_member(cluster):
    supervisor, router = cluster
    client = HomographClient(router.url, timeout=30.0)
    client.wait_ready()
    stats = client._request("GET", "/cluster/stats")
    assert {row["name"] for row in stats["replicas"]} == {
        "primary", "replica-1", "replica-2",
    }
    assert all(row["healthy"] for row in stats["replicas"])
    fingerprint = stats["supervisor"]["fingerprint"]
    assert fingerprint["library"] and fingerprint["snapshot_format"]


def test_kill_dash_nine_drops_zero_reads(cluster):
    supervisor, router = cluster
    victim = supervisor.replicas.get("replica-2")
    pid = supervisor.stats()["pids"]["replica-2"]
    schedules = [
        build_mixed_schedule(["zoo"], ops=30, seed=w, mix=READ_MIX)
        for w in range(3)
    ]
    killer = threading.Timer(
        1.0, lambda: os.kill(pid, signal.SIGKILL)
    )
    killer.start()
    try:
        report = run_load(router.url, schedules, duration=4.0)
    finally:
        killer.cancel()
    # The victim really died mid-run...
    assert _wait(lambda: victim.restarts >= 1)
    # ...and not one read surfaced a failure to a client.
    assert report.errors == {}
    assert report.completed > 0
    # The supervisor healed it back into the pool.
    assert _wait(lambda: victim.healthy)
    HomographClient(victim.url, timeout=30.0).wait_ready()


def test_mutations_replicate_to_byte_identical_rankings(cluster):
    supervisor, router = cluster
    client = HomographClient(router.url, timeout=30.0).lake("zoo")
    chain = (
        ("add", Table.from_columns(
            "F1", {"A": ["Jaguar", "Osprey"], "B": ["1", "2"]})),
        ("add", Table.from_columns(
            "F2", {"A": ["Puma", "Asics"], "B": ["1", "2"]})),
        ("remove", "F1"),
        ("add", Table.from_columns(
            "F1", {"A": ["Jaguar", "Heron"], "B": ["1", "2"]})),
        ("add", Table.from_columns(
            "F3", {"A": ["Panda", "Bamboo"], "B": ["1", "2"]})),
    )
    for op, payload in chain:
        if op == "add":
            response = client.add_table(payload)
            assert "oplog_seq" in response  # landed on the primary
        else:
            client.remove_table(payload)
    expected_seq = supervisor.replicas.primary.url and 5
    assert _wait(lambda: all(
        replica.oplog_lag == 0 and replica.applied_seq >= expected_seq
        for replica in supervisor.replicas
        if replica.role != "primary"
    )), supervisor.replicas.stats()
    rankings = {}
    for replica in supervisor.replicas:
        direct = HomographClient(replica.url, timeout=30.0).lake("zoo")
        rankings[replica.name] = [
            (entry.rank, entry.value, entry.score)
            for entry in direct.iter_ranking("betweenness")
        ]
    assert (
        rankings["primary"]
        == rankings["replica-1"]
        == rankings["replica-2"]
    )


def test_rolling_restart_drops_zero_reads(cluster):
    supervisor, router = cluster
    stop = threading.Event()
    failures = []

    def reader(worker_id):
        worker = HomographClient(
            router.url, timeout=30.0,
            retry_overloaded=100, retry_backoff=0.05,
        ).lake("zoo")
        while not stop.is_set():
            try:
                worker.detect(measure="lcc")
            except Exception as error:  # noqa: BLE001 - recorded
                failures.append((worker_id, repr(error)))

    threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(3)
    ]
    for thread in threads:
        thread.start()
    try:
        supervisor.rolling_restart()
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert failures == []
    # Every member cycled exactly once more and rejoined healthy.
    assert all(replica.healthy for replica in supervisor.replicas)
    # The primary recovered its oplog across the restart: the next
    # mutation continues the sequence instead of restarting it.
    client = HomographClient(router.url, timeout=30.0).lake("zoo")
    response = client.add_table(Table.from_columns(
        "F9", {"A": ["Heron", "Crane"], "B": ["1", "2"]}
    ))
    assert response["oplog_seq"] == 6
