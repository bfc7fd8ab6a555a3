"""HTTP serving smoke: boot two lakes, drive, drain — prove nothing leaks.

The CI ``http-smoke`` job's entry point.  Serves a two-lake
:class:`repro.Workspace` (the TUS *small* fixture plus a second SB
lake) through the real :mod:`repro.serving.http` stack — one shared
persistent 2-worker pool across both lakes — drives the namespaced
routes and an async job to completion with the bundled
:class:`repro.serving.client.HomographClient`, checks that no
un-prefixed lake route answers, drains, and then fails on any of the
leak classes an in-process test can miss:

* a ``ResourceWarning`` raised anywhere during the run or surfaced by
  the final garbage-collection sweep (unclosed sockets, files);
* a thread still alive after the drain (handler threads, the accept
  loop, dispatcher threads);
* a ``/dev/shm`` shared-memory segment that survived the drain.

Run directly (CI does)::

    python -W error::ResourceWarning tools/http_smoke.py

``--snapshot`` runs the persistence scenario instead: build a
TUS-small snapshot, serve it (job spill in the snapshot's ``jobs/``
area), drive a cache-hit detect plus an async job, *kill* the server,
restart from the same snapshot, and prove the finished job and the
warmed cache both survived — under exactly the same leak checks.  The
restarted server also mounts a copy of the committed format-1
snapshot (``tests/data/figure1-format1``, written by library 2.0) and
byte-checks its warm rankings.

``--cluster`` runs the replication scenario: a
:class:`repro.cluster.ReplicaSupervisor` fleet of two ``domainnet
serve`` subprocesses over one snapshot behind a
:class:`repro.cluster.ClusterRouter`, mutations through the router
replicated to byte-identical state, one replica SIGKILLed and healed
back into the pool — again under the same leak checks (supervisor
loops, router threads, and subprocess pipes must all be gone).
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: A format-1 snapshot (figure-1 lake, LCC and exact betweenness warm).
FORMAT1_FIXTURE = REPO_ROOT / "tests" / "data" / "figure1-format1"


def drive(client, tus_size: int, sb_size: int) -> None:
    """Exercise the multi-lake surface against the served workspace."""
    from repro import ServiceError, Table

    health = client.healthz()
    assert health == {"status": "ok", "lakes": ["tus", "sb"]}, health

    listing = client.lakes()
    by_name = {lake["name"]: lake for lake in listing["lakes"]}
    assert by_name["tus"]["tables"] == tus_size, listing
    assert by_name["sb"]["tables"] == sb_size, listing

    tus = client.lake("tus")
    sb = client.lake("sb")

    # Cross-lake: sampled betweenness on tus, LCC on sb — both ride
    # the one shared pool; the repeated call must come from the cache.
    first = tus.detect(measure="betweenness", sample_size=60, seed=7)
    again = tus.detect(measure="betweenness", sample_size=60, seed=7)
    assert first.scores and not first.cached
    assert again.cached
    assert again.scores == first.scores
    sb_response = sb.detect(measure="lcc")
    assert sb_response.scores
    assert set(sb_response.scores) != set(first.scores)

    # A lake is reached only by name: the un-prefixed route is gone.
    try:
        client._request("POST", "/detect", payload={"measure": "lcc"})
    except ServiceError as error:
        assert (error.status, error.code) == (404, "unknown-route"), error
    else:
        raise AssertionError("un-prefixed POST /detect answered")

    # Cursor pagination must cover the ranking exactly once (and the
    # pages travel gzip-compressed — the client decompresses).
    walked = list(tus.iter_ranking(
        "betweenness", limit=500, sample_size=60, seed=7
    ))
    assert walked == list(first.ranking), "paged traversal diverged"

    # Async job: submit on the sb lake, poll to completion, and check
    # the terminal payload is byte-identical to the synchronous
    # (cached) response.
    job_id = sb.submit(measure="lcc")
    async_response = client.wait(job_id, timeout=120.0)
    assert async_response.cached      # the sync run above computed it
    snapshot = client.poll(job_id)
    sync_payload = json.dumps(
        sb.detect(measure="lcc").to_dict(), sort_keys=True)
    async_payload = json.dumps(snapshot["response"], sort_keys=True)
    assert async_payload == sync_payload, "async/sync payloads diverged"
    cancelled = client.cancel_job(job_id)             # finished: no-op
    assert cancelled["state"] == "done", cancelled

    # Live mutation through the namespaced API invalidates one lake.
    tus.add_table(Table.from_columns(
        "smoke_extra", {"animal": ["Jaguar", "Jaguar"], "n": ["1", "2"]}
    ))
    mutated = tus.detect(measure="betweenness", sample_size=60, seed=7)
    assert not mutated.cached
    sb_again = sb.detect(measure="lcc")
    assert sb_again.cached, "sibling lake's cache was clobbered"
    tus.remove_table("smoke_extra")

    stats = client.stats()
    assert set(stats["lakes"]) == {"tus", "sb"}, stats
    assert stats["lakes"]["tus"]["cache"]["misses"] >= 2, stats
    assert stats["http"]["rejected"] == 0, stats
    # The two-level admission gate: fair by default, one quota slot
    # per mounted lake, and this single-client drive never rejects.
    gate = stats["http"]["gate"]
    assert gate["fair"] is True, gate
    assert set(gate["lakes"]) == {"tus", "sb"}, gate
    for lake_gate in gate["lakes"].values():
        assert lake_gate["in_flight"] == 0, gate
        assert lake_gate["quota"] >= 1, gate
        assert lake_gate["rejected"] == 0, gate
    assert gate["rejected_global"] == 0, gate
    assert stats["jobs"]["tracked"] == 1, stats
    assert stats["workspace"]["pool"]["alive"] is True, stats
    assert stats["workspace"]["pool"]["jobs"] == 2, stats
    print(f"drove {stats['http']['served']} responses; "
          f"tus cache={stats['lakes']['tus']['cache']}; "
          f"pool={stats['workspace']['pool']}; "
          f"jobs={stats['jobs']}")


def check_body_bytes(server, index, lake: str, request) -> None:
    """Raw response bytes equal the in-process ``json.dumps`` bytes.

    Over one keep-alive connection, with no ``Accept-Encoding``, fetch
    a full ``POST /lakes/<lake>/detect`` export and a cursor walk of
    ``GET /lakes/<lake>/ranking`` pages, twice: the first pass fills
    the cached ranking's memo of encoded rows, the second is served
    from it.  Every body
    must equal ``json.dumps(..., sort_keys=True)`` of the in-process
    answer — ``DetectResponse.to_dict()`` for the export,
    ``RankingPage.to_dict()`` plus ``cached`` for each page.
    """
    import http.client
    import urllib.parse

    def dumps(payload) -> bytes:
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    expected = index.detect(request)    # cached from here on
    params = {
        name: value
        for name, value in request.to_dict().items()
        if name in ("sample_size", "seed") and value is not None
    }
    limit = 500
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=120.0)

    def fetch(method: str, target: str, body=None) -> bytes:
        connection.request(method, target, body=body)
        reply = connection.getresponse()
        raw = reply.read()
        assert reply.status == 200, (target, reply.status, raw[:200])
        assert reply.getheader("Content-Encoding") is None, target
        return raw

    pages = 0
    try:
        for _ in range(2):
            raw = fetch("POST", f"/lakes/{lake}/detect",
                        json.dumps(request.to_dict()).encode("utf-8"))
            assert raw == dumps(index.detect(request).to_dict()), (
                "export bytes diverged from json.dumps"
            )
            cursor = None
            while True:
                query = {**params, "limit": limit}
                if cursor is not None:
                    query["cursor"] = cursor
                raw = fetch("GET", f"/lakes/{lake}/ranking/"
                            f"{request.measure}?"
                            + urllib.parse.urlencode(query))
                page = expected.ranking.page(cursor, limit)
                assert raw == dumps({**page.to_dict(), "cached": True}), (
                    f"page bytes diverged from json.dumps at {cursor}"
                )
                pages += 1
                cursor = page.next_cursor
                if cursor is None:
                    break
    finally:
        connection.close()
    print(f"byte check on {lake!r}: 2 exports and {pages} pages equal "
          f"the in-process json.dumps bytes")


def scenario_multilake() -> None:
    """The original smoke: two lakes, one pool, drive and drain."""
    from repro import (
        DetectRequest,
        ExecutionConfig,
        HomographClient,
        Workspace,
        start_server,
    )
    from repro.bench.synthetic import SBConfig, generate_sb
    from repro.bench.tus import TUSConfig, generate_tus

    tus_dataset = generate_tus(TUSConfig.small(seed=0))
    sb_dataset = generate_sb(SBConfig(seed=0))
    print(f"TUS small: {len(tus_dataset.lake)} tables; "
          f"SB: {len(sb_dataset.lake)} tables")
    workspace = Workspace(
        execution=ExecutionConfig(
            backend="process", n_jobs=2, persistent=True
        ),
    )
    workspace.attach("tus", tus_dataset.lake)
    workspace.attach("sb", sb_dataset.lake)
    server = start_server(workspace, port=0)
    print(f"serving {len(workspace)} lakes on {server.url}")
    try:
        client = HomographClient(server.url, timeout=120.0)
        client.wait_ready(timeout=30.0)
        drive(
            client,
            tus_size=len(tus_dataset.lake),
            sb_size=len(sb_dataset.lake),
        )
        check_body_bytes(
            server, workspace.get("tus"), "tus",
            DetectRequest(measure="betweenness", sample_size=60, seed=7),
        )
    finally:
        server.drain()
    assert workspace.closed


def scenario_snapshot() -> None:
    """The persistence smoke: snapshot, serve, kill, restart, verify."""
    from repro import (
        DataLake,
        DetectRequest,
        HomographClient,
        HomographIndex,
        Table,
        Workspace,
        start_server,
    )
    from repro.bench.tus import TUSConfig, generate_tus
    from repro.snapshot import jobs_dir, load_manifest

    dataset = generate_tus(TUSConfig.small(seed=0))
    with tempfile.TemporaryDirectory(prefix="domainnet-snap-") as tmp:
        snap = Path(tmp) / "tus"
        started = time.monotonic()
        with HomographIndex(dataset.lake) as builder:
            builder.detect(measure="lcc")       # ship a warm ranking
            builder.save(snap)
        build_seconds = time.monotonic() - started
        manifest = load_manifest(snap)
        print(f"built snapshot in {build_seconds:.2f}s "
              f"({manifest['graph']['num_edges']} edges, "
              f"{manifest['scores']} warm score(s))")

        # First server generation: mount the snapshot, spill jobs
        # into its jobs/ area, complete one async job.
        workspace = Workspace()
        started = time.monotonic()
        workspace.attach("tus", str(snap))
        load_seconds = time.monotonic() - started
        print(f"mounted snapshot in {load_seconds*1000:.1f}ms")
        assert load_seconds < build_seconds, "snapshot load too slow"
        server = start_server(
            workspace, port=0, job_dir=str(jobs_dir(snap))
        )
        try:
            client = HomographClient(server.url, timeout=120.0).lake("tus")
            client.wait_ready(timeout=30.0)
            warm = client.detect(measure="lcc")
            assert warm.cached, "snapshot cache was not pre-warmed"
            job_id = client.submit(measure="lcc")
            HomographClient(server.url, timeout=120.0).wait(
                job_id, timeout=120.0
            )
        finally:
            server.drain()        # the "kill": full teardown
        assert workspace.closed
        del client, server, workspace
        gc.collect()

        # Second generation: a brand-new process would do exactly
        # this — same snapshot, same job_dir, nothing else shared.
        workspace = Workspace()
        workspace.attach("tus", str(snap))
        server = start_server(
            workspace, port=0, job_dir=str(jobs_dir(snap))
        )
        try:
            base = HomographClient(server.url, timeout=120.0)
            base.wait_ready(timeout=30.0)
            job = base.poll(job_id)
            assert job["state"] == "done", job
            assert job["response"]["measure"] == "lcc", job
            print("finished job survived the restart")
            # The warm ranking was loaded from the snapshot: its row
            # memo starts empty and fills from the first fetch.
            check_body_bytes(
                server, workspace.get("tus"), "tus",
                DetectRequest(measure="lcc"),
            )
            tus_client = base.lake("tus")
            again = tus_client.detect(measure="lcc")
            assert again.cached, "restart lost the warmed cache"

            # A format-1 snapshot still mounts and serves its warm
            # rankings byte for byte (a copy: a mount adds jobs/).
            fixture = Path(tmp) / "format1"
            shutil.copytree(FORMAT1_FIXTURE, fixture)
            base.mount_lake("format1", str(fixture))
            assert load_manifest(fixture)["format"] == 1
            for measure in ("lcc", "betweenness"):
                check_body_bytes(
                    server, workspace.get("format1"), "format1",
                    DetectRequest(measure=measure),
                )

            # Mutate-then-detect on the snapshot-mounted (read-only
            # mmap) lake: a freshly computed ranking carries
            # maintenance state, so the add splices the CSR arrays
            # (copy-on-write — the snapshot files stay untouched) and
            # patches the ranking instead of dropping it.
            fresh = tus_client.detect(
                measure="lcc", lcc_variant="value-neighbors"
            )
            assert not fresh.cached
            extra = Table.from_columns(
                "smoke_delta",
                {"a": ["zz-a", "zz-b", "zz-a"],
                 "b": ["zz-b", "zz-c", "zz-c"]},
            )
            body = tus_client.add_table(extra)
            mutation = body["mutation"]
            assert mutation["fallback"] is None, mutation
            assert mutation["patched_entries"] >= 1, mutation
            assert mutation["delta_values"] > 0, mutation
            patched = tus_client.detect(
                measure="lcc", lcc_variant="value-neighbors"
            )
            assert patched.cached, "patched entry must serve as a hit"
            oracle_lake = DataLake(t for t in dataset.lake)
            oracle_lake.add_table(extra)
            with HomographIndex(oracle_lake) as oracle:
                want = oracle.detect(
                    measure="lcc", lcc_variant="value-neighbors"
                )
                assert patched.scores == want.scores, (
                    "patched snapshot-mounted scores diverged from a "
                    "from-scratch rebuild"
                )
            removed = tus_client.remove_table("smoke_delta")
            assert removed["mutation"]["op"] == "remove", removed
            print("snapshot-mounted mutate-then-detect: delta splice "
                  f"patched {mutation['patched_entries']} entr(y/ies), "
                  f"parity vs rebuild held")

            # Runtime mount/unmount over HTTP, against a second copy.
            second = Path(tmp) / "tus2"
            with HomographIndex(dataset.lake) as builder:
                builder.save(second)
            mounted = base.mount_lake("tus2", str(second))
            assert mounted["snapshot"] == str(second), mounted
            assert base.unmount_lake("tus2")["detached"] is True
        finally:
            server.drain()
        del base, server, workspace
        gc.collect()  # release mmap handles before the tempdir dies


def scenario_cluster() -> None:
    """The replication smoke: fleet up, replicate, kill, heal, drain."""
    import signal

    from repro import HomographClient, HomographIndex, Table
    from repro.bench.synthetic import SBConfig, generate_sb
    from repro.cluster import start_cluster

    def wait_for(predicate, timeout=60.0, interval=0.05):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(interval)
        return predicate()

    dataset = generate_sb(SBConfig(seed=0))
    with tempfile.TemporaryDirectory(prefix="domainnet-cluster-") as tmp:
        snap = Path(tmp) / "sb"
        with HomographIndex(dataset.lake) as builder:
            builder.detect(measure="lcc")       # ship a warm ranking
            builder.save(snap)

        started = time.monotonic()
        supervisor, router = start_cluster(snap, replicas=2)
        try:
            print(f"fleet of 2 up in {time.monotonic()-started:.1f}s "
                  f"behind {router.url}")
            client = HomographClient(router.url, timeout=120.0)
            client.wait_ready(timeout=30.0)

            # The router speaks the ordinary protocol: version, warm
            # cache hit, ranking pages — unchanged client code.
            version = client.version()
            assert version["library"], version
            warm = client.lake("sb").detect(measure="lcc")
            assert warm.cached, "snapshot cache was not pre-warmed"
            assert list(client.lake("sb").iter_ranking("lcc", limit=50))

            # Mutations pin to the primary, record in the oplog, and
            # replicate to bit-identical state.
            sb = client.lake("sb")
            body = sb.add_table(Table.from_columns(
                "smoke_repl",
                {"a": ["zz-a", "zz-b"], "b": ["zz-b", "zz-c"]},
            ))
            assert body["oplog_seq"] == 1, body
            sb.remove_table("smoke_repl")
            replica = supervisor.replicas.get("replica-1")
            assert wait_for(
                lambda: replica.applied_seq == 2
                and replica.oplog_lag == 0
            ), supervisor.replicas.stats()
            primary_rank = list(HomographClient(
                supervisor.replicas.primary.url, timeout=120.0,
            ).lake("sb").iter_ranking("lcc"))
            replica_rank = list(HomographClient(
                replica.url, timeout=120.0,
            ).lake("sb").iter_ranking("lcc"))
            assert primary_rank == replica_rank, "replica diverged"
            print(f"replicated 2 mutations; rankings identical over "
                  f"{len(primary_rank)} entries")

            # SIGKILL the replica mid-traffic: reads keep answering,
            # the supervisor respawns and resyncs it.
            os.kill(supervisor.stats()["pids"]["replica-1"],
                    signal.SIGKILL)
            for _ in range(8):
                assert client.lake("sb").detect(measure="lcc").scores
            assert wait_for(
                lambda: replica.restarts >= 1 and replica.healthy
            ), supervisor.replicas.stats()
            assert wait_for(
                lambda: replica.applied_seq == 2
                and replica.oplog_lag == 0
            ), supervisor.replicas.stats()
            print(f"replica healed after SIGKILL "
                  f"(restarts={replica.restarts})")

            stats = client._request("GET", "/cluster/stats")
            assert stats["router"]["bad_gateway"] == 0, stats
            assert all(row["healthy"] for row in stats["replicas"]), (
                stats
            )
        finally:
            router.drain()
            supervisor.stop()
        gc.collect()  # release mmap handles before the tempdir dies


def main() -> int:
    """Run the smoke; non-zero exit on any failure or leak."""
    if "--cluster" in sys.argv[1:]:
        scenario = scenario_cluster
    elif "--snapshot" in sys.argv[1:]:
        scenario = scenario_snapshot
    else:
        scenario = scenario_multilake
    shm_before = (
        set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else None
    )

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        scenario()
        # Surface unclosed-resource finalizers now, inside the recorder.
        gc.collect()
        gc.collect()

    failures = []

    resource_warnings = [
        w for w in caught if issubclass(w.category, ResourceWarning)
    ]
    for warning in resource_warnings:
        failures.append(f"ResourceWarning: {warning.message} "
                        f"({warning.filename}:{warning.lineno})")

    leaked_threads = [
        t for t in threading.enumerate()
        if t is not threading.current_thread() and t.is_alive()
    ]
    for thread in leaked_threads:
        failures.append(f"leaked thread after drain: {thread!r}")

    if shm_before is not None:
        leaked_shm = set(os.listdir("/dev/shm")) - shm_before
        for name in sorted(leaked_shm):
            failures.append(f"leaked /dev/shm segment: {name}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"http smoke OK ({scenario.__name__}): no ResourceWarnings, "
          f"no leaked threads, no leaked shared memory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
