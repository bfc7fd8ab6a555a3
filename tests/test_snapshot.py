"""Snapshot persistence: round trips, corruption, mounts, job spill.

The contract under test, end to end:

* ``HomographIndex.save`` writes a versioned directory that
  ``HomographIndex.load`` maps back bit-exactly (mmap-backed CSR,
  ``writeable=False`` preserved) without rebuilding the graph;
* a pre-warmed configuration served from a loaded snapshot produces
  *byte-identical* ``DetectResponse`` JSON to the fresh index's own
  cache hit;
* every corruption mode — truncated array, flipped byte, future
  format version — surfaces as a typed ``SnapshotError`` subclass,
  never a raw numpy/OS exception, and a workspace that failed one
  mount keeps serving its other lakes;
* detaching a snapshot-mounted lake releases the mmap file handles,
  so the snapshot directory is deletable afterwards;
* a mount reads ``lake.json`` but parses it only on the lake's first
  use, and a format-1 snapshot written by the 2.0 library
  (``tests/data/figure1-format1``) still serves byte-identical bodies
  and republishes as format 2;
* ``POST /lakes`` / ``DELETE /lakes/<name>`` mount and unmount lakes
  at runtime (bearer auth enforced, 409 on duplicate names);
* finished async jobs spilled to a ``persist_dir`` survive a manager
  (and server) restart until the TTL expires them.
"""

import gc
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import (
    DetectRequest,
    HomographIndex,
    SnapshotCorruptionError,
    SnapshotError,
    SnapshotVersionError,
    Table,
    Workspace,
    is_snapshot,
    load_snapshot,
    start_server,
)
from repro.serving.client import HomographClient, ServiceError
from repro.serving.jobs import JobManager
from repro.snapshot import FORMAT_VERSION, artifacts, load_manifest
from repro.snapshot.store import file_sha256

from tests.conftest import make_figure1_lake

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A format-1 snapshot written by library 2.0.0: the figure-1 lake
#: with LCC and exact betweenness warm.  Tests mount copies of it.
FORMAT1_FIXTURE = Path(__file__).resolve().parent / "data" / "figure1-format1"

WARM_REQUESTS = (
    DetectRequest(measure="lcc"),
    DetectRequest(measure="betweenness", sample_size=8, seed=3),
)


def build_snapshot_dir(tmp_path, name="snap"):
    """Build, warm, and save a figure-1 snapshot; returns its path."""
    target = tmp_path / name
    with HomographIndex(make_figure1_lake()) as index:
        for request in WARM_REQUESTS:
            index.detect(request)
        manifest = index.save(target)
    assert manifest["format"] == FORMAT_VERSION
    return target


@pytest.fixture
def snapshot_dir(tmp_path):
    return build_snapshot_dir(tmp_path)


class TestRoundTrip:
    def test_save_load_is_bit_exact(self, snapshot_dir, figure1_lake):
        fresh = HomographIndex(figure1_lake).graph
        loaded = load_snapshot(snapshot_dir)
        assert np.array_equal(loaded.graph.indptr, fresh.indptr)
        assert np.array_equal(loaded.graph.indices, fresh.indices)
        assert loaded.graph.value_names == fresh.value_names
        assert loaded.graph.attribute_names == fresh.attribute_names
        assert len(loaded.lake) == len(figure1_lake)
        assert len(loaded.responses) == len(WARM_REQUESTS)

    def test_mmap_load_preserves_frozen_arrays(self, snapshot_dir):
        loaded = load_snapshot(snapshot_dir)
        # The arrays must stay file-backed memmaps (the process
        # backend exports them by path) and read-only (PR-2 invariant).
        for array in (loaded.graph.indptr, loaded.graph.indices):
            assert isinstance(array, np.memmap)
            assert array.flags.writeable is False
            with pytest.raises((ValueError, RuntimeError)):
                array[0] = 7

    def test_copy_load_also_frozen(self, snapshot_dir):
        loaded = load_snapshot(snapshot_dir, mmap=False)
        assert not isinstance(loaded.graph.indptr, np.memmap)
        assert loaded.graph.indptr.flags.writeable is False

    def test_is_snapshot_and_manifest(self, snapshot_dir, tmp_path):
        assert is_snapshot(snapshot_dir)
        assert not is_snapshot(tmp_path)
        assert not is_snapshot(snapshot_dir / "missing")
        manifest = load_manifest(snapshot_dir)
        assert manifest["scores"] == len(WARM_REQUESTS)
        files = manifest["files"]
        for required in ("graph/indptr.npy", "graph/indices.npy",
                         "vocab.json", "lake.json", "profiles.json"):
            assert required in files
            assert len(files[required]["sha256"]) == 64

    def test_save_replaces_existing_snapshot_atomically(
        self, snapshot_dir
    ):
        before = load_manifest(snapshot_dir)
        with HomographIndex(make_figure1_lake()) as index:
            index.detect(measure="lcc")
            index.save(snapshot_dir)  # overwrite in place
        after = load_manifest(snapshot_dir)
        assert after["scores"] == 1
        assert after["created_at"] >= before["created_at"]
        load_snapshot(snapshot_dir)  # still verifies clean

    def test_republish_preserves_spilled_jobs(self, snapshot_dir):
        # save-on-exit republishes over a snapshot whose jobs/ area
        # already holds terminal spills; they must carry over, or a
        # restart would 404 the jobs it promised to restore.
        spill = snapshot_dir / "jobs" / "deadbeef.json"
        spill.write_text('{"job": {"state": "done"}}')
        with HomographIndex(make_figure1_lake()) as index:
            index.save(snapshot_dir)
        assert spill.read_text() == '{"job": {"state": "done"}}'
        load_manifest(snapshot_dir)  # spills never poison the hashes


class TestResponseParity:
    def test_loaded_cache_hit_is_byte_identical(self, tmp_path):
        request = WARM_REQUESTS[1]
        target = tmp_path / "parity"
        with HomographIndex(make_figure1_lake()) as fresh:
            fresh.detect(request)
            fresh.save(target)
            fresh_hit = fresh.detect(request)  # served from cache
        assert fresh_hit.cached
        with HomographIndex.load(target) as loaded:
            loaded_hit = loaded.detect(request)
        # measure_seconds is wall clock, so the honest comparison is
        # cache-hit vs cache-hit: both serve the one stored
        # computation the snapshot captured.
        assert loaded_hit.cached
        assert loaded_hit.to_json() == fresh_hit.to_json()

    def test_load_skips_graph_build(self, snapshot_dir):
        with HomographIndex.load(snapshot_dir) as index:
            stats = index.stats()
            assert stats["graph_built"] is True
            assert stats["snapshot"] == str(snapshot_dir)
            assert stats["cache"]["size"] == len(WARM_REQUESTS)

    def test_loaded_index_still_mutable(self, snapshot_dir):
        from repro import Table

        with HomographIndex.load(snapshot_dir) as index:
            index.add_table(Table.from_columns(
                "T9", {"c": ["Jaguar", "Okapi"]}
            ))
            response = index.detect(measure="lcc")
            assert not response.cached  # mutation invalidated the cache
            assert len(index.lake) == 5


class TestCorruption:
    def corrupt(self, snapshot_dir, mutate):
        mutate(snapshot_dir)
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(snapshot_dir)
        # Typed surface only: never a raw numpy/OS error.
        assert isinstance(excinfo.value, SnapshotError)
        return excinfo.value

    def test_truncated_array(self, snapshot_dir):
        path = snapshot_dir / "graph" / "indices.npy"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        error = self.corrupt(snapshot_dir, lambda root: None)
        assert isinstance(error, SnapshotCorruptionError)

    def test_flipped_byte(self, snapshot_dir):
        path = snapshot_dir / "graph" / "indptr.npy"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # same size, different content
        path.write_bytes(bytes(data))
        error = self.corrupt(snapshot_dir, lambda root: None)
        assert isinstance(error, SnapshotCorruptionError)
        assert "sha256" in str(error) or "hash" in str(error)

    def test_future_format_version(self, snapshot_dir):
        manifest_path = snapshot_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        error = self.corrupt(snapshot_dir, lambda root: None)
        assert isinstance(error, SnapshotVersionError)

    def test_missing_manifest(self, snapshot_dir):
        (snapshot_dir / "manifest.json").unlink()
        with pytest.raises(SnapshotCorruptionError):
            load_manifest(snapshot_dir)

    def test_unsorted_csr_row(self, snapshot_dir):
        # Swap two neighbors in one row: sizes and the edge count stay
        # consistent, but splice_rows' merges assume sorted rows.
        path = snapshot_dir / "graph" / "indices.npy"
        indptr = np.load(snapshot_dir / "graph" / "indptr.npy")
        indices = np.load(path)
        row = int(np.flatnonzero(np.diff(indptr) >= 2)[0])
        first = int(indptr[row])
        indices[[first, first + 1]] = indices[[first + 1, first]]
        np.save(path, indices)
        with pytest.raises(SnapshotCorruptionError, match="ascending"):
            load_snapshot(snapshot_dir, verify=False)

    def test_workspace_keeps_serving_after_failed_mount(
        self, snapshot_dir, figure1_lake
    ):
        (snapshot_dir / "graph" / "indices.npy").write_bytes(b"junk")
        with Workspace() as workspace:
            workspace.attach("good", figure1_lake)
            with pytest.raises(SnapshotError):
                workspace.attach("bad", str(snapshot_dir))
            assert workspace.names() == ("good",)
            response = workspace.get("good").detect(measure="lcc")
            assert len(response.ranking.top(1)) == 1


def break_lake_json(root):
    """Make ``lake.json`` unparseable, with the manifest still verifying."""
    lake_file = root / "lake.json"
    lake_file.write_bytes(b'{"tables": [{"name": "T1"')
    manifest_path = root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"]["lake.json"] = {
        "bytes": lake_file.stat().st_size,
        "sha256": file_sha256(lake_file),
    }
    manifest_path.write_text(json.dumps(manifest))


EXTRA = Table.from_columns("T9", {"c": ["Jaguar", "Okapi", "Okapi"]})


class TestDeferredLake:
    """A mount reads ``lake.json`` and parses it on the lake's first use."""

    def test_reads_and_stats_do_not_parse_the_lake(self, snapshot_dir):
        break_lake_json(snapshot_dir)   # any parse would raise
        with HomographIndex.load(snapshot_dir) as index:
            assert len(index.lake) == 4          # the manifest count
            for request in WARM_REQUESTS:
                response = index.detect(request)
                assert response.cached
                response.to_json_bytes()
                response.ranking.page(None, 2).to_json_bytes()
            assert index.stats()["tables"] == 4
            assert not index.lake.loaded

    def test_first_mutation_parse_error_keeps_the_old_state(
        self, snapshot_dir
    ):
        break_lake_json(snapshot_dir)
        with HomographIndex.load(snapshot_dir) as index:
            bodies = [index.detect(r).to_json_bytes() for r in WARM_REQUESTS]
            before = index.stats()
            graph = index.graph
            for mutate in (
                lambda: index.add_table(EXTRA),
                lambda: index.remove_table("T1"),
                lambda: index.replace_table(EXTRA),
            ):
                with pytest.raises(SnapshotCorruptionError,
                                   match="lake.json"):
                    mutate()
            assert not index.lake.loaded and len(index.lake) == 4
            assert index.graph is graph
            assert index.stats() == before
            assert index.last_mutation is None
            assert [
                index.detect(r).to_json_bytes() for r in WARM_REQUESTS
            ] == bodies

    def test_first_mutation_parses_the_lake(self, snapshot_dir):
        with HomographIndex.load(snapshot_dir) as index:
            assert not index.lake.loaded
            index.add_table(EXTRA)
            assert index.lake.loaded
            assert index.lake.table_names == ["T1", "T2", "T3", "T4", "T9"]

    def test_lake_outlives_its_snapshot_directory(self, snapshot_dir):
        with HomographIndex.load(snapshot_dir) as index:
            shutil.rmtree(snapshot_dir)
            assert index.lake.table_names == ["T1", "T2", "T3", "T4"]

    def test_republish_does_not_change_a_mounted_lake(self, snapshot_dir):
        with HomographIndex.load(snapshot_dir) as index:
            lake = make_figure1_lake()
            lake.add_table(EXTRA)
            with HomographIndex(lake) as other:
                other.save(snapshot_dir)
            assert len(load_snapshot(snapshot_dir).lake) == 5
            assert index.lake.table_names == ["T1", "T2", "T3", "T4"]

    def test_table_count_mismatch_is_corruption(self, snapshot_dir):
        manifest = json.loads((snapshot_dir / "manifest.json").read_text())
        manifest["tables"] = 7
        (snapshot_dir / "manifest.json").write_text(json.dumps(manifest))
        with HomographIndex.load(snapshot_dir) as index:
            assert len(index.lake) == 7
            with pytest.raises(SnapshotCorruptionError, match="7"):
                index.add_table(EXTRA)

    def test_serve_never_parses_the_lake(self, snapshot_dir):
        """Banner, /healthz, GET /lakes, /stats and reads over HTTP."""
        break_lake_json(snapshot_dir)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--snapshot",
             str(snapshot_dir), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=str(REPO_ROOT),
        )
        try:
            banner = proc.stdout.readline()
            assert "4 tables" in banner, banner
            port = int(re.search(r"http://127\.0\.0\.1:(\d+)",
                                 banner).group(1))

            def exchange(method, path, body=None):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=30)
                try:
                    connection.request(method, path, body=body)
                    reply = connection.getresponse()
                    return reply.status, json.loads(reply.read())
                finally:
                    connection.close()

            name = snapshot_dir.name
            assert exchange("GET", "/healthz")[0] == 200
            status, listing = exchange("GET", "/lakes")
            assert status == 200 and listing["lakes"][0]["tables"] == 4
            status, stats = exchange("GET", "/stats")
            assert status == 200 and stats["lakes"][name]["tables"] == 4
            assert exchange("GET", f"/lakes/{name}/healthz")[0] == 200
            for request in WARM_REQUESTS:
                status, payload = exchange(
                    "POST", f"/lakes/{name}/detect",
                    json.dumps(request.to_dict()).encode())
                assert status == 200 and payload["cached"]
            status, page = exchange(
                "GET", f"/lakes/{name}/ranking/lcc?limit=2")
            assert status == 200 and page["cached"]
            # The first mutation is the first use: it reports the
            # malformed lake, and the reads keep serving.
            status, error = exchange(
                "POST", f"/lakes/{name}/tables",
                json.dumps({"name": "T9", "columns": {"c": ["x"]}}).encode())
            assert status == 500 and "lake.json" in error["error"]["message"]
            status, payload = exchange(
                "POST", f"/lakes/{name}/detect",
                json.dumps(WARM_REQUESTS[0].to_dict()).encode())
            assert status == 200 and payload["cached"]
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err


#: Ranking page size for the fixture's page-by-page byte checks.
FIXTURE_PAGE = 2


@pytest.fixture
def format1_dir(tmp_path):
    """A copy of the format-1 fixture (a mount adds ``jobs/``)."""
    target = tmp_path / "format1"
    shutil.copytree(FORMAT1_FIXTURE, target)
    return target


def fixture_payloads():
    """The fixture's stored ``DetectResponse.to_dict()`` payloads."""
    return [
        json.loads(path.read_text())
        for path in sorted((FORMAT1_FIXTURE / "scores").glob("*.json"))
    ]


def dumps(payload):
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def assert_serves_fixture_bytes(index):
    """Every body of every warm configuration equals the stored payload."""
    payloads = fixture_payloads()
    assert len(payloads) == 2
    for stored in payloads:
        response = index.detect(DetectRequest.from_dict(stored["request"]))
        assert response.cached
        expected = {**stored, "cached": True}
        for top in (None, 1):
            assert response.to_json_bytes(top=top) == dumps(
                {**expected, "ranking": expected["ranking"][:top]}
            )
        rows = stored["ranking"]
        for start in range(0, len(rows), FIXTURE_PAGE):
            stop = start + FIXTURE_PAGE
            page = response.ranking.page(
                str(start) if start else None, FIXTURE_PAGE
            )
            assert page.to_json_bytes(cached=True) == dumps({
                "measure": stored["measure"],
                "descending": stored["descending"],
                "total": len(rows),
                "next_cursor": str(stop) if stop < len(rows) else None,
                "entries": rows[start:stop],
                "cached": True,
            })


class TestFormatOneFixture:
    def test_fixture_mounts_as_format_1(self, format1_dir):
        manifest = load_manifest(format1_dir)
        assert manifest["format"] == 1 and "tables" not in manifest
        with HomographIndex.load(format1_dir) as index:
            assert index.cache_info().size == 2
            assert len(index.lake) == 4     # no manifest count: parses
            assert_serves_fixture_bytes(index)

    def test_mutation_matches_a_fresh_index(self, format1_dir):
        requests = [
            DetectRequest.from_dict(p["request"]) for p in fixture_payloads()
        ]
        with HomographIndex.load(format1_dir) as index:
            index.add_table(EXTRA)
            got = [index.detect(request) for request in requests]
        lake = make_figure1_lake()
        lake.add_table(EXTRA)
        with HomographIndex(lake) as fresh:
            want = [fresh.detect(request) for request in requests]
        for mounted, rebuilt in zip(got, want):
            assert mounted.ranking == rebuilt.ranking

    def test_save_republishes_as_format_2(self, format1_dir):
        with HomographIndex.load(format1_dir) as index:
            manifest = index.save(format1_dir)
        assert manifest["format"] == FORMAT_VERSION == 2
        assert manifest["tables"] == 4
        assert {"scores/0000.npy", "scores/0001.npy"} <= set(
            manifest["files"]
        )
        with HomographIndex.load(format1_dir) as index:
            assert not index.lake.loaded
            assert_serves_fixture_bytes(index)


def open_fds_into(directory):
    """File descriptors of this process pointing into ``directory``."""
    root = os.path.realpath(str(directory))
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith(root):
            held.append(target)
    return held


class TestWorkspaceMounts:
    def test_attach_autodetects_snapshot(self, snapshot_dir):
        with Workspace() as workspace:
            index = workspace.attach("snap", str(snapshot_dir))
            assert index.snapshot_path is not None
            hit = index.detect(WARM_REQUESTS[0])
            assert hit.cached  # pre-warmed from the snapshot

    def test_duplicate_name_keeps_loser_closed(self, snapshot_dir):
        from repro import DuplicateLakeError

        with Workspace() as workspace:
            workspace.attach("snap", str(snapshot_dir))
            with pytest.raises(DuplicateLakeError):
                workspace.attach("snap", str(snapshot_dir))
            # The losing load must not leak mmap handles forever: the
            # only handles left belong to the registered index.
            workspace.detach("snap")
        gc.collect()
        assert open_fds_into(snapshot_dir) == []

    def test_detach_releases_mmaps_and_dir_is_deletable(
        self, snapshot_dir, figure1_lake
    ):
        with Workspace() as workspace:
            workspace.attach("fresh", figure1_lake)
            workspace.attach("snap", str(snapshot_dir))
            assert workspace.get("snap").detect(
                WARM_REQUESTS[0]
            ).cached
            workspace.detach("snap")
            gc.collect()
            assert open_fds_into(snapshot_dir) == []
            shutil.rmtree(snapshot_dir)  # must not raise
            # The sibling lake is untouched by the unmount.
            workspace.get("fresh").detect(measure="lcc")


class TestPoolExport:
    def test_snapshot_graph_exports_by_file_not_shm(self, snapshot_dir):
        from repro import ExecutionConfig

        execution = ExecutionConfig(
            backend="process", n_jobs=2, persistent=True
        )
        request = DetectRequest(
            measure="betweenness", sample_size=4, seed=99
        )
        with HomographIndex.load(snapshot_dir) as serial:
            expected = serial.detect(request)
        assert not expected.cached  # not one of the warmed configs
        with Workspace(execution=execution) as workspace:
            index = workspace.attach("snap", str(snapshot_dir))
            response = index.detect(request)
            assert not response.cached
            # A file-backed CSR export copies nothing into /dev/shm:
            # workers mmap the snapshot files directly, so the export
            # owns zero shared-memory segments.
            backend = workspace.backend
            assert backend is not None
            assert backend.export_names == ()
            exports = list(backend._exports.values())
            assert len(exports) == 1  # the graph *was* exported...
            assert exports[0].segments == []  # ...with no shm copy
            assert exports[0].specs[0][0].startswith("file:")
        assert response.scores == expected.scores


class TestHTTPMounts:
    TOKEN = "s3cret"

    @pytest.fixture
    def served(self, figure1_lake):
        workspace = Workspace()
        workspace.attach("main", figure1_lake)
        server = start_server(workspace, port=0, auth_token=self.TOKEN)
        yield server
        server.drain()

    def client(self, server, lake=None):
        client = HomographClient(server.url, token=self.TOKEN)
        return client if lake is None else client.lake(lake)

    def test_mount_requires_auth(self, served, snapshot_dir):
        anonymous = HomographClient(served.url)
        with pytest.raises(ServiceError) as excinfo:
            anonymous.mount_lake("snap", str(snapshot_dir))
        assert excinfo.value.status == 401

    def test_mount_detect_unmount(self, served, snapshot_dir):
        client = self.client(served)
        result = client.mount_lake("snap", str(snapshot_dir))
        assert result["lake"] == "snap"
        assert result["snapshot"] == str(snapshot_dir)
        names = [
            lake["name"] for lake in client.lakes()["lakes"]
        ]
        assert names == ["main", "snap"]
        # The mounted snapshot answers a pre-warmed config from cache.
        response = self.client(served, lake="snap").detect(
            WARM_REQUESTS[0]
        )
        assert response.cached
        assert client.unmount_lake("snap") == {
            "lake": "snap", "detached": True,
        }
        with pytest.raises(ServiceError) as excinfo:
            client.unmount_lake("snap")
        assert excinfo.value.status == 404

    def test_duplicate_mount_is_409(self, served, snapshot_dir):
        client = self.client(served)
        client.mount_lake("snap", str(snapshot_dir))
        with pytest.raises(ServiceError) as excinfo:
            client.mount_lake("snap", str(snapshot_dir))
        assert excinfo.value.status == 409
        assert excinfo.value.code == "duplicate-lake"

    def test_corrupt_snapshot_mount_is_400_and_siblings_serve(
        self, served, snapshot_dir
    ):
        (snapshot_dir / "vocab.json").write_text("{broken")
        client = self.client(served)
        with pytest.raises(ServiceError) as excinfo:
            client.mount_lake("snap", str(snapshot_dir))
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-snapshot"
        # The failed mount never disturbed the running lake.
        self.client(served, lake="main").detect(measure="lcc")

    def test_bad_payloads_are_400(self, served):
        client = self.client(served)
        for payload in ({}, {"name": "x"}, {"name": 7, "path": "p"},
                        {"name": "bad name!", "path": "/nope"}):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/lakes", payload=payload)
            assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.mount_lake("ghost", "/no/such/directory")
        assert excinfo.value.status == 400


class TestJobPersistence:
    def finished_job(self, manager, index):
        job_id = manager.submit(
            "lake", index, DetectRequest(measure="lcc")
        )
        deadline = time.monotonic() + 30
        while manager.get(job_id)["state"] not in ("done", "error"):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        return job_id

    def test_terminal_jobs_survive_restart(self, tmp_path, figure1_lake):
        spill = tmp_path / "jobs"
        with HomographIndex(figure1_lake) as index:
            manager = JobManager(ttl=300, persist_dir=spill)
            job_id = self.finished_job(manager, index)
            before = manager.get(job_id)
        assert (spill / f"{job_id}.json").exists()
        restored = JobManager(ttl=300, persist_dir=spill)
        after = restored.get(job_id)
        assert after["state"] == "done"
        assert after["response"] == before["response"]
        assert after["runtime_seconds"] == before["runtime_seconds"]
        # Restored records are frozen: cancel is a no-op, not a crash.
        assert restored.cancel(job_id)["state"] == "done"

    def test_restored_jobs_obey_ttl(self, tmp_path, figure1_lake):
        spill = tmp_path / "jobs"
        with HomographIndex(figure1_lake) as index:
            manager = JobManager(ttl=3600, persist_dir=spill)
            job_id = self.finished_job(manager, index)
        path = spill / f"{job_id}.json"
        data = json.loads(path.read_text())
        data["finished_wall"] = time.time() - 1000  # age past the TTL
        path.write_text(json.dumps(data))
        restored = JobManager(ttl=60, persist_dir=spill)
        from repro.serving.jobs import UnknownJobError

        with pytest.raises(UnknownJobError):
            restored.get(job_id)
        assert not path.exists()  # expired spill is reclaimed

    def test_unreadable_spill_is_discarded(self, tmp_path):
        spill = tmp_path / "jobs"
        spill.mkdir()
        (spill / "garbage.json").write_text("{nope")
        manager = JobManager(ttl=60, persist_dir=spill)
        assert len(manager) == 0
        assert not (spill / "garbage.json").exists()

    def test_sweep_unlinks_spilled_file(self, tmp_path, figure1_lake):
        spill = tmp_path / "jobs"
        clock = [0.0]
        with HomographIndex(figure1_lake) as index:
            manager = JobManager(
                ttl=5, persist_dir=spill, clock=lambda: clock[0]
            )
            job_id = self.finished_job(manager, index)
            assert (spill / f"{job_id}.json").exists()
            clock[0] += 10
            assert manager.sweep() == 1
        assert not (spill / f"{job_id}.json").exists()

    def test_server_restart_serves_old_job(self, tmp_path, figure1_lake):
        spill = tmp_path / "jobs"
        workspace = Workspace()
        workspace.attach("main", figure1_lake)
        server = start_server(workspace, port=0, job_dir=str(spill))
        try:
            client = HomographClient(server.url).lake("main")
            job_id = client.submit(measure="lcc")
            client.wait(job_id, timeout=30)
        finally:
            server.drain()
        # A brand-new server process (fresh workspace, same job_dir)
        # still answers the poll for the pre-restart job.
        workspace2 = Workspace()
        workspace2.attach("main", make_figure1_lake())
        server2 = start_server(workspace2, port=0, job_dir=str(spill))
        try:
            snapshot = HomographClient(server2.url).poll(job_id)
            assert snapshot["state"] == "done"
            assert snapshot["response"]["measure"] == "lcc"
        finally:
            server2.drain()
