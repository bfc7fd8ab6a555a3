"""The native Brandes kernel against the numpy loop, bit for bit.

``repro.perf.native`` compiles ``brandes.c`` on the first ``"brandes"``
kernel call in a process and falls back to the numpy loop
(``repro.perf.kernels.brandes_numpy``) when it cannot.  The numpy loop
is the reference: every comparison here is by bit pattern.

Tests that need the native kernel skip when no C compiler is on
``PATH`` (and none is cached); the fallback tests run either way.
Tests about first use — compiling, racing, forking, laziness — run in
child processes with ``XDG_CACHE_HOME`` pointed at a fresh directory,
because a process loads only once.
"""

import contextlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DetectRequest, HomographIndex
from repro.core.betweenness import betweenness_scores
from repro.core.builder import build_graph
from repro.core.graph import BipartiteGraph
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.perf import native
from repro.perf.kernels import (
    GraphContext,
    brandes_kernel,
    brandes_numpy,
    get_kernel,
    register_kernel,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT = 120


def bits(array) -> np.ndarray:
    """The float64 array's bit patterns."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


def assert_same_bits(got, expected) -> None:
    assert got.shape == expected.shape
    assert np.array_equal(bits(got), bits(expected))


@contextlib.contextmanager
def numpy_kernel():
    """Register the numpy loop as ``"brandes"`` for the block."""
    registered = get_kernel("brandes")
    register_kernel("brandes")(brandes_numpy)
    try:
        yield
    finally:
        register_kernel("brandes")(registered)


def native_and_numpy(compute):
    """``compute()`` with the registered kernel, then with numpy's."""
    got = compute()
    with numpy_kernel():
        expected = compute()
    return got, expected


@pytest.fixture(scope="module")
def loaded():
    """The native functions, loaded in this process."""
    functions = native.library()
    if functions is None:
        if native.find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        pytest.fail(f"the native kernel did not load: {native.status()}")
    return functions


def child_env(cache, path=None):
    """Environment for a child process: ``src`` importable, own cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["XDG_CACHE_HOME"] = str(cache)
    if path is not None:
        env["PATH"] = str(path)
    return env


def run_child(script, env, *args):
    """Run ``script`` in a fresh interpreter; returns its last JSON line."""
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT,
        cwd=str(REPO_ROOT),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def mapped_kernels(pid="self"):
    """Compiled kernels mapped into a process, or ``None`` off Linux."""
    maps = Path(f"/proc/{pid}/maps")
    if not maps.exists():
        return None
    return sorted({
        line.split()[-1] for line in maps.read_text().splitlines()
        if "brandes-" in line
    })


# ---------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------
#: A small vocabulary, so columns share values: lakes come out with
#: several components, values in one column only, and bridges.
VOCABULARY = [f"V{i}" for i in range(10)]

lakes = st.lists(
    st.dictionaries(
        keys=st.sampled_from("abc"),
        # An empty list in every column makes an empty table.
        values=st.lists(st.sampled_from(VOCABULARY), max_size=6),
        min_size=1, max_size=3,
    ),
    min_size=1, max_size=6,
).map(lambda tables: DataLake(
    Table.from_columns(f"t{i}", columns)
    for i, columns in enumerate(tables)
))


@st.composite
def graphs(draw):
    """Bipartite graphs with isolated values and attributes."""
    n_values = draw(st.integers(1, 12))
    n_attributes = draw(st.integers(1, 5))
    edges = draw(st.sets(st.tuples(
        st.integers(0, n_values - 1), st.integers(0, n_attributes - 1),
    ), max_size=30))
    return BipartiteGraph(
        [f"v{i}" for i in range(n_values)],
        [f"a{j}" for j in range(n_attributes)],
        sorted(edges),
    )


def deep_lattice(layers=60, width=6, seed=7):
    """Layers of ``width`` nodes, each wired to about half the next.

    Shortest-path counts pass 2**53, where float sums of sigma round
    and so depend on the order they are taken in.  Ids are shuffled,
    so BFS discovery order is not id order.
    """
    rng = np.random.default_rng(seed)
    # Even layers are values, odd ones attributes.
    values = rng.permutation((layers + 1) // 2 * width)
    attributes = rng.permutation(layers // 2 * width)
    layer_ids = [
        (values if i % 2 == 0 else attributes)[
            (i // 2) * width:(i // 2 + 1) * width
        ]
        for i in range(layers)
    ]
    edges = set()
    for i in range(layers - 1):
        here, there = layer_ids[i], layer_ids[i + 1]
        for b in range(width):
            linked = rng.random(width) < 0.5
            linked[rng.integers(width)] = True
            for a in np.flatnonzero(linked):
                u, w = int(here[a]), int(there[b])
                edges.add((u, w) if i % 2 == 0 else (w, u))
    return BipartiteGraph(
        [f"v{i}" for i in range(values.size)],
        [f"a{j}" for j in range(attributes.size)],
        sorted(edges),
    )


def random_lake(tables=30, seed=5, groups=1):
    """A seeded lake of three-column tables, ``groups`` components.

    Table ``t`` draws from group ``t % groups``'s own 120 values.
    """
    rng = np.random.default_rng(seed)
    return DataLake(
        Table.from_columns(f"r{t}", {
            column: [
                f"W{t % groups}-{i}"
                for i in rng.integers(0, 120, size=rng.integers(2, 9))
            ]
            for column in "xyz"
        })
        for t in range(tables)
    )


MODES = [
    pytest.param({}, id="exact"),
    pytest.param({"normalized": False}, id="exact-raw"),
    pytest.param({"sample_size": 7, "seed": 3}, id="uniform"),
    pytest.param({"sample_size": 40, "seed": 4, "strategy": "degree"},
                 id="degree"),
]


def scores(graph, endpoints, mode):
    return betweenness_scores(graph, endpoints=endpoints, **mode)


# ---------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------
class TestParity:
    @given(lake=lakes, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_lakes(self, loaded, lake, seed):
        graph = build_graph(lake)
        n = graph.num_nodes
        for endpoints in ("all", "values"):
            for mode in ({}, {"normalized": False},
                         {"sample_size": max(1, n // 2), "seed": seed},
                         {"sample_size": n + 3, "seed": seed,
                          "strategy": "degree"}):
                assert_same_bits(*native_and_numpy(
                    lambda: scores(graph, endpoints, mode)))

    @given(graph=graphs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel_with_duplicate_sources_and_unequal_weights(
            self, loaded, graph, data):
        k = data.draw(st.integers(0, 2 * graph.num_nodes))
        sources = np.array(data.draw(st.lists(
            st.integers(0, graph.num_nodes - 1), min_size=k, max_size=k,
        )), dtype=np.int64)
        weights = np.array(data.draw(st.lists(
            st.floats(1e-3, 1e3), min_size=k, max_size=k,
        )), dtype=np.float64)
        ctx = GraphContext.from_graph(graph)
        for endpoints in ("all", "values"):
            common = {"endpoints": endpoints}
            assert_same_bits(
                brandes_kernel(ctx, (sources, weights), common),
                brandes_numpy(ctx, (sources, weights), common),
            )

    @pytest.mark.parametrize("endpoints", ["all", "values"])
    def test_path_counts_past_2_53(self, loaded, endpoints):
        # The sums of sigma only round here: this is the graph that
        # tells ascending-id order from BFS discovery order.
        graph = deep_lattice()
        assert_same_bits(*native_and_numpy(
            lambda: betweenness_scores(graph, endpoints=endpoints)))

    @pytest.mark.parametrize("weight", [np.inf, np.nan])
    def test_non_finite_weight(self, loaded, weight):
        graph = build_graph(random_lake(tables=6))
        ctx = GraphContext.from_graph(graph)
        payload = (np.array([0, 3, 5]), np.array([1.0, weight, 2.0]))
        with np.errstate(invalid="ignore"):
            assert_same_bits(
                brandes_kernel(ctx, payload, {"endpoints": "all"}),
                brandes_numpy(ctx, payload, {"endpoints": "all"}),
            )

    @pytest.mark.parametrize("endpoints", ["all", "values"])
    @pytest.mark.parametrize("mode", MODES)
    def test_snapshot_mounted_graph(self, loaded, tmp_path, endpoints,
                                    mode):
        with HomographIndex(random_lake()) as index:
            index.save(tmp_path / "snap")
        with HomographIndex.load(tmp_path / "snap") as index:
            graph = index.graph
            assert isinstance(graph.indices, np.memmap)
            assert not graph.indices.flags.writeable
            assert_same_bits(*native_and_numpy(
                lambda: scores(graph, endpoints, mode)))

    @pytest.mark.parametrize("endpoints", ["all", "values"])
    @pytest.mark.parametrize("mode", MODES)
    def test_graph_spliced_by_add_table(self, loaded, endpoints, mode):
        index = HomographIndex(random_lake(), prune_candidates=False)
        index.graph
        index.add_table(Table.from_columns("added", {
            "x": ["W0-1", "W0-2", "NEW1", "NEW2"], "y": ["W0-3", "NEW1"],
        }))
        assert index.last_mutation["fallback"] is None
        graph = index.graph
        assert_same_bits(*native_and_numpy(
            lambda: scores(graph, endpoints, mode)))

    def test_delta_maintenance(self, loaded):
        requests = [
            DetectRequest(measure="betweenness"),
            DetectRequest(measure="betweenness", endpoints="values"),
        ]

        def history():
            # Six components: each mutation touches one, so the cached
            # entries are patched by replaying the affected sources.
            index = HomographIndex(random_lake(groups=6))
            out = [index.detect(r) for r in requests]
            for mutate in (
                lambda: index.add_table(Table.from_columns("added", {
                    "x": ["W0-1", "W0-2", "NEW1", "NEW2"],
                    "y": ["W0-3", "NEW1"],
                })),
                lambda: index.remove_table("r7"),
            ):
                mutate()
                assert index.last_mutation["patched_entries"] == 2
                patched = [index.detect(r) for r in requests]
                assert all(r.cached for r in patched)
                out += patched
            return [r.ranking.columns() for r in out]

        got, expected = native_and_numpy(history)
        for (names, values), (names_ref, values_ref) in zip(got, expected):
            assert names == names_ref
            assert_same_bits(np.array(values), np.array(values_ref))


# ---------------------------------------------------------------------
# Threads and bad input
# ---------------------------------------------------------------------
def test_native_call_releases_the_gil(loaded, monkeypatch):
    rng = np.random.default_rng(11)
    edges = np.unique(np.stack([
        rng.integers(0, 12000, 60000), rng.integers(0, 400, 60000),
    ], axis=1), axis=0)
    graph = BipartiteGraph(
        [f"v{i}" for i in range(12000)], [f"a{j}" for j in range(400)],
        edges,
    )
    ctx = GraphContext.from_graph(graph)
    sources = np.arange(400, dtype=np.int64)
    # One native call for every source: no Python runs in between.
    monkeypatch.setattr(native, "SLICE_WORK", 1 << 62)
    ticks = [0]
    stop = threading.Event()

    def count():
        while not stop.is_set():
            ticks[0] += 1

    counter = threading.Thread(target=count)
    counter.start()
    try:
        while ticks[0] == 0:
            time.sleep(0.001)
        before = ticks[0]
        start = time.perf_counter()
        native.accumulate(loaded, ctx, sources, np.ones(400), 12400)
        elapsed = time.perf_counter() - start
        during = ticks[0] - before
    finally:
        stop.set()
        counter.join(10)
    assert not counter.is_alive()
    assert elapsed > 0.02, "the call was too short to show anything"
    # A call that held the GIL would leave the counter where it was.
    assert during > 1000, (during, elapsed)


def _bad_contexts():
    graph = build_graph(random_lake(tables=6))
    n = graph.num_nodes
    indptr, indices = np.array(graph.indptr), np.array(graph.indices)
    ok = (indptr, indices, n, graph.num_values)
    out_of_range = indices.copy()
    out_of_range[0] = n  # in the row of source 0
    decreasing = indptr.copy()
    decreasing[2] = decreasing[1] - 1  # row 1 has -1 entries
    # (name, ctx fields, sources, error, numpy also raises)
    return [
        ("float-indptr", (indptr.astype(float),) + ok[1:], [0],
         TypeError, True),
        ("int32-indices", (indptr, indices.astype(np.int32)) + ok[2:],
         [0], TypeError, False),
        ("strided-indices", (indptr, np.repeat(indices, 2)[::2]) + ok[2:],
         [0], ValueError, False),
        ("short-indptr", (indptr[:-1],) + ok[1:], [0], ValueError, False),
        ("neighbor-out-of-range", (indptr, out_of_range) + ok[2:], [0],
         ValueError, True),
        ("decreasing-indptr", (decreasing,) + ok[1:], [1], ValueError,
         True),
        ("source-too-large", ok, [0, n], IndexError, True),
        ("negative-source", ok, [-1], IndexError, True),
    ]


@pytest.mark.parametrize(
    "fields,sources,error,numpy_raises",
    [case[1:] for case in _bad_contexts()],
    ids=[case[0] for case in _bad_contexts()],
)
def test_bad_input_raises(loaded, fields, sources, error, numpy_raises):
    ctx = GraphContext(*fields)
    payload = (np.array(sources), np.ones(len(sources)))
    with pytest.raises(error):
        brandes_kernel(ctx, payload, {"endpoints": "all"})
    if numpy_raises:
        with pytest.raises(Exception):
            brandes_numpy(ctx, payload, {"endpoints": "all"})


# ---------------------------------------------------------------------
# First use, in child processes
# ---------------------------------------------------------------------
#: Scores a small lake twice with the registered kernel and once more
#: with the numpy loop; prints the loader status and the digests.
SCORE_SCRIPT = """
import hashlib, json, sys
import numpy as np
from repro.core.betweenness import betweenness_scores
from repro.core.builder import build_graph_from_columns
from repro.perf import kernels, native

graph = build_graph_from_columns({
    "a": ["X", "Y", "Z", "Q"], "b": ["Y", "Z", "R"], "c": ["R", "S", "X"],
    "d": ["S", "T"], "e": ["U", "V"],
})
def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
wait = sys.argv[1] if len(sys.argv) > 1 else None
if wait:
    import os, time
    print("ready", flush=True)
    while not os.path.exists(wait):
        time.sleep(0.002)
got = [betweenness_scores(graph),
       betweenness_scores(graph, sample_size=4, seed=1)]
kernels.register_kernel("brandes")(kernels.brandes_numpy)
expected = [betweenness_scores(graph),
            betweenness_scores(graph, sample_size=4, seed=1)]
print(json.dumps({
    "status": native.status(),
    "digest": digest(np.concatenate(got)),
    "same": all(np.array_equal(a.view(np.int64), b.view(np.int64))
                for a, b in zip(got, expected)),
}))
"""


def _failing_compiler(tmp_path):
    """A ``bin`` directory whose only compiler exits 1, and its run log."""
    bin_dir, runs = tmp_path / "bin", tmp_path / "cc-runs"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text(f"#!/bin/sh\necho run >> '{runs}'\nexit 1\n")
    cc.chmod(0o755)
    return bin_dir, runs


class TestFallback:
    def test_fallback_without_compiler(self, tmp_path):
        (tmp_path / "bin").mkdir()
        out = run_child(SCORE_SCRIPT, child_env(
            tmp_path / "cache", path=tmp_path / "bin"))
        assert out["same"]
        assert not out["status"]["loaded"]
        assert out["status"]["attempts"] == 1
        assert "no C compiler" in out["status"]["error"]

    def test_fallback_when_compile_fails(self, tmp_path):
        bin_dir, runs = _failing_compiler(tmp_path)
        out = run_child(SCORE_SCRIPT, child_env(
            tmp_path / "cache", path=bin_dir))
        assert out["same"]
        assert not out["status"]["loaded"]
        assert out["status"]["attempts"] == 1
        assert "exited 1" in out["status"]["error"]
        # Four kernel calls, one compile; its temporary file is gone.
        assert runs.read_text().splitlines() == ["run"]
        assert list((tmp_path / "cache" / "domainnet").iterdir()) == []

    def test_fallback_with_unwritable_cache(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        out = run_child(SCORE_SCRIPT, child_env(blocker))
        assert out["same"]
        assert not out["status"]["loaded"]
        assert out["status"]["attempts"] == 1
        assert "NotADirectoryError" in out["status"]["error"]

    def test_fallback_kernel_in_this_process(self):
        # Whatever loaded here, the registered kernel gives numpy's bits.
        graph = build_graph(random_lake(tables=8))
        assert_same_bits(*native_and_numpy(
            lambda: betweenness_scores(graph, endpoints="values")))
        state = native.status()
        assert state["attempts"] == 1
        assert state["loaded"] == (native.library() is not None)


class TestFirstUse:
    def test_three_processes_share_one_library(self, loaded, tmp_path):
        cache, go = tmp_path / "cache", tmp_path / "go"
        children = [
            subprocess.Popen(
                [sys.executable, "-c", SCORE_SCRIPT, str(go)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=child_env(cache), cwd=str(REPO_ROOT),
            )
            for _ in range(3)
        ]
        try:
            for child in children:
                assert child.stdout.readline().strip() == "ready"
            go.write_text("")
            outs = []
            for child in children:
                stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT)
                assert child.returncode == 0, stderr
                outs.append(json.loads(stdout.strip().splitlines()[-1]))
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                    child.communicate()
        assert all(out["same"] and out["status"]["loaded"] for out in outs)
        assert len({out["digest"] for out in outs}) == 1
        files = sorted(p.name for p in (cache / "domainnet").iterdir())
        assert files == [native.library_name()]

    def test_four_threads_race_the_first_call(self, loaded, tmp_path):
        script = """
import json, sys, threading
from repro.core.betweenness import betweenness_scores
from repro.core.builder import build_graph_from_columns
from repro.perf import native
sys.setswitchinterval(1e-6)
graph = build_graph_from_columns({
    "a": ["X", "Y", "Z"], "b": ["Y", "Z", "R"], "c": ["R", "S", "X"],
})
start, results = threading.Barrier(4), [None] * 4
def run(i):
    start.wait()
    results[i] = betweenness_scores(graph).tobytes().hex()
threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
    assert not thread.is_alive()
print(json.dumps({"results": results, "status": native.status()}))
"""
        out = run_child(script, child_env(tmp_path / "cache"))
        assert len(set(out["results"])) == 1
        assert out["status"]["attempts"] == 1
        assert out["status"]["loaded"] and out["status"]["compiled"]
        files = list((tmp_path / "cache" / "domainnet").iterdir())
        assert [p.name for p in files] == [native.library_name()]

    def test_pool_forked_before_and_after_the_parent_loads(
            self, loaded, tmp_path):
        script = """
import json
import numpy as np
from repro.core.betweenness import betweenness_scores
from repro.core.builder import build_graph_from_columns
from repro.perf import ExecutionConfig, native, register_kernel
from repro.perf import resolve_backend
register_kernel("native-loaded")(
    lambda ctx, payload, common: native.library() is not None)
columns = {f"c{i}": [f"V{(i * 7 + j * 3) % 40}" for j in range(6)]
           for i in range(12)}
graph = build_graph_from_columns(columns)
config = ExecutionConfig(backend="process", n_jobs=2, persistent=True,
                         chunk_size=9)
out = {}
for when in ("before", "after"):
    backend = resolve_backend(config)
    backend.ensure_started()
    out[when + "_attempts"] = native.status()["attempts"]
    try:
        pooled = betweenness_scores(graph, execution=backend)
        out[when + "_workers"] = backend.map_chunks(
            graph, "native-loaded", [None] * 6, {})
    finally:
        backend.close()
    serial = betweenness_scores(
        graph, execution=ExecutionConfig(backend="serial", chunk_size=9))
    out[when + "_same"] = bool(np.array_equal(
        pooled.view(np.int64), serial.view(np.int64)))
out["status"] = native.status()
print(json.dumps(out))
"""
        out = run_child(script, child_env(tmp_path / "cache"))
        assert out["before_attempts"] == 0 and out["after_attempts"] == 1
        for when in ("before", "after"):
            assert out[when + "_same"]
            assert all(out[when + "_workers"])
        assert out["status"]["loaded"]


# ---------------------------------------------------------------------
# Nothing on the read path
# ---------------------------------------------------------------------
WARM = (
    DetectRequest(measure="lcc"),
    DetectRequest(measure="betweenness"),
    DetectRequest(measure="betweenness", sample_size=20, seed=2),
)

READ_SCRIPT = """
import json, os, sys
from pathlib import Path
import repro, repro.cli, repro.serving.http
# The loader module itself is imported with the first kernel call.
steps = {"import": "repro.perf.native" in sys.modules}
from repro import DetectRequest, HomographIndex, Workspace, start_server
from repro.serving.client import HomographClient
snapshot, warm = sys.argv[1], json.loads(sys.argv[2])
requests = [DetectRequest.from_dict(r) for r in warm]
with HomographIndex.load(snapshot) as index:
    steps["mount"] = "repro.perf.native" in sys.modules
    for request in requests:
        assert index.detect(request).cached
    index.detect(requests[0]).ranking.page(None, 5)
    steps["in-process"] = "repro.perf.native" in sys.modules
workspace = Workspace()
workspace.attach("snap", snapshot)
with start_server(workspace) as server:
    with HomographClient(server.url) as client:
        lake = client.lake("snap")
        for request in requests:
            assert lake.detect(request, top=10).cached
            assert lake.detect(request).cached
        assert lake.ranking_page("lcc", limit=5)["cached"]
        assert lake.ranking_page("betweenness", limit=5)["cached"]
    steps["http"] = "repro.perf.native" in sys.modules
from repro.perf import native
maps = Path("/proc/self/maps")
print(json.dumps({
    "steps": steps,
    "status": native.status(),
    "mapped": [line for line in maps.read_text().splitlines()
               if "brandes-" in line] if maps.exists() else None,
    "cache": os.path.exists(native.cache_dir()),
}))
"""


@pytest.fixture(scope="module")
def warm_snapshot(tmp_path_factory):
    target = tmp_path_factory.mktemp("native") / "snap"
    with HomographIndex(random_lake()) as index:
        for request in WARM:
            index.detect(request)
        index.save(target)
    return target


class TestReadPathLoadsNothing:
    def test_import_mount_and_hits(self, warm_snapshot, tmp_path):
        warm = json.dumps([r.to_dict() for r in WARM])
        out = run_child(READ_SCRIPT, child_env(tmp_path / "cache"),
                        warm_snapshot, warm)
        assert out["steps"] == {
            "import": False, "mount": False, "in-process": False,
            "http": False,
        }
        assert out["status"] == {
            "attempts": 0, "loaded": False, "compiled": False,
            "path": None, "error": None,
        }
        assert out["mapped"] in (None, [])
        assert not out["cache"]

    def test_serve_snapshot_process(self, warm_snapshot, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--snapshot",
             str(warm_snapshot), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=child_env(tmp_path / "cache"), cwd=str(REPO_ROOT),
        )
        try:
            banner = proc.stdout.readline()
            port = int(re.search(r"http://127\.0\.0\.1:(\d+)",
                                 banner).group(1))
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=30)
            targets = [("POST", "/lakes/snap/detect?top=10",
                        json.dumps(r.to_dict())) for r in WARM]
            targets += [("GET", f"/lakes/snap/ranking/{m}?limit=5", None)
                        for m in ("lcc", "betweenness")]
            try:
                for method, target, body in targets:
                    connection.request(method, target, body=body)
                    reply = connection.getresponse()
                    payload = json.loads(reply.read())
                    assert reply.status == 200 and payload["cached"]
            finally:
                connection.close()
            mapped = mapped_kernels(proc.pid)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert mapped in (None, [])
        assert not (tmp_path / "cache").exists()

