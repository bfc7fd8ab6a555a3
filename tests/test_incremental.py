"""Delta-aware mutation: CSR splicing plus scoped score maintenance.

The contract under test: ``add_table``/``remove_table``/``replace_table``
on an index with a built graph splice the delta into the CSR arrays
(:meth:`BipartiteGraph.splice_rows`) and patch cached scores in place,
and every incremental result is **bit-identical** to a from-scratch
rebuild — same graph arrays, same score floats, same ranking order.
Failure of any precondition degrades to full invalidation, which is
always correct, and ``last_mutation`` reports which path ran.
"""

import threading
import time

import numpy as np
import pytest
from tests.conftest import LAKE, make_figure1_lake, serve_index

from repro import (
    DataLake,
    DetectRequest,
    HomographClient,
    HomographIndex,
    Table,
)
from repro.core.builder import build_graph
from repro.core.delta import LakeLedger, plan_mutation, table_column_counts
from repro.api.index import _CacheEntry

# ---------------------------------------------------------------------
# Mutation material
# ---------------------------------------------------------------------
OVERLAP_TABLE = {
    # Shares Puma/Jaguar/values with Figure 1 and brings fresh ones.
    "Animal": ["Puma", "Jaguar", "Okapi"],
    "City": ["Berlin", "Paris", "Okapi"],
}
DISJOINT_TABLE = {
    # No value in common with Figure 1: forms its own component.
    "A": ["zz1", "zz2", "zz1", "zz3"],
    "B": ["zz2", "zz3", "zz4", "zz4"],
}
T2_REPLACEMENT = {
    # Same column names as T2, different content.
    "name": ["Panda", "Lemur", "Lemur", "Tiger"],
    "locale": ["Memphis", "National", "Tallinn", "Delhi"],
    "num": ["2", "20", "3", "8"],
}

REQUESTS = (
    DetectRequest(measure="betweenness"),
    DetectRequest(measure="betweenness", endpoints="values"),
    DetectRequest(measure="betweenness", sample_size=6, seed=11),
    DetectRequest(measure="lcc"),
    DetectRequest(measure="lcc", lcc_variant="value-neighbors"),
    DetectRequest(measure="rk", seed=5, options=(("max_samples", 64),)),
)


def table(name, columns):
    return Table.from_columns(name, columns)


def lake_copy(lake):
    return DataLake(t for t in lake)


def assert_same_response(got, want, tag=""):
    """Bitwise score + ranking equality (dict `==` on floats is exact)."""
    assert got.scores == want.scores, f"{tag}: scores diverged"
    assert (
        [(e.value, e.score) for e in got.ranking]
        == [(e.value, e.score) for e in want.ranking]
    ), f"{tag}: ranking diverged"


MUTATIONS = {
    "add-overlap": lambda ix: ix.add_table(table("T9", OVERLAP_TABLE)),
    "add-disjoint": lambda ix: ix.add_table(table("TX", DISJOINT_TABLE)),
    "remove-T1": lambda ix: ix.remove_table("T1"),
    "remove-T2": lambda ix: ix.remove_table("T2"),
    "remove-T4": lambda ix: ix.remove_table("T4"),
    "replace-T2-same-cols": lambda ix: ix.replace_table(
        table("T2", T2_REPLACEMENT)
    ),
    "replace-T3-new-cols": lambda ix: ix.replace_table(
        table("T3", {"Brand": ["Puma", "Nike"], "Kind": ["x", "x"]})
    ),
}


# ---------------------------------------------------------------------
# Graph-level parity: planner + splice vs from-scratch build
# ---------------------------------------------------------------------
class TestSpliceParity:
    @pytest.mark.parametrize("min_occ", [1, 2])
    @pytest.mark.parametrize("scenario", sorted(MUTATIONS))
    def test_spliced_graph_equals_rebuild(self, scenario, min_occ):
        lake = make_figure1_lake()
        graph = build_graph(lake, min_occurrences=min_occ)
        ledger = LakeLedger.from_lake(lake)
        removed, added = [], []
        if scenario.startswith("add"):
            name = "T9" if "overlap" in scenario else "TX"
            cols = OVERLAP_TABLE if "overlap" in scenario else DISJOINT_TABLE
            added = table_column_counts(table(name, cols))
            lake.add_table(table(name, cols))
        elif scenario.startswith("remove"):
            removed = table_column_counts(lake.remove_table(scenario[-2:]))
        else:
            name = "T2" if "T2" in scenario else "T3"
            cols = (
                T2_REPLACEMENT if "T2" in scenario
                else {"Brand": ["Puma", "Nike"], "Kind": ["x", "x"]}
            )
            removed = table_column_counts(lake.table(name))
            added = table_column_counts(table(name, cols))
            lake.replace_table(table(name, cols))

        spec = plan_mutation(graph, ledger, lake, removed, added, min_occ)
        assert spec is not None, "planner declined a plannable mutation"
        new_graph, delta = graph.splice_rows(spec)
        oracle = build_graph(lake, min_occurrences=min_occ)

        assert new_graph.value_names == oracle.value_names
        assert new_graph.attribute_names == oracle.attribute_names
        assert np.array_equal(new_graph.indptr, oracle.indptr)
        assert np.array_equal(new_graph.indices, oracle.indices)
        assert delta.delta_values >= 0 and delta.delta_edges >= 0
        # The ledger was committed to the post-mutation state.
        fresh = LakeLedger.from_lake(lake)
        assert len(ledger) == len(fresh)
        for value in list(fresh._values):
            assert ledger._values[value] == fresh._values[value]

    @pytest.mark.parametrize("min_occ", [1, 2])
    def test_chained_mutations_stay_exact(self, min_occ):
        """One evolving graph + ledger through a 5-op sequence."""
        lake = make_figure1_lake()
        graph = build_graph(lake, min_occurrences=min_occ)
        ledger = LakeLedger.from_lake(lake)
        sequence = [
            ("add", table("TA", {"X": ["Puma", "q1"], "Y": ["q1", "q2"]})),
            ("remove", "T1"),
            ("replace", table("TA", {"X": ["q9", "q9"],
                                     "Z": ["Jaguar", "q2"]})),
            ("add", table("TB", {"W": ["q2", "Amazon", "Amazon"]})),
            ("remove", "TA"),
        ]
        for step, (op, arg) in enumerate(sequence):
            removed, added = [], []
            if op == "add":
                added = table_column_counts(arg)
                lake.add_table(arg)
            elif op == "remove":
                removed = table_column_counts(lake.remove_table(arg))
            else:
                removed = table_column_counts(lake.table(arg.name))
                added = table_column_counts(arg)
                lake.replace_table(arg)
            spec = plan_mutation(
                graph, ledger, lake, removed, added, min_occ
            )
            assert spec is not None, f"step {step} fell back"
            graph, _delta = graph.splice_rows(spec)
            oracle = build_graph(lake, min_occurrences=min_occ)
            assert graph.value_names == oracle.value_names, f"step {step}"
            assert np.array_equal(graph.indptr, oracle.indptr)
            assert np.array_equal(graph.indices, oracle.indices)


# ---------------------------------------------------------------------
# Index-level parity: patched caches vs a fresh index
# ---------------------------------------------------------------------
class TestScoreMaintenanceParity:
    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("scenario", sorted(MUTATIONS))
    def test_every_measure_survives_bitwise(self, scenario, prune):
        index = HomographIndex(make_figure1_lake(), prune_candidates=prune)
        for request in REQUESTS:
            index.detect(request)
        MUTATIONS[scenario](index)

        mutation = index.last_mutation
        assert mutation is not None
        assert mutation["fallback"] is None, (
            f"splice path expected, got fallback={mutation['fallback']}"
        )
        assert (
            mutation["patched_entries"] + mutation["evicted_entries"]
            == len(REQUESTS)
        )

        oracle = HomographIndex(
            lake_copy(index.lake), prune_candidates=prune
        )
        before = index.cache_info()
        for request in REQUESTS:
            got = index.detect(request)
            want = oracle.detect(request)
            assert_same_response(got, want, f"{scenario}/{request.measure}")
        after = index.cache_info()
        # Patched entries answered as cache hits, not recomputes.
        assert after.hits - before.hits >= mutation["patched_entries"]

    def test_mutation_sequence_keeps_patching(self):
        """Patched state chains: mutation N+1 patches mutation N's patch."""
        index = HomographIndex(make_figure1_lake(), prune_candidates=False)
        for request in REQUESTS:
            index.detect(request)
        index.add_table(table("TX", DISJOINT_TABLE))
        first = index.last_mutation
        assert first["fallback"] is None and first["patched_entries"] > 0
        index.remove_table("T1")
        second = index.last_mutation
        assert second["fallback"] is None and second["patched_entries"] > 0

        oracle = HomographIndex(lake_copy(index.lake),
                                prune_candidates=False)
        for request in REQUESTS:
            assert_same_response(
                index.detect(request), oracle.detect(request), "chained"
            )

    def test_delta_cost_reported(self):
        """recomputed_sources stays delta-sized for a disjoint add."""
        index = HomographIndex(make_figure1_lake(), prune_candidates=False)
        index.detect(measure="betweenness")
        index.add_table(table("TX", DISJOINT_TABLE))
        mutation = index.last_mutation
        assert mutation["fallback"] is None
        nodes = index.graph.num_nodes
        # Only the new component's sources re-ran, not the lake's.
        assert 0 < mutation["recomputed_sources"] < nodes / 2
        assert mutation["splice_seconds"] > 0.0


# ---------------------------------------------------------------------
# Cache discipline
# ---------------------------------------------------------------------
class TestCacheDiscipline:
    def test_stale_generation_entries_evicted_eagerly(self):
        index = HomographIndex(make_figure1_lake())
        index.detect(measure="lcc")
        # Forge an entry from a superseded generation (as if a detect
        # raced a mutation and lost): mutation must drop it eagerly.
        live = next(iter(index._score_cache.values()))
        index._score_cache[("stale",)] = _CacheEntry(
            response=live.response,
            generation=index._generation - 1,
            state=live.state,
        )
        index.add_table(table("TX", DISJOINT_TABLE))
        assert ("stale",) not in index._score_cache
        assert index.last_mutation["evicted_entries"] >= 1
        for entry in index._score_cache.values():
            assert entry.generation == index._generation

    def test_live_entries_always_match_index_generation(self):
        index = HomographIndex(make_figure1_lake(), prune_candidates=False)
        for request in REQUESTS:
            index.detect(request)
        for mutate in (
            lambda: index.add_table(table("TX", DISJOINT_TABLE)),
            lambda: index.remove_table("T4"),
            lambda: index.replace_table(table("T2", T2_REPLACEMENT)),
        ):
            mutate()
            for entry in index._score_cache.values():
                assert entry.generation == index._generation

    def test_unbuilt_graph_falls_back(self):
        index = HomographIndex(make_figure1_lake())
        index.add_table(table("TX", DISJOINT_TABLE))
        mutation = index.last_mutation
        assert mutation["fallback"] == "graph-unbuilt"
        assert mutation["delta_values"] is None
        # The lake op itself still landed.
        assert "TX" in index.lake.table_names

    def test_planner_failure_falls_back_consistently(self, monkeypatch):
        index = HomographIndex(make_figure1_lake())
        index.detect(measure="lcc")

        def boom(*args, **kwargs):
            raise RuntimeError("forced planner failure")

        monkeypatch.setattr("repro.api.index.plan_mutation", boom)
        index.add_table(table("TX", DISJOINT_TABLE))
        assert index.last_mutation["fallback"] == "splice"
        assert len(index._score_cache) == 0
        monkeypatch.undo()
        # The fallback left lake/graph consistent: detects agree with a
        # fresh oracle afterwards.
        oracle = HomographIndex(lake_copy(index.lake))
        assert_same_response(
            index.detect(measure="lcc"), oracle.detect(measure="lcc")
        )

    def test_invalidate_drops_ledger(self):
        index = HomographIndex(make_figure1_lake())
        index.detect(measure="lcc")
        index.add_table(table("TX", DISJOINT_TABLE))
        assert index._ledger is not None
        index.invalidate()
        assert index._ledger is None

    def test_stats_and_serving_report_mutation_block(self, tmp_path):
        index = HomographIndex(make_figure1_lake())
        index.detect(measure="lcc")
        assert index.stats()["mutation"] is None
        server = serve_index(index)
        try:
            client = HomographClient(server.url, timeout=30.0).lake(LAKE)
            client.wait_ready()
            body = client.add_table(table("TX", DISJOINT_TABLE))
            mutation = body["mutation"]
            assert mutation["op"] == "add"
            assert mutation["table"] == "TX"
            assert mutation["fallback"] is None
            assert mutation["delta_values"] > 0
            body = client.remove_table("TX")
            assert body["mutation"]["op"] == "remove"
            assert client.stats()["mutation"]["op"] == "remove"
        finally:
            server.drain()


# ---------------------------------------------------------------------
# Mutation under concurrent detects
# ---------------------------------------------------------------------
HAMMER_REQUESTS = (
    DetectRequest(measure="lcc"),
    DetectRequest(measure="betweenness"),
)


def _oracle_scores(lakes):
    """Fresh-index score maps per request for each lake state."""
    admissible = {request.cache_key: [] for request in HAMMER_REQUESTS}
    for lake in lakes:
        oracle = HomographIndex(lake_copy(lake))
        for request in HAMMER_REQUESTS:
            admissible[request.cache_key].append(
                oracle.detect(request).scores
            )
    return admissible


def _hammer(index, mutations, threads=4, rounds=12):
    """Detect from many threads while ``mutations`` run; all scores."""
    observed = []
    errors = []
    lock = threading.Lock()
    start = threading.Barrier(threads + 1)

    def worker():
        start.wait()
        for _ in range(rounds):
            for request in HAMMER_REQUESTS:
                try:
                    response = index.detect(request)
                except Exception as error:  # pragma: no cover - fail loud
                    with lock:
                        errors.append(error)
                    return
                with lock:
                    observed.append((request.cache_key, response.scores))

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    start.wait()
    for mutate in mutations:
        time.sleep(0.02)  # let detects interleave between mutations
        mutate()
    for thread in pool:
        thread.join()
    assert not errors, errors
    return observed


class TestMutationUnderConcurrentDetect:
    def test_every_response_matches_some_lake_state(self):
        index = HomographIndex(make_figure1_lake())
        for request in HAMMER_REQUESTS:
            index.detect(request)

        states = [lake_copy(index.lake)]

        def snapshot_after(mutate):
            def run():
                mutate()
                states.append(lake_copy(index.lake))
            return run

        observed = _hammer(index, [
            snapshot_after(
                lambda: index.add_table(table("TX", DISJOINT_TABLE))
            ),
            snapshot_after(lambda: index.remove_table("T1")),
            snapshot_after(
                lambda: index.replace_table(table("T2", T2_REPLACEMENT))
            ),
        ])
        admissible = _oracle_scores(states)
        for key, scores in observed:
            assert scores in admissible[key], (
                "a concurrent detect served scores matching no "
                "pre- or post-mutation lake state"
            )

    def test_snapshot_mounted_lake_mutates_correctly(self, tmp_path):
        warm = HomographIndex(make_figure1_lake())
        for request in HAMMER_REQUESTS:
            warm.detect(request)
        snapshot = tmp_path / "snap"
        warm.save(snapshot)
        warm.close()

        index = HomographIndex.load(snapshot, mmap=True)
        states = [lake_copy(index.lake)]

        def mutate():
            index.add_table(table("TX", DISJOINT_TABLE))
            states.append(lake_copy(index.lake))

        observed = _hammer(index, [mutate], threads=3, rounds=8)
        admissible = _oracle_scores(states)
        for key, scores in observed:
            assert scores in admissible[key]
        # Snapshot entries carry no maintenance state -> evicted, and
        # the splice copied the arrays: the mmap files are untouched
        # and the snapshot still mounts cleanly afterwards.
        mutation = index.last_mutation
        assert mutation["fallback"] is None
        assert mutation["patched_entries"] == 0
        index.close()
        reread = HomographIndex.load(snapshot, mmap=True)
        assert "TX" not in reread.lake.table_names
        oracle = HomographIndex(make_figure1_lake())
        for request in HAMMER_REQUESTS:
            assert_same_response(
                reread.detect(request), oracle.detect(request), "snapshot"
            )
        reread.close()

    def test_snapshot_mounted_mutation_reaches_splice_path(self, tmp_path):
        """A detect after load rebuilds state; the next add splices."""
        warm = HomographIndex(make_figure1_lake())
        warm.detect(measure="lcc")
        snapshot = tmp_path / "snap"
        warm.save(snapshot)
        warm.close()

        index = HomographIndex.load(snapshot, mmap=True)
        # Force a fresh compute (not the snapshot's warm entry) so the
        # entry carries maintenance state.
        index.detect(measure="lcc", lcc_variant="value-neighbors")
        index.add_table(table("TX", DISJOINT_TABLE))
        mutation = index.last_mutation
        assert mutation["fallback"] is None
        assert mutation["patched_entries"] == 1  # the fresh compute
        oracle = HomographIndex(lake_copy(index.lake))
        assert_same_response(
            index.detect(measure="lcc", lcc_variant="value-neighbors"),
            oracle.detect(measure="lcc", lcc_variant="value-neighbors"),
            "snapshot-splice",
        )
        index.close()
