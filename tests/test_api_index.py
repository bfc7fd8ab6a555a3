"""Tests for the stateful HomographIndex: caching and incrementality."""

import pytest

from repro import (
    DataLake,
    DetectRequest,
    HomographIndex,
    MeasureOutput,
    Table,
)
from repro.api import register_measure, unregister_measure


@pytest.fixture
def counting_measure():
    """A registered measure that counts how often it actually runs."""
    calls = {"count": 0}

    def measure(graph, request):
        calls["count"] += 1
        return MeasureOutput(
            scores={
                graph.value_name(v): float(graph.degree(v))
                for v in range(graph.num_values)
            }
        )

    register_measure("counting-test", measure)
    yield calls
    unregister_measure("counting-test")


def extra_table() -> Table:
    return Table.from_columns(
        "T5_extra", {"maker": ["Jaguar", "Tesla"], "country": ["UK", "US"]}
    )


class TestScoreCache:
    def test_second_detect_does_not_recompute(
        self, figure1_lake, counting_measure
    ):
        index = HomographIndex(figure1_lake)
        first = index.detect(measure="counting-test")
        second = index.detect(measure="counting-test")
        assert counting_measure["count"] == 1
        assert first.cached is False
        assert second.cached is True
        assert second.ranking == first.ranking
        assert second.scores == first.scores

    def test_caller_mutation_cannot_poison_cache(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        first = index.detect(measure="betweenness")
        # scores is the ranking's read-only view: it has no mutators.
        with pytest.raises(AttributeError):
            first.scores.clear()
        with pytest.raises(TypeError):
            first.scores["JAGUAR"] = 0.0
        first.parameters["seed"] = "tampered"
        second = index.detect(measure="betweenness")
        assert second.cached is True
        assert second.scores != {}
        assert second.parameters["seed"] is None

    def test_cache_keyed_on_full_config(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        index.detect(measure="betweenness", sample_size=5, seed=1)
        index.detect(measure="betweenness", sample_size=5, seed=2)
        index.detect(measure="lcc")
        info = index.cache_info()
        assert info.hits == 0
        assert info.misses == 3
        assert info.size == 3

    def test_request_and_kwargs_share_cache_entry(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        index.detect(DetectRequest(measure="lcc"))
        hit = index.detect(measure="lcc")
        assert hit.cached is True
        assert index.cache_info().hits == 1

    def test_kwargs_override_request(self, figure1_lake, counting_measure):
        index = HomographIndex(figure1_lake)
        base = DetectRequest(measure="betweenness", seed=3)
        response = index.detect(base, measure="counting-test")
        assert response.measure == "counting-test"
        assert response.request.seed == 3

    def test_clear_cache_forces_recompute(
        self, figure1_lake, counting_measure
    ):
        index = HomographIndex(figure1_lake)
        index.detect(measure="counting-test")
        index.clear_cache()
        index.detect(measure="counting-test")
        assert counting_measure["count"] == 2
        assert index.cache_info().size == 1

    def test_graph_built_once_across_measures(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        graph = index.graph
        index.detect(measure="betweenness")
        index.detect(measure="lcc")
        assert index.graph is graph


class TestIncrementalUpdates:
    def test_add_table_matches_from_scratch(self, figure1_lake):
        incremental = HomographIndex(figure1_lake.copy())
        incremental.detect(measure="betweenness")  # warm graph + cache
        incremental.add_table(extra_table())
        updated = incremental.detect(measure="betweenness")

        fresh_lake = figure1_lake.copy()
        fresh_lake.add_table(extra_table())
        fresh = HomographIndex(fresh_lake).detect(measure="betweenness")

        assert updated.cached is False
        assert updated.ranking == fresh.ranking
        assert updated.scores == fresh.scores

    def test_remove_table_matches_from_scratch(self, figure1_lake):
        incremental = HomographIndex(figure1_lake.copy())
        incremental.detect(measure="betweenness")
        removed = incremental.remove_table("T3")
        assert removed.name == "T3"
        updated = incremental.detect(measure="betweenness")

        fresh_lake = figure1_lake.copy()
        fresh_lake.remove_table("T3")
        fresh = HomographIndex(fresh_lake).detect(measure="betweenness")

        assert updated.ranking == fresh.ranking
        assert updated.scores == fresh.scores

    def test_mutation_invalidates_cache(self, figure1_lake, counting_measure):
        index = HomographIndex(figure1_lake)
        index.detect(measure="counting-test")
        index.add_table(extra_table())
        index.detect(measure="counting-test")
        assert counting_measure["count"] == 2

    def test_mutation_invalidates_graph_lazily(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        before = index.graph
        index.add_table(extra_table())
        index.remove_table("T5_extra")  # burst of updates: no build yet
        after = index.graph  # single rebuild happens here
        assert after is not before
        assert after.num_values == before.num_values

    def test_replace_table_invalidates(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        assert index.graph.has_value("JAGUAR")
        index.replace_table(
            Table.from_columns("T3", {"C2": ["Honda", "Kia", "Kia"]})
        )
        index.detect(measure="betweenness")
        assert index.cache_info().size == 1

    def test_empty_index_grows(self):
        index = HomographIndex()
        assert len(index.detect(measure="betweenness").ranking) == 0
        index.add_table(Table.from_columns("t1", {"a": ["x", "y"]}))
        index.add_table(Table.from_columns("t2", {"b": ["x", "z"]}))
        response = index.detect(measure="betweenness")
        assert "X" in response.scores


class TestAnalysisHelpers:
    def test_unpruned_graph_cached_and_complete(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        unpruned = index.unpruned_graph
        assert unpruned is index.unpruned_graph
        assert unpruned.num_values > index.graph.num_values

    def test_unpruned_graph_is_graph_when_not_pruning(self, figure1_lake):
        index = HomographIndex(figure1_lake, prune_candidates=False)
        assert index.unpruned_graph is index.graph

    def test_classify_errors_uses_index_state(
        self, figure1_lake, figure1_homographs
    ):
        index = HomographIndex(figure1_lake)
        top = index.detect(measure="betweenness").top_values(2)
        assert set(top) == figure1_homographs
        verdicts = index.classify_errors(top)
        assert set(verdicts) == set(top)

    def test_estimate_meanings(self, figure1_lake):
        # On the full graph the car attributes (T3.C2, T4.Name) and the
        # animal attributes (T1.At Risk, T2.name) split into meanings.
        index = HomographIndex(figure1_lake, prune_candidates=False)
        estimate = index.estimate_meanings("JAGUAR")
        assert estimate.num_meanings >= 2

    def test_from_directory(self, tmp_path):
        (tmp_path / "zoo.csv").write_text(
            "animal,city\nJaguar,Memphis\nPanda,Atlanta\n"
        )
        (tmp_path / "cars.csv").write_text(
            "maker,model\nJaguar,XE\nToyota,Prius\n"
        )
        index = HomographIndex.from_directory(tmp_path)
        assert len(index.lake) == 2
        assert "JAGUAR" in index.detect(measure="betweenness").scores


class TestStatsSnapshot:
    def test_stats_shape_and_progression(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        stats = index.stats()
        assert stats["tables"] == 4
        assert stats["graph_built"] is False
        assert stats["cache"] == {
            "hits": 0, "misses": 0, "size": 0, "coalesced": 0,
        }
        assert stats["pool"] == {"configured": False}
        assert stats["closed"] is False
        assert stats["active_detections"] == 0

        index.detect(measure="lcc")
        index.detect(measure="lcc")
        stats = index.stats()
        assert stats["graph_built"] is True
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["size"] == 1

        index.add_table(extra_table())
        assert index.stats()["generation"] == 1
        index.close()
        assert index.stats()["closed"] is True

    def test_stats_reports_persistent_pool(self, figure1_lake):
        import json

        from repro import ExecutionConfig

        config = ExecutionConfig(
            backend="process", n_jobs=2, persistent=True
        )
        with HomographIndex(
            figure1_lake, prune_candidates=False, execution=config
        ) as index:
            assert index.stats()["pool"] == {"configured": True}
            index.detect(measure="betweenness")
            pool = index.stats()["pool"]
            assert pool["backend"] == "ProcessBackend"
            assert pool["jobs"] == 2
            assert pool["persistent"] is True
            assert pool["alive"] is True
            assert pool["segments"] == 2
            # The whole snapshot is JSON-safe by construction.
            json.dumps(index.stats())
