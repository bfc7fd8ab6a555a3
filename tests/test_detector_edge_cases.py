"""Edge cases and failure-injection tests for the detection pipeline."""

import numpy as np
import pytest

from repro import DataLake, HomographIndex, Table
from repro.core.betweenness import betweenness_scores
from repro.core.builder import build_graph
from repro.core.lcc import lcc_scores


class TestDegenerateLakes:
    def test_empty_lake(self):
        index = HomographIndex(DataLake())
        result = index.detect()
        assert len(result.ranking) == 0

    def test_lake_of_empty_tables(self):
        lake = DataLake([Table("t", ["a", "b"], [])])
        index = HomographIndex(lake)
        assert index.graph.num_values == 0
        assert len(index.detect().ranking) == 0

    def test_all_blank_cells(self):
        lake = DataLake([Table("t", ["a"], [[""], [""], [""]])])
        index = HomographIndex(lake)
        assert index.graph.num_values == 0

    def test_single_column_lake_has_no_homographs(self):
        lake = DataLake([
            Table.from_columns("t", {"a": ["x", "y", "x", "z"]})
        ])
        index = HomographIndex(lake)
        result = index.detect()
        # "x" survives occurrence pruning but has no bridging role.
        assert all(e.score == 0.0 for e in result.ranking)

    def test_identical_duplicate_tables(self):
        base = {"a": ["x", "y", "z"]}
        lake = DataLake([
            Table.from_columns("t1", base),
            Table.from_columns("t2", base),
        ])
        index = HomographIndex(lake)
        result = index.detect()
        # Perfectly unionable duplicates: nothing bridges anything.
        scores = np.array([e.score for e in result.ranking])
        assert np.allclose(scores, scores[0])


class TestAdversarialValues:
    def test_whitespace_variants_collapse(self):
        lake = DataLake([
            Table.from_columns("t1", {"a": [" Jaguar ", "x"]}),
            Table.from_columns("t2", {"b": ["JAGUAR", "y"]}),
        ])
        graph = build_graph(lake)
        assert graph.degree(graph.value_id("JAGUAR")) == 2

    def test_values_resembling_injection_tokens(self):
        lake = DataLake([
            Table.from_columns("t1", {"a": ["InjectedHomograph1", "x"]}),
            Table.from_columns("t2", {"b": ["InjectedHomograph1", "y"]}),
        ])
        index = HomographIndex(lake)
        result = index.detect()
        assert "INJECTEDHOMOGRAPH1" in result.scores

    def test_very_long_values(self):
        long_value = "A" * 10_000
        lake = DataLake([
            Table.from_columns("t1", {"a": [long_value, "x"]}),
            Table.from_columns("t2", {"b": [long_value, "y"]}),
        ])
        graph = build_graph(lake)
        assert graph.has_value(long_value)

    def test_huge_attribute_count_single_value(self):
        # One value spread over 60 attributes: star topology.
        lake = DataLake([
            Table.from_columns(f"t{i}", {"c": ["hub", f"leaf{i}"]})
            for i in range(60)
        ])
        index = HomographIndex(lake)
        result = index.detect()
        assert result.ranking.values[0] == "HUB"


class TestNumericalStability:
    def test_bc_on_large_star_is_finite(self):
        columns = {"A": [f"v{i}" for i in range(2000)]}
        from repro.core.builder import build_graph_from_columns

        graph = build_graph_from_columns(columns)
        scores = betweenness_scores(graph)
        assert np.all(np.isfinite(scores))

    def test_lcc_on_large_star_is_finite(self):
        from repro.core.builder import build_graph_from_columns

        graph = build_graph_from_columns(
            {"A": [f"v{i}" for i in range(2000)]}
        )
        scores = lcc_scores(graph)
        assert np.all(np.isfinite(scores))
        np.testing.assert_allclose(scores, 1.0)

    def test_sampled_bc_extreme_small_sample(self, figure1_lake):
        graph = build_graph(figure1_lake)
        scores = betweenness_scores(graph, sample_size=1, seed=0)
        assert np.all(np.isfinite(scores))
        assert np.all(scores >= 0.0)


class TestPruningStability:
    """DESIGN.md §6 item 4: pruning shrinks the graph without
    displacing the strong homograph signal at the head of the ranking.
    """

    def test_top_candidates_stable_under_pruning(self):
        from repro.bench.synthetic import SBConfig, generate_sb

        sb = generate_sb(SBConfig(rows=300, seed=4))
        pruned = HomographIndex(sb.lake, prune_candidates=True)
        full = HomographIndex(sb.lake, prune_candidates=False)
        assert pruned.graph.num_values < full.graph.num_values

        top_pruned = pruned.detect().top_values(15)
        top_full = full.detect().top_values(15)
        overlap = len(set(top_pruned) & set(top_full))
        assert overlap >= 10

    def test_pruning_never_drops_multi_attribute_values(self, figure1_lake):
        pruned = HomographIndex(figure1_lake).graph
        full = HomographIndex(figure1_lake, prune_candidates=False).graph
        multi = [
            full.value_name(v)
            for v in range(full.num_values)
            if full.degree(v) >= 2
        ]
        for name in multi:
            assert pruned.has_value(name)
