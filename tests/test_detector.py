"""Integration tests for the DomainNet end-to-end pipeline."""

import pytest

from repro import HomographIndex


class TestPipeline:
    def test_betweenness_detection(self, figure1_lake, figure1_homographs):
        index = HomographIndex(figure1_lake)
        result = index.detect(measure="betweenness")
        # Occurrence pruning keeps the 4 repeated names plus "2", which
        # occurs twice within T2.num (a node, but not a homograph).
        assert len(result.ranking) == 5
        # Both true homographs occupy the top-2.
        assert set(result.top_values(2)) == figure1_homographs

    def test_lcc_detection_on_unpruned_graph(self, figure1_lake):
        # On the full graph, JAGUAR has the lowest LCC of all values.
        index = HomographIndex(figure1_lake, prune_candidates=False)
        result = index.detect(measure="lcc")
        assert result.measure == "lcc"
        assert result.ranking.values[0] == "JAGUAR"

    def test_lcc_weakness_on_pruned_graph(self, figure1_lake):
        # The paper's §5.1 finding in miniature: after pruning, LCC no
        # longer separates homographs — JAGUAR drops to the *worst* rank
        # because its four attributes pairwise-overlap heavily.
        index = HomographIndex(figure1_lake)
        result = index.detect(measure="lcc")
        assert result.ranking.values[-1] == "JAGUAR"

    def test_no_pruning_keeps_all_values(self, figure1_lake):
        index = HomographIndex(figure1_lake, prune_candidates=False)
        assert index.graph.num_values == 37

    def test_pruning_reduces_graph(self, figure1_lake):
        pruned = HomographIndex(figure1_lake)
        # JAGUAR, PUMA, PANDA, TOYOTA (multi-attribute) and "2"
        # (repeats within one column) survive occurrence pruning.
        assert sorted(pruned.graph.value_names) == [
            "2", "JAGUAR", "PANDA", "PUMA", "TOYOTA"
        ]
        assert pruned.graph.num_attributes == 12

    def test_timing_recorded(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        result = index.detect()
        assert result.graph_seconds >= 0.0
        assert result.measure_seconds >= 0.0

    def test_parameters_recorded(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        result = index.detect(sample_size=5, seed=42)
        assert result.parameters["sample_size"] == 5
        assert result.parameters["seed"] == 42

    def test_lcc_variant_parameter(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        result = index.detect(measure="lcc", lcc_variant="value-neighbors")
        assert result.parameters["variant"] == "value-neighbors"

    def test_unknown_measure_rejected(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        with pytest.raises(ValueError):
            index.detect(measure="pagerank")

    def test_scores_match_ranking(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        result = index.detect()
        for entry in result.ranking:
            assert result.scores[entry.value] == entry.score


class TestLakeUpdates:
    def test_removal_can_dehomograph(self, figure1_lake):
        """Dropping T3 and T4 removes Jaguar's car meaning entirely."""
        figure1_lake.remove_table("T3")
        figure1_lake.remove_table("T4")
        index = HomographIndex(figure1_lake)
        result = index.detect()
        # JAGUAR and PANDA still repeat (T1/T2) but the animal columns
        # are unionable in spirit: scores collapse toward the background.
        scores = result.scores
        assert scores["JAGUAR"] < 0.025  # far below its Figure-1 score
