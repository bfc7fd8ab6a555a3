"""End-to-end integration tests across module boundaries."""

import numpy as np
import pytest

from repro import HomographIndex, dump_lake, load_lake
from repro.bench.synthetic import SBConfig, generate_sb
from repro.bench.tus import TUSConfig, generate_tus
from repro.core.builder import build_graph
from repro.core.communities import estimate_meanings
from repro.eval.metrics import precision_recall_at_k


class TestCsvRoundtripPipeline:
    """Benchmark -> CSV files -> fresh lake -> detection."""

    def test_sb_roundtrip_preserves_detection(self, tmp_path):
        sb = generate_sb(SBConfig(rows=200, seed=5))
        dump_lake(sb.lake, tmp_path)
        reloaded = load_lake(tmp_path)

        original = HomographIndex(sb.lake)
        roundtrip = HomographIndex(reloaded)
        assert original.graph.num_values == roundtrip.graph.num_values
        assert original.graph.num_edges == roundtrip.graph.num_edges

        a = original.detect(measure="betweenness")
        b = roundtrip.detect(measure="betweenness")
        assert a.ranking.values[:20] == b.ranking.values[:20]

    def test_unicode_values_survive(self, tmp_path):
        from repro import DataLake, Table

        lake = DataLake([
            Table.from_columns("t1", {
                "city": ["Zürich", "São Paulo", "Kraków", "Zürich"],
            }),
            Table.from_columns("t2", {
                "name": ["Zürich", "Müller", "Dvořák"],
            }),
        ])
        dump_lake(lake, tmp_path)
        reloaded = load_lake(tmp_path)
        graph = build_graph(reloaded)
        assert graph.has_value("ZÜRICH")
        assert graph.degree(graph.value_id("ZÜRICH")) == 2

    def test_cells_with_delimiters_and_newlines(self, tmp_path):
        from repro import DataLake, Table

        tricky = 'a,"quoted", and\nnewline'
        lake = DataLake([
            Table.from_columns("t", {"c": [tricky, "plain"]}),
        ])
        dump_lake(lake, tmp_path)
        reloaded = load_lake(tmp_path)
        assert reloaded.table("t").rows[0][0] == tricky


class TestFullPipelineQuality:
    def test_sb_detection_quality_small(self):
        sb = generate_sb(SBConfig(rows=300, seed=2))
        index = HomographIndex(sb.lake)
        result = index.detect(measure="betweenness")
        pr = precision_recall_at_k(result.ranking.values, sb.homographs, 30)
        assert pr.precision >= 0.8

    def test_tus_detection_with_all_strategies(self):
        tus = generate_tus(TUSConfig.small(seed=6))
        index = HomographIndex(tus.lake)
        hom = tus.homographs
        base_rate = len(hom) / index.graph.num_values
        for kwargs in (
            {"sample_size": 300, "seed": 1},
            {"sample_size": 300, "seed": 1, "endpoints": "values"},
        ):
            result = index.detect(measure="betweenness", **kwargs)
            pr = precision_recall_at_k(result.ranking.values, hom, 50)
            assert pr.precision > 2 * base_rate, kwargs

    def test_meanings_agree_with_ground_truth_on_tus(self):
        tus = generate_tus(TUSConfig.small(seed=7))
        graph = build_graph(tus.lake)
        truth = tus.ground_truth
        sample = sorted(tus.homographs)[:15]
        close = 0
        for value in sample:
            estimate = estimate_meanings(graph, value)
            if abs(estimate.num_meanings - truth.meanings[value]) <= 1:
                close += 1
        assert close >= 10


class TestDeterminismEndToEnd:
    def test_full_pipeline_is_reproducible(self):
        results = []
        for _ in range(2):
            sb = generate_sb(SBConfig(rows=150, seed=9))
            index = HomographIndex(sb.lake)
            result = index.detect(
                measure="betweenness", sample_size=200, seed=3
            )
            results.append(result.ranking.values[:25])
        assert results[0] == results[1]

    def test_scores_independent_of_table_insertion_order(self):
        sb = generate_sb(SBConfig(rows=150, seed=9))
        from repro import DataLake

        reversed_lake = DataLake(
            [sb.lake.table(n) for n in reversed(sb.lake.table_names)]
        )
        a = HomographIndex(sb.lake).detect()
        b = HomographIndex(reversed_lake).detect()
        for value in a.ranking.top_values(30):
            assert a.scores[value] == pytest.approx(
                b.scores[value], abs=1e-12
            )
