"""Tests for the TUS-like benchmark generator (§4.2 / Table 1 row 3)."""

import numpy as np
import pytest

from repro.bench.tus import (
    NULL_TOKENS,
    TUSConfig,
    generate_tus,
)
from repro.core.normalize import normalize_value


@pytest.fixture(scope="module")
def tus():
    return generate_tus(TUSConfig.small())


class TestStructure:
    def test_tables_are_slices(self, tus):
        assert len(tus.lake) > 10
        for name in tus.lake.table_names:
            assert name.startswith("t0")

    def test_every_attribute_has_a_domain(self, tus):
        groups = tus.ground_truth.attribute_groups
        qnames = {c.qualified_name for c in tus.lake.iter_attributes()}
        assert qnames == set(groups)

    def test_attribute_domains_are_real_domains(self, tus):
        domain_ids = {d.domain_id for d in tus.domains}
        for group in tus.ground_truth.attribute_groups.values():
            assert group in domain_ids

    def test_string_and_numeric_domains_exist(self, tus):
        kinds = {d.kind for d in tus.domains}
        assert kinds == {"string", "numeric"}

    def test_attribute_sizes_are_skewed(self, tus):
        sizes = [c.distinct_count() for c in tus.lake.iter_attributes()]
        assert min(sizes) < 30
        assert max(sizes) > 10 * min(sizes)


class TestGroundTruth:
    def test_homograph_rate_in_paper_band(self, tus):
        truth = tus.ground_truth
        rate = len(truth.homographs) / len(truth.meanings)
        # Paper: 26,035 / 190,399 = 13.7%.
        assert 0.03 <= rate <= 0.30

    def test_homographs_span_multiple_domains(self, tus):
        truth = tus.ground_truth
        for value in list(truth.homographs)[:50]:
            assert truth.meanings[value] >= 2

    def test_null_tokens_have_many_meanings(self, tus):
        truth = tus.ground_truth
        null_meanings = [
            truth.meanings[normalize_value(t)]
            for t in NULL_TOKENS
            if normalize_value(t) in truth.meanings
        ]
        assert null_meanings, "no null tokens were placed"
        assert max(null_meanings) >= 3

    def test_numeric_homographs_exist(self, tus):
        # Small integers shared between numeric domains (paper's "50",
        # "125", "2" examples).
        numeric = [
            v for v in tus.homographs
            if v.isdigit()
        ]
        assert numeric

    def test_values_in_single_domain_are_unambiguous(self, tus):
        truth = tus.ground_truth
        single = [v for v, m in truth.meanings.items() if m == 1]
        assert len(single) > len(truth.homographs)
        for value in single[:50]:
            assert value not in truth.homographs


class TestDeterminism:
    def test_same_seed_same_lake(self):
        a = generate_tus(TUSConfig.small(seed=5))
        b = generate_tus(TUSConfig.small(seed=5))
        assert a.lake.table_names == b.lake.table_names
        name = a.lake.table_names[0]
        assert a.lake.table(name).rows == b.lake.table(name).rows
        assert a.homographs == b.homographs

    def test_different_seeds_differ(self):
        a = generate_tus(TUSConfig.small(seed=5))
        b = generate_tus(TUSConfig.small(seed=6))
        assert a.homographs != b.homographs


class TestScaling:
    def test_paper_config_is_larger(self):
        small = TUSConfig.small()
        paper = TUSConfig.paper()
        assert paper.num_seed_tables > small.num_seed_tables
        assert paper.num_domains > small.num_domains

    def test_detection_beats_chance(self):
        """Integration: BC ranking concentrates homographs at the top."""
        from repro import HomographIndex
        from repro.eval.metrics import precision_recall_at_k

        tus = generate_tus(TUSConfig.small(seed=2))
        det = HomographIndex(tus.lake)
        result = det.detect(measure="betweenness", sample_size=400, seed=1)
        hom = tus.homographs
        pr = precision_recall_at_k(result.ranking.values, hom, 50)
        base_rate = len(hom) / len(result.ranking)
        assert pr.precision > 3 * base_rate


@pytest.mark.skipif(
    "REPRO_RUN_SLOW" not in __import__("os").environ,
    reason="paper-scale generation takes minutes; set REPRO_RUN_SLOW=1",
)
class TestPaperScale:
    def test_paper_config_statistics_band(self):
        """Published-scale lake: Table 1 row 3 order of magnitude."""
        tus = generate_tus(TUSConfig.paper())
        truth = tus.ground_truth
        assert len(tus.lake) > 800
        assert len(truth.meanings) > 100_000
        rate = len(truth.homographs) / len(truth.meanings)
        assert 0.05 <= rate <= 0.30
