"""Tests for the D4 pipeline (discovery + end-to-end)."""

import pytest

from repro import DataLake, Table
from repro.domains import run_d4
from repro.domains.d4 import D4Config
from repro.domains.discovery import (
    LocalDomain,
    expand_columns,
    local_domains,
    strong_domains,
)
from repro.domains.signatures import all_robust_signatures, build_term_index


def two_type_lake():
    """Animals and companies in two columns each, JAGUAR spanning both.

    The staggered column subsets plus the multi-column noise tokens
    (NA, X) create the spread of similarity levels real lakes have;
    with perfectly clean levels D4's trimming detaches homographs
    entirely (a failure mode covered by TestSBCalibration).
    """
    animals = [f"animal{i}" for i in range(8)]
    companies = [f"company{i}" for i in range(8)]
    return DataLake([
        Table.from_columns("zoo", {"animal": animals[:6] + ["Jaguar", "NA"]}),
        Table.from_columns("wild", {
            "species": animals[2:8] + ["Jaguar", "X"]
        }),
        Table.from_columns("corp", {
            "company": companies[:6] + ["Jaguar", "NA"]
        }),
        Table.from_columns("stocks", {
            "name": companies[2:8] + ["Jaguar", "X"]
        }),
        Table.from_columns("misc1", {"m": ["NA", "X", "noise1", "noise2"]}),
        Table.from_columns("misc2", {"m": ["NA", "X", "noise3", "noise4"]}),
    ])


class TestStrongDomains:
    def test_merges_heavily_overlapping(self):
        a = LocalDomain(0, {1, 2, 3, 4})
        b = LocalDomain(1, {1, 2, 3, 5})
        merged = strong_domains([a, b], overlap_threshold=0.5)
        assert len(merged) == 1
        assert merged[0].term_ids == {1, 2, 3, 4, 5}
        assert merged[0].column_ids == {0, 1}

    def test_does_not_absorb_small_cluster(self):
        mini = LocalDomain(0, {1, 2})
        big = LocalDomain(1, set(range(1, 30)))
        big2 = LocalDomain(2, set(range(1, 30)))
        merged = strong_domains([mini, big, big2], overlap_threshold=0.5)
        # mini has containment 2/29 in big: stays separate, then dies
        # on min_support (only one supporting column).
        assert len(merged) == 1
        assert merged[0].column_ids == {1, 2}

    def test_min_support(self):
        a = LocalDomain(0, {1, 2, 3})
        merged = strong_domains([a], min_support=1)
        assert len(merged) == 1
        merged = strong_domains([a], min_support=2)
        assert merged == []

    def test_min_size_drops_singletons(self):
        a = LocalDomain(0, {1})
        b = LocalDomain(1, {1})
        assert strong_domains([a, b], min_support=1) == []

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            strong_domains([], overlap_threshold=0.0)


class TestExpandColumns:
    def test_expansion_adds_missing_member(self):
        lake = two_type_lake()
        index = build_term_index(lake)
        signatures = all_robust_signatures(index, variant="liberal")
        expanded = expand_columns(index, signatures, threshold=0.5)
        # Expansion never removes terms and must grow at least one
        # column here (wild-only animals belong in zoo and vice versa).
        grown = 0
        for c in range(index.num_columns):
            original = set(int(t) for t in index.column_terms[c])
            assert original <= expanded[c]
            grown += len(expanded[c]) - len(original)
        assert grown > 0

    def test_expansion_respects_threshold(self):
        lake = two_type_lake()
        index = build_term_index(lake)
        signatures = all_robust_signatures(index, variant="liberal")
        expanded = expand_columns(index, signatures, threshold=1.0)
        original_sizes = [len(index.column_terms[c])
                          for c in range(index.num_columns)]
        # With threshold 1.0 very little (possibly nothing) expands.
        grown = sum(
            len(expanded[c]) - original_sizes[c]
            for c in range(index.num_columns)
        )
        assert grown <= 2

    def test_invalid_threshold(self):
        lake = two_type_lake()
        index = build_term_index(lake)
        with pytest.raises(ValueError):
            expand_columns(index, [], threshold=0.0)


class TestLocalDomains:
    def test_columns_cluster_by_type(self):
        lake = two_type_lake()
        index = build_term_index(lake)
        signatures = all_robust_signatures(index, variant="liberal")
        expanded = [
            set(int(t) for t in index.column_terms[c])
            for c in range(index.num_columns)
        ]
        locals_ = local_domains(index, signatures, expanded)
        # Every column must produce at least one local domain.
        assert {d.column_id for d in locals_} == set(range(6))


class TestRunD4:
    def test_discovers_two_type_domains(self):
        result = run_d4(two_type_lake())
        assert result.num_domains >= 2
        # The animal domain and company domain must not be merged.
        term_sets = [result.domain_terms(i) for i in range(result.num_domains)]
        has_animals = any("ANIMAL0" in s for s in term_sets)
        has_companies = any("COMPANY0" in s for s in term_sets)
        assert has_animals and has_companies
        assert not any(
            "ANIMAL0" in s and "COMPANY0" in s for s in term_sets
        )

    def test_homograph_in_two_domains(self):
        result = run_d4(two_type_lake())
        assert "JAGUAR" in result.predicted_homographs()

    def test_unambiguous_not_predicted(self):
        result = run_d4(two_type_lake())
        predicted = result.predicted_homographs()
        assert "ANIMAL0" not in predicted
        assert "COMPANY0" not in predicted

    def test_ranked_homographs_deterministic(self):
        a = run_d4(two_type_lake()).ranked_homographs()
        b = run_d4(two_type_lake()).ranked_homographs()
        assert a == b

    def test_domains_per_column_stats(self):
        result = run_d4(two_type_lake())
        counts = result.domains_per_column()
        assert set(counts) == set(result.index.columns)
        assert result.max_domains_per_column() >= 1
        assert 0 < result.avg_domains_per_column() <= result.max_domains_per_column()

    def test_numeric_columns_ignored(self):
        lake = two_type_lake()
        lake.add_table(Table.from_columns("nums", {
            "n": [str(i) for i in range(50)]
        }))
        result = run_d4(lake)
        assert "nums.n" not in result.index.columns

    def test_no_expansion_config(self):
        result = run_d4(two_type_lake(), D4Config(expand=False))
        assert result.num_domains >= 2


class TestSBCalibration:
    """The §5.1 baseline comparison, on a reduced SB for speed."""

    def test_d4_beats_zero_but_loses_to_domainnet(self):
        from repro import HomographIndex
        from repro.bench.synthetic import SBConfig, generate_sb
        from repro.eval.metrics import precision_recall_at_k

        sb = generate_sb(SBConfig(rows=300, seed=0))
        d4 = run_d4(sb.lake)
        d4_pr = precision_recall_at_k(
            d4.ranked_homographs(), sb.homographs, 55
        )

        det = HomographIndex(sb.lake)
        bc = det.detect(measure="betweenness")
        bc_hits = sum(1 for v in bc.top_values(55) if v in sb.homographs)

        assert d4_pr.true_positives > 0
        # DomainNet's margin over D4 is the paper's headline (69 vs 38).
        assert bc_hits > d4_pr.true_positives
