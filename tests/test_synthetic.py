"""Tests for the SB benchmark generator (paper §4.1 / Table 1 row 1)."""

import pytest

from repro.bench.synthetic import (
    SB_ATTRIBUTE_TYPES,
    SBConfig,
    generate_sb,
)
from repro.bench.vocab import PLANTED_HOMOGRAPHS
from repro.datalake.catalog import compute_statistics
from repro.datalake.profiling import value_attribute_index


@pytest.fixture(scope="module")
def sb():
    return generate_sb()


class TestStructure:
    def test_thirteen_tables(self, sb):
        assert len(sb.lake) == 13

    def test_thirty_nine_attributes(self, sb):
        assert sb.lake.num_attributes == 39

    def test_row_counts(self, sb):
        assert sb.lake.table("countries").num_rows == 193
        assert sb.lake.table("us_states").num_rows == 50
        for name in sb.lake.table_names:
            if name not in ("countries", "us_states"):
                assert sb.lake.table(name).num_rows == 1000

    def test_every_attribute_typed(self, sb):
        qnames = {c.qualified_name for c in sb.lake.iter_attributes()}
        assert qnames == set(SB_ATTRIBUTE_TYPES)

    def test_vocabulary_size_order_of_paper(self, sb):
        stats = compute_statistics(sb.lake, "SB")
        # Paper: 17,633 distinct values.  Same order of magnitude.
        assert 8_000 <= stats.num_values <= 25_000


class TestGroundTruth:
    def test_exactly_55_homographs(self, sb):
        assert len(sb.homographs) == 55
        assert sb.homographs == set(PLANTED_HOMOGRAPHS)

    def test_all_meanings_two(self, sb):
        for value in sb.homographs:
            assert sb.ground_truth.meanings[value] == 2

    def test_homographs_appear_on_both_sides(self, sb):
        index = value_attribute_index(sb.lake)
        for value, (type_a, type_b) in PLANTED_HOMOGRAPHS.items():
            types = {
                SB_ATTRIBUTE_TYPES[attr] for attr in index[value]
            }
            assert types == {type_a, type_b}, value

    def test_unambiguous_repeated_values_exist(self, sb):
        # Values like TOYOTA repeat across company columns but have one
        # meaning — the hard negatives of the benchmark.
        index = value_attribute_index(sb.lake)
        multi = {
            v for v, attrs in index.items()
            if len(attrs) >= 2 and v not in sb.homographs
        }
        assert len(multi) > 300

    def test_cardinality_range_order_of_paper(self, sb):
        stats = compute_statistics(
            sb.lake, "SB",
            homographs=sb.homographs,
            meanings=sb.ground_truth.meanings,
        )
        # Paper: 151-1,966.
        assert stats.homograph_cardinality_min >= 50
        assert stats.homograph_cardinality_max <= 4_000


class TestDeterminism:
    def test_same_seed_same_lake(self):
        a = generate_sb(SBConfig(rows=50, seed=3))
        b = generate_sb(SBConfig(rows=50, seed=3))
        for name in a.lake.table_names:
            assert a.lake.table(name).rows == b.lake.table(name).rows

    def test_different_seed_different_lake(self):
        a = generate_sb(SBConfig(rows=50, seed=3))
        b = generate_sb(SBConfig(rows=50, seed=4))
        diffs = sum(
            a.lake.table(n).rows != b.lake.table(n).rows
            for n in a.lake.table_names
        )
        assert diffs > 0

    def test_small_rows_still_valid(self):
        # Ground-truth verification runs inside generate_sb; exactly 55
        # homographs must survive even at greatly reduced scale.
        sb = generate_sb(SBConfig(rows=100, seed=1))
        assert len(sb.homographs) == 55


class TestDetectionQuality:
    """The §5.1 headline shapes, asserted loosely enough to be stable."""

    def test_bc_beats_lcc_at_top55(self, sb):
        from repro import HomographIndex

        det = HomographIndex(sb.lake)
        bc = det.detect(measure="betweenness")
        lcc = det.detect(measure="lcc")
        bc_hits = sum(1 for v in bc.top_values(55) if v in sb.homographs)
        lcc_hits = sum(1 for v in lcc.top_values(55) if v in sb.homographs)
        assert bc_hits > lcc_hits
        assert bc_hits >= 30  # paper: 38/55

    def test_bc_misses_are_abbreviations(self, sb):
        from repro import HomographIndex

        det = HomographIndex(sb.lake)
        bc = det.detect(measure="betweenness")
        top = set(bc.top_values(55))
        missed = sb.homographs - top
        abbreviations = {
            v for v, t in PLANTED_HOMOGRAPHS.items()
            if t == ("country_code", "state_abbr")
        }
        # Paper §5.1: "The homographs not in the top-55 are
        # country/state abbreviation homographs."
        assert missed <= abbreviations
