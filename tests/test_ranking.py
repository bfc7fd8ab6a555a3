"""Unit tests for repro.core.ranking."""

import math
import os
import sys
import threading

import pytest

from repro import DataLake, DetectResponse, Table
from repro.core.ranking import (
    HomographRanking,
    format_ranking,
    rank_by_betweenness,
    rank_by_lcc,
)


@pytest.fixture
def scores():
    return {"JAGUAR": 0.025, "PUMA": 0.003, "TOYOTA": 0.002, "PANDA": 0.002}


class TestOrdering:
    def test_betweenness_descending(self, scores):
        ranking = rank_by_betweenness(scores)
        assert ranking.values[:2] == ["JAGUAR", "PUMA"]
        assert ranking[0].rank == 1
        assert ranking[0].score == 0.025

    def test_lcc_ascending(self):
        ranking = rank_by_lcc({"JAGUAR": 0.36, "PANDA": 0.46, "PUMA": 0.43})
        assert ranking.values == ["JAGUAR", "PUMA", "PANDA"]

    def test_ties_break_lexicographically(self, scores):
        ranking = rank_by_betweenness(scores)
        # PANDA and TOYOTA tie at 0.002; PANDA < TOYOTA
        assert ranking.values[2:] == ["PANDA", "TOYOTA"]

    def test_ranks_are_one_based_and_sequential(self, scores):
        ranking = rank_by_betweenness(scores)
        assert [e.rank for e in ranking] == [1, 2, 3, 4]


class TestAccess:
    def test_top_k(self, scores):
        ranking = rank_by_betweenness(scores)
        assert ranking.top_values(2) == ["JAGUAR", "PUMA"]
        assert len(ranking.top(99)) == 4

    def test_top_negative(self, scores):
        with pytest.raises(ValueError):
            rank_by_betweenness(scores).top(-1)

    def test_rank_of(self, scores):
        ranking = rank_by_betweenness(scores)
        assert ranking.rank_of("JAGUAR") == 1
        assert ranking.rank_of("MISSING") is None

    def test_score_of(self, scores):
        ranking = rank_by_betweenness(scores)
        assert ranking.score_of("PUMA") == 0.003
        assert ranking.score_of("MISSING") is None

    def test_len_and_iter(self, scores):
        ranking = rank_by_betweenness(scores)
        assert len(ranking) == 4
        assert [e.value for e in ranking] == ranking.values


class TestPagination:
    def test_page_walk_covers_everything_in_order(self, scores):
        ranking = rank_by_betweenness(scores)
        walked = []
        cursor, pages = None, 0
        while True:
            page = ranking.page(cursor=cursor, limit=3)
            walked.extend(page.entries)
            pages += 1
            assert page.total == len(ranking)
            assert page.measure == "betweenness"
            assert page.descending is True
            cursor = page.next_cursor
            if cursor is None:
                break
        assert pages == 2  # 4 entries / limit 3
        assert walked == list(ranking)

    def test_pages_are_slices_not_copserialized(self, scores):
        # A page is a slice of the ranking's columns (no per-page
        # rebuild): it points back at its ranking, and its entries,
        # built on access, carry the ranking's own value and score
        # objects.
        ranking = rank_by_lcc(scores)
        page = ranking.page(limit=2)
        assert page.ranking is ranking and page.start == 0
        assert page.entries == ranking[:2]
        assert page.entries[0].value is ranking[0].value
        assert page.entries[0].score is ranking[0].score

    def test_default_start_and_exhaustion(self, scores):
        ranking = rank_by_betweenness(scores)
        page = ranking.page(limit=99)
        assert page.next_cursor is None
        assert len(page.entries) == len(ranking)
        # A cursor exactly at the end yields an empty terminal page.
        page = ranking.page(cursor=str(len(ranking)), limit=2)
        assert page.entries == [] and page.next_cursor is None

    @pytest.mark.parametrize("cursor", [
        "x", "-1", "1.5", "", "999",
        "\u0661",   # Arabic-Indic one: a digit, but not ASCII
        "\u00b2",   # superscript two: isdigit(), but int() rejects it
    ])
    def test_bad_cursor_rejected(self, scores, cursor):
        wording = "past the end" if cursor == "999" else (
            "invalid ranking cursor"
        )
        with pytest.raises(ValueError, match=wording):
            rank_by_betweenness(scores).page(cursor=cursor)

    @pytest.mark.parametrize("limit", [0, -2])
    def test_bad_limit_rejected(self, scores, limit):
        with pytest.raises(ValueError):
            rank_by_betweenness(scores).page(limit=limit)

    def test_page_to_dict_shape(self, scores):
        payload = rank_by_betweenness(scores).page(limit=2).to_dict()
        assert set(payload) == {
            "measure", "descending", "total", "next_cursor", "entries",
        }
        assert payload["next_cursor"] == "2"
        assert payload["entries"][0] == {
            "rank": 1, "value": "JAGUAR", "score": 0.025,
        }


class TestFormatting:
    def test_format_with_labels(self, scores):
        ranking = rank_by_betweenness(scores)
        text = format_ranking(
            ranking, k=2, labels={"JAGUAR": True, "PUMA": False}
        )
        lines = text.splitlines()
        assert "top-2 by betweenness" in lines[0]
        assert "[homograph]" in lines[1]
        assert "[unambiguous]" in lines[2]

    def test_format_without_labels(self, scores):
        text = format_ranking(rank_by_betweenness(scores), k=1)
        assert "[homograph]" not in text


#: Scores a custom measure may emit: NaN, infinities and signed zeros.
ODD_SCORES = {
    "nan-a": math.nan, "neg-zero": -0.0, "zero": 0.0, "inf": math.inf,
    "one": 1.0, "nan-b": math.nan, "neg-inf": -math.inf, "also-zero": 0.0,
}


class TestColumns:
    @pytest.mark.parametrize("descending,expected", [
        (True, ["nan-a", "inf", "one", "also-zero", "neg-zero", "zero",
                "nan-b", "neg-inf"]),
        (False, ["nan-a", "neg-inf", "also-zero", "neg-zero", "zero",
                 "one", "inf", "nan-b"]),
    ])
    def test_odd_scores_keep_the_sorted_order(self, descending, expected):
        # The order sorted() gives with the (score, name) key, pinned as
        # the 2.0 list-of-entries ranking produced it.
        ranking = HomographRanking(ODD_SCORES, descending, "custom")
        assert ranking.values == expected
        for entry in ranking:
            assert entry.score is ranking.scores[entry.value]
            assert math.copysign(1, entry.score) == math.copysign(
                1, ODD_SCORES[entry.value]
            )

    def test_entries_share_the_column_float_objects(self):
        ranking = HomographRanking({"A": 1.5, "B": 2.5}, True, "m")
        assert ranking[0].score is ranking.score_of("B")
        assert ranking[-1].score is ranking.scores["A"]
        assert ranking.page(limit=1).entries[0].score is ranking[0].score

    def test_ranking_equals_itself_with_nan_scores(self):
        ranking = HomographRanking(ODD_SCORES, True, "custom")
        assert ranking == ranking
        assert hash(ranking) == hash(ranking)
        clone = HomographRanking.from_columns(*ranking.columns(), True,
                                              "custom")
        assert clone == ranking and hash(clone) == hash(ranking)

    def test_equal_rankings_hash_equal(self):
        a = HomographRanking({"X": 1.0, "Y": -0.0}, True, "m")
        b = HomographRanking({"Y": 0.0, "X": 1.0}, True, "m")
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("ranks", [[2, 1], [1, 1], [0, 1], [1, 3], [2]])
    def test_from_dict_rejects_ranks_not_one_to_n(self, ranks):
        rows = [
            {"rank": rank, "value": f"V{i}", "score": 1.0}
            for i, rank in enumerate(ranks)
        ]
        with pytest.raises(ValueError, match="ranks 1..n"):
            HomographRanking.from_dict(
                {"measure": "m", "descending": True, "entries": rows}
            )
        ranking = HomographRanking({"V0": 1.0}, True, "m")
        payload = DetectResponse(
            measure="m", ranking=ranking, scores=ranking.scores,
            descending=True, graph_seconds=0.0, measure_seconds=0.0,
        ).to_dict()
        with pytest.raises(ValueError, match="ranks 1..n"):
            DetectResponse.from_dict({**payload, "ranking": rows})

    def test_scores_mapping_reads_like_the_dict(self):
        scores = {"B": 2.0, "A": 3.0, "C": 1.0}
        ranking = rank_by_betweenness(scores)
        view = ranking.scores
        assert view == scores and scores == view
        assert list(view) == ranking.values == ["A", "B", "C"]
        assert dict(view.items()) == scores
        assert len(view) == 3 and "A" in view and "Z" not in view
        assert view.get("Z") is None
        with pytest.raises(KeyError):
            view["Z"]

    def test_scores_mapping_is_read_only(self):
        view = rank_by_betweenness({"A": 1.0}).scores
        with pytest.raises(TypeError):
            view["A"] = 2.0
        with pytest.raises(TypeError):
            del view["A"]
        for mutator in ("clear", "pop", "update", "setdefault"):
            assert not hasattr(view, mutator)


class TestSharedLazyState:
    def test_racing_first_access_builds_each_once(self):
        """More threads than cores race the lazy state of a ranking and
        a deferred lake: the name index behind rank_of, the scores
        mapping, and the lake's table load.  Every reader sees complete
        results; each is built once."""
        threads = max(8, 4 * (os.cpu_count() or 1))
        size = 20_000
        values = [f"V{i:05d}" for i in range(size)]
        scores = [float(i % 97) for i in range(size)]
        tables = [
            Table.from_columns(f"T{i}", {"c": ["a", "b"]}) for i in range(50)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                ranking = HomographRanking.from_columns(
                    values, scores, False, "m"
                )
                view = ranking.scores
                loads = []

                def load():
                    loads.append(1)
                    yield from tables   # readers switch in mid-load

                lake = DataLake.deferred(load, count=len(tables))
                barrier = threading.Barrier(threads)
                seen = [None] * threads

                def read(slot):
                    reads = {
                        "ranks": lambda: [ranking.rank_of(v)
                                          for v in values[slot::threads]],
                        "scores": lambda: [view[v]
                                           for v in values[slot::threads]],
                        "lake": lambda: (lake.table_names, len(lake)),
                    }
                    # Each thread touches the three in a different order.
                    order = list(reads)[slot % 3:] + list(reads)[:slot % 3]
                    barrier.wait()
                    got = {name: reads[name]() for name in order}
                    seen[slot] = (got, ranking._positions(),
                                  lake._table_map())

                workers = [
                    threading.Thread(target=read, args=(slot,))
                    for slot in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
                names = [table.name for table in tables]
                for slot, (got, index, table_map) in enumerate(seen):
                    assert got["ranks"] == list(
                        range(slot + 1, size + 1, threads)
                    )
                    assert got["scores"] == scores[slot::threads]
                    assert got["lake"] == (names, len(tables))
                    assert index is ranking._index      # built once
                    assert table_map is lake._table_map()
                assert len(loads) == 1                  # loaded once
                assert dict(view.items()) == dict(zip(values, scores))
        finally:
            sys.setswitchinterval(interval)
