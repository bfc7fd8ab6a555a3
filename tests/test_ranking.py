"""Unit tests for repro.core.ranking."""

import pytest

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
        # Entries are shared with the ranking (no per-page rebuild).
        ranking = rank_by_lcc(scores)
        page = ranking.page(limit=2)
        assert page.entries[0] is ranking[0]

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
