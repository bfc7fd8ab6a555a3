"""Spliced ranking bodies are byte-identical to ``json.dumps`` of ``to_dict``.

Cache-hit detect bodies and ranking pages are built by splicing a
slice of the ranking's memoized JSON rows
(:meth:`HomographRanking.encoded_rows`) into the small sorted-key
envelope.  The reference here is the dict path,
``json.dumps(response.to_dict(top=top), sort_keys=True)``, which never
touches the memo.  Covered: values and scores that stress the encoder,
an empty ranking, snapshot-loaded and delta-patched rankings, plain
and gzip'd pages over HTTP, concurrent readers of one fresh ranking,
and a mutation between two reads.
"""

import gzip
import http.client
import json
import math
import sys
import threading

import pytest

from repro import (
    DataLake,
    DetectRequest,
    DetectResponse,
    HomographIndex,
    MeasureOutput,
    Table,
    register_measure,
    unregister_measure,
)
from repro.core.ranking import HomographRanking, RankingPage
from tests.conftest import LAKE, serve_index

# Values json must escape, confusable spellings, and scores json
# writes specially (NaN, Infinity) or that round-trip at the edges.
HARD_SCORES = {
    'say "when"': 0.5,
    "back\\slash": math.nan,
    "tab\tnewline\nbell\x07nul\x00del\x7f": math.inf,
    "emoji \U0001F600 clef \U0001D11E": -0.0,
    "JАGUAR": 5e-324,             # Cyrillic A, subnormal score
    "ΡUMA": -math.inf,            # Greek Rho
    "JAGUAR": 0.1 + 0.2,
    "PUMA": 1e300,
    "café": 0.0,
}
HARD_PARAMETERS = {"note": 'a "quoted" \\ value\n', "k": 3}
HARD_MEASURE = "hard-rows-test"

TOPS = [None, 0, 1, "n", "n+1"]
PAGES = ["first", "middle", "last", "terminal"]
LIMIT = 2


def dumps(payload):
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def resolve_top(top, size):
    return {"n": size, "n+1": size + 1}.get(top, top)


def page_cursor(which, size):
    """The cursor of the first, a middle, the last or the empty page."""
    last = max(0, (size - 1) // LIMIT * LIMIT)
    return {
        "first": None,
        "middle": str(min(LIMIT, last)),
        "last": str(last) if last else None,
        "terminal": str(size),
    }[which]


def hard_response():
    return DetectResponse(
        measure=HARD_MEASURE,
        ranking=HomographRanking(HARD_SCORES, True, HARD_MEASURE),
        scores=dict(HARD_SCORES),
        descending=True,
        graph_seconds=0.125,
        measure_seconds=1e-7,
        parameters=dict(HARD_PARAMETERS),
        cached=True,
        request=DetectRequest(
            measure=HARD_MEASURE, options={"pad": "x\ny é"}
        ),
    )


def empty_response():
    return DetectResponse(
        measure="lcc",
        ranking=HomographRanking({}, False, "lcc"),
        scores={},
        descending=False,
        graph_seconds=0.0,
        measure_seconds=0.0,
    )


def snapshot_response(lake, tmp_path):
    """A cached response whose ranking came from ``from_dict``."""
    with HomographIndex(lake) as source:
        source.detect(measure="lcc")
        source.save(tmp_path / "snap")
    with HomographIndex.load(tmp_path / "snap") as index:
        response = index.detect(measure="lcc")
    assert response.cached
    return response


def patched_response(lake, tmp_path):
    """A cached response whose ranking ``add_table`` patched."""
    with HomographIndex(lake, prune_candidates=False) as index:
        index.detect(measure="betweenness")
        index.add_table(extra_table())
        assert index.last_mutation["patched_entries"] == 1
        response = index.detect(measure="betweenness")
    assert response.cached
    return response


EXTRA_COLUMNS = {"Name": ["Jaguar", "Ocelot"], "Kind": ["cat", "cat"]}


def extra_table():
    return Table.from_columns("T5", EXTRA_COLUMNS)


RESPONSES = {
    "hard": lambda lake, tmp_path: hard_response(),
    "empty": lambda lake, tmp_path: empty_response(),
    "snapshot": snapshot_response,
    "patched": patched_response,
}


@pytest.fixture(params=sorted(RESPONSES))
def response(request, figure1_lake, tmp_path):
    return RESPONSES[request.param](figure1_lake, tmp_path)


class TestSplicedBodies:
    @pytest.mark.parametrize("top", TOPS)
    def test_detect_body_matches_dumps(self, response, top):
        top = resolve_top(top, len(response.ranking))
        expected = dumps(response.to_dict(top=top))
        # Twice: the first call fills the memo, the second reads it.
        assert response.to_json_bytes(top=top) == expected
        assert response.to_json_bytes(top=top) == expected

    @pytest.mark.parametrize("which", PAGES)
    @pytest.mark.parametrize("cached", [True, False])
    def test_page_body_matches_dumps(self, response, which, cached):
        ranking = response.ranking
        page = ranking.page(page_cursor(which, len(ranking)), LIMIT)
        expected = dumps({**page.to_dict(), "cached": cached})
        assert page.to_json_bytes(cached=cached) == expected
        assert page.to_json_bytes(cached=cached) == expected

    def test_hand_built_page_encodes_its_entries(self):
        ranking = hard_response().ranking
        cut = ranking.page("2", 3)
        page = RankingPage(
            entries=cut.entries, next_cursor=cut.next_cursor,
            total=cut.total, measure=cut.measure,
            descending=cut.descending,
        )
        assert page.to_json_bytes() == dumps(page.to_dict())
        assert ranking._rows == []        # no ranking, no memo

    def test_memo_holds_only_rows_a_caller_needed(self):
        response = hard_response()
        ranking = response.ranking
        assert ranking._rows == []        # nothing encoded up front
        response.to_json_bytes(top=1)
        assert len(ranking._rows) == 1
        ranking.page("2", 3).to_json_bytes()
        assert len(ranking._rows) == 5
        response.to_json_bytes(top=2)     # a shorter read adds nothing
        assert len(ranking._rows) == 5

    @pytest.mark.parametrize("start, stop", [(-1, 2), (3, 2), (0, -1)])
    def test_bad_row_range_rejected(self, start, stop):
        with pytest.raises(ValueError, match="invalid row range"):
            hard_response().ranking.encoded_rows(start, stop)


def fetch(server, method, path, body=None, accept_gzip=False):
    """One raw exchange; returns ``(status, headers, body bytes)``."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    headers = {"Accept-Encoding": "gzip"} if accept_gzip else {}
    try:
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


@pytest.fixture
def hard_server(figure1_lake):
    """A served index whose custom measure yields :data:`HARD_SCORES`."""

    def measure(graph, request):
        return MeasureOutput(
            scores=HARD_SCORES, descending=True,
            parameters=HARD_PARAMETERS,
        )

    register_measure(HARD_MEASURE, measure)
    index = HomographIndex(figure1_lake)
    index.detect(measure=HARD_MEASURE)    # every read below is a hit
    server = serve_index(index)
    try:
        yield server, index
    finally:
        server.drain()
        unregister_measure(HARD_MEASURE)


class TestServedBodies:
    @pytest.mark.parametrize("top", TOPS)
    def test_detect_hit_bytes(self, hard_server, top):
        server, index = hard_server
        response = index.detect(measure=HARD_MEASURE)
        top = resolve_top(top, len(response.ranking))
        query = "" if top is None else f"?top={top}"
        for _ in range(2):
            status, _, raw = fetch(
                server, "POST", f"/lakes/{LAKE}/detect{query}",
                body=json.dumps({"measure": HARD_MEASURE}).encode(),
            )
            assert status == 200
            assert raw == dumps(response.to_dict(top=top))

    @pytest.mark.parametrize("which", PAGES)
    @pytest.mark.parametrize("accept_gzip", [False, True])
    def test_page_bytes(self, hard_server, which, accept_gzip):
        server, index = hard_server
        ranking = index.detect(measure=HARD_MEASURE).ranking
        cursor = page_cursor(which, len(ranking))
        query = f"limit={LIMIT}" + (f"&cursor={cursor}" if cursor else "")
        expected = dumps(
            {**ranking.page(cursor, LIMIT).to_dict(), "cached": True}
        )
        for _ in range(2):
            status, headers, raw = fetch(
                server, "GET", f"/lakes/{LAKE}/ranking/{HARD_MEASURE}?"
                + query, accept_gzip=accept_gzip,
            )
            assert status == 200
            if accept_gzip:
                assert headers["Content-Encoding"] == "gzip"
                raw = gzip.decompress(raw)
            else:
                assert "Content-Encoding" not in headers
            assert raw == expected


class TestConcurrencyAndMutation:
    def test_concurrent_readers_share_one_memo(self):
        size = 3000
        scores = {f"V{i:05d}": (i * 7919 % 1009) / 1009 for i in range(size)}
        ranking = HomographRanking(scores, True, "betweenness")
        response = DetectResponse(
            measure="betweenness", ranking=ranking, scores=scores,
            descending=True, graph_seconds=0.0, measure_seconds=0.0,
            cached=True,
        )
        export = dumps(response.to_dict())
        barrier = threading.Barrier(8)
        bodies = [[] for _ in range(8)]

        def read(slot):
            barrier.wait()
            limit = 97 + 31 * slot
            for start in range(slot * 53, size + 1, 2 * limit):
                page = ranking.page(str(start), limit)
                bodies[slot].append((start, limit, page.to_json_bytes()))
                if start % 3 == slot % 3:
                    bodies[slot].append((None, None,
                                         response.to_json_bytes()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=read, args=(slot,))
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for reads in bodies:
            assert reads
            for start, limit, body in reads:
                if start is None:
                    assert body == export
                else:
                    page = ranking.page(str(start), limit)
                    assert body == dumps(page.to_dict())
        # Each row exactly once, in rank order: no lost or doubled
        # extension.
        assert response.to_json_bytes() == export
        assert ranking._rows == [
            json.dumps(entry.to_dict(), sort_keys=True) for entry in ranking
        ]

    def test_read_after_add_table_uses_the_new_ranking(self, figure1_lake):
        request = DetectRequest(measure="betweenness")
        with HomographIndex(figure1_lake, prune_candidates=False) as index:
            before = index.detect(request)
            first = before.to_json_bytes()
            encoded = list(before.ranking._rows)
            index.add_table(extra_table())
            after = index.detect(request)
            second = after.to_json_bytes()
            lake = DataLake(list(index.lake))
        assert index.last_mutation["patched_entries"] == 1
        assert after.cached and after.ranking is not before.ranking
        assert second == dumps(after.to_dict())
        assert second != first
        # The evicted ranking's memo was neither read nor extended.
        assert before.ranking._rows == encoded
        with HomographIndex(lake, prune_candidates=False) as oracle:
            rebuilt = oracle.detect(request)
        assert json.loads(second)["ranking"] == [
            entry.to_dict() for entry in rebuilt.ranking
        ]

    def test_served_page_after_add_table(self, figure1_lake):
        index = HomographIndex(figure1_lake, prune_candidates=False)
        server = serve_index(index)
        path = f"/lakes/{LAKE}/ranking/betweenness?limit=3"
        try:
            _, _, first = fetch(server, "GET", path)
            body = json.dumps({"name": "T5", "columns": EXTRA_COLUMNS})
            status, _, _ = fetch(server, "POST", f"/lakes/{LAKE}/tables",
                                 body=body.encode())
            assert status == 201
            assert index.last_mutation["patched_entries"] == 1
            _, _, second = fetch(server, "GET", path)
            response = index.detect(measure="betweenness")
            expected = dumps({**response.ranking.page(None, 3).to_dict(),
                              "cached": True})
        finally:
            server.drain()
        assert second == expected
        assert json.loads(second)["total"] > json.loads(first)["total"]
