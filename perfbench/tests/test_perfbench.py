"""Tests of the benchmark's own inputs, statistics, spans and checks."""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import serve_workload  # noqa: E402
from orderstats import median, percentile, tail  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

from repro.api import DetectRequest, HomographIndex  # noqa: E402
from repro.bench.synthetic import generate_sb  # noqa: E402
from repro.datalake.lake import DataLake  # noqa: E402
from repro.datalake.table import Table  # noqa: E402


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sb_columns():
    return inputs.lake_columns(generate_sb().lake)


@pytest.mark.parametrize("workload", ["serve_read", "serve_mixed"])
def test_same_seed_gives_byte_identical_op_sequence(workload, sb_columns):
    def ops(seed):
        return json.dumps(list(islice(
            inputs.op_stream(workload, seed, sb_columns), 600)))

    assert ops(7) == ops(7)
    assert ops(7) != ops(8)


def test_op_stream_keeps_the_block_mix_and_pairs_mutations(sb_columns):
    ops = list(islice(inputs.op_stream("serve_mixed", 3, sb_columns),
                      len(inputs.BLOCKS["serve_mixed"]) * 20))
    kinds = [op["op"] for op in ops]
    # loadgen's DEFAULT_MIX without jobs: per block 9 hits, 4 pages,
    # 3 misses and 2 add/remove pairs.
    assert kinds.count("top100") + kinds.count("export") == 9 * 20
    assert kinds.count("export") == 20
    assert kinds.count("page") == 4 * 20
    assert kinds.count("miss") == 3 * 20
    assert kinds.count("add") == kinds.count("remove") == 2 * 20
    open_table = None
    seeds = set()
    for op in ops:
        if op["op"] == "add":
            assert open_table is None
            open_table = op["table"]
        elif op["op"] == "remove":
            assert op["table"] == open_table
            open_table = None
        elif op["op"] == "miss":
            seeds.add(op["request"]["seed"])
    assert len(seeds) == 3 * 20  # every miss has its own seed


def test_same_lake_inputs_on_every_generation(tmp_path, monkeypatch):
    def digest(csv_dir):
        return hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted(Path(csv_dir).rglob("*.csv"))
        )).hexdigest()

    monkeypatch.setattr(inputs, "WORK", tmp_path / "a")
    first, truth = inputs.lake("sb")
    again, _ = inputs.lake("sb")  # served from the cache
    monkeypatch.setattr(inputs, "WORK", tmp_path / "b")
    second, truth_b = inputs.lake("sb")
    assert first == again
    assert digest(first) == digest(second)
    assert truth == truth_b and len(truth) == 55


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def test_percentiles_are_nearest_rank_order_statistics():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile(samples, 0.5) == 1
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0  # the lower middle
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(1).shuffle(samples)
    assert tail(samples) == (90, 90.0)
    value, p = tail(list(range(1, 301)))
    assert value == 290 and p == pytest.approx(100 * 290 / 300)
    assert tail(list(range(11))) == (0, pytest.approx(100 / 11))
    assert tail(list(range(10))) is None


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        {"id": 0, "name": "root", "start": 0.0, "end": 10.0,
         "parent": None, "request": None},
        {"id": 1, "name": "a", "start": 1.0, "end": 4.0,
         "parent": 0, "request": None},
        {"id": 2, "name": "b", "start": 3.0, "end": 6.0,
         "parent": 0, "request": None},   # overlaps a
        {"id": 3, "name": "c", "start": 8.0, "end": 12.0,
         "parent": 0, "request": None},   # runs past the root
        {"id": 4, "name": "a1", "start": 2.0, "end": 3.0,
         "parent": 1, "request": None},
    ]
    got = {s["name"]: s["self"] for s in self_times(spans)}
    assert got == {"root": 3.0, "a": 2.0, "b": 3.0, "c": 4.0, "a1": 1.0}


def test_tracer_nests_spans_and_records_nothing_when_disabled():
    tracer = Tracer()
    with tracer.span("outer", "r1"):
        with tracer.span("inner", "r1"):
            pass
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    off = Tracer(enabled=False)
    with off.span("x"):
        pass
    assert off.spans == []


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
def _lake():
    return DataLake([
        Table.from_columns("animals", {
            "name": ["JAGUAR", "PUMA", "LION", "TIGER", "LYNX"],
            "home": ["AMAZON", "ANDES", "SAVANNA", "TAIGA", "TAIGA"],
        }),
        Table.from_columns("cars", {
            "make": ["JAGUAR", "PUMA", "FORD", "FIAT", "KIA"],
            "country": ["UK", "SPAIN", "USA", "ITALY", "KOREA"],
        }),
        Table.from_columns("places", {
            "name": ["AMAZON", "ANDES", "USA", "UK", "ITALY"],
            "kind": ["RIVER", "RANGE", "COUNTRY", "COUNTRY", "COUNTRY"],
        }),
    ])


def _record(op, payload):
    raw = json.dumps(payload).encode()
    kind = "mutate" if op["op"] in ("add", "remove") else op["op"]
    return {"op": op, "kind": kind, "cursor": None, "timed": True,
            "ok": True, "status": 200, "raw": raw, "gzip": False}


def _replay():
    index = HomographIndex(_lake())
    configs = [inputs.LCC, {"measure": "betweenness"}]
    for config in configs:
        index.detect(DetectRequest.from_dict(config))
    return serve_workload.Replay(index, configs, trace=False)


def test_right_answers_pass_the_check():
    truth = HomographIndex(_lake())
    replay = _replay()
    detect = {"measure": "betweenness"}
    served = truth.detect(DetectRequest.from_dict(detect)).to_dict(top=100)
    assert replay.check(_record({"op": "top100", "request": detect},
                                served)) is None
    page = truth.detect(measure="lcc").ranking.page(None, 100).to_dict()
    assert replay.check(_record({"op": "page", "measure": "lcc"},
                                page)) is None


def test_planted_wrong_answer_fails_the_check():
    truth = HomographIndex(_lake())
    detect = {"measure": "betweenness"}
    served = truth.detect(DetectRequest.from_dict(detect)).to_dict()
    served["ranking"][0]["score"] += 1e-9
    problem = _replay().check(_record({"op": "export", "request": detect},
                                      served))
    assert problem is not None and "differs" in problem

    page = truth.detect(measure="lcc").ranking.page(None, 100).to_dict()
    page["entries"][0], page["entries"][1] = (page["entries"][1],
                                              page["entries"][0])
    problem = _replay().check(_record({"op": "page", "measure": "lcc"},
                                      page))
    assert problem is not None


def test_add_remove_pair_is_replayed_and_checked():
    replay = _replay()
    columns = {"a": ["JAGUAR", "NEW", "NEW"], "b": ["UK", "NEW2", "NEW2"]}
    add = {"op": "add", "table": "extra", "columns": columns}
    assert replay.check(_record(add, {"table": "extra", "tables": 4})) \
        is None
    assert replay.check(_record({"op": "remove", "table": "extra"},
                                {"table": "extra", "tables": 3})) is None
    # A served table count that disagrees with the replay is caught.
    assert replay.check(_record(add, {"table": "extra", "tables": 3})) \
        is not None


def test_failed_op_fails_the_check():
    record = _record({"op": "page", "measure": "lcc"}, {})
    record.update(ok=False, status=500)
    assert _replay().check(record) is not None
