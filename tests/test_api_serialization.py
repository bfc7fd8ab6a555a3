"""Tests for DetectRequest/DetectResponse/ranking JSON serialization."""

import json

import numpy as np
import pytest

from repro import (
    DetectRequest,
    DetectResponse,
    ExecutionConfig,
    HomographIndex,
    HomographRanking,
)


@pytest.fixture
def response(figure1_lake):
    return HomographIndex(figure1_lake).detect(
        DetectRequest(measure="betweenness", sample_size=5, seed=42)
    )


class TestRequest:
    def test_defaults(self):
        request = DetectRequest()
        assert request.measure == "betweenness"
        assert request.sample_size is None

    def test_hashable_and_equal(self):
        a = DetectRequest(measure="lcc", options={"b": 2, "a": 1})
        b = DetectRequest(measure="lcc", options=[("a", 1), ("b", 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a.cache_key == b.cache_key

    def test_option_lookup(self):
        request = DetectRequest(options={"alpha": 0.5})
        assert request.option("alpha") == 0.5
        assert request.option("missing", "fallback") == "fallback"

    def test_roundtrip(self):
        request = DetectRequest(
            measure="lcc", seed=3, options={"alpha": 0.5}
        )
        assert DetectRequest.from_dict(request.to_dict()) == request

    def test_sequence_options_stay_hashable_and_roundtrip(self):
        # JSON turns tuples into lists; both spellings normalize to the
        # same hashable request, so cache keys survive a round-trip.
        a = DetectRequest(options={"weights": (1, 2), "tags": ["x", "y"]})
        b = DetectRequest.from_dict(a.to_dict())
        assert a == b
        assert a.cache_key == b.cache_key
        hash(a.cache_key)

    def test_with_overrides(self):
        base = DetectRequest(measure="betweenness", seed=1)
        changed = base.with_overrides(seed=2)
        assert changed.seed == 2
        assert changed.measure == "betweenness"
        assert base.seed == 1  # immutable original

    @pytest.mark.parametrize("fields,error", [
        ({"lcc_variant": "bogus"}, ValueError),
        ({"endpoints": "bogus"}, ValueError),
        ({"sample_size": 0}, ValueError),
        ({"sample_size": -3}, ValueError),
        ({"sample_size": 2.5}, TypeError),
        ({"sample_size": "abc"}, TypeError),
        ({"sample_size": True}, TypeError),
        ({"seed": -1}, ValueError),
        ({"seed": "x"}, TypeError),
        ({"seed": False}, TypeError),
        ({"execution": 5}, TypeError),
    ], ids=lambda value: (
        value.__name__ if isinstance(value, type)
        else "{}={!r}".format(*next(iter(value.items())))
    ))
    def test_from_dict_rejects_bad_builtin_fields(self, fields, error):
        with pytest.raises(error):
            DetectRequest.from_dict({"measure": "lcc", **fields})
        with pytest.raises(error):
            DetectRequest(measure="lcc", **fields)
        with pytest.raises(error):
            DetectRequest(measure="lcc").with_overrides(**fields)

    @pytest.mark.parametrize("execution,error", [
        ({"njobs": 4}, ValueError),
        ({"backend": "serial", "chunksize": 2}, ValueError),
        ({"persistent": "no"}, TypeError),
        ({"persistent": 1}, TypeError),
        ({"n_jobs": True}, TypeError),
        ({"n_jobs": 2.5}, TypeError),
        ({"chunk_size": 1.5}, TypeError),
        ({"chunk_size": "3"}, TypeError),
    ], ids=lambda value: (
        value.__name__ if isinstance(value, type)
        else ",".join(f"{k}={v!r}" for k, v in value.items())
    ))
    def test_execution_from_dict_rejects_bad_fields(self, execution, error):
        with pytest.raises(error) as info:
            ExecutionConfig.from_dict(execution)
        if error is ValueError:   # an unknown key is named
            assert "unknown execution field" in str(info.value)
            assert next(k for k in execution if k != "backend") in str(
                info.value
            )
        with pytest.raises(error):
            DetectRequest.from_dict({"measure": "lcc",
                                     "execution": execution})

    def test_execution_from_dict_accepts_numpy_counts(self):
        config = ExecutionConfig.from_dict({
            "backend": "process", "n_jobs": np.int64(2),
            "chunk_size": np.int32(3), "persistent": True,
        })
        assert (config.n_jobs, config.chunk_size) == (2, 3)
        assert ExecutionConfig.from_dict(config.to_dict()) == config

    def test_builtin_fields_accept_their_legal_values(self):
        request = DetectRequest.from_dict({
            "sample_size": np.int64(1), "seed": np.int32(0),
            "lcc_variant": "value-neighbors", "endpoints": "values",
            "execution": {"backend": "serial"},
        })
        assert request.sample_size == 1 and request.seed == 0
        assert isinstance(request.execution, ExecutionConfig)
        config = ExecutionConfig(backend="serial")
        assert DetectRequest(execution=config).execution is config


class TestResponseRoundTrip:
    def test_json_roundtrip_equality(self, response):
        reloaded = DetectResponse.from_json(response.to_json())
        assert reloaded == response

    def test_roundtrip_preserves_order_and_scores(self, response):
        reloaded = DetectResponse.from_json(response.to_json())
        assert reloaded.ranking.values == response.ranking.values
        for entry in response.ranking:
            assert reloaded.scores[entry.value] == entry.score

    def test_roundtrip_preserves_request(self, response):
        reloaded = DetectResponse.from_json(response.to_json())
        assert reloaded.request == response.request
        assert reloaded.request.sample_size == 5

    def test_lcc_direction_survives(self, figure1_lake):
        response = HomographIndex(figure1_lake).detect(measure="lcc")
        reloaded = DetectResponse.from_json(response.to_json())
        assert reloaded.descending is False
        assert reloaded.parameters == {"variant": "attribute-jaccard"}

    def test_payload_is_plain_json(self, response):
        payload = json.loads(response.to_json(indent=2))
        assert payload["schema"] == 1
        assert payload["measure"] == "betweenness"
        assert isinstance(payload["ranking"], list)
        assert {"rank", "value", "score"} <= set(payload["ranking"][0])

    def test_top_truncation(self, response):
        payload = json.loads(response.to_json(top=2))
        assert len(payload["ranking"]) == 2
        reloaded = DetectResponse.from_json(response.to_json(top=2))
        assert len(reloaded.ranking) == 2
        assert reloaded.top_values(2) == response.top_values(2)

    def test_unknown_schema_rejected(self, response):
        payload = response.to_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            DetectResponse.from_dict(payload)

    def test_missing_schema_rejected(self, response):
        payload = response.to_dict()
        del payload["schema"]
        with pytest.raises(ValueError):
            DetectResponse.from_dict(payload)


class TestRankingRoundTrip:
    def test_dict_roundtrip(self, response):
        ranking = response.ranking
        reloaded = HomographRanking.from_dict(ranking.to_dict())
        assert reloaded == ranking
        assert reloaded.measure == ranking.measure
        assert reloaded.descending == ranking.descending

    def test_from_entries_preserves_given_order(self):
        from repro import RankedValue

        entries = [
            RankedValue(rank=1, value="B", score=2.0),
            RankedValue(rank=2, value="A", score=1.0),
        ]
        ranking = HomographRanking.from_entries(
            entries, descending=True, measure="betweenness"
        )
        assert ranking.values == ["B", "A"]
        assert ranking.rank_of("A") == 2
        assert ranking.score_of("B") == 2.0

    def test_rankings_stay_hashable(self):
        a = HomographRanking({"X": 1.0}, descending=True,
                             measure="betweenness")
        b = HomographRanking({"X": 1.0}, descending=True,
                             measure="betweenness")
        assert len({a, b}) == 1

    def test_rankings_compare_by_content(self):
        a = HomographRanking({"X": 1.0, "Y": 2.0}, descending=True,
                             measure="betweenness")
        b = HomographRanking({"Y": 2.0, "X": 1.0}, descending=True,
                             measure="betweenness")
        c = HomographRanking({"X": 1.0, "Y": 2.0}, descending=False,
                             measure="lcc")
        assert a == b
        assert a != c
