"""Tests for the pluggable measure registry."""

import pytest

from repro import DetectRequest, HomographIndex, MeasureOutput
from repro.api import (
    DuplicateMeasureError,
    UnknownMeasureError,
    available_measures,
    check_request,
    get_measure,
    register_measure,
    unregister_measure,
)


def degree_measure(graph, request):
    scores = {
        graph.value_name(v): float(graph.degree(v))
        for v in range(graph.num_values)
    }
    return MeasureOutput(scores=scores, descending=True,
                         parameters={"kind": "degree"})


@pytest.fixture
def degree_registered():
    register_measure("degree-test", degree_measure)
    yield "degree-test"
    unregister_measure("degree-test")


class TestRegistration:
    def test_builtins_present(self):
        names = available_measures()
        assert "betweenness" in names
        assert "lcc" in names

    def test_register_and_lookup(self, degree_registered):
        assert get_measure(degree_registered) is degree_measure
        assert degree_registered in available_measures()

    def test_duplicate_rejected(self, degree_registered):
        with pytest.raises(DuplicateMeasureError):
            register_measure(degree_registered, degree_measure)

    def test_duplicate_is_value_error(self, degree_registered):
        # Callers catching ValueError (the historical contract) still work.
        with pytest.raises(ValueError):
            register_measure(degree_registered, degree_measure)

    def test_replace_allows_override(self, degree_registered):
        def other(graph, request):  # pragma: no cover - never dispatched
            return MeasureOutput(scores={})

        register_measure(degree_registered, other, replace=True)
        assert get_measure(degree_registered) is other
        register_measure(degree_registered, degree_measure, replace=True)

    def test_decorator_form(self):
        @register_measure("decorated-test")
        def decorated(graph, request):
            return {"X": 1.0}

        try:
            assert get_measure("decorated-test") is decorated
        finally:
            unregister_measure("decorated-test")

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            register_measure("bogus", 42)
        with pytest.raises(TypeError):
            register_measure("bogus", degree_measure, check=42)
        assert "bogus" not in available_measures()

    def test_unknown_lookup(self):
        with pytest.raises(UnknownMeasureError):
            get_measure("pagerank")
        with pytest.raises(UnknownMeasureError):
            check_request(DetectRequest(measure="pagerank"))

    def test_unknown_unregister(self):
        with pytest.raises(UnknownMeasureError):
            unregister_measure("pagerank")

    def test_unknown_error_names_available(self):
        with pytest.raises(UnknownMeasureError, match="betweenness"):
            get_measure("pagerank")


class TestDispatch:
    def test_index_dispatches_custom_measure(
        self, figure1_lake, degree_registered
    ):
        index = HomographIndex(figure1_lake, prune_candidates=False)
        response = index.detect(measure=degree_registered)
        assert response.measure == degree_registered
        assert response.parameters == {"kind": "degree"}
        # JAGUAR spans 4 attributes — the top degree in Figure 1.
        assert response.ranking.values[0] == "JAGUAR"
        assert response.scores["JAGUAR"] == 4.0
        # Pruning drops value nodes, never attributes: same degree.
        pruned = HomographIndex(figure1_lake).detect(measure=degree_registered)
        assert pruned.scores["JAGUAR"] == 4.0

    def test_index_rejects_unknown_measure(self, figure1_lake):
        index = HomographIndex(figure1_lake)
        with pytest.raises(UnknownMeasureError):
            index.detect(measure="pagerank")

    def test_plain_mapping_return_is_wrapped(self, figure1_lake):
        register_measure("mapping-test", lambda graph, request: {"A": 1.0})
        try:
            response = HomographIndex(figure1_lake).detect(
                measure="mapping-test"
            )
            assert response.descending is True
            assert response.scores == {"A": 1.0}
        finally:
            unregister_measure("mapping-test")

    def test_bad_return_type_rejected(self, figure1_lake):
        register_measure("broken-test", lambda graph, request: 3.14)
        try:
            with pytest.raises(TypeError):
                HomographIndex(figure1_lake).detect(measure="broken-test")
        finally:
            unregister_measure("broken-test")

    def test_custom_measure_reads_options(self, figure1_lake):
        def offset_measure(graph, request):
            offset = request.option("offset", 0.0)
            return MeasureOutput(
                scores={
                    graph.value_name(v): graph.degree(v) + offset
                    for v in range(graph.num_values)
                },
                parameters={"offset": offset},
            )

        register_measure("offset-test", offset_measure)
        try:
            index = HomographIndex(figure1_lake)
            response = index.detect(
                measure="offset-test", options={"offset": 10.0}
            )
            assert response.parameters["offset"] == 10.0
            assert min(response.scores.values()) >= 10.0
        finally:
            unregister_measure("offset-test")


class TestRequestChecks:
    def test_check_runs_beside_its_measure(self):
        seen = []
        register_measure("checked-test", degree_measure, check=seen.append)
        try:
            request = DetectRequest(measure="checked-test")
            check_request(request)
            assert seen == [request]
            # A replacement registered without a check drops the old one.
            register_measure("checked-test", degree_measure, replace=True)
            check_request(request)
            assert seen == [request]
        finally:
            unregister_measure("checked-test")

    def test_unregister_drops_check(self):
        seen = []
        register_measure("checked-test", degree_measure, check=seen.append)
        unregister_measure("checked-test")
        register_measure("checked-test", degree_measure)
        try:
            check_request(DetectRequest(measure="checked-test"))
            assert seen == []
        finally:
            unregister_measure("checked-test")

    @pytest.mark.parametrize("options", [
        {"epsilon": "x"},
        {"epsilon": None},
        {"epsilon": 2},
        {"epsilon": 0},
        {"delta": 0},
        {"delta": 1.5},
        {"max_samples": "x"},
        {"max_samples": float("inf")},
        {"c": float("nan")},
        {"c": float("inf")},
        {"epsilon": 1e-200},
        {"c": 1e308},
    ], ids=repr)
    def test_rk_rejects_options_it_cannot_run(self, figure1_lake, options):
        request = DetectRequest(measure="rk", seed=1, options=options)
        with pytest.raises(ValueError):
            check_request(request)
        # The measure converts through the same check when it runs.
        with pytest.raises(ValueError):
            HomographIndex(figure1_lake).detect(request)

    def test_rk_accepts_options_that_convert(self, figure1_lake):
        request = DetectRequest(measure="rk", seed=1, options={
            "epsilon": "0.5", "delta": 0.2, "c": 0.25, "max_samples": 2.5,
        })
        check_request(request)
        response = HomographIndex(figure1_lake).detect(request)
        assert response.parameters["epsilon"] == 0.5
        assert response.parameters["max_samples"] == 2
