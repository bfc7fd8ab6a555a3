"""Adversarial homoglyph detection: skeleton-aware vs exact-match.

Forge confusable collisions into the SB lake and the homograph-free
TUS-I lake (``forge_homoglyphs``), then measure precision/recall@k of
``skeleton_betweenness`` against the exact-match ``betweenness``
baseline.  The exact pipeline treats each forged variant as a fresh
low-centrality value, so it must miss *every* purely-confusable
forgery; the skeleton quotient merges the variant with its anchor and
recovers the collision.  Results land in the ``homoglyph`` section of
``BENCH_PR9.json`` (shared schema, PR 8).

Scale knob: ``REPRO_PERF_SCALE=smoke`` forges fewer collisions and
swaps the session TUS lake for the small configuration so the CI job
finishes in seconds.
"""

import json
import os

import pytest
from conftest import write_result

from repro.api.index import HomographIndex
from repro.bench.injection import (
    ForgeConfig,
    forge_homoglyphs,
    remove_homographs,
)
from repro.bench.report import update_bench_section
from repro.bench.tus import TUSConfig, generate_tus
from repro.eval.metrics import precision_recall_at_k

BENCH_NAME = "BENCH_PR9.json"
SCALE = os.environ.get("REPRO_PERF_SCALE", "default")
NUM_FORGERIES = 4 if SCALE == "smoke" else 10
# Default-scale TUS graphs are too large for exact BC in a benchmark
# run; 1000 sources matches the Figure-7 harness.
TUS_SAMPLE = None if SCALE == "smoke" else 1000


def _merge_homoglyph_section(bench_path, key, payload):
    """Fold one dataset's results into the shared ``homoglyph`` section."""
    section = {}
    if bench_path.exists():
        try:
            existing = json.loads(bench_path.read_text())
        except (OSError, json.JSONDecodeError):
            existing = {}
        if isinstance(existing, dict) and isinstance(
            existing.get("homoglyph"), dict
        ):
            section = dict(existing["homoglyph"])
    section[key] = payload
    update_bench_section(
        bench_path, "homoglyph", section, meta={"scale": SCALE}
    )


def _evaluate(forged, sample_size=None, seed=0, extra_k=0):
    """Rank the forged lake under both measures and score them.

    Returns the results payload plus the two ``PrecisionRecall`` rows
    over the forged-variant ground truth at k = |targets| + ``extra_k``
    (anchors plus variants is the cut a perfect skeleton ranking can
    fill; ``extra_k`` grants headroom for a lake's *natural*
    homographs, which legitimately out-rank forged pairs).
    """
    truth = forged.forged_set
    k = len(forged.targets) + extra_k
    with HomographIndex(forged.lake) as index:
        baseline = index.detect(
            measure="betweenness", sample_size=sample_size, seed=seed
        )
        skeletal = index.detect(
            measure="skeleton_betweenness",
            sample_size=sample_size,
            seed=seed,
        )
        graph_values = index.graph.num_values
    base_pr = precision_recall_at_k(baseline.ranking.values, truth, k)
    skel_pr = precision_recall_at_k(skeletal.ranking.values, truth, k)
    payload = {
        "num_forgeries": len(forged.forgeries),
        "k": k,
        "graph_values": graph_values,
        "sample_size": sample_size,
        "skeleton_collisions": skeletal.parameters[
            "skeleton_collisions"
        ],
        "baseline": {
            "precision": base_pr.precision,
            "recall": base_pr.recall,
            "f1": base_pr.f1,
            "measure_seconds": baseline.measure_seconds,
        },
        "skeleton": {
            "precision": skel_pr.precision,
            "recall": skel_pr.recall,
            "f1": skel_pr.f1,
            "measure_seconds": skeletal.measure_seconds,
        },
    }
    return payload, base_pr, skel_pr


def _assert_separation(payload, base_pr, skel_pr):
    """The acceptance contract shared by both forged lakes."""
    # The exact-match baseline must miss every purely-confusable
    # forgery: variants are fresh values it has no reason to rank.
    assert base_pr.recall == 0.0
    # The skeleton-aware measure strictly beats it and recovers the
    # planted collisions nearly completely.
    assert skel_pr.recall > base_pr.recall
    assert skel_pr.recall >= 0.9
    assert payload["skeleton_collisions"] >= payload["num_forgeries"]


def _format(name, payload):
    base = payload["baseline"]
    skel = payload["skeleton"]
    return (
        f"{name}: {payload['num_forgeries']} forgeries, "
        f"k={payload['k']}, {payload['graph_values']} values\n"
        f"  baseline  P={base['precision']:.3f} "
        f"R={base['recall']:.3f} F1={base['f1']:.3f}\n"
        f"  skeleton  P={skel['precision']:.3f} "
        f"R={skel['recall']:.3f} F1={skel['f1']:.3f}"
    )


@pytest.fixture(scope="module")
def forged_sb(sb):
    # SB's planted natural homographs stay out of the forge so the
    # forged ground truth is exactly the confusable collisions.
    return forge_homoglyphs(
        sb.lake,
        sb.ground_truth.attribute_groups,
        ForgeConfig(num_forgeries=NUM_FORGERIES, seed=0),
        exclude=set(sb.homographs),
    )


@pytest.fixture(scope="module")
def forged_tus(request):
    if SCALE == "smoke":
        lake, groups = remove_homographs(
            generate_tus(TUSConfig.small(seed=1))
        )
    else:
        lake, groups = request.getfixturevalue("tus_clean")
    return forge_homoglyphs(
        lake, groups, ForgeConfig(num_forgeries=NUM_FORGERIES, seed=0)
    )


def test_sb_skeleton_recall_beats_exact_baseline(
    benchmark, sb, forged_sb, results_dir, bench_dir
):
    # SB's 55 planted natural homographs legitimately crowd the top
    # ranks, so the cut leaves room for them above the forged pairs.
    payload, base_pr, skel_pr = benchmark.pedantic(
        _evaluate,
        args=(forged_sb,),
        kwargs={"extra_k": len(sb.homographs)},
        rounds=1,
        iterations=1,
    )
    _merge_homoglyph_section(bench_dir / BENCH_NAME, "sb", payload)
    write_result(
        results_dir, "homoglyph_sb", _format("SB (forged)", payload)
    )
    _assert_separation(payload, base_pr, skel_pr)


def test_tus_skeleton_recall_beats_exact_baseline(
    benchmark, forged_tus, results_dir, bench_dir
):
    payload, base_pr, skel_pr = benchmark.pedantic(
        _evaluate,
        args=(forged_tus,),
        kwargs={"sample_size": TUS_SAMPLE, "seed": 0},
        rounds=1,
        iterations=1,
    )
    _merge_homoglyph_section(bench_dir / BENCH_NAME, "tus", payload)
    write_result(
        results_dir, "homoglyph_tus",
        _format("TUS-I (forged)", payload),
    )
    _assert_separation(payload, base_pr, skel_pr)


def test_bench_report_section_is_schema_valid(bench_dir):
    from repro.bench.report import validate_bench_report

    report = json.loads((bench_dir / BENCH_NAME).read_text())
    assert validate_bench_report(report) == []
    assert set(report["homoglyph"]) >= {"sb", "tus"}
