"""Serving-layer benchmark (ISSUE 3): warm pool vs per-call pools.

Times repeated ``HomographIndex.detect`` calls (sampled betweenness,
fresh seed per call so the score cache never short-circuits) in three
configurations — serial reference, per-call ``ProcessBackend`` (a pool
forked and torn down inside every call), and a warm *persistent* pool
(forked once, reused) — and proves the two ISSUE-3 claims:

* the warm pool has measurably lower per-call overhead than per-call
  pool creation (asserted: warm mean < cold mean), with scores always
  matching the serial reference;
* K concurrent identical requests trigger exactly one measure
  computation (single-flight, asserted on a thread fan-out).

Artifacts: ``BENCH_PR3.json`` at the repo root (machine-readable) and
``benchmarks/results/serving_pool.txt`` (human-readable), mirroring
the PR-2 perf harness.
"""

import json
import threading
import time

import numpy as np

from conftest import write_result

import repro.api.index as index_module
from repro import DetectRequest, ExecutionConfig, HomographIndex
from repro.perf import available_cores

#: Scoring calls per configuration (each with a fresh seed).
REPEATS = 5
#: Sampled-BC sources per call: big enough to be real work, small
#: enough that pool setup is a visible fraction of a cold call.
SAMPLES = 64
#: Concurrent identical requests for the single-flight proof.
FANOUT_THREADS = 8


def _timed_detects(index, seeds):
    """Per-call wall times and the last response's score map."""
    times = []
    scores = None
    for seed in seeds:
        start = time.perf_counter()
        response = index.detect(
            measure="betweenness", sample_size=SAMPLES, seed=seed
        )
        times.append(time.perf_counter() - start)
        scores = response.scores
    return times, scores


def test_warm_pool_beats_per_call_pools(sb, results_dir, bench_dir):
    seeds = list(range(REPEATS))
    lake = sb.lake

    serial_index = HomographIndex(lake)
    serial_times, serial_scores = _timed_detects(serial_index, seeds)

    cold_index = HomographIndex(
        lake, execution=ExecutionConfig(backend="process", n_jobs=2)
    )
    cold_times, cold_scores = _timed_detects(cold_index, seeds)
    cold_index.close()

    with HomographIndex(
        lake,
        execution=ExecutionConfig(
            backend="process", n_jobs=2, persistent=True
        ),
    ) as warm_index:
        # The first call pays the one-time pool fork + export; time it
        # separately, then measure the steady warm state.
        first_start = time.perf_counter()
        warm_index.detect(
            measure="betweenness", sample_size=SAMPLES, seed=seeds[0]
        )
        warm_first_s = time.perf_counter() - first_start
        warm_index.clear_cache()
        warm_times, warm_scores = _timed_detects(warm_index, seeds)

    # Parity: same seed => same sampled sources => identical scores up
    # to float association, on every execution path.
    for name, scores in [("cold", cold_scores), ("warm", warm_scores)]:
        assert scores.keys() == serial_scores.keys()
        np.testing.assert_allclose(
            [scores[v] for v in sorted(scores)],
            [serial_scores[v] for v in sorted(serial_scores)],
            atol=1e-9,
            err_msg=f"{name} pool diverged from the serial reference",
        )

    cold_mean = sum(cold_times) / len(cold_times)
    warm_mean = sum(warm_times) / len(warm_times)
    serial_mean = sum(serial_times) / len(serial_times)
    # The headline assertion: reusing the pool removes the per-call
    # fork + export overhead, so a warm call must be cheaper than a
    # cold one on any machine.
    assert warm_mean < cold_mean, (
        f"warm persistent pool ({warm_mean:.3f}s/call) not faster than "
        f"per-call pools ({cold_mean:.3f}s/call)"
    )

    report = {
        "serving_pool": {
            "repeats": REPEATS,
            "samples": SAMPLES,
            "n_jobs": 2,
            "serial_per_call_s": round(serial_mean, 4),
            "cold_per_call_s": round(cold_mean, 4),
            "warm_per_call_s": round(warm_mean, 4),
            "warm_first_call_s": round(warm_first_s, 4),
            "overhead_saved_s": round(cold_mean - warm_mean, 4),
            "speedup_vs_cold": round(cold_mean / warm_mean, 3)
            if warm_mean > 0 else float("inf"),
            "parity": "asserted vs serial (atol=1e-9)",
        },
        "single_flight": _single_flight_proof(lake),
        "_meta": {
            "cpus": available_cores(),
            "note": (
                "warm vs cold isolates pool reuse; absolute times are "
                "host-dependent, the warm<cold ordering is asserted"
            ),
        },
    }
    (bench_dir / "BENCH_PR3.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    lines = [
        f"serving pool — cpus={available_cores()}, n_jobs=2, "
        f"repeats={REPEATS}, samples={SAMPLES}",
        f"serial   {serial_mean:7.3f}s/call",
        f"cold     {cold_mean:7.3f}s/call  (pool forked per call)",
        f"warm     {warm_mean:7.3f}s/call  "
        f"(persistent pool; first call {warm_first_s:.3f}s)",
        f"saved    {cold_mean - warm_mean:7.3f}s/call  "
        f"({cold_mean / warm_mean:.2f}x)",
        f"single-flight: {report['single_flight']['threads']} threads -> "
        f"{report['single_flight']['computations']} computation(s)",
    ]
    write_result(results_dir, "serving_pool", "\n".join(lines))


def _single_flight_proof(lake):
    """K concurrent identical requests must run the measure once."""
    calls = {"n": 0}
    real_run_measure = index_module.run_measure

    def counting_run_measure(graph, request):
        calls["n"] += 1
        time.sleep(0.2)  # hold the flight open so followers coalesce
        return real_run_measure(graph, request)

    index = HomographIndex(lake)
    index.graph  # pre-build: threads contend on scoring only
    request = DetectRequest(measure="lcc")
    barrier = threading.Barrier(FANOUT_THREADS)
    responses = []

    index_module.run_measure = counting_run_measure
    try:
        def call():
            barrier.wait(5)
            responses.append(index.detect(request))

        threads = [
            threading.Thread(target=call) for _ in range(FANOUT_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        index_module.run_measure = real_run_measure

    assert calls["n"] == 1, (
        f"{FANOUT_THREADS} concurrent identical requests triggered "
        f"{calls['n']} computations; expected exactly 1"
    )
    reference = responses[0].scores
    assert all(r.scores == reference for r in responses)
    return {
        "threads": FANOUT_THREADS,
        "computations": calls["n"],
        "coalesced_plus_hits": index.cache_info().coalesced
        + index.cache_info().hits,
    }
