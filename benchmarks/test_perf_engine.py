"""Perf regression harness for the parallel compute engine (ISSUE 2).

Times the four hot workloads — exact Brandes BC, source-sampled BC
(s=256), the Riondato–Kornaropoulos estimator, and the LCC — on the
synthetic SB and TUS-default lakes, serial vs. ``ProcessBackend`` with
``n_jobs`` in {2, 4}.  Two artifacts come out of every run:

* ``BENCH_PR2.json`` at the repo root — machine-readable
  ``{workload: {serial_s, parallel_s, speedup, ...}}`` so speedups are
  comparable PR-over-PR;
* ``benchmarks/results/perf_engine.txt`` — the human-readable table.

Parity between backends is *asserted* on every workload (that part is
enforced regardless of machine); the timings are informational when
the host has fewer cores than ``n_jobs`` — a process pool cannot beat
serial on one core, and ``_meta.cpus`` in the JSON records the
context.

Scale knob (``REPRO_PERF_SCALE``):

* ``smoke`` — CI-sized: thinner TUS slice, fewer samples, n_jobs=2
  only; surfaces pickling/shared-memory breakage fast.
* ``default`` — tier-1-sized: exact BC on a footnote-9 attribute
  slice of TUS (~20k edges) to keep the suite quick.
* ``full`` — the acceptance workload: exact BC on the *entire*
  TUS-default graph (minutes serial; run on a multi-core box).
"""

import json
import os
import time

import numpy as np

from conftest import write_result

from repro.core.approx import riondato_kornaropoulos_bc
from repro.core.betweenness import betweenness_scores
from repro.core.builder import build_graph
from repro.core.lcc import lcc_scores
from repro.perf import ExecutionConfig, available_cores

SCALE = os.environ.get("REPRO_PERF_SCALE", "default")
_PARAMS = {
    # (tus exact-BC attribute slice, sb exact-BC attribute slice,
    #  sampled-BC sources, RK sample cap, parallel job counts)
    "smoke": dict(tus_attrs=80, sb_attrs=16, samples=64, rk_samples=64,
                  jobs=(2,)),
    "default": dict(tus_attrs=160, sb_attrs=None, samples=256,
                    rk_samples=256, jobs=(2, 4)),
    "full": dict(tus_attrs=None, sb_attrs=None, samples=256,
                 rk_samples=256, jobs=(2, 4)),
}
PARAMS = _PARAMS.get(SCALE, _PARAMS["default"])


def _slice_attributes(graph, max_attributes):
    """Footnote-9 extraction: the subgraph of the first K attributes."""
    if max_attributes is None or graph.num_attributes <= max_attributes:
        return graph
    attrs = range(graph.num_values, graph.num_values + max_attributes)
    return graph.subgraph_from_attributes(list(attrs))


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _run_workload(name, fn, report, lines):
    """Serial reference + one parallel run per job count, with parity."""
    reference, serial_s = _time(lambda: fn(None))
    per_jobs = {}
    for jobs in PARAMS["jobs"]:
        execution = ExecutionConfig(backend="process", n_jobs=jobs)
        scores, elapsed = _time(lambda: fn(execution))
        # Enforced on every machine: the parallel engine must
        # reproduce serial scores (float-association noise only).
        np.testing.assert_allclose(
            scores, reference, atol=1e-9,
            err_msg=f"{name}: ProcessBackend(n_jobs={jobs}) diverged "
                    f"from SerialBackend",
        )
        per_jobs[str(jobs)] = round(elapsed, 4)
    best = min(per_jobs, key=per_jobs.get)
    parallel_s = per_jobs[best]
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    report[name] = {
        "serial_s": round(serial_s, 4),
        "parallel_s": parallel_s,
        "speedup": round(speedup, 3),
        "n_jobs": int(best),
        "per_jobs": per_jobs,
    }
    jobs_text = "  ".join(
        f"j{jobs}={seconds:.2f}s" for jobs, seconds in per_jobs.items()
    )
    lines.append(
        f"{name:16s} serial={serial_s:7.2f}s  {jobs_text}  "
        f"speedup={speedup:.2f}x"
    )


def test_perf_engine(sb, tus, results_dir, bench_dir):
    report = {}
    lines = [
        f"perf engine — scale={SCALE}, cpus={available_cores()}, "
        f"jobs={list(PARAMS['jobs'])}",
    ]

    graphs = {
        "sb": build_graph(sb.lake, min_occurrences=2),
        "tus": build_graph(tus.lake, min_occurrences=2),
    }
    for lake_name, graph in graphs.items():
        exact_graph = _slice_attributes(
            graph, PARAMS[f"{lake_name}_attrs"]
        )
        lines.append(
            f"[{lake_name}] {graph!r}; exact-BC graph: {exact_graph!r}"
        )

        _run_workload(
            f"{lake_name}_exact_bc",
            lambda execution, g=exact_graph: betweenness_scores(
                g, execution=execution
            ),
            report, lines,
        )
        _run_workload(
            f"{lake_name}_sampled_bc",
            lambda execution, g=graph: betweenness_scores(
                g, sample_size=PARAMS["samples"], seed=0,
                execution=execution,
            ),
            report, lines,
        )
        _run_workload(
            f"{lake_name}_rk",
            lambda execution, g=graph: riondato_kornaropoulos_bc(
                g, seed=0, max_samples=PARAMS["rk_samples"],
                execution=execution,
            ),
            report, lines,
        )
        _run_workload(
            f"{lake_name}_lcc",
            lambda execution, g=graph: lcc_scores(
                g, execution=execution
            ),
            report, lines,
        )

    report["_meta"] = {
        "scale": SCALE,
        "cpus": available_cores(),
        "jobs": list(PARAMS["jobs"]),
        "note": (
            "speedups require cpus >= n_jobs; parity assertions are "
            "enforced unconditionally"
        ),
    }
    (bench_dir / "BENCH_PR2.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    write_result(results_dir, "perf_engine", "\n".join(lines))

    # Every workload must have produced a positive serial baseline.
    assert all(
        entry["serial_s"] > 0
        for name, entry in report.items()
        if not name.startswith("_")
    )
