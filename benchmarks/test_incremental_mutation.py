"""Incremental mutation benchmark: delta splice vs full rebuild.

One table lands in a warm TUS-small index that is already serving the
paper's two rankings (LCC and exact betweenness).  Two ways to absorb
it:

* **full rebuild** — what every mutation cost before delta awareness:
  rebuild the bipartite graph from the mutated lake and recompute both
  rankings from scratch;
* **delta** — ``add_table`` splices the new rows into the CSR arrays
  and patches the cached scores, recomputing only the sources the new
  component touches; the follow-up detects are cache hits.

The headline assertion is the tentpole's reason to exist: the delta
path must be at least ``MIN_SPEEDUP``x faster than the rebuild *and*
bit-identical to it (exact float equality on every score, same ranking
order — parity is asserted in the same run the speedup is measured).
Artifacts: ``BENCH_PR7.json`` at the repo root (machine-readable) and
``benchmarks/results/incremental_mutation.txt``, mirroring the PR-2/
PR-3/PR-6 harnesses.

Scale knob (``REPRO_PERF_SCALE``): ``smoke`` shrinks the injected
table for CI; any other value uses the default size.  The lake is
TUS-small either way.
"""

import json
import os
import time

from conftest import write_result

from repro import DataLake, DetectRequest, HomographIndex, Table
from repro.bench.tus import TUSConfig, generate_tus

SCALE = os.environ.get("REPRO_PERF_SCALE", "default")

#: The delta path must beat the full rebuild by at least this factor.
MIN_SPEEDUP = 5.0

#: Rankings the index serves while the mutation lands: the paper's two
#: measures, exactly as a server would publish them.
WARM_REQUESTS = (
    DetectRequest(measure="lcc"),
    DetectRequest(measure="betweenness"),
)

#: Rows in the injected table (each value appears twice, so the table
#: survives min-occurrence pruning and forms its own component).
INJECT_ROWS = 40 if SCALE == "smoke" else 120


def _injected_table() -> Table:
    values = [f"bench-zz-{i:04d}" for i in range(INJECT_ROWS)]
    shifted = values[1:] + values[:1]
    return Table.from_columns(
        "bench-incremental", {"left": values, "right": shifted}
    )


def _full_rebuild(lake):
    """Fresh index on the mutated lake: graph build + both rankings."""
    start = time.perf_counter()
    index = HomographIndex(DataLake(t for t in lake))
    responses = [index.detect(request) for request in WARM_REQUESTS]
    seconds = time.perf_counter() - start
    index.close()
    return seconds, responses


def test_delta_mutation_beats_full_rebuild(results_dir, bench_dir):
    dataset = generate_tus(TUSConfig.small(seed=0))
    index = HomographIndex(dataset.lake)
    for request in WARM_REQUESTS:
        index.detect(request)

    # Delta path: splice + scoped score maintenance + cache-hit serves.
    start = time.perf_counter()
    index.add_table(_injected_table())
    delta_responses = [index.detect(request) for request in WARM_REQUESTS]
    delta_seconds = time.perf_counter() - start

    mutation = index.last_mutation
    assert mutation["fallback"] is None, (
        f"delta path expected, fell back: {mutation}"
    )
    assert mutation["patched_entries"] == len(WARM_REQUESTS)
    assert all(r.cached for r in delta_responses), (
        "patched entries must serve as cache hits"
    )

    full_seconds, full_responses = _full_rebuild(index.lake)

    # Parity in the same run the speedup is measured: every score
    # bit-identical, same ranking order.
    for got, want in zip(delta_responses, full_responses):
        assert got.scores == want.scores, (
            f"delta scores diverged from rebuild for "
            f"{want.request.measure}"
        )
        assert (
            [(e.value, e.score) for e in got.ranking]
            == [(e.value, e.score) for e in want.ranking]
        )

    speedup = full_seconds / delta_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"delta mutation ({delta_seconds * 1000:.1f}ms) is only "
        f"{speedup:.1f}x faster than the full rebuild "
        f"({full_seconds:.3f}s); the tentpole promises "
        f">= {MIN_SPEEDUP:.0f}x on TUS-small"
    )

    graph = index.graph
    report = {
        "incremental_mutation": {
            "lake": "tus-small",
            "tables": len(index.lake),
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "injected_rows": INJECT_ROWS,
            "delta_values": mutation["delta_values"],
            "delta_edges": mutation["delta_edges"],
            "recomputed_sources": mutation["recomputed_sources"],
            "splice_s": round(mutation["splice_seconds"], 5),
            "delta_path_s": round(delta_seconds, 4),
            "full_rebuild_s": round(full_seconds, 4),
            "speedup": round(speedup, 1),
            "min_speedup_asserted": MIN_SPEEDUP,
            "warm_configurations": len(WARM_REQUESTS),
            "parity": (
                "asserted: exact float equality on every score and "
                "ranking position vs a from-scratch rebuild"
            ),
        },
        "_meta": {
            "scale": SCALE,
            "note": (
                "delta = add_table (CSR splice + scoped score patch) "
                "+ both rankings as cache hits; full = graph rebuild "
                "+ both rankings from scratch; absolute times are "
                "host-dependent, the >=5x ordering is asserted"
            ),
        },
    }
    (bench_dir / "BENCH_PR7.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    lines = [
        f"incremental mutation — tus-small + 1 table "
        f"({INJECT_ROWS} rows, {mutation['delta_values']} new values, "
        f"{mutation['delta_edges']} edge slots)",
        f"full rebuild {full_seconds * 1000:9.1f}ms  "
        f"(graph build + LCC + exact BC)",
        f"delta splice {delta_seconds * 1000:9.1f}ms  "
        f"(splice {mutation['splice_seconds'] * 1000:.1f}ms, "
        f"{mutation['recomputed_sources']} sources recomputed)",
        f"speedup      {speedup:9.1f}x  (asserted >= {MIN_SPEEDUP:.0f}x)",
    ]
    write_result(results_dir, "incremental_mutation", "\n".join(lines))
    index.close()
