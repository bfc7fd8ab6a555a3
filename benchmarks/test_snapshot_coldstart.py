"""Snapshot cold-start benchmark (ISSUE 6): rebuild vs mmap mount.

Times the two ways a process can start serving the TUS *small* lake:

* **cold** — what a restart costs without persistence: load the lake
  from CSVs, build the bipartite graph, and compute the two warmed
  rankings (LCC plus sampled betweenness) from scratch;
* **snapshot** — ``HomographIndex.load`` on a pre-built snapshot:
  manifest verification, two ``mmap`` calls, and both rankings served
  as cache hits.

The headline assertion is the subsystem's reason to exist: mounting
the snapshot must be at least ``MIN_SPEEDUP``× faster than the cold
rebuild, with identical scores.  A mount reads ``lake.json`` but
parses it on the lake's first use, so the report also gives that
deferred cost — the first lake access after a mount — next to the
mount; it is reported, not asserted.  Artifacts: ``BENCH_PR6.json``
at the repo root (machine-readable) and
``benchmarks/results/snapshot_coldstart.txt`` (human-readable),
mirroring the PR-2/PR-3 harnesses.
"""

import json
import time
from pathlib import Path

from conftest import write_result

from repro import DetectRequest, HomographIndex
from repro.bench.tus import TUSConfig, generate_tus
from repro.datalake import dump_lake, load_lake
from repro.snapshot import load_manifest

#: The snapshot mount must beat the cold rebuild by at least this
#: factor — the subsystem's headline guarantee on TUS-small.
MIN_SPEEDUP = 10.0

#: The configurations shipped warm inside the snapshot (and recomputed
#: on the cold path): the paper's two measures — exact betweenness,
#: because that is the ranking a server actually publishes and the
#: computation a restart would otherwise repeat (still well under a
#: second at TUS-small scale).
WARM_REQUESTS = (
    DetectRequest(measure="lcc"),
    DetectRequest(measure="betweenness"),
)


def _tree_bytes(root: Path) -> int:
    """Total size of every file under ``root``."""
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _cold_start(csv_dir: Path):
    """CSVs -> graph -> both rankings; seconds and the score maps."""
    start = time.perf_counter()
    index = HomographIndex(load_lake(csv_dir))
    responses = [index.detect(request) for request in WARM_REQUESTS]
    seconds = time.perf_counter() - start
    index.close()
    return seconds, responses


def _snapshot_start(snapshot: Path):
    """Mount + the same rankings (cache hits); seconds and responses."""
    start = time.perf_counter()
    index = HomographIndex.load(snapshot)
    responses = [index.detect(request) for request in WARM_REQUESTS]
    seconds = time.perf_counter() - start
    assert all(r.cached for r in responses), (
        "snapshot mount recomputed a ranking the snapshot shipped warm"
    )
    index.close()
    return seconds, responses


def _first_lake_access(snapshot: Path) -> float:
    """Seconds of the first lake access after a mount (the lake parse)."""
    with HomographIndex.load(snapshot) as index:
        start = time.perf_counter()
        index.lake.table_names
        return time.perf_counter() - start


def test_snapshot_mount_beats_cold_rebuild(
    tmp_path, results_dir, bench_dir
):
    dataset = generate_tus(TUSConfig.small(seed=0))
    csv_dir = tmp_path / "csv"
    dump_lake(dataset.lake, csv_dir)

    # Cold generation: rebuild everything from the CSVs, then publish
    # the snapshot the next generation will mount (publication time is
    # reported but not part of either start path — it happens while
    # the previous generation is still serving).
    cold_seconds, cold_responses = _cold_start(csv_dir)
    snapshot = tmp_path / "snapshot"
    with HomographIndex(load_lake(csv_dir)) as warmed:
        for request in WARM_REQUESTS:
            warmed.detect(request)
        save_start = time.perf_counter()
        warmed.save(snapshot)
        save_seconds = time.perf_counter() - save_start

    snapshot_seconds, snapshot_responses = _snapshot_start(snapshot)
    lake_seconds = _first_lake_access(snapshot)

    for cold, warm in zip(cold_responses, snapshot_responses):
        assert warm.scores == cold.scores, (
            f"snapshot scores diverged from the cold rebuild for "
            f"{cold.request.measure}"
        )

    speedup = cold_seconds / snapshot_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"snapshot mount ({snapshot_seconds * 1000:.1f}ms) is only "
        f"{speedup:.1f}x faster than the cold rebuild "
        f"({cold_seconds:.3f}s); the subsystem promises "
        f">= {MIN_SPEEDUP:.0f}x on TUS-small"
    )

    manifest = load_manifest(snapshot, verify=False)
    snapshot_bytes = _tree_bytes(snapshot)
    report = {
        "snapshot_coldstart": {
            "lake": "tus-small",
            "tables": len(dataset.lake),
            "edges": manifest["graph"]["num_edges"],
            "warm_configurations": len(WARM_REQUESTS),
            "cold_start_s": round(cold_seconds, 4),
            "snapshot_start_s": round(snapshot_seconds, 4),
            "snapshot_save_s": round(save_seconds, 4),
            "first_lake_access_s": round(lake_seconds, 4),
            "speedup": round(speedup, 1),
            "min_speedup_asserted": MIN_SPEEDUP,
            "snapshot_bytes": snapshot_bytes,
            "parity": "asserted: identical scores, all cache hits",
        },
        "_meta": {
            "note": (
                "cold = CSV load + graph build + both rankings; "
                "snapshot = verify + mmap + both rankings as cache "
                "hits; first_lake_access = the deferred lake.json "
                "parse on the first lake use after a mount (reported, "
                "not asserted); absolute times are host-dependent, "
                "the >=10x ordering is asserted"
            ),
        },
    }
    (bench_dir / "BENCH_PR6.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    lines = [
        f"snapshot cold-start — tus-small "
        f"({len(dataset.lake)} tables, "
        f"{manifest['graph']['num_edges']} edges, "
        f"{len(WARM_REQUESTS)} warm configuration(s))",
        f"cold rebuild   {cold_seconds * 1000:9.1f}ms  "
        f"(CSV load + graph build + rankings)",
        f"snapshot mount {snapshot_seconds * 1000:9.1f}ms  "
        f"(verify + mmap + cache hits)",
        f"first lake use {lake_seconds * 1000:9.1f}ms  "
        f"(deferred lake.json parse; reported, not asserted)",
        f"speedup        {speedup:9.1f}x  (asserted >= {MIN_SPEEDUP:.0f}x)",
        f"snapshot size  {snapshot_bytes / 1024:9.1f}KiB  "
        f"(saved in {save_seconds * 1000:.1f}ms)",
    ]
    write_result(results_dir, "snapshot_coldstart", "\n".join(lines))
