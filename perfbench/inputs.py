"""Seeded inputs: the benchmark lakes and the serve workloads' op streams.

The lakes are the generators' default lakes, the ones the paper
figures in this repository use: SB (2,915 values after pruning) and
the TUS-like lake (17,251 values).  They do not vary with the run
seed, because the TUS-like lake's size swings by +-10% with its
generator seed, which would put lake size, not code, into the
run-to-run spread.  The run seed drives everything the program is
asked: op order, page walks, added tables, miss seeds, and the scan's
sampling seed.

Generated lakes are cached as CSV under ``.perfbench_work/lakes``,
keyed by a digest of the generator sources, because the TUS-like lake
takes ~7 s to generate.  Generation is outside every metric.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SRC = ROOT / "src"

#: Every sampled-betweenness request in the benchmark takes this many
#: samples.  On the TUS-like lake, precision at k is 0.678 at 250
#: samples against 0.691 at 1000, at a fifth of the time (the Fig. 8
#: sweep in benchmarks/results/fig8_sample_size_sweep.txt); that keeps
#: a scan repetition near 3 s, so a run takes several (rule 3 of the
#: README).
SAMPLES = 250
#: Read configurations, pre-warmed before timing.  Sampled betweenness
#: uses a fixed seed so every run reads the same ranking.
BC = {"measure": "betweenness", "sample_size": SAMPLES, "seed": 0}
LCC = {"measure": "lcc"}
#: Homographs planted in SB; its precision is taken at this k (the
#: paper's Figures 5-6 rank the top 55).
SB_TOP = 55

#: Op kinds per block of each serve stream, from the repository's
#: serving mix ``repro.bench.loadgen.DEFAULT_MIX`` (detect hit 45,
#: ranking page 20, detect miss 15, job 10, mutate 10) without jobs,
#: per 18 of its ops: 9 hits, 4 pages, 3 misses and 2 mutates, each
#: mutate an add/remove pair as in loadgen.  loadgen's hits fetch the
#: full score map; here one hit in 9 does (an *export*) and the rest
#: fetch the top 100, because an export of the TUS-like lake is
#: ~150 ms of CPU against ~44 ms for any other read, so exports alone
#: would put ``serve_read``'s time into client and server CPU, which
#: follows the host's speed state.  ``serve_read`` keeps the reads
#: only.  Blocks are shuffled, so every window of the stream holds the
#: same mix whatever the seed.
HITS = ["top100"] * 8 + ["export"] + ["page"] * 4
BLOCKS = {
    "serve_read": HITS,
    "serve_mixed": HITS + ["miss"] * 3 + ["mutation"] * 4,
}
#: Pages walked by cursor before the walk restarts at the top.  In
#: ``serve_mixed`` the walk stays in the first pages so a remove that
#: shrinks the ranking never strands the cursor past its end.
PAGE_WALK = {"serve_read": None, "serve_mixed": 10}


def require_program() -> None:
    """Put ``src`` on the import path, or exit if the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _generator_digest() -> str:
    digest = hashlib.sha256()
    files = sorted((SRC / "repro" / "bench").glob("*.py"))
    files += sorted((SRC / "repro" / "datalake").glob("*.py"))
    files.append(SRC / "repro" / "core" / "normalize.py")
    for path in files:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def lake(name: str) -> Tuple[Path, List[str]]:
    """``(csv_dir, homographs)`` of the ``"sb"`` or ``"tus"`` lake.

    Homographs are normalized the way the graph names values.
    """
    require_program()
    target = WORK / "lakes" / f"{name}-{_generator_digest()}"
    if not (target / "truth.json").is_file():
        from repro.core.normalize import normalize_value
        from repro.datalake.csv_io import dump_lake

        if name == "sb":
            from repro.bench.synthetic import SBConfig, generate_sb

            dataset = generate_sb(SBConfig())
        else:
            from repro.bench.tus import TUSConfig, generate_tus

            dataset = generate_tus(TUSConfig())
        staging = target.with_name(f"{target.name}.tmp{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        dump_lake(dataset.lake, staging / name)
        truth = sorted(
            {normalize_value(v) for v in dataset.ground_truth.homographs}
        )
        (staging / "truth.json").write_text(json.dumps(truth))
        shutil.rmtree(target, ignore_errors=True)
        os.replace(staging, target)
    return target / name, json.loads((target / "truth.json").read_text())


def lake_columns(data_lake) -> List[List[str]]:
    """Distinct raw values of every column with at least 8 of them."""
    columns = []
    for column in data_lake.iter_attributes():
        values = column.distinct_values()
        if len(values) >= 8:
            columns.append(values)
    return columns


def _added_table(
    rng: random.Random, first: Sequence[str], second: Sequence[str],
    tag: str,
) -> Dict[str, List[str]]:
    """Two columns of the lake's own values plus four new ones each.

    The new values occur twice, so they survive the lake's
    once-only pruning and the splice inserts value nodes; the old
    values land the table in existing components.
    """
    new = [f"PERFBENCH-{tag}-{j}" for j in range(4)]
    return {
        "a": rng.sample(list(first), 8) + new,
        "b": rng.sample(list(second), 8) + new,
    }


def op_stream(
    workload: str,
    seed: int,
    columns: Sequence[Sequence[str]] = (),
) -> Iterator[Dict[str, object]]:
    """The endless seeded op sequence of a serve workload.

    ``columns`` (``serve_mixed`` only) are the lake's columns that
    added tables draw from.  Page ops carry no cursor: the runner
    walks the ranking by the cursor each page returns.
    """
    rng = random.Random(f"{workload}:{seed}")
    # Added tables take disjoint pairs from a seeded order of the
    # lake's columns, so a run's 22-26 adds splice into every one of
    # SB's 39 columns: a mutation's cost varies 3x with the column it
    # lands in, and a run that missed some columns would put which
    # ones into the run-to-run spread.
    order = list(range(len(columns)))
    rng.shuffle(order)
    misses = mutations = 0
    pending = None
    while True:
        block = list(BLOCKS[workload])
        rng.shuffle(block)
        for kind in block:
            if kind == "page":
                yield {"op": "page", "measure": "lcc"}
            elif kind == "top100":
                yield {"op": "top100", "request": rng.choice([BC, LCC])}
            elif kind == "export":
                yield {"op": "export", "request": BC}
            elif kind == "miss":
                misses += 1
                yield {"op": "miss", "request": {
                    "measure": "betweenness",
                    "sample_size": SAMPLES,
                    "seed": 1 + seed * 1_000_003 + misses,
                }}
            elif pending is None:
                first = columns[order[2 * mutations % len(order)]]
                second = columns[order[(2 * mutations + 1) % len(order)]]
                mutations += 1
                pending = f"perfbench_{seed}_{mutations}"
                yield {"op": "add", "table": pending,
                       "columns": _added_table(
                           rng, first, second, f"{seed}-{mutations}")}
            else:
                yield {"op": "remove", "table": pending}
                pending = None
