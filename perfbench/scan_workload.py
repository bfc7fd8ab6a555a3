"""The ``scan`` workload: the paper's batch use, in-process, no HTTP.

The orchestrator (``run``) prepares the lakes and starts one child
process that runs the program, so peak RSS is the program's alone and
not the generator's.  The child loads the SB and TUS-like lakes from
CSV and builds both graphs (set-up, repeated before and after the
scans), and in between repeats a scan until the time is up: from a
cleared cache it scores SB by exact betweenness and LCC, and the
TUS-like lake by sampled betweenness at a fixed sample size and the
run's seed.  Every time reported is a median over repetitions, never
one shot.

In a traced run every other repetition is traced: its detect calls
are spans, and after the repetition the same requests are replayed
layer by layer (kernel, then ranking) so ``api.detect_overhead_s`` is
the detect span minus the kernel and ranking spans of that request.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from orderstats import median  # noqa: E402
from spans import Tracer, self_time_by_name, self_times  # noqa: E402

#: Set-ups per run before and after the repetitions; ``setup_s`` is
#: the median of all of them.  Like a server spawn, a set-up is short
#: enough to land wholly in one of the host's speed states, so they
#: sit on both sides of the repetitions.
SETUPS_BEFORE, SETUPS_AFTER = 4, 3
#: Repetitions a run makes even when ``--seconds`` has run out, so the
#: bit-identical repeat check always has a repeat.
MIN_REPS = 3
CHILD_TIMEOUT = 170


def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Run the workload; returns its metrics and report lines."""
    return metrics(_run_child(seed, seconds, trace), trace)


def _run_child(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Run the scan in a child process; returns its measurements."""
    sb_dir, sb_truth = inputs.lake("sb")
    tus_dir, tus_truth = inputs.lake("tus")
    config = {
        "sb": str(sb_dir), "tus": str(tus_dir),
        "sb_truth": sb_truth, "tus_truth": tus_truth,
        "seed": seed, "seconds": seconds, "trace": trace,
    }
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        input=json.dumps(config), capture_output=True, text=True,
        env=inputs.program_env(), timeout=CHILD_TIMEOUT,
    )
    if child.returncode != 0:
        raise RuntimeError(
            f"scan child exited {child.returncode}: {child.stderr[-2000:]}"
        )
    return json.loads(child.stdout.strip().splitlines()[-1])


def _digest(ranking) -> str:
    """Hash of the ranking's values, order and exact scores."""
    digest = hashlib.sha256()
    for entry in ranking:
        digest.update(f"{entry.value}\t{entry.score!r}\n".encode())
    return digest.hexdigest()


def _precision(ranking, truth: List[str], k: int) -> float:
    top = set(ranking.top_values(k))
    return len(top & set(truth)) / k


def _set_up(config: Dict[str, object], tracer: Tracer, times: List[float],
            count: int):
    """Load both lakes from CSV and build their graphs, ``count`` times.

    Appends the set-up times to ``times``; returns the last set-up's
    lakes and indexes.  Each set-up starts with the previous one
    dropped and collected, so neither its memory nor its teardown
    counts in the next; the caller must hold no earlier set-up.
    """
    from repro.api import HomographIndex
    from repro.datalake.csv_io import load_lake

    for _ in range(count):
        lakes = indexes = None
        gc.collect()
        start = time.perf_counter()
        lakes, indexes = {}, {}
        for name in ("sb", "tus"):
            with tracer.span("datalake.load", name):
                lakes[name] = load_lake(config[name])
        for name in ("sb", "tus"):
            indexes[name] = HomographIndex(lakes[name])
            with tracer.span("core.build", name):
                indexes[name].graph
        times.append(time.perf_counter() - start)
    return lakes, indexes


def _child(config: Dict[str, object]) -> Dict[str, object]:
    inputs.require_program()
    tracer = Tracer(bool(config["trace"]))
    setups: List[float] = []
    result = _scan(config, tracer,
                   *_set_up(config, tracer, setups, SETUPS_BEFORE))
    # The scanned lakes died with _scan's frame.
    _set_up(config, tracer, setups, SETUPS_AFTER)
    result.update(
        setups=setups,
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        spans=tracer.spans,
    )
    return result


def _scan(config: Dict[str, object], tracer: Tracer, lakes,
          indexes) -> Dict[str, object]:
    """Repeat the scan until the time is up; returns what it measured."""
    from repro.api import DetectRequest
    from repro.core.betweenness import betweenness_scores
    from repro.core.lcc import lcc_scores
    from repro.core.ranking import rank_by_betweenness, rank_by_lcc

    tracing = tracer.enabled
    sb, tus = indexes["sb"], indexes["tus"]

    requests = {
        "sb-bc": (sb, DetectRequest(measure="betweenness")),
        "sb-lcc": (sb, DetectRequest(measure="lcc")),
        "tus-bc": (tus, DetectRequest(
            measure="betweenness",
            sample_size=inputs.SAMPLES, seed=config["seed"],
        )),
    }
    kernels = {
        "sb-bc": ("core.bc_exact", betweenness_scores, rank_by_betweenness),
        "sb-lcc": ("core.lcc", lcc_scores, rank_by_lcc),
        "tus-bc": ("core.bc_sampled", lambda g: betweenness_scores(
            g, sample_size=inputs.SAMPLES, seed=config["seed"]),
            rank_by_betweenness),
    }

    def detect(rid: str, tag: str):
        index, request = requests[rid]
        with tracer.span("api.detect", tag + rid):
            return index.detect(request)

    reps: List[Dict[str, object]] = []
    failures: List[str] = []
    reference = None
    deadline = time.perf_counter() + float(config["seconds"])
    while len(reps) < MIN_REPS + tracing or time.perf_counter() < deadline:
        traced = tracing and len(reps) % 2 == 1
        tracer.enabled = traced
        tag = f"r{len(reps)}"
        sb.clear_cache()
        tus.clear_cache()
        start = time.perf_counter()
        with tracer.span("scan.rep", tag):
            responses = {rid: detect(rid, tag + "-")
                         for rid in ("sb-bc", "sb-lcc")}
            split = time.perf_counter()
            responses["tus-bc"] = detect("tus-bc", tag + "-")
        end = time.perf_counter()
        reps.append({"sb": split - start, "tus": end - split,
                     "traced": traced})
        if traced:
            with tracer.span("scan.replay"):
                for rid, (name, kernel, rank) in kernels.items():
                    graph = requests[rid][0].graph
                    with tracer.span(name, f"{tag}-{rid}"):
                        scores = kernel(graph)
                    score_map = {graph.value_name(v): float(scores[v])
                                 for v in range(graph.num_values)}
                    with tracer.span("core.rank", f"{tag}-{rid}"):
                        rank(score_map)
        tracer.enabled = tracing

        # Digests, not rankings, stay alive between repetitions, so the
        # next repetition's collector does not walk the benchmark's data.
        digests = {rid: _digest(r.ranking) for rid, r in responses.items()}
        if any(r.cached for r in responses.values()):
            failures.append(f"rep {len(reps)}: served from a cleared cache")
        if reference is None:
            reference = digests
            for rid, (index, _) in requests.items():
                graph = index.graph
                names = {graph.value_name(v) for v in range(graph.num_values)}
                if set(responses[rid].scores) != names:
                    failures.append(f"{rid}: not every value node scored")
            precision = {
                "sb": _precision(responses["sb-bc"].ranking,
                                 config["sb_truth"], inputs.SB_TOP),
                "tus": _precision(responses["tus-bc"].ranking,
                                  config["tus_truth"],
                                  len(config["tus_truth"])),
            }
        elif digests != reference:
            failures.append(f"rep {len(reps)}: scores differ from rep 1")
        del responses

    return {
        "reps": reps,
        "failures": failures,
        "sb_precision": precision["sb"],
        "tus_precision": precision["tus"],
        "cells": sum(lake.num_cells for lake in lakes.values()),
        "edges": sb.graph.num_edges + tus.graph.num_edges,
        "sources": sb.graph.num_nodes + inputs.SAMPLES,
    }


def _layers(result: Dict[str, object]) -> Dict[str, float]:
    """Per-layer numbers from the traced repetitions' span self times.

    Each traced repetition ``rN`` tags its detect spans and their
    replayed kernel and ranking spans ``rN-<request>``; the repetition
    span itself is tagged ``rN``.
    """
    by_name = self_time_by_name(result["spans"])
    parts: Dict[str, Dict[str, float]] = {}
    for span in self_times(result["spans"]):
        tag = span["request"]
        if tag is None or span["name"] in ("datalake.load", "core.build"):
            continue
        rep, _, request = tag.partition("-")
        layer = span["name"]
        if layer not in ("api.detect", "core.rank", "scan.rep"):
            layer = "kernel"
        bucket = parts.setdefault(rep, {})
        bucket[layer] = bucket.get(layer, 0.0) + span["self"]
        if span["name"] == "scan.rep":
            bucket["rep"] = span["end"] - span["start"]
    # Detect self time minus the kernel and ranking of the same requests.
    overhead = [p["api.detect"] - p["kernel"] - p["core.rank"]
                for p in parts.values()]
    covered = [(p["kernel"] + p["core.rank"] + o) / p["rep"]
               for p, o in zip(parts.values(), overhead)]
    loads, builds = by_name["datalake.load"], by_name["core.build"]
    return {
        # Set-up spans come in (sb, tus) pairs, one pair per set-up.
        "datalake.load_s": median([a + b for a, b in
                                   zip(loads[::2], loads[1::2])]),
        "datalake.cells": result["cells"],
        "core.build_s": median([a + b for a, b in
                                zip(builds[::2], builds[1::2])]),
        "core.edges": result["edges"],
        "core.bc_exact_s": median(by_name["core.bc_exact"]),
        "core.bc_sampled_s": median(by_name["core.bc_sampled"]),
        "core.lcc_s": median(by_name["core.lcc"]),
        "core.rank_s": median([p["core.rank"] for p in parts.values()]),
        "perf.sources": result["sources"],
        "api.detect_overhead_s": median(overhead),
    }, median(covered)


def metrics(result: Dict[str, object], trace: bool) -> Dict[str, object]:
    """End-to-end metrics (or per-layer ones when traced) and report lines."""
    reps = result["reps"]
    totals = [r["sb"] + r["tus"] for r in reps]
    n_ops = 2 * len(reps)  # each repetition scans two lakes
    failed = len(result["failures"])
    e2e = {
        "setup_s": (median(result["setups"]), len(result["setups"])),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
        "primary_p50_ms": (median(totals) * 1e3, len(reps)),
        "secondary_p50_ms": (
            median([r["tus"] for r in reps]) * 1e3, len(reps)),
        # Lake scans per second at the median repetition: a mean over
        # repetitions would follow the host's slowest seconds.
        "ops_per_s": (2 / median(totals), n_ops),
        "precision_at_k": (result["sb_precision"], inputs.SB_TOP),
    }
    report = [
        f"scan_s {median(totals):.4f} s (median of {len(reps)} reps)",
        f"sb_pass_s {median([r['sb'] for r in reps]):.4f} s",
        f"sb_precision_at_55 {result['sb_precision']:.4f}",
        f"tus_precision_at_k {result['tus_precision']:.4f}",
    ]
    report += [f"check failed: {f}" for f in result["failures"]]
    out = {"e2e": e2e, "report": report, "attempted": n_ops,
           "failed": min(failed, n_ops), "layers": {}}
    if trace:
        layers, covered = _layers(result)
        traced = [t for t, r in zip(totals, reps) if r["traced"]]
        plain = [t for t, r in zip(totals, reps) if not r["traced"]]
        layers["trace.overhead"] = median(traced) / median(plain)
        layers["quality.tus_precision_at_k"] = result["tus_precision"]
        report.append(
            f"core.* and api.detect_overhead_s self times sum to "
            f"{covered:.3f} of the traced repetition (median of "
            f"{len(traced)})")
        out["layers"] = layers
        out["spans"] = result["spans"]
    return out


if __name__ == "__main__":
    print(json.dumps(_child(json.loads(sys.stdin.read()))))
