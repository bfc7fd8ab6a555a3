"""Benchmark entry point: one workload, one seed, one line of results.

Run from the repository root::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

It prints a report (every metric with its unit and sample count, the
host's noise floor before and after, failure counts per op kind) and,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  A
failed op or answer check makes it exit 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import spans  # noqa: E402
from orderstats import median  # noqa: E402

WORKLOADS = ("scan", "serve_read", "serve_mixed")
#: Iterations of the host noise-floor loop, before and after a run.
CPU_LOOPS = 15


def cpu_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's noise floor."""
    times = []
    for _ in range(CPU_LOOPS):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inputs.require_program()
    spec = json.loads((inputs.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    before = cpu_loop_ms()
    if args.workload == "scan":
        import scan_workload

        result = scan_workload.run(args.seed, args.seconds, bool(args.trace))
    else:
        import serve_workload

        result = serve_workload.run(
            args.workload, args.seed, args.seconds, bool(args.trace))
    after = cpu_loop_ms()

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"host.cpu_loop_ms before {before:.3f} after {after:.3f}")
    for name, (value, samples) in result["e2e"].items():
        unit = next((m["unit"] for m in spec["end_to_end"]
                     if m["name"] == name), "")
        print(f"{name} {value:.6g} {unit} (n={samples})")
    for line in result["report"]:
        print(line)

    values = {name: value for name, (value, _) in result["e2e"].items()}
    if args.trace:
        values = dict(result["layers"])
        values["host.cpu_loop_ms"] = median([before, after])
        values["bench.error_ratio"] = result["failed"] / result["attempted"]
        trace_path = (inputs.WORK / "traces"
                      / f"{args.workload}-{args.seed}.json")
        spans.write(result["spans"], trace_path)
        print(f"spans written to {trace_path.relative_to(inputs.ROOT)}")
        for name, value in values.items():
            print(f"{name} {value:.6g}")
    metrics = {}
    for metric in wanted:
        if not args.trace and metric["name"] not in values:
            raise RuntimeError(f"{args.workload} did not measure "
                               f"{metric['name']}")
        # A layer this workload does not exercise reads 0.
        value = values.get(metric["name"], 0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
