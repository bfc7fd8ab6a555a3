"""A stdlib-only closed-loop HTTP load generator for the serving tier.

Every ``BENCH_*.json`` number before PR 8 was a single-caller
microbenchmark; this module is how the repo measures "heavy traffic"
for real.  It follows the closed-loop methodology of wrk2/YCSB-style
serving benchmarks: N worker threads, each owning one keep-alive
:class:`~repro.serving.client.HomographClient`, issue requests
back-to-back (a worker's next request starts when its previous one
finishes), and every per-request latency lands in a fixed-bucket
histogram, so percentiles are deterministic functions of the recorded
durations — never of sampling luck.

The three layers:

* :class:`LatencyHistogram` — log-spaced fixed buckets (100µs to
  ~7.5 hours, 2% resolution); ``percentile`` answers with a bucket
  upper bound, which makes hand-computed oracles possible in unit
  tests.
* :class:`LoadOp` + :func:`build_mixed_schedule` — a seed-reproducible
  workload: the same ``(seed, ops, lakes)`` always yields the same
  operation sequence (cache-hit detects, cache-miss detects, ranking
  pages, async job submit+poll, table mutations), so two runs of the
  harness compare like-for-like.
* :func:`run_load` — drive a live server with one schedule per worker,
  either for a fixed wall-clock ``duration`` (workers cycle their
  schedule) or for exactly one pass; returns a :class:`LoadReport`
  with overall / per-lake / per-op-kind histograms, throughput, error
  counts, and 503 rejections split by scope.

Admission rejections (any 503) are retried inside the worker loop
with a small fixed backoff, and the op's recorded latency spans the
retries — exactly what a client of an overloaded service experiences.
That is what makes the fairness benchmark honest: a starved lake
shows up as inflated latency and a rejection pile, not as silently
dropped samples.

Typical use (the fairness scenario in ``benchmarks/test_http_load.py``
builds dedicated per-worker schedules instead)::

    schedule = build_mixed_schedule(("tus", "sb"), ops=400, seed=0)
    report = run_load(
        server.url, split_schedule(schedule, workers=16), duration=5.0
    )
    report.overall.percentile(99)           # seconds
    report.to_dict()                        # BENCH_*.json payload
"""

from __future__ import annotations

import bisect
import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..datalake.table import Table
from ..serving.client import HomographClient, JobFailed, ServiceError

#: Histogram bucket upper bounds (seconds): geometric from 100µs to
#: ~7.5 hours at 2% resolution (982 edges).  Fixed at import time so
#: percentiles are stable across runs, machines, and processes.
BUCKET_EDGES: Tuple[float, ...] = tuple(
    1e-4 * 1.02 ** i for i in range(982)
)

#: The default mixed workload: weights mirror a read-heavy serving
#: tier (most traffic re-reads warm rankings; a tail mutates).
DEFAULT_MIX: Tuple[Tuple[str, int], ...] = (
    ("detect_hit", 45),
    ("ranking", 20),
    ("detect_miss", 15),
    ("job", 10),
    ("mutate", 10),
)

#: Every op kind :func:`run_load` knows how to execute.
OP_KINDS: Tuple[str, ...] = (
    "detect_hit", "detect_miss", "ranking", "job", "mutate",
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with deterministic percentiles.

    ``record`` files one duration into the smallest bucket whose upper
    bound covers it; ``percentile(q)`` walks the cumulative counts to
    the ``ceil(q% * count)``-th sample and answers that bucket's upper
    bound (capped at the exact observed maximum, so ``percentile(100)
    == max``).  Bucket edges are 2% apart — a percentile is never
    more than one resolution step above the true order statistic, and
    identical inputs always produce identical outputs, which is what
    lets CI pin percentile math against hand-computed oracles instead
    of asserting flaky wall-clock numbers.

    Instances are not thread-safe; workers record into their own and
    :meth:`merge` combines them afterwards.
    """

    __slots__ = ("_counts", "_count", "_total", "_min", "_max")

    def __init__(self) -> None:
        self._counts = [0] * len(BUCKET_EDGES)
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = 0.0

    def record(self, seconds: float) -> None:
        """File one duration (seconds; negatives clamp to zero)."""
        seconds = max(0.0, seconds)
        slot = bisect.bisect_left(BUCKET_EDGES, seconds)
        if slot >= len(BUCKET_EDGES):
            slot = len(BUCKET_EDGES) - 1
        self._counts[slot] += 1
        self._count += 1
        self._total += seconds
        self._min = min(self._min, seconds)
        self._max = max(self._max, seconds)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one."""
        for slot, count in enumerate(other._counts):
            self._counts[slot] += count
        self._count += other._count
        self._total += other._total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return self._count

    @property
    def min(self) -> float:
        """Smallest recorded duration (0.0 when empty)."""
        return 0.0 if self._count == 0 else self._min

    @property
    def max(self) -> float:
        """Largest recorded duration (0.0 when empty)."""
        return self._max

    @property
    def mean(self) -> float:
        """Arithmetic mean of the recorded durations (exact)."""
        return self._total / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (seconds); 0.0 for an empty histogram.

        Deterministic: the upper bound of the bucket holding the
        ``ceil(q% * count)``-th smallest sample, capped at the exact
        maximum.
        """
        if self._count == 0:
            return 0.0
        q = min(100.0, max(0.0, q))
        target = max(1, math.ceil(self._count * q / 100.0))
        cumulative = 0
        for slot, (edge, count) in enumerate(zip(BUCKET_EDGES, self._counts)):
            cumulative += count
            if cumulative >= target:
                if slot == len(BUCKET_EDGES) - 1 and self._max > edge:
                    # Overflow bucket: its edge *under*states samples
                    # clamped into it; the recorded max is the honest
                    # upper bound there.
                    return self._max
                return min(edge, self._max)
        return self._max  # pragma: no cover - counts always cover

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe summary in milliseconds (the BENCH convention)."""
        return {
            "count": self._count,
            "mean_ms": round(self.mean * 1000, 3),
            "min_ms": round(self.min * 1000, 3),
            "p50_ms": round(self.percentile(50) * 1000, 3),
            "p95_ms": round(self.percentile(95) * 1000, 3),
            "p99_ms": round(self.percentile(99) * 1000, 3),
            "max_ms": round(self.max * 1000, 3),
        }


@dataclass(frozen=True)
class LoadOp:
    """One scheduled operation against one lake.

    ``request`` carries the op's parameters: ``DetectRequest`` fields
    for the detect/ranking/job kinds (plus ``limit`` for rankings),
    and ``{"name", "columns"}`` for mutations (the executing worker
    suffixes the table name so repeats of the schedule never collide).
    """

    kind: str
    lake: str
    request: Mapping[str, object]
    op_id: int


def build_mixed_schedule(
    lakes: Sequence[str],
    ops: int,
    seed: int = 0,
    mix: Sequence[Tuple[str, int]] = DEFAULT_MIX,
    hit_request: Optional[Mapping[str, object]] = None,
    miss_measure: str = "betweenness",
    miss_sample: int = 32,
) -> List[LoadOp]:
    """A seed-reproducible mixed workload across ``lakes``.

    Op kinds are drawn from ``mix`` (kind, weight) and lakes uniformly,
    both from one ``random.Random(seed)`` — the same arguments always
    produce the identical schedule, byte for byte, which the unit
    tests pin.  ``hit_request`` is the one warm configuration every
    ``detect_hit``/``ranking``/half the ``job`` ops reuse (default
    LCC); cache-miss detects vary ``seed`` per op so each has a unique
    cache key.
    """
    if not lakes:
        raise ValueError("build_mixed_schedule needs at least one lake")
    if ops < 0:
        raise ValueError(f"ops must be >= 0, got {ops}")
    kinds = [kind for kind, _ in mix]
    unknown = sorted(set(kinds) - set(OP_KINDS))
    if unknown:
        raise ValueError(
            f"unknown op kind(s) {unknown}; expected a subset of "
            f"{list(OP_KINDS)}"
        )
    weights = [weight for _, weight in mix]
    warm = dict(hit_request or {"measure": "lcc"})
    rng = random.Random(seed)
    schedule: List[LoadOp] = []
    for op_id in range(ops):
        kind = rng.choices(kinds, weights=weights)[0]
        lake = rng.choice(list(lakes))
        if kind == "detect_hit":
            request: Dict[str, object] = dict(warm)
        elif kind == "detect_miss":
            request = {
                "measure": miss_measure,
                "sample_size": miss_sample,
                "seed": op_id,
            }
        elif kind == "ranking":
            request = {**warm, "limit": 100}
        elif kind == "job":
            # Half the jobs re-run the warm configuration (poll-fast),
            # half force fresh compute on the dispatcher.
            request = dict(warm) if rng.random() < 0.5 else {
                "measure": miss_measure,
                "sample_size": miss_sample,
                "seed": 100_000 + op_id,
            }
        else:  # mutate
            value = f"load-{op_id:05d}"
            request = {
                "name": f"loadgen-{op_id:05d}",
                "columns": {"k": [value, value]},
            }
        schedule.append(LoadOp(kind, lake, request, op_id))
    return schedule


def split_schedule(
    schedule: Sequence[LoadOp], workers: int
) -> List[List[LoadOp]]:
    """Deal one schedule round-robin into ``workers`` per-worker lists.

    Round-robin (not contiguous chunks) so every worker sees the same
    op-kind mix; workers whose slice is empty simply idle.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return [list(schedule[w::workers]) for w in range(workers)]


@dataclass
class LoadReport:
    """Everything one :func:`run_load` run measured.

    ``rejected`` maps lake name to rejection counts by error code
    (``over-capacity`` / ``lake-over-capacity`` / ``jobs-overloaded``)
    — every 503 the workers retried through.  ``errors`` counts ops
    that terminally failed (exhausted retries, unexpected service
    errors, transport failures) by code or exception name; those ops
    do not contribute latency samples.
    """

    duration_s: float
    workers: int
    completed: int
    errors: Dict[str, int]
    rejected: Dict[str, Dict[str, int]]
    overall: LatencyHistogram
    by_lake: Dict[str, LatencyHistogram]
    by_kind: Dict[str, LatencyHistogram]
    retry_sleep_s: float = 0.0
    warmup_s: float = 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of driven wall-clock."""
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    def rejected_for(self, lake: str) -> int:
        """Total 503 rejections workers saw for one lake."""
        return sum(self.rejected.get(lake, {}).values())

    @property
    def rejected_total(self) -> int:
        """Total 503 rejections across every lake and scope."""
        return sum(
            count
            for by_code in self.rejected.values()
            for count in by_code.values()
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe payload for ``BENCH_*.json`` sections."""
        return {
            "duration_s": round(self.duration_s, 3),
            "workers": self.workers,
            "completed": self.completed,
            "throughput_rps": round(self.throughput_rps, 1),
            "errors": dict(self.errors),
            "rejected": {
                lake: dict(by_code)
                for lake, by_code in self.rejected.items()
            },
            "rejected_total": self.rejected_total,
            "latency_ms": self.overall.to_dict(),
            "lakes": {
                lake: hist.to_dict()
                for lake, hist in sorted(self.by_lake.items())
            },
            "ops": {
                kind: hist.to_dict()
                for kind, hist in sorted(self.by_kind.items())
            },
        }

    def format_lines(self) -> List[str]:
        """Human-readable summary for ``benchmarks/results/*.txt``."""
        lines = [
            f"{self.completed} ops in {self.duration_s:.2f}s over "
            f"{self.workers} worker(s) = "
            f"{self.throughput_rps:.1f} req/s  "
            f"(503 retries: {self.rejected_total}, "
            f"errors: {sum(self.errors.values())})",
            _hist_line("overall", self.overall),
        ]
        for lake, hist in sorted(self.by_lake.items()):
            lines.append(_hist_line(f"lake {lake}", hist))
        for kind, hist in sorted(self.by_kind.items()):
            lines.append(_hist_line(f"op {kind}", hist))
        return lines


def _hist_line(label: str, hist: LatencyHistogram) -> str:
    return (
        f"{label:<18} n={hist.count:<6} "
        f"p50={hist.percentile(50) * 1000:8.1f}ms "
        f"p95={hist.percentile(95) * 1000:8.1f}ms "
        f"p99={hist.percentile(99) * 1000:8.1f}ms "
        f"max={hist.max * 1000:8.1f}ms"
    )


class _WorkerTally:
    """One worker's private counters, merged after the join."""

    def __init__(self) -> None:
        self.overall = LatencyHistogram()
        self.by_lake: Dict[str, LatencyHistogram] = {}
        self.by_kind: Dict[str, LatencyHistogram] = {}
        self.errors: Dict[str, int] = {}
        self.rejected: Dict[str, Dict[str, int]] = {}
        self.completed = 0
        self.retry_sleep = 0.0
        self.failure: Optional[BaseException] = None


def run_load(
    base_url: str,
    worker_schedules: Sequence[Sequence[LoadOp]],
    duration: Optional[float] = None,
    token: Optional[str] = None,
    timeout: float = 60.0,
    retry_backoff: float = 0.005,
    max_attempts: int = 1000,
    warmup: bool = True,
) -> LoadReport:
    """Drive a live server closed-loop; one thread per schedule.

    With ``duration`` set, every worker cycles its schedule until the
    wall-clock deadline (ops past the deadline are not started); with
    ``duration=None`` each worker makes exactly one pass.  ``warmup``
    primes every distinct ``detect_hit``/``ranking`` configuration
    once per lake before the clock starts, so "cache-hit" ops actually
    hit.  503 rejections are retried with ``retry_backoff`` seconds of
    sleep (up to ``max_attempts`` per op) and counted per lake and
    code; an op's latency spans all its retries.
    """
    workers = len(worker_schedules)
    if workers < 1:
        raise ValueError("run_load needs at least one worker schedule")
    warmup_seconds = 0.0
    if warmup:
        started = time.perf_counter()
        _warm_hit_configs(base_url, worker_schedules, token, timeout)
        warmup_seconds = time.perf_counter() - started

    deadline_box: List[Optional[float]] = [None]
    tallies = [_WorkerTally() for _ in range(workers)]
    start_barrier = threading.Barrier(workers + 1)
    threads = [
        threading.Thread(
            target=_worker,
            name=f"loadgen-{worker_id}",
            args=(
                base_url, list(schedule), duration, deadline_box,
                start_barrier, tallies[worker_id], token, timeout,
                retry_backoff, max_attempts,
            ),
        )
        for worker_id, schedule in enumerate(worker_schedules)
    ]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    # The deadline is stamped after every worker is ready, so slow
    # thread spawn never eats into the measured window.
    started = time.perf_counter()
    if duration is not None:
        deadline_box[0] = started + duration
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    for tally in tallies:
        if tally.failure is not None:
            raise tally.failure

    overall = LatencyHistogram()
    by_lake: Dict[str, LatencyHistogram] = {}
    by_kind: Dict[str, LatencyHistogram] = {}
    errors: Dict[str, int] = {}
    rejected: Dict[str, Dict[str, int]] = {}
    completed = 0
    retry_sleep = 0.0
    for tally in tallies:
        overall.merge(tally.overall)
        completed += tally.completed
        retry_sleep += tally.retry_sleep
        for lake, hist in tally.by_lake.items():
            by_lake.setdefault(lake, LatencyHistogram()).merge(hist)
        for kind, hist in tally.by_kind.items():
            by_kind.setdefault(kind, LatencyHistogram()).merge(hist)
        for code, count in tally.errors.items():
            errors[code] = errors.get(code, 0) + count
        for lake, by_code in tally.rejected.items():
            bucket = rejected.setdefault(lake, {})
            for code, count in by_code.items():
                bucket[code] = bucket.get(code, 0) + count
    return LoadReport(
        duration_s=elapsed,
        workers=workers,
        completed=completed,
        errors=errors,
        rejected=rejected,
        overall=overall,
        by_lake=by_lake,
        by_kind=by_kind,
        retry_sleep_s=retry_sleep,
        warmup_s=warmup_seconds,
    )


def _warm_hit_configs(
    base_url: str,
    worker_schedules: Sequence[Sequence[LoadOp]],
    token: Optional[str],
    timeout: float,
) -> None:
    """Prime every (lake, warm-config) pair the schedules will hit."""
    configs = {}
    for schedule in worker_schedules:
        for op in schedule:
            if op.kind not in ("detect_hit", "ranking"):
                continue
            request = {
                key: value
                for key, value in op.request.items()
                if key != "limit"
            }
            configs[(op.lake, tuple(sorted(request.items())))] = (
                op.lake, request
            )
    with HomographClient(
        base_url, timeout=timeout, token=token, keep_alive=True
    ) as client:
        for lake, request in configs.values():
            client.lake(lake).detect(**request)


def _worker(
    base_url: str,
    schedule: List[LoadOp],
    duration: Optional[float],
    deadline_box: List[Optional[float]],
    start_barrier: threading.Barrier,
    tally: _WorkerTally,
    token: Optional[str],
    timeout: float,
    retry_backoff: float,
    max_attempts: int,
) -> None:
    client = HomographClient(
        base_url, timeout=timeout, token=token, keep_alive=True
    )
    handles = {
        lake: client.lake(lake) for lake in {op.lake for op in schedule}
    }
    try:
        start_barrier.wait()
        deadline = deadline_box[0]
        position = 0
        while schedule:
            if duration is None and position >= len(schedule):
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            op = schedule[position % len(schedule)]
            cycle = position // len(schedule)
            position += 1
            _run_one(
                handles[op.lake], op, cycle, deadline, tally,
                retry_backoff, max_attempts,
            )
    except BaseException as error:  # noqa: BLE001 - surfaced on join
        tally.failure = error
    finally:
        client.close()


def _run_one(
    handle: HomographClient,
    op: LoadOp,
    cycle: int,
    deadline: Optional[float],
    tally: _WorkerTally,
    retry_backoff: float,
    max_attempts: int,
) -> None:
    """Execute one op, retrying 503s; record its latency or error."""
    started = time.perf_counter()
    attempts = 0
    while True:
        try:
            _execute(handle, op, cycle)
        except ServiceError as error:
            if error.overloaded and attempts < max_attempts and (
                deadline is None or time.perf_counter() < deadline
            ):
                attempts += 1
                by_code = tally.rejected.setdefault(op.lake, {})
                by_code[error.code] = by_code.get(error.code, 0) + 1
                tally.retry_sleep += retry_backoff
                time.sleep(retry_backoff)
                continue
            _count(tally.errors, error.code)
            return
        except JobFailed:
            _count(tally.errors, "job-failed")
            return
        except (OSError, TimeoutError) as error:
            _count(tally.errors, type(error).__name__)
            return
        break
    elapsed = time.perf_counter() - started
    tally.overall.record(elapsed)
    tally.by_lake.setdefault(
        op.lake, LatencyHistogram()
    ).record(elapsed)
    tally.by_kind.setdefault(
        op.kind, LatencyHistogram()
    ).record(elapsed)
    tally.completed += 1


def _count(counter: Dict[str, int], key: str) -> None:
    counter[key] = counter.get(key, 0) + 1


def _execute(handle: HomographClient, op: LoadOp, cycle: int) -> None:
    """Issue one op's requests through a lake-scoped client handle."""
    request = dict(op.request)
    if op.kind in ("detect_hit", "detect_miss"):
        handle.detect(**request)
    elif op.kind == "ranking":
        limit = int(request.pop("limit", 100))
        measure = str(request.pop("measure"))
        handle.ranking_page(measure, limit=limit, **request)
    elif op.kind == "job":
        job_id = handle.submit(**request)
        handle.wait(job_id, timeout=handle.timeout, interval=0.01)
    elif op.kind == "mutate":
        # Suffix per (worker thread, cycle): schedule repeats and
        # sibling workers must never collide on a table name.
        name = (
            f"{op.request['name']}-"
            f"{threading.get_ident() & 0xFFFF:04x}-{cycle}"
        )
        columns = {
            column: list(values)
            for column, values in dict(op.request["columns"]).items()
        }
        handle.add_table(Table.from_columns(name, columns))
        handle.remove_table(name)
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")
