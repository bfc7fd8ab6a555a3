"""The ``serve_read`` and ``serve_mixed`` workloads.

The server runs in its own process (``python -m repro.cli serve``);
the generator runs here.  Each workload is one keep-alive connection
running a fixed, seeded op sequence back to back: a closed loop with
no think time and no second client.  On a reused connection the
server's headers arrive ~2 ms after the request and its body ~42 ms
later; only a gapless stream gives every read the same wait, so
nothing here runs between ops but recording timestamps.  Answers are
checked after the timed stream against an in-process
``HomographIndex`` replayed to the same lake state.

* ``serve_read``: ``serve --snapshot`` of the TUS-like lake, warmed
  with the read configurations; the stream issues cache-hit reads only
  (LCC pages walked by cursor, top-100 detects, full-score-map
  exports).
* ``serve_mixed``: ``serve`` of the SB lake from CSV, read
  configurations warmed before timing; the stream mixes the same
  reads with fresh sampled-betweenness detects (each with its own
  seed) and table add/remove pairs.
"""

from __future__ import annotations

import gc
import gzip
import http.client
import json
import re
import select
import shutil
import signal
import subprocess
import sys
import time
import urllib.parse
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from orderstats import median, tail  # noqa: E402
from spans import Tracer  # noqa: E402

#: Server spawns per run before and after the timed stream; ``setup_s``
#: is the median of all of them, and the last one before the stream
#: serves it.  A spawn is ~1 s of CPU, so it lands wholly in one of
#: the host's speed states; 15 spawns on both sides of the stream
#: sample more of them than one block would.
SPAWNS_BEFORE, SPAWNS_AFTER = 8, 7
BANNER_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0
#: Ranking page size.
PAGE = 100
READS = ("page", "top100", "export")
KINDS = READS + ("miss", "mutate")


class Server:
    """One ``domainnet serve`` process, started on an ephemeral port."""

    def __init__(self, args: List[str], log: Path) -> None:
        self.started = time.perf_counter()
        with open(log, "ab") as stderr:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", *args,
                 "--port", "0"],
                stdout=subprocess.PIPE, stderr=stderr,
                env=inputs.program_env(), cwd=inputs.ROOT,
            )
        ready, _, _ = select.select(
            [self.process.stdout], [], [], BANNER_TIMEOUT)
        banner = self.process.stdout.readline().decode() if ready else ""
        match = re.search(r"http://[^:/\s]+:(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"serve printed no banner: {banner!r}; "
                               f"see {log}")
        self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        """The process's peak resident set (VmHWM), in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kib / 1024

    def stop(self) -> None:
        """Interrupt (the server drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Connection:
    """One keep-alive HTTP/1.1 connection with per-phase timestamps.

    A request that dies on a reused connection is retried once on a
    fresh one (the keep-alive race), and a 503 is retried once at
    once; both are counted.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.connection: Optional[http.client.HTTPConnection] = None
        self.reconnects = 0
        self.retried = 0

    def exchange(self, method: str, target: str,
                 body: Optional[bytes] = None) -> Dict[str, object]:
        headers = {"Accept": "application/json",
                   "Accept-Encoding": "gzip"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        for attempt in range(2):
            fresh = self.connection is None
            if fresh:
                self.connection = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=120)
            sent = time.perf_counter()
            try:
                self.connection.request(method, target, body, headers)
                response = self.connection.getresponse()
                got_headers = time.perf_counter()
                raw = response.read()
                got_body = time.perf_counter()
            except (http.client.HTTPException, OSError):
                self.close()
                if fresh or attempt:
                    raise
                self.reconnects += 1
                continue
            if response.will_close:
                self.close()
            if response.status == 503 and not attempt:
                self.retried += 1
                continue
            return {"status": response.status, "raw": raw,
                    "gzip": response.getheader("Content-Encoding") == "gzip",
                    "sent": sent, "headers": got_headers, "body": got_body}
        raise RuntimeError("unreachable")

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None


def _target(lake: str, op: Dict[str, object], cursor: Optional[str]):
    """``(method, target, body)`` of one stream op."""
    base = f"/lakes/{lake}"
    kind = op["op"]
    if kind == "page":
        query = {"limit": PAGE}
        if cursor is not None:
            query["cursor"] = cursor
        return ("GET", f"{base}/ranking/{op['measure']}?"
                + urllib.parse.urlencode(query), None)
    if kind in ("top100", "export", "miss"):
        top = "" if kind == "export" else "?top=100"
        return ("POST", f"{base}/detect{top}",
                json.dumps(op["request"]).encode())
    if kind == "add":
        return ("POST", f"{base}/tables", json.dumps(
            {"name": op["table"], "columns": op["columns"]}).encode())
    return ("DELETE", f"{base}/tables/"
            + urllib.parse.quote(op["table"], safe=""), None)


def _plain(answer: Dict[str, object]) -> bytes:
    """An answer's body, gunzipped when it came compressed."""
    return gzip.decompress(answer["raw"]) if answer["gzip"] else answer["raw"]


def _decode(record: Dict[str, object]):
    """Client decode: gunzip, ``json.loads`` and ``from_dict``."""
    from repro.api import DetectResponse

    raw = _plain(record)
    record["plain_bytes"] = len(raw)
    payload = json.loads(raw)
    if record["kind"] in ("top100", "export", "miss"):
        DetectResponse.from_dict(payload)
    return payload


def _run_op(conn: Connection, lake: str, op: Dict[str, object],
            cursor: Optional[str], timed: bool) -> Dict[str, object]:
    """Execute one op; the record keeps its raw answer for the checks."""
    kind = "mutate" if op["op"] in ("add", "remove") else op["op"]
    method, target, body = _target(lake, op, cursor)
    record = {"op": op, "kind": kind, "cursor": cursor, "timed": timed}
    try:
        record.update(conn.exchange(method, target, body))
        payload = _decode(record)
    except (OSError, http.client.HTTPException, ValueError) as error:
        record.update(error=repr(error), ok=False)
        return record
    record["done"] = time.perf_counter()
    record["ok"] = record["status"] < 400
    record["cached"] = payload.get("cached")
    record["next_cursor"] = payload.get("next_cursor")
    record["mutation"] = payload.get("mutation")
    return record


def _stream(conn: Connection, lake: str, ops, seconds: float,
            walk_limit: Optional[int]) -> List[Dict[str, object]]:
    """Run ops back to back until ``seconds`` pass, then finish any pair.

    A page op continues the cursor walk; the walk restarts at the top
    at the end of the ranking or after ``walk_limit`` pages.
    """
    records: List[Dict[str, object]] = []
    cursor, walked, pending = None, 0, None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = next(ops)
        record = _run_op(conn, lake, op, cursor, timed=True)
        records.append(record)
        if op["op"] == "page":
            walked += 1
            cursor = record.get("next_cursor")
            if cursor is None or walked == walk_limit:
                cursor, walked = None, 0
        elif op["op"] == "add":
            pending = op["table"]
        elif op["op"] == "remove":
            pending = None
    if pending is not None:
        # Put the lake back in its base state for the precision export.
        records.append(_run_op(conn, lake, {"op": "remove",
                                            "table": pending},
                               None, timed=False))
    return records


def _get_json(conn: Connection, target: str) -> Dict[str, object]:
    return json.loads(_plain(conn.exchange("GET", target)))


class Replay:
    """An in-process index replayed to the server's lake state.

    ``check`` compares one served answer with the replay's answer at
    the same point (same values, same order, same scores) and applies
    mutations; it also times the api calls for the per-layer numbers.
    """

    def __init__(self, index, read_configs, trace: bool) -> None:
        from repro.api import DetectRequest

        self.index = index
        self.trace = trace
        self.configs = [DetectRequest.from_dict(c) for c in read_configs]
        # Pairs never overlap, so every add starts from the base lake.
        self.base = None
        self.times: Dict[str, List[float]] = {}

    def _time(self, name: str, start: float) -> None:
        self.times.setdefault(name, []).append(
            (time.perf_counter() - start) * 1e3)

    def _rankings(self):
        return [[(e.value, e.score) for e in self.index.detect(c).ranking]
                for c in self.configs]

    def check(self, record: Dict[str, object]) -> Optional[str]:
        """``None`` if the served answer is right, else what is wrong."""
        from repro.api import DetectRequest
        from repro.datalake.table import Table

        op, kind = record["op"], record["kind"]
        if not record.get("ok"):
            return f"{op['op']}: {record.get('error') or record['status']}"
        served = json.loads(_plain(record))
        if op["op"] == "add":
            if self.base is None:
                self.base = self._rankings()
            start = time.perf_counter()
            self.index.add_table(
                Table.from_columns(op["table"], op["columns"]))
            self._time("api.mutate_ms", start)
            expected = {"table": op["table"], "tables": len(self.index.lake)}
            got = {k: served.get(k) for k in expected}
            return None if got == expected else f"add: {got} != {expected}"
        if op["op"] == "remove":
            start = time.perf_counter()
            self.index.remove_table(op["table"])
            self._time("api.mutate_ms", start)
            if served.get("tables") != len(self.index.lake):
                return f"remove: {served.get('tables')} tables"
            if self._rankings() != self.base:
                return "add/remove pair did not restore the rankings"
            return None
        if kind == "page":
            request = DetectRequest(measure=op["measure"])
        else:
            request = DetectRequest.from_dict(op["request"])
        start = time.perf_counter()
        response = self.index.detect(request)
        self._time(("api.hit_ms." if response.cached else "api.miss_ms.")
                   + kind, start)
        if kind == "miss" and self.trace:
            from repro.core.betweenness import betweenness_scores

            start = time.perf_counter()
            betweenness_scores(self.index.graph,
                               sample_size=request.sample_size,
                               seed=request.seed)
            self._time("core.bc_sampled_ms", start)
        start = time.perf_counter()
        if kind == "page":
            expected = response.ranking.page(
                record["cursor"], PAGE).to_dict()
        else:
            expected = response.to_dict(
                top=None if kind == "export" else 100)
        self._time("api.to_dict_ms." + kind, start)
        keys = ("entries", "next_cursor", "total") if kind == "page" \
            else ("measure", "ranking")
        if any(served.get(k) != expected[k] for k in keys):
            return f"{kind}: served answer differs from the replay"
        return None


def _precision(record: Dict[str, object], truth: List[str], k: int) -> float:
    ranking = json.loads(_plain(record))["ranking"]
    top = {entry["value"] for entry in ranking[:k]}
    return len(top & set(truth)) / k


def run(workload: str, seed: int, seconds: float,
        trace: bool) -> Dict[str, object]:
    """Run one serve workload; returns its metrics and report lines."""
    inputs.require_program()
    from repro.api import DetectRequest, HomographIndex
    from repro.datalake.csv_io import load_lake

    work = inputs.WORK / f"run-{workload}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    log = work / "serve.log"
    servers: List[Server] = []
    snapshot_times = None
    try:
        if workload == "serve_read":
            csv_dir, truth = inputs.lake("tus")
            lake_name, k = "tus", len(truth)
            snapshot = work / "tus"
            with HomographIndex(load_lake(csv_dir)) as index:
                for config in (inputs.LCC, inputs.BC):
                    index.detect(DetectRequest.from_dict(config))
                index.save(snapshot)
            del index
            if trace:
                snapshot_times = _snapshot_times(snapshot)
            args, columns = ["--snapshot", str(snapshot)], ()
        else:
            csv_dir, truth = inputs.lake("sb")
            lake_name, k = "sb", inputs.SB_TOP
            args = [str(csv_dir)]
            columns = inputs.lake_columns(load_lake(csv_dir))
        configs = [inputs.LCC, inputs.BC]

        def spawn():
            """Start a server and make it ready; returns its connection."""
            server = Server(args, log)
            servers.append(server)
            conn = Connection(server.port)
            health = conn.exchange("GET", "/healthz")
            boots.append(health["headers"] - server.started)
            if health["status"] != 200:
                raise RuntimeError(f"/healthz answered {health['status']}")
            if workload == "serve_mixed":
                for config in configs:
                    warm = conn.exchange(
                        "POST", f"/lakes/{lake_name}/detect?top=1",
                        json.dumps(config).encode())
                    if warm["status"] != 200:
                        raise RuntimeError(f"warm-up answered "
                                           f"{warm['status']}")
            setups.append(time.perf_counter() - server.started)
            return conn

        setups, boots = [], []
        for _ in range(SPAWNS_BEFORE - 1):
            spawn().close()
            servers.pop().stop()
        conn = spawn()

        # One untimed op of each read kind, so lazy set-up in the
        # server finishes before timing.
        for op in ({"op": "page", "measure": "lcc"},
                   {"op": "top100", "request": inputs.BC},
                   {"op": "top100", "request": inputs.LCC},
                   {"op": "export", "request": inputs.BC}):
            if not _run_op(conn, lake_name, op, None, False).get("ok"):
                raise RuntimeError(f"warm-up {op['op']} failed")
        stats_before = _get_json(conn, "/stats")["lakes"][lake_name]
        # Client decode allocates; keep the collector from walking the
        # benchmark's own heap (lakes, op streams) while it does.
        gc.collect()
        gc.freeze()
        records = _stream(conn, lake_name,
                          inputs.op_stream(workload, seed, columns),
                          seconds, inputs.PAGE_WALK[workload])
        final = _run_op(conn, lake_name,
                        {"op": "export", "request": inputs.BC},
                        None, timed=False)
        records.append(final)
        gc.unfreeze()
        stats = _get_json(conn, "/stats")
        peak = servers[-1].peak_rss_mb()
        reconnects, retried = conn.reconnects, conn.retried
        conn.close()
        servers.pop().stop()
        for _ in range(SPAWNS_AFTER):
            spawn().close()
            servers.pop().stop()

        if workload == "serve_read":
            index = HomographIndex.load(snapshot)
        else:
            index = HomographIndex(load_lake(csv_dir))
            for config in configs:
                index.detect(DetectRequest.from_dict(config))
        with index:
            replay = Replay(index, configs, trace)
            failures = []
            for record in records:
                problem = replay.check(record)
                record["ok"] = problem is None
                if problem is not None:
                    failures.append(problem)
        measured = {
            "setups": setups, "boots": boots, "peak": peak,
            "precision": _precision(final, truth, k) if final["ok"] else 0.0,
            "stats_before": stats_before,
            "stats_after": stats["lakes"][lake_name], "http": stats["http"],
            "reconnects": reconnects, "retried": retried,
            "api_times": replay.times, "snapshot_times": snapshot_times,
        }
        return _metrics(workload, records, failures, measured, trace)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)


def _snapshot_times(path: Path) -> Dict[str, float]:
    """Median ``HomographIndex.load`` time, and what verification adds."""
    from repro.api import HomographIndex

    loads = {True: [], False: []}
    for _ in range(3):
        for verify in (True, False):
            start = time.perf_counter()
            HomographIndex.load(path, verify=verify).close()
            loads[verify].append(time.perf_counter() - start)
    return {"load": median(loads[True]),
            "verify": median(loads[True]) - median(loads[False])}


def _p50(samples) -> float:
    """Median, or 0 for a kind the run did not exercise."""
    return median(samples) if samples else 0.0


def _label(record: Dict[str, object]) -> str:
    """The record's op kind; a read answered by recomputation is its own."""
    kind = record["kind"]
    return "recomputed" if kind in READS and not record["cached"] else kind


def _metrics(workload: str, records: List[Dict[str, object]],
             failures: List[str], run: Dict[str, object],
             trace: bool) -> Dict[str, object]:
    """End-to-end metrics (or per-layer ones when traced) and report lines."""
    timed = [r for r in records if r["timed"] and r["ok"]]
    latency: Dict[str, List[float]] = {}
    for r in timed:
        latency.setdefault(_label(r), []).append((r["done"] - r["sent"]) * 1e3)
    reads = latency.get("page", []) + latency.get("top100", [])
    # serve_read times its two read paths apart (gzip'd pages, detect
    # JSON); exports stay out of its bounded metrics because each one
    # is ~150 ms of pure CPU, which the host's speed flips move by 25%.
    primary, secondary = (
        (latency["page"], latency["top100"]) if workload == "serve_read"
        else (reads, latency["mutate"]))
    span = max(r["done"] for r in timed) - min(r["sent"] for r in timed)
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    e2e = {
        "setup_s": (median(run["setups"]), len(run["setups"])),
        "peak_rss_mb": (run["peak"], 1),
        "primary_p50_ms": (median(primary), len(primary)),
        "secondary_p50_ms": (median(secondary), len(secondary)),
        "ops_per_s": (len(timed) / span, len(timed)),
        "precision_at_k": (run["precision"], 1),
    }
    read_tail = tail(reads)
    report = [
        f"read_p50_ms {median(reads):.4f} ms (n={len(reads)})",
        "read_tail_ms " + (f"{read_tail[0]:.4f} ms (p{read_tail[1]:.1f}, "
                           f"n={len(reads)})" if read_tail else "n/a"),
    ]
    for kind in ("export", "miss", "mutate", "recomputed"):
        if kind in latency:
            report.append(f"{kind}_p50_ms {median(latency[kind]):.4f} ms "
                          f"(n={len(latency[kind])})")
    report.append(f"error_ratio {failed / attempted:.4f} "
                  f"({failed}/{attempted})")
    for kind in KINDS:
        ops = [r for r in records if r["kind"] == kind]
        if ops:
            report.append(f"ops {kind}: attempted {len(ops)}, "
                          f"failed {sum(not r['ok'] for r in ops)}")
    report.append(f"503-retried {run['retried']}, reconnects "
                  f"{run['reconnects']}, gate rejections "
                  f"{run['http']['rejected']}")
    report += [f"check failed: {f}" for f in failures[:20]]
    out = {"e2e": e2e, "report": report, "attempted": attempted,
           "failed": failed, "layers": {}}
    if trace:
        out["layers"], out["spans"] = _layers(timed, latency, run, report)
    return out


def _layers(timed, latency, run, report):
    """Per-layer numbers: client-side phase spans plus the api replays."""
    tracer = Tracer()
    baseline: List[float] = []
    for i, r in enumerate(timed):
        if i % 2:  # every other op is traced; the rest is the baseline
            if _label(r) in ("page", "top100"):
                baseline.append((r["done"] - r["sent"]) * 1e3)
            continue
        request = f"op{i}-{_label(r)}"
        root = tracer.add("serving.op", r["sent"], r["done"],
                          request=request)
        for name, start, end in (
                ("serving.headers", r["sent"], r["headers"]),
                ("serving.body_wait", r["headers"], r["body"]),
                ("serving.decode", r["body"], r["done"])):
            tracer.add(name, start, end, parent=root, request=request)
    phases: Dict[str, List[float]] = {}
    for span in tracer.spans:
        kind = span["request"].split("-", 1)[1]
        phases.setdefault(f"{span['name']}_ms.{kind}", []).append(
            (span["end"] - span["start"]) * 1e3)
    layers = {
        name: _p50(phases.get(name))
        for name in (f"serving.{phase}_ms.{kind}" for kind in KINDS
                     for phase in ("headers", "body_wait", "decode"))
    }
    times = run["api_times"]
    for kind in READS:
        hits = [r for r in timed if _label(r) == kind]
        layers["api.hit_ms." + kind] = _p50(times.get("api.hit_ms." + kind))
        layers["api.to_dict_ms." + kind] = _p50(
            times.get("api.to_dict_ms." + kind))
        layers["serving.server_ms." + kind] = (
            layers[f"serving.headers_ms.{kind}"]
            - layers["api.hit_ms." + kind]
            - layers["api.to_dict_ms." + kind]) if hits else 0.0
        layers["serving.wire_bytes." + kind] = _p50(
            [len(r["raw"]) for r in hits])
        layers["serving.plain_bytes." + kind] = _p50(
            [r["plain_bytes"] for r in hits])
    mutations = [r["mutation"] for r in timed
                 if r["kind"] == "mutate" and r["mutation"]]
    before, after = run["stats_before"], run["stats_after"]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    snapshot = run["snapshot_times"] or {"load": 0.0, "verify": 0.0}
    read_tail = tail(latency.get("page", []) + latency.get("top100", []))
    layers.update({
        "serving.boot_s": median(run["boots"]) - snapshot["load"],
        "snapshot.load_s": snapshot["load"],
        "snapshot.verify_s": snapshot["verify"],
        "api.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.rejected": run["http"]["rejected"],
        "serving.reconnects": run["reconnects"],
        "serving.retried": run["retried"],
        "api.miss_ms": _p50(times.get("api.miss_ms.miss")),
        "core.bc_sampled_s": _p50(times.get("core.bc_sampled_ms")) / 1e3,
        "api.mutate_ms": _p50(times.get("api.mutate_ms")),
        "api.splice_ms": _p50([m["splice_seconds"] * 1e3 for m in mutations
                               if m["splice_seconds"] is not None]),
        "api.recomputed": _p50([m["recomputed_sources"] or 0
                                for m in mutations]),
        "api.patched": sum(m["patched_entries"] for m in mutations),
        "api.evicted": sum(m["evicted_entries"] for m in mutations),
        "api.fallbacks": sum(m["fallback"] is not None for m in mutations),
        "api.cache_size": after["cache"]["size"],
        "serving.recomputed_reads": len(latency.get("recomputed", [])),
        "serving.recomputed_read_ms": _p50(latency.get("recomputed")),
        "serving.read_tail_ms": read_tail[0] if read_tail else 0.0,
        "serving.miss_ms": _p50(latency.get("miss")),
        "serving.export_ms": _p50(latency.get("export")),
    })
    traced_reads = phases.get("serving.op_ms.page", []) + phases.get(
        "serving.op_ms.top100", [])
    layers["trace.overhead"] = (
        _p50(traced_reads) / _p50(baseline) if baseline else 0.0)
    for kind in KINDS:
        if f"serving.op_ms.{kind}" in phases:
            parts = sum(layers[f"serving.{phase}_ms.{kind}"]
                        for phase in ("headers", "body_wait", "decode"))
            # Like for like: the phase medians of the traced ops
            # against the median of those same ops.
            report.append(f"{kind}: headers + body_wait + decode = "
                          f"{parts:.3f} ms vs client median "
                          f"{median(phases[f'serving.op_ms.{kind}']):.3f} "
                          f"ms of the same traced ops")
    return layers, tracer.spans
